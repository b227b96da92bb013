import csv
import io
import json
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from fairshare import (
    EmptyNotZeroError,
    FileFormatError,
    Game,
    GameDocument,
    MatrixDocument,
    NegativeValueError,
    NotMonotoneError,
    RewardMatrix,
    SizeLimitExceededError,
    additive_game,
    align_matrix_labels,
    coalition_key,
    default_labels,
    format_scalar,
    members,
    parse_game,
    parse_matrix,
    parse_rho,
    serialize_game,
    check_all,
    random_monotone_game,
    serialize_matrix,
    solve,
)
from fairshare import formats
from fairshare.formats import _coalition_keys, _KeyMasks, _read_header, _read_stored
from reference import (
    _parse_coalition_key,
    column,
    dumps_game,
    dumps_matrix,
    fraction_parse_matrix,
    parse_matrix_by_shape,
)


def game_text(values: dict, players=None, mode=None) -> str:
    doc: dict = {"players": players if players is not None else 2, "values": values}
    if mode:
        doc["number_mode"] = mode
    return json.dumps(doc)


class TestGameParsing:
    def test_minimal_two_player_file(self):
        doc = parse_game(game_text({"1": 1, "2": 2, "1,2": 3}))
        assert doc.labels == ("1", "2")
        assert doc.game.values == (Fraction(0), Fraction(1), Fraction(2), Fraction(3))
        assert doc.number_mode == "rational"

    def test_empty_coalition_key_is_optional_but_must_be_zero(self):
        with_empty = parse_game(game_text({"": 0, "1": 1, "2": 2, "1,2": 3}))
        assert with_empty.game.value(0) == 0
        with pytest.raises(EmptyNotZeroError):
            parse_game(game_text({"": 1, "1": 1, "2": 2, "1,2": 3}))

    def test_decimal_strings_are_exact_in_rational_mode(self):
        doc = parse_game(game_text({"1": "0.1", "2": "0.2", "1,2": 0.3}))
        assert doc.game.values[1] == Fraction(1, 10)
        assert doc.game.values[3] == Fraction(3, 10)  # not the nearest double

    def test_rational_strings(self):
        doc = parse_game(game_text({"1": "1/3", "2": "2/3", "1,2": "4/3"}))
        assert doc.game.values[3] == Fraction(4, 3)

    def test_float_mode_coerces_everything(self):
        doc = parse_game(game_text({"1": "1/3", "2": 1, "1,2": 2}, mode="float"))
        assert doc.number_mode == "float"
        assert all(isinstance(v, float) for v in doc.game.values)
        assert doc.game.values[1] == pytest.approx(1 / 3)

    def test_custom_labels(self):
        doc = parse_game(
            game_text({"a": 1, "b": 2, "a,b": 3}, players=["a", "b"])
        )
        assert doc.labels == ("a", "b")
        assert doc.key(0b11) == "a,b"

    def test_label_order_defines_bit_order(self):
        doc = parse_game(
            game_text({"z": 1, "y": 2, "y,z": 3}, players=["z", "y"])
        )
        # player "z" is bit 0 because it is listed first
        assert doc.game.value(0b01) == 1
        assert doc.game.value(0b10) == 2

    def test_any_spelling_of_a_key_names_its_coalition(self):
        # canonical keys (sorted labels) and reversed ones, mixed in one file;
        # v(C) = C's mask is monotone, since a superset's mask is larger
        labels = ("z", "y", "x10", "x9")
        values = {}
        for m in range(16):
            parts = coalition_key(labels, m).split(",")
            values[",".join(parts[::-1] if m % 3 else parts)] = m
        doc = parse_game(game_text(values, players=list(labels)))
        assert doc.game.values == tuple(map(Fraction, range(16)))


class TestGameParseErrors:
    def test_missing_coalition(self):
        with pytest.raises(FileFormatError, match="missing coalition value '1,2'"):
            parse_game(game_text({"1": 1, "2": 2}))

    def test_duplicate_json_key(self):
        text = '{"players": 2, "values": {"1": 1, "1": 1, "2": 2, "1,2": 3}}'
        with pytest.raises(FileFormatError, match="duplicate key '1'"):
            parse_game(text)

    def test_duplicate_coalition_under_different_spellings(self):
        text = '{"players": 2, "values": {"1": 1, "2": 2, "1,2": 3, "2,1": 3}}'
        with pytest.raises(FileFormatError, match="duplicate coalition '1,2'"):
            parse_game(text)

    @pytest.mark.parametrize(
        "raw",
        ["1e5000", '"1e5000"', "0.208e333334", '"1E-5000"', '"12.5e4299"'],
        ids=["number", "string", "long-mantissa", "negative-exponent", "just-past"],
    )
    def test_exponent_past_the_digit_limit_is_a_bad_number(self, raw):
        # rejected before the integer is built: it could never be written out
        with pytest.raises(FileFormatError, match="bad number for coalition '1'"):
            parse_game(f'{{"players": 1, "values": {{"1": {raw}}}}}')

    def test_integer_literal_past_the_digit_limit_is_a_bad_number(self):
        text = '{"players": 1, "values": {"1": %s}}' % ("7" * 5000)
        with pytest.raises(FileFormatError, match="bad number: Exceeds the limit"):
            parse_game(text)

    @pytest.mark.parametrize("raw", ["1e300", '"1e300"', '"1e4000"'])
    def test_large_exponents_within_the_limit_stay_exact(self, raw):
        doc = parse_game(f'{{"players": 1, "values": {{"1": {raw}}}}}')
        value = 10**4000 if "4000" in raw else 10**300
        assert doc.game.values[1] == value
        assert parse_game(serialize_game(doc)).game == doc.game

    def test_float_underflow_keeps_its_sign_and_exact_zero_has_none(self):
        text = '{"players": 2, "number_mode": "float", "values": {"1": %s, "2": 0, "1,2": 1}}'
        assert math.copysign(1, parse_game(text % "-0.0e5").game.values[1]) == 1
        assert math.copysign(1, parse_game(text % "-1e-400").game.values[1]) == -1

    def test_unknown_label_in_key(self):
        with pytest.raises(FileFormatError, match="unknown player label 'q'"):
            parse_game(game_text({"1": 1, "2": 2, "1,q": 3}))

    def test_repeated_label_in_key(self):
        with pytest.raises(FileFormatError, match="repeated in coalition key"):
            parse_game(game_text({"1": 1, "2": 2, "1,1": 3}))

    def test_bad_number(self):
        with pytest.raises(FileFormatError, match="bad number"):
            parse_game(game_text({"1": "one", "2": 2, "1,2": 3}))
        with pytest.raises(FileFormatError, match="bad number"):
            parse_game(game_text({"1": True, "2": 2, "1,2": 3}))
        with pytest.raises(FileFormatError, match="bad number"):
            parse_game(game_text({"1": "1/0", "2": 2, "1,2": 3}))

    def test_unknown_field(self):
        text = '{"players": 2, "values": {"1": 1, "2": 2, "1,2": 3}, "extra": 1}'
        with pytest.raises(FileFormatError, match="unknown field"):
            parse_game(text)

    def test_bad_players_field(self):
        for players in (0, -3, True, ["a", "a"], ["a,b"], [" a"], [""], [1], [1.5]):
            with pytest.raises(FileFormatError):
                parse_game(game_text({"1": 1}, players=players))

    def test_bad_number_mode(self):
        with pytest.raises(FileFormatError, match="number_mode"):
            parse_game(game_text({"1": 1, "2": 2, "1,2": 3}, mode="decimal"))

    def test_not_json(self):
        with pytest.raises(FileFormatError, match="not valid JSON"):
            parse_game("players: 2")
        with pytest.raises(FileFormatError, match="JSON object"):
            parse_game("[1, 2]")

    def test_nonmonotone_message_uses_labels(self):
        text = game_text(
            {"a": 5, "b": 0, "a,b": 3}, players=["a", "b"]
        )
        with pytest.raises(NotMonotoneError, match=r"\{a\} is worth more than its superset \{a,b\}"):
            parse_game(text)


class TestGameSerialization:
    def test_round_trip_is_byte_stable(self, example1):
        doc = GameDocument(example1, default_labels(4), "rational")
        text = serialize_game(doc)
        assert serialize_game(parse_game(text)) == text

    def test_keys_ordered_by_size_then_lexicographically(self, example1):
        doc = GameDocument(example1, default_labels(4), "rational")
        keys = list(json.loads(serialize_game(doc))["values"])
        assert keys[:5] == ["1", "2", "3", "4", "1,2"]
        assert keys[-1] == "1,2,3,4"

    def test_empty_coalition_omitted_and_players_collapsed(self, example1):
        doc = GameDocument(example1, default_labels(4), "rational")
        data = json.loads(serialize_game(doc))
        assert data["players"] == 4
        assert "" not in data["values"]

    def test_custom_labels_round_trip(self):
        text = game_text({"b": 1, "a": 2, "a,b": 3}, players=["b", "a"])
        canonical = serialize_game(parse_game(text))
        assert json.loads(canonical)["players"] == ["b", "a"]
        assert serialize_game(parse_game(canonical)) == canonical

    def test_float_mode_round_trip(self):
        text = game_text({"1": 0.25, "2": 1.5, "1,2": 2.75}, mode="float")
        canonical = serialize_game(parse_game(text))
        assert '"number_mode": "float"' in canonical
        assert serialize_game(parse_game(canonical)) == canonical


@pytest.fixture(scope="module")
def solved_doc(example1):
    matrix, efficient = solve(example1)
    return MatrixDocument(matrix, default_labels(4), "rational", efficient)


class TestMatrixShapes:
    @pytest.mark.parametrize("form", ["table", "long", "json"])
    def test_round_trip(self, solved_doc, form):
        parsed = parse_matrix(serialize_matrix(solved_doc, form))
        assert parsed.matrix == solved_doc.matrix
        assert parsed.labels == solved_doc.labels

    def test_json_is_byte_stable(self, solved_doc):
        text = serialize_matrix(solved_doc, "json")
        assert serialize_matrix(parse_matrix(text), "json") == text

    def test_json_carries_efficient_player(self, solved_doc):
        parsed = parse_matrix(serialize_matrix(solved_doc, "json"))
        assert parsed.efficient_player == solved_doc.efficient_player

    def test_csv_shapes_do_not_carry_efficient_player(self, solved_doc):
        for form in ("table", "long"):
            assert parse_matrix(serialize_matrix(solved_doc, form)).efficient_player is None

    def test_rationals_survive_csv_exactly(self, counterexample3):
        from fairshare import scaled_rho_shapley

        matrix = scaled_rho_shapley(counterexample3, 1).matrix
        doc = MatrixDocument(matrix, default_labels(3), "rational", None)
        parsed = parse_matrix(serialize_matrix(doc, "table"))
        assert parsed.matrix.reward(1, 0b110) == Fraction(10, 3)
        assert parsed.matrix == matrix

    @pytest.mark.parametrize("k", range(-6, 13))
    def test_float_matrix_round_trips_through_each_shape(self, k):
        # increments of 10**k/3 are non-dyadic, so every entry needs all
        # 17 significant digits to read back as the same float
        game = random_monotone_game(7, k + 6, 10.0**k / 3)
        matrix = solve(game).matrix
        verdicts = [r.verdict for r in check_all(game, matrix)]
        doc = MatrixDocument(matrix, default_labels(7), "float", None)
        for form in ("table", "long", "json"):
            parsed = parse_matrix(serialize_matrix(doc, form)).matrix
            assert parsed == matrix, form
            assert [r.verdict for r in check_all(game, parsed)] == verdicts, form

    def test_table_csv_layout(self, solved_doc):
        lines = serialize_matrix(solved_doc, "table").splitlines()
        # empty coalition first, then singletons, then quoted multi-member keys
        assert lines[0].startswith('player,,1,2,3,4,"1,2"')
        assert len(lines) == 1 + 4

    def test_long_csv_layout(self, solved_doc):
        lines = serialize_matrix(solved_doc, "long").splitlines()
        assert lines[0] == "player,coalition,reward"
        assert len(lines) == 1 + 4 * 16

    def test_empty_coalition_column_round_trips(self, solved_doc):
        # the "" key is the empty coalition; every player holds their solo value
        text = serialize_matrix(solved_doc, "table")
        parsed = parse_matrix(text)
        assert column(parsed.matrix, 0) == column(solved_doc.matrix, 0)


_TABLE_JSON = (
    '{"players": 2, "number_mode": "rational", '
    '"rewards": {"": {"1": 1, "2": 1}, "1": {"1": 1, "2": 1}, "2": {"1": 1, "2": 1}, '
    '"1,2": {"1": 2, "2": 1}}, '
    '"efficient_player": {"1": "1", "2": "2", "1,2": "1"}}'
)


class TestJsonDecoding:
    """JSON files decode without a Python call per object when the colons
    prove that no key repeats; any other text takes the hooked decode,
    with the same document and the same errors."""

    @pytest.mark.parametrize(
        "old, new",
        [
            ('"players": 2,', '"players": 2, "players": 2,'),
            ('"1": {"1": 1, "2": 1}', '"1": {"1": 1, "2": 1}, "1": {"1": 1, "2": 1}'),
            ('"1,2": {"1": 2, "2": 1}', '"1,2": {"1": 2, "1": 2, "2": 1}'),
            ('"efficient_player": {"1": "1",', '"efficient_player": {"1": "1", "1": "1",'),
        ],
        ids=["top-level field", "coalition", "player in a coalition", "efficient_player"],
    )
    def test_repeated_key_in_a_table(self, old, new):
        assert parse_matrix(_TABLE_JSON).efficient_player == {1: 0, 2: 1, 3: 0}
        key = "players" if old.startswith('"players"') else "1"
        with pytest.raises(FileFormatError, match=f"^duplicate key '{key}'$"):
            parse_matrix(_TABLE_JSON.replace(old, new, 1))

    def test_repeated_efficient_player_field(self):
        text = _TABLE_JSON[:-1] + ', "efficient_player": {}}'
        with pytest.raises(FileFormatError, match="^duplicate key 'efficient_player'$"):
            parse_matrix(text)

    def test_labels_holding_colons_read_through_the_hooked_decode(self):
        labels = ("a:b", "c", '"d": {')
        game = random_monotone_game(3, 1)
        matrix, efficient = solve(game)
        gdoc = GameDocument(game, labels, "rational")
        mdoc = MatrixDocument(matrix, labels, "rational", efficient)
        for text, parse, doc in (
            (serialize_game(gdoc), parse_game, gdoc),
            (serialize_matrix(mdoc, "json"), parse_matrix, mdoc),
        ):
            assert text.count(":") > formats._members(json.loads(text))
            assert parse(text) == doc

    def test_written_files_decode_as_the_hooked_decode_does(self, example1):
        game = random_monotone_game(5, 2, 10.0 / 3)
        matrix, efficient = solve(game)
        labels = default_labels(5)
        for text in (
            serialize_game(GameDocument(game, labels, "float")),
            serialize_matrix(MatrixDocument(matrix, labels, "float", efficient), "json"),
            serialize_game(GameDocument(example1, default_labels(3), "rational")),
            '{"players": 1, "rewards": {"": {}, "1": {"1": 1}}, "efficient_player": {}}',
        ):
            hooked = json.loads(text, parse_float=formats._JsonDecimal, object_pairs_hook=dict)
            assert text.count(":") == formats._members(hooked)
            assert formats._json_loads(text) == hooked

    @pytest.mark.parametrize("parse, field", [(parse_game, "values"), (parse_matrix, "rewards")])
    def test_deep_nesting_is_a_file_format_error(self, parse, field):
        deep = "[" * 100_000 + "]" * 100_000
        with pytest.raises(FileFormatError, match="^not valid JSON: nested too deeply$"):
            parse(f'{{"players": 2, "{field}": {deep}}}')


class TestMatrixParseErrors:
    def test_missing_cell_in_long_csv(self):
        text = "player,coalition,reward\na,,1\na,b,2\nb,,3\n"
        with pytest.raises(FileFormatError, match="missing reward"):
            parse_matrix(text)

    def test_duplicate_cell_in_long_csv(self):
        text = "player,coalition,reward\na,,1\na,,2\n"
        with pytest.raises(FileFormatError, match="duplicate reward"):
            parse_matrix(text)

    def test_bad_number_in_csv(self):
        text = "player,,a\na,1,nope\n"
        with pytest.raises(FileFormatError, match="bad number"):
            parse_matrix(text)

    def test_csv_the_csv_module_rejects(self):
        text = "player,coalition,reward\na,," + "1" * 200_000 + "\n"
        with pytest.raises(FileFormatError, match="^bad CSV: field larger than field limit"):
            parse_matrix(text)

    def test_wide_csv_needs_player_header(self):
        with pytest.raises(FileFormatError, match='"player" header'):
            parse_matrix("who,,a\na,1,2\n")

    def test_wrong_row_width(self):
        text = "player,,a\na,1\n"
        with pytest.raises(FileFormatError, match="wrong width"):
            parse_matrix(text)

    def test_empty_file(self):
        with pytest.raises(FileFormatError, match="empty reward table"):
            parse_matrix("\n\n")

    def test_json_unknown_field(self):
        with pytest.raises(FileFormatError, match="unknown field"):
            parse_matrix('{"players": 1, "rewards": {}, "extra": 0}')

    def test_json_efficient_player_spelled_twice(self):
        rewards = '{"": {"1": 1, "2": 1}, "1": {"1": 1, "2": 1}, "2": {"1": 1, "2": 1}}'
        efficient = '{"1,2": "1", "2,1": "2"}'
        text = f'{{"players": 2, "rewards": {rewards}, "efficient_player": {efficient}}}'
        with pytest.raises(FileFormatError, match="duplicate efficient player for coalition '1,2'"):
            parse_matrix(text)

    def test_json_efficient_player_must_be_a_label_string(self):
        text = (
            '{"players": ["1.5"], "rewards": {"": {"1.5": 1}, "1.5": {"1.5": 1}}, '
            '"efficient_player": {"1.5": 1.5}}'
        )
        with pytest.raises(FileFormatError, match="unknown player label 1.5"):
            parse_matrix(text)
        assert parse_matrix(text.replace(": 1.5}}", ': "1.5"}}')).efficient_player == {1: 0}

    def test_json_unknown_player_in_rewards(self):
        text = '{"players": 1, "rewards": {"": {"1": 0, "2": 1}, "1": {"1": 1}}}'
        with pytest.raises(FileFormatError, match="unknown player label '2'"):
            parse_matrix(text)

    @pytest.mark.parametrize("text", ["player,,1\n", "player,coalition,reward\n\n"])
    def test_csv_without_player_rows(self, text):
        with pytest.raises(FileFormatError, match="reward table has no player rows"):
            parse_matrix(text)

    @pytest.mark.parametrize(
        "efficient,message",
        [
            ('{"2": "1", "": "2"}', "efficient player '1' is not in coalition '2'"),
            ('{"": "2"}', "efficient player '2' is not in coalition ''"),
        ],
    )
    def test_json_efficient_player_must_be_a_member(self, efficient, message):
        rewards = '{"": {"1": 1, "2": 1}, "1": {"1": 1, "2": 1}, "2": {"1": 1, "2": 1}}'
        text = f'{{"players": 2, "rewards": {rewards}, "efficient_player": {efficient}}}'
        with pytest.raises(FileFormatError, match=message):
            parse_matrix(text)


# A two-player table on labels "a" and "b", as (label, coalition key, token)
# cells, and the same table in floats.
BASE_CELLS = [(lab, key, f"{i + 1}") for i, lab in enumerate("ab") for key in ("", "a", "b", "a,b")]
FLOAT_CELLS = [(lab, key, f"{tok}.5") for lab, key, tok in BASE_CELLS]


def _cells_text(shape: str, cells, mode: str = "rational") -> str:
    """``cells`` in one table shape; the wide shape needs every label in
    every column it names."""
    if shape == "json":
        rewards: dict = {}
        for lab, key, tok in cells:
            rewards.setdefault(key, {})[lab] = tok
        return json.dumps({"players": ["a", "b"], "number_mode": mode, "rewards": rewards})
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if shape == "long":
        writer.writerow(["player", "coalition", "reward"])
        writer.writerows(cells)
        return buf.getvalue()
    keys = list(dict.fromkeys(key for _, key, _ in cells))
    token = {(lab, key): tok for lab, key, tok in cells}
    writer.writerow(["player", *keys])
    for lab in dict.fromkeys(lab for lab, _, _ in cells):
        writer.writerow([lab, *(token[lab, key] for key in keys)])
    return buf.getvalue()


def _with(cells, key: str, token: str, label: str = "a"):
    return [(lab, k, token if (lab, k) == (label, key) else tok) for lab, k, tok in cells]


HUGE_TOKEN = "1" + "0" * 400

# fault -> (cells, number mode, shapes, faulty (label, key), start of message)
CELL_FAULTS = {
    "unknown-player-in-key": (
        BASE_CELLS + [(lab, "a,c", "1") for lab in "ab"], "rational", ("json", "table", "long"),
        ("c", "a,c"), "unknown player label",
    ),
    "unknown-player": (
        BASE_CELLS + [("c", "a,b", "1")], "rational", ("json",), ("c", "a,b"),
        "unknown player label",
    ),
    "duplicate": (
        BASE_CELLS + [(lab, "b,a", "1") for lab in "ab"], "rational", ("json", "table", "long"),
        ("a", "a,b"), "duplicate reward",
    ),
    "bad-number": (
        _with(BASE_CELLS, "a,b", "x"), "rational", ("json", "table", "long"), ("a", "a,b"),
        "bad number",
    ),
    "empty-number": (
        _with(BASE_CELLS, "a,b", " "), "rational", ("json", "table", "long"), ("a", "a,b"),
        "empty number",
    ),
    "missing": (
        [c for c in BASE_CELLS if c[1] != "a,b"], "rational", ("json", "table", "long"),
        ("a", "a,b"), "missing reward",
    ),
    "exponent-past-the-digit-limit": (
        _with(BASE_CELLS, "a,b", "1e5000"), "rational", ("json", "table", "long"),
        ("a", "a,b"), "bad number",
    ),
    "too-large-for-a-float": (
        _with(FLOAT_CELLS, "a,b", HUGE_TOKEN), "float", ("json", "table", "long"),
        ("a", "a,b"), "bad number",
    ),
}
FAULT_CASES = [
    (fault, shape) for fault, (_, _, shapes, _, _) in CELL_FAULTS.items() for shape in shapes
]


class TestOneErrorForm:
    """Every shape names a bad cell the same way: by player label and
    coalition key, never by mask."""

    @pytest.mark.parametrize("fault,shape", FAULT_CASES)
    def test_cell_fault_names_label_and_key(self, fault, shape):
        cells, mode, _, (label, key), what = CELL_FAULTS[fault]
        with pytest.raises(FileFormatError) as info:
            parse_matrix(_cells_text(shape, cells, mode))
        message = str(info.value)
        assert message.startswith(what), message
        assert repr(label) in message and repr(key) in message, message
        assert "mask" not in message
        if not fault.startswith("unknown"):
            assert f"{what} for player {label!r}, coalition {key!r}" in message

    @pytest.mark.parametrize(
        "field,value",
        [
            ("extra", 1),
            ("players", 0),
            ("players", True),
            ("players", "ab"),
            ("players", ["a", "a"]),
            ("number_mode", "decimal"),
            ("BODY", [1, 2]),
        ],
    )
    def test_game_and_table_share_header_faults(self, field, value):
        messages = []
        for parse, body in ((parse_game, "values"), (parse_matrix, "rewards")):
            doc = {"players": 2, body: {"1": 1, "2": 1, "1,2": 2}}
            doc[body if field == "BODY" else field] = value
            with pytest.raises(FileFormatError) as info:
                parse(json.dumps(doc))
            messages.append(str(info.value).replace(body, "BODY"))
        assert messages[0] == messages[1]


def _oversized_file(route: str, count: int) -> tuple:
    """A file on ``route`` declaring ``count`` players, with its parser."""
    labels = [f"p{i}" for i in range(count)]
    if route == "game-count":
        return parse_game, json.dumps({"players": count, "values": {}})
    if route == "game-labels":
        return parse_game, json.dumps({"players": labels, "values": {}})
    if route == "json-count":
        return parse_matrix, json.dumps({"players": count, "rewards": {}})
    if route == "json-labels":
        return parse_matrix, json.dumps({"players": labels, "rewards": {}})
    if route == "table":
        return parse_matrix, "player,p0\n" + "".join(f"{lab},0\n" for lab in labels)
    return parse_matrix, "player,coalition,reward\n" + "".join(
        f"{lab},{lab},0\n" for lab in labels
    )


class TestPlayerCountLimit:
    # a count past MAX_PLAYERS must fail before any table is sized by it:
    # 21 used to allocate 2**21 cells and then report a missing value, 1000
    # raised a raw OverflowError
    @pytest.mark.parametrize("count", [21, 1000])
    @pytest.mark.parametrize(
        "route", ["game-count", "game-labels", "json-count", "json-labels", "table", "long"]
    )
    def test_too_many_players_is_a_size_limit(self, route, count):
        parse, text = _oversized_file(route, count)
        with pytest.raises(SizeLimitExceededError, match=f"{count} players exceed MAX_PLAYERS = 20"):
            parse(text)

    def test_twenty_players_still_parse_as_far_as_their_values(self):
        with pytest.raises(FileFormatError, match="missing coalition value"):
            parse_game(json.dumps({"players": 20, "values": {}}))


# Tokens the number parsers must read exactly as Fraction(token.strip())
# does, or reject as it does: signs, padding, a signed denominator, digit
# separators, non-ASCII digits, a zero denominator, and unreduced forms.
NUMBER_TOKENS = [
    "3/4", "-3/4", "+3/4", " 3/4 ", "3/-4", "1_0/3", "\u0663/4", "3/0", "-0/5", "2/4", "7"
]


def _with_token(doc: MatrixDocument, form: str, token: str) -> str:
    """The table in ``form`` with player 1's reward in {1,2} written as token."""
    text = serialize_matrix(doc, form)
    if form == "json":
        obj = json.loads(text)
        obj["rewards"]["1,2"]["1"] = token
        return json.dumps(obj)
    rows = list(csv.reader(io.StringIO(text)))
    if form == "table":
        rows[1][rows[0].index("1,2")] = token
    else:
        next(r for r in rows if r[:2] == ["1", "1,2"])[2] = token
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


class TestNumberTokens:
    @pytest.mark.parametrize("form", ["json", "table", "long"])
    @pytest.mark.parametrize("token", NUMBER_TOKENS)
    def test_token_reads_as_fraction_reads_it(self, solved_doc, form, token):
        text = _with_token(solved_doc, form, token)
        try:
            expected = Fraction(token.strip())
        except (ValueError, ZeroDivisionError):
            with pytest.raises(FileFormatError, match="bad number"):
                parse_matrix(text)
            return
        value = parse_matrix(text).matrix.reward(0, 0b0011)
        assert type(value) is Fraction
        assert value == expected


# Tokens whose float reading is delicate: subnormals, underflow to zero,
# the largest double, a signed zero and an upper-case exponent.
FLOAT_TOKENS = ["0.1", "1e-320", "2.5e-324", "1e-400", "1.7976931348623157e308", "-0.0", "1E5"]


def _is_json_number(token: str) -> bool:
    try:
        return isinstance(json.loads(token), (int, float))
    except ValueError:
        return False


def _bits(x):
    """A parsed number by type and exact value; tells -0.0 from 0.0."""
    return ("float", x.hex()) if isinstance(x, float) else (type(x).__name__, x)


def _expected(exact_text: str, mode: str):
    """What Fraction(text), then float() in float mode, gives; None where
    that raises."""
    try:
        value = Fraction(exact_text)
        return float(value) if mode == "float" else value
    except (ValueError, ZeroDivisionError, OverflowError):
        return None


NUMBER_CASES = [
    (token, carrier)
    for token in FLOAT_TOKENS + NUMBER_TOKENS
    for carrier in ("number", "string")
    if carrier == "string" or _is_json_number(token)
]


class TestNumberModes:
    """Each JSON number is read once by the document's mode, with the value
    Fraction(text) gives, rounded once in float mode."""

    @pytest.mark.parametrize("mode", ["rational", "float"])
    @pytest.mark.parametrize("token,carrier", NUMBER_CASES)
    def test_reward_table_reads_the_exact_value(self, mode, token, carrier):
        raw = token if carrier == "number" else json.dumps(token)
        text = (
            f'{{"players": 1, "number_mode": "{mode}", '
            f'"rewards": {{"": {{"1": 1}}, "1": {{"1": {raw}}}}}}}'
        )
        expected = _expected(token if carrier == "number" else token.strip(), mode)
        if expected is None:
            with pytest.raises(FileFormatError, match="bad number"):
                parse_matrix(text)
            return
        assert _bits(parse_matrix(text).matrix.reward(0, 1)) == _bits(expected)

    @pytest.mark.parametrize("mode", ["rational", "float"])
    @pytest.mark.parametrize("token,carrier", NUMBER_CASES)
    def test_game_reads_the_exact_value(self, mode, token, carrier):
        raw = token if carrier == "number" else json.dumps(token)
        text = (
            f'{{"players": 2, "number_mode": "{mode}", '
            f'"values": {{"1": {raw}, "2": 0, "1,2": {raw}}}}}'
        )
        expected = _expected(token if carrier == "number" else token.strip(), mode)
        if expected is None:
            with pytest.raises(FileFormatError, match="bad number for coalition '1'"):
                parse_game(text)
        elif expected < 0:
            with pytest.raises(NegativeValueError):
                parse_game(text)
        else:
            assert _bits(parse_game(text).game.value(1)) == _bits(expected)


HUGE = "1" + "0" * 400


class TestFloatOverflow:
    @pytest.mark.parametrize(
        "parse,text,where",
        [
            (
                parse_game,
                '{"players": 2, "number_mode": "float", '
                '"values": {"1": 1e400, "2": 0, "1,2": 1e400}}',
                "coalition '1'",
            ),
            (
                parse_game,
                f'{{"players": 2, "number_mode": "float", '
                f'"values": {{"1": {HUGE}, "2": 0, "1,2": {HUGE}}}}}',
                "coalition '1'",
            ),
            (
                parse_game,
                f'{{"players": 2, "number_mode": "float", '
                f'"values": {{"1": "{HUGE}/1", "2": 0, "1,2": "{HUGE}/1"}}}}',
                "coalition '1'",
            ),
            (
                parse_matrix,
                '{"players": 1, "number_mode": "float", '
                '"rewards": {"": {"1": 0.5}, "1": {"1": 1e400}}}',
                "player '1', coalition '1'",
            ),
            (parse_matrix, f"player,,1\n1,0.5,{HUGE}\n", "player '1', coalition '1'"),
            (
                parse_matrix,
                f"player,coalition,reward\n1,,0.5\n1,1,{HUGE}\n",
                "player '1', coalition '1'",
            ),
        ],
        ids=["game-exponent", "game-integer", "game-ratio", "json-table", "table-csv", "long-csv"],
    )
    def test_too_large_for_a_float_is_a_bad_number(self, parse, text, where):
        with pytest.raises(FileFormatError, match=f"bad number for {where}"):
            parse(text)


# "1e-5000" and "1e5000" spelled as a JSON number, a JSON string and a CSV
# token. Only an exact value is held to the digit limit, so in float mode
# 1e-5000 reads as 0.0 in every spelling, and 1e5000, never finite, is a
# bad number. A CSV file has no number mode: its exponent token makes the
# table float, so there "mode" is only the spelling of the other cell.
DIGIT_LIMIT_CASES = [
    (kind, spelling, token, mode)
    for kind, spellings in (("game", ("number", "string")), ("table", ("number", "string", "csv")))
    for spelling in spellings
    for token in ("1e-5000", "1e5000")
    for mode in ("rational", "float")
]


class TestDigitLimit:
    @pytest.mark.parametrize("kind,spelling,token,mode", DIGIT_LIMIT_CASES)
    def test_one_reading_in_every_spelling(self, kind, spelling, token, mode):
        raw = json.dumps(token) if spelling == "string" else token
        if kind == "game":
            parse, where = parse_game, "coalition '1'"
            text = (
                f'{{"players": 2, "number_mode": "{mode}", '
                f'"values": {{"1": {raw}, "2": 1, "1,2": 2}}}}'
            )
            value = lambda doc: doc.game.value(1)
        else:
            parse, where = parse_matrix, "player '1', coalition '1'"
            if spelling == "csv":
                text = f"player,,1\n1,{'1' if mode == 'rational' else '1.0'},{raw}\n"
            else:
                text = (
                    f'{{"players": 1, "number_mode": "{mode}", '
                    f'"rewards": {{"": {{"1": 1}}, "1": {{"1": {raw}}}}}}}'
                )
            value = lambda doc: doc.matrix.reward(0, 1)
        if token == "1e5000" or (mode == "rational" and spelling != "csv"):
            with pytest.raises(FileFormatError, match=f"bad number for {where}"):
                parse(text)
        else:
            assert _bits(value(parse(text))) == _bits(0.0)


def _writer_cases():
    """(id, MatrixDocument, GameDocument) pairs covering the writer's shapes."""
    for n in range(1, 9):
        for mode, scale in (("rational", 10), ("float", 10.0 / 3)):
            game = random_monotone_game(n, n, scale)
            matrix, efficient = solve(game)
            labels = default_labels(n)
            yield (
                f"n{n}-{mode}",
                MatrixDocument(matrix, labels, mode, efficient),
                GameDocument(game, labels, mode),
            )
    # a quote, a backslash, non-ASCII and "10" sorting before "2"
    labels = ('say "hi"', "back\\slash", "caf\u00e9", "10", "2", "\U0001d11e")
    for mode, scale in (("rational", Fraction(7, 3)), ("float", 7.0 / 3)):
        game = random_monotone_game(len(labels), 5, scale)
        matrix, efficient = solve(game)
        for name, eff in (("none", None), ("empty", {}), ("full", efficient)):
            yield (
                f"labels-{mode}-efficient-{name}",
                MatrixDocument(matrix, labels, mode, eff),
                GameDocument(game, labels, mode),
            )
    game = random_monotone_game(3, 1, 10.0)
    matrix = solve(game).matrix.replace_entry(0, 0b011, -0.0)
    for bad in (float("nan"), float("inf"), -float("inf")):
        matrix = matrix.replace_entry(1, 0b110, bad)
        yield (
            f"float-signed-zero-{bad}",
            MatrixDocument(matrix, default_labels(3), "float", None),
            GameDocument(game, default_labels(3), "float"),
        )
    # "%" in labels, which sit inside the writers' "%" templates; an inner
    # line break, a quote and an inner "\r", which CSV quotes
    for name, labels in (
        ("percent-labels", ("%", "%s", "100%", "a\nb", 'e"f', "x")),
        ("cr-label", ("c\rd", "%d", "y")),
    ):
        for mode, scale in (("rational", Fraction(5, 3)), ("float", 5.0 / 3)):
            game = random_monotone_game(len(labels), 8, scale)
            matrix, efficient = solve(game)
            yield (
                f"{name}-{mode}",
                MatrixDocument(matrix, labels, mode, efficient),
                GameDocument(game, labels, mode),
            )
    # a float row holding 0.0 and -0.0 among many repeats, and NaN objects:
    # equal dict keys with two texts, and keys found only by identity
    rows = [
        [(0.0, -0.0, 1.5, 2.5)[m % 4] for m in range(64)],
        [-0.0 if m % 3 else 0.0 for m in range(64)],
        [float("nan") if m % 5 else 0.25 for m in range(64)],
        [(float("nan"), -0.0, 0.0, 1e-300, -float("inf"))[m % 5] for m in range(64)],
        [0.0] * 32 + [-0.0] * 32,
        [-0.0] * 63 + [0.0],
    ]
    zeros = Game(3, (0.0, -0.0, 0.0, -0.0, 1.0, 1.0, 1.0, 2.0))
    yield (
        "float-zeros-and-nans",
        MatrixDocument(RewardMatrix(6, tuple(map(tuple, rows))), default_labels(6), "float", None),
        GameDocument(zeros, default_labels(3), "float"),
    )
    # efficient players for some coalitions only, a singleton among them
    game = random_monotone_game(5, 4)
    matrix, efficient = solve(game)
    partial = {m: k for m, k in efficient.items() if m % 3}
    partial[0b00010] = 1
    yield (
        "efficient-partial",
        MatrixDocument(matrix, ("e", "d", "c", "b", "a"), "rational", partial),
        GameDocument(game, ("e", "d", "c", "b", "a"), "rational"),
    )
    # an exact table whose denominators pass the 256-bit cap keeps Fractions
    game = additive_game([Fraction(1, 2**p - 1) for p in (89, 107, 127, 61)])
    matrix, efficient = solve(game)
    assert matrix._denominator is None and game._denominator is None
    yield (
        "exact-past-the-cap",
        MatrixDocument(matrix, default_labels(4), "rational", efficient),
        GameDocument(game, default_labels(4), "rational"),
    )


WRITER_CASES = list(_writer_cases())


def _outcome(parse, text: str):
    """What a reader makes of ``text``: its table (entry types and values),
    number mode, labels and efficient players, or the class of its error."""
    try:
        doc = parse(text)
    except Exception as exc:  # the error's class is the outcome
        return type(exc)
    return repr(doc.matrix.rewards), doc.number_mode, doc.labels, doc.efficient_player


def _random_doc(n: int, mode: str) -> MatrixDocument:
    """A table of random entries, not a solved one, with random efficient players."""
    rng = random.Random(n * 10 + (mode == "float"))
    labels = tuple(rng.sample(["a", "b", "c", "10", "2", "z", "q", "x y"], n))
    if mode == "float":
        pick = lambda: rng.choice([rng.uniform(-1e3, 1e3), 0.0, -0.0, rng.random() * 1e-300])
    else:
        pick = lambda: Fraction(rng.randint(-50, 50), rng.choice([1, 2, 3, 7, 12]))
    rows = tuple(tuple(pick() for _ in range(1 << n)) for _ in range(n))
    efficient = {m: rng.choice(members(m)) for m in range(1 << n) if m.bit_count() >= 2}
    return MatrixDocument(RewardMatrix(n, rows), labels, mode, efficient)


class TestReaderMatchesFormerReaders:
    """The one cell reader gives what the three former per-shape readers
    (tests/reference.py) gave: the same table, number mode, labels and
    efficient players, or the same class of error."""

    @pytest.mark.parametrize("form", ["json", "table", "long"])
    @pytest.mark.parametrize(
        "mdoc", [c[1] for c in WRITER_CASES], ids=[c[0] for c in WRITER_CASES]
    )
    def test_writer_cases(self, mdoc, form):
        text = serialize_matrix(mdoc, form)
        assert _outcome(parse_matrix, text) == _outcome(parse_matrix_by_shape, text)

    @pytest.mark.parametrize("form", ["json", "table", "long"])
    @pytest.mark.parametrize("mode", ["rational", "float"])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_random_tables(self, n, mode, form):
        text = serialize_matrix(_random_doc(n, mode), form)
        outcome = _outcome(parse_matrix, text)
        assert outcome == _outcome(parse_matrix_by_shape, text)
        assert not isinstance(outcome, type)

    @pytest.mark.parametrize("fault,shape", FAULT_CASES)
    def test_malformed_tables(self, fault, shape):
        cells, mode, *_ = CELL_FAULTS[fault]
        text = _cells_text(shape, cells, mode)
        assert _outcome(parse_matrix, text) == _outcome(parse_matrix_by_shape, text)

    @pytest.mark.parametrize("seed", range(4))
    def test_coalition_keys_in_any_order(self, seed):
        # one key map serves every lookup, so keys extend ones seen before,
        # by a new, repeated, unknown or empty label
        rng = random.Random(seed)
        labels = ("1", "2", "10", "a", "x y")
        mask_of = _KeyMasks(labels)
        index_of = {lab: i for i, lab in enumerate(labels)}
        pool = [*labels, "", "q"]
        for _ in range(500):
            key = ",".join(rng.choice(pool) for _ in range(rng.randint(1, 4)))
            try:
                want = _parse_coalition_key(key, index_of)
            except FileFormatError:
                with pytest.raises(FileFormatError):
                    mask_of[key]
            else:
                assert mask_of[key] == want, key

    @pytest.mark.parametrize("form", ["table", "long"])
    def test_one_float_token_makes_a_csv_table_float(self, form):
        text = _cells_text(form, _with(BASE_CELLS, "a,b", "0.5"))
        outcome = _outcome(parse_matrix, text)
        assert outcome == _outcome(parse_matrix_by_shape, text)
        assert outcome[1] == "float"


def _stored_outcome(parse, text: str):
    """What a reader makes of ``text``: the stored form of its table, its
    number mode, labels and efficient players, or its error's class and
    full text."""
    try:
        doc = parse(text)
    except Exception as exc:  # the error is the outcome
        return type(exc), str(exc)
    matrix = doc.matrix
    stored = repr(matrix._numerators), matrix._denominator
    return stored, doc.number_mode, doc.labels, doc.efficient_player


PRIMES = [p for p in range(2, 282) if all(p % q for q in range(2, p))]


class TestReaderMatchesFractionReader:
    """The int-pair reader stores what the former Fraction-per-cell reader
    (tests/reference.py) stored, ints and denominator alike, and fails
    with the very same error text."""

    @pytest.mark.parametrize("form", ["json", "table", "long"])
    @pytest.mark.parametrize(
        "mdoc", [c[1] for c in WRITER_CASES], ids=[c[0] for c in WRITER_CASES]
    )
    def test_writer_cases(self, mdoc, form):
        text = serialize_matrix(mdoc, form)
        assert _stored_outcome(parse_matrix, text) == _stored_outcome(fraction_parse_matrix, text)

    @pytest.mark.parametrize("form", ["json", "table", "long"])
    @pytest.mark.parametrize("mode", ["rational", "float"])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_random_tables(self, n, mode, form):
        text = serialize_matrix(_random_doc(n, mode), form)
        assert _stored_outcome(parse_matrix, text) == _stored_outcome(fraction_parse_matrix, text)

    @pytest.mark.parametrize("fault,shape", FAULT_CASES)
    def test_malformed_tables(self, fault, shape):
        cells, mode, *_ = CELL_FAULTS[fault]
        text = _cells_text(shape, cells, mode)
        assert _stored_outcome(parse_matrix, text) == _stored_outcome(fraction_parse_matrix, text)

    @pytest.mark.parametrize("form", ["json", "table", "long"])
    @pytest.mark.parametrize("token", NUMBER_TOKENS + ["+3", "-0", " 1/3 ", "1/0"])
    def test_tokens(self, solved_doc, form, token):
        text = _with_token(solved_doc, form, token)
        assert _stored_outcome(parse_matrix, text) == _stored_outcome(fraction_parse_matrix, text)

    @pytest.mark.parametrize("mode", ["rational", "float"])
    @pytest.mark.parametrize("first,second", [(1, True), (True, 1), (0, False), (False, 0)])
    def test_bools_next_to_equal_ints(self, mode, first, second):
        # True == 1 and hashes as 1: a memo keyed by the bare token would
        # read a true cell as the 1 before it
        cells = [(lab, key, 2) for lab, key, _ in BASE_CELLS]
        cells = _with(_with(cells, "a", first), "a,b", second)
        text = _cells_text("json", cells, mode)
        outcome = _stored_outcome(parse_matrix, text)
        assert outcome == _stored_outcome(fraction_parse_matrix, text)
        assert outcome[0] is FileFormatError and "bad number" in outcome[1]

    @pytest.mark.parametrize("mode", ["rational", "float"])
    @pytest.mark.parametrize("number_first", [True, False])
    @pytest.mark.parametrize("token", ["0.1", "-0.0", "-1e-400", "2.5e-324", "1E5"])
    def test_number_and_string_of_one_text(self, mode, number_first, token):
        # a JSON number and a JSON string of the same text are equal str
        # keys, so they share one memo entry and must read alike
        cells = _with(_with(BASE_CELLS, "a", "NUMBER"), "a,b", "STRING")
        text = _cells_text("json", cells, mode)
        text = text.replace('"NUMBER"', token if number_first else json.dumps(token))
        text = text.replace('"STRING"', json.dumps(token) if number_first else token)
        assert _stored_outcome(parse_matrix, text) == _stored_outcome(fraction_parse_matrix, text)

    @pytest.mark.parametrize("form", ["json", "table", "long"])
    def test_denominator_past_the_cap_keeps_fractions(self, form):
        # entries 1/p for the first 60 primes: an lcm of far more than 256 bits
        rows = tuple(
            tuple(Fraction(1, PRIMES[(i * 16 + m) % 60]) for m in range(16)) for i in range(4)
        )
        doc = MatrixDocument(RewardMatrix(4, rows), default_labels(4), "rational", None)
        text = serialize_matrix(doc, form)
        assert _stored_outcome(parse_matrix, text) == _stored_outcome(fraction_parse_matrix, text)
        matrix = parse_matrix(text).matrix
        assert matrix._denominator is None and matrix == doc.matrix


class TestDirectWriter:
    """The writers give the very bytes of the former dict-plus-json.dumps
    and per-entry coalition_key rendering."""

    @pytest.mark.parametrize("form", ["json", "table", "long"])
    @pytest.mark.parametrize(
        "mdoc,gdoc", [c[1:] for c in WRITER_CASES], ids=[c[0] for c in WRITER_CASES]
    )
    def test_matrix_bytes_match_the_reference(self, mdoc, gdoc, form):
        assert serialize_matrix(mdoc, form) == dumps_matrix(mdoc, form)

    @pytest.mark.parametrize(
        "mdoc,gdoc", [c[1:] for c in WRITER_CASES], ids=[c[0] for c in WRITER_CASES]
    )
    def test_game_bytes_match_the_reference(self, mdoc, gdoc):
        assert serialize_game(gdoc) == dumps_game(gdoc)

    @pytest.fixture(scope="class", params=[10, 10.0], ids=["exact", "float"])
    def table12(self, request):
        matrix, efficient = solve(random_monotone_game(12, 3, request.param))
        mode = "rational" if matrix.exact else "float"
        return MatrixDocument(matrix, default_labels(12), mode, efficient)

    # At n=12 the former writers peaked at 6.5x (json), 6.0x and 12.9x
    # (table, exact and float) and 5.5x and 7.6x (long) their output's
    # length; a row or a coalition at a time, 2.7x to 4.7x.
    @pytest.mark.parametrize("form,multiple", [("json", 4.5), ("table", 5.5), ("long", 4.0)])
    def test_peak_memory_is_a_small_multiple_of_the_output(self, table12, form, multiple):
        tracemalloc.start()
        try:
            text = serialize_matrix(table12, form)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < multiple * len(text)


class TestLabelAlignment:
    def test_permuted_labels_align(self):
        text = game_text(
            {"a": 1, "b": 2, "c": 3, "a,b": 3, "a,c": 4, "b,c": 5, "a,b,c": 6},
            players=["a", "b", "c"],
        )
        doc = parse_game(text)
        matrix, efficient = solve(doc.game)
        mdoc = MatrixDocument(matrix, doc.labels, "rational", efficient)
        aligned = align_matrix_labels(mdoc, ("c", "a", "b"))
        assert aligned.labels == ("c", "a", "b")
        # same reward for the same (player label, coalition label-set)
        for mask in range(8):
            key = coalition_key(doc.labels, mask)
            amask = next(
                m for m in range(8) if coalition_key(aligned.labels, m) == key
            )
            for i, lab in enumerate(doc.labels):
                j = aligned.labels.index(lab)
                assert aligned.matrix.reward(j, amask) == matrix.reward(i, mask)
        # efficient-player map permutes with everything else
        for mask, k in efficient.items():
            amask = next(
                m
                for m in range(8)
                if coalition_key(aligned.labels, m) == coalition_key(doc.labels, mask)
            )
            assert aligned.labels[aligned.efficient_player[amask]] == doc.labels[k]

    def test_identity_alignment_is_free(self, example1):
        matrix = solve(example1).matrix
        doc = MatrixDocument(matrix, default_labels(4), "rational", None)
        assert align_matrix_labels(doc, default_labels(4)) is doc

    def test_label_set_mismatch(self, example1):
        matrix = solve(example1).matrix
        doc = MatrixDocument(matrix, default_labels(4), "rational", None)
        with pytest.raises(FileFormatError, match="do not match"):
            align_matrix_labels(doc, ("1", "2", "3", "5"))


class TestRhoParsing:
    def test_plain_numbers_stay_exact(self):
        assert parse_rho("1") == Fraction(1)
        assert isinstance(parse_rho("1"), Fraction)
        assert parse_rho("2/3") == Fraction(2, 3)
        assert parse_rho("0.75") == Fraction(3, 4)

    def test_symbolic_log_form(self):
        assert parse_rho("log2(3)-1") == pytest.approx(math.log2(3) - 1)
        assert parse_rho("log2(2)") == 1.0
        assert parse_rho("log2(3) - 1") == pytest.approx(0.5849625007211562)
        assert parse_rho("log2(9/4)-0") == pytest.approx(math.log2(2.25))

    def test_bad_rho(self):
        for text in ("", "two", "log2(0)", "log2(-3)", "1/0", "log2(3)+1"):
            with pytest.raises(FileFormatError):
                parse_rho(text)


class TestScalarRendering:
    def test_fractions(self):
        assert format_scalar(Fraction(10, 3)) == "10/3"
        assert format_scalar(Fraction(4)) == "4"

    def test_floats(self):
        assert format_scalar(2.1035940000000003) == "2.103594"
        assert format_scalar(1 / 3) == "0.333333333333"


def _game_outcome(text: str):
    """What ``parse_game`` makes of ``text``: its values by repr, with their
    types, its stored form, labels and number mode, or its error's class and
    full text."""
    try:
        doc = parse_game(text)
    except Exception as exc:  # the error is the outcome
        return type(exc), str(exc)
    game = doc.game
    values = game.values
    return (
        repr(values),
        tuple(map(type, values)),
        game._numerators,
        game._denominator,
        doc.labels,
        doc.number_mode,
    )


def _stored_read(text: str):
    """The stored read of a game file alone: its game, or None where its
    screens send the file to the key-by-key read."""
    labels, mode, doc = _read_header(text, "game file", "values")
    return _read_stored(labels, mode, doc["values"])


def _with_values(text: str, values: dict) -> str:
    doc = json.loads(text)
    doc["values"] = values
    return json.dumps(doc, indent=2)


def _key_orders(text: str, seed: int) -> dict[str, str]:
    """A game file in canonical key order, in ascending mask order (the
    layout of perfbench's ``game_json``) and shuffled."""
    labels = parse_game(text).labels
    values = json.loads(text)["values"]
    by_mask = sorted(values, key=lambda k: sum(1 << labels.index(x) for x in k.split(",")))
    shuffled = list(values)
    random.Random(seed).shuffle(shuffled)
    return {
        "canonical": text,
        "mask": _with_values(text, {k: values[k] for k in by_mask}),
        "shuffled": _with_values(text, {k: values[k] for k in shuffled}),
    }


# Spellings off the canonical writers' forms, at the grand coalition; each
# reads as 5000 or more or is a bad number, so any game stays monotone.
OFF_FORM_TOKENS = [" 5000 ", "+5000", "10000/4", "1_000_000", "٥٠٠٠", "5000.5", "1e5", "5/0"]


class TestStoredRead:
    """``parse_game`` reads a file whose keys and tokens its screens clear
    straight into ``Game._stored``, and any other file key by key. Both
    reads give the same game, or the same error, on the same file."""

    @staticmethod
    def _by_key(monkeypatch, text: str):
        with monkeypatch.context() as patch:
            patch.setattr(formats, "_read_stored", lambda *args: None)
            return _game_outcome(text)

    @pytest.mark.parametrize("mode", ["rational", "float"])
    @pytest.mark.parametrize("n", range(1, 13))
    def test_every_key_order(self, monkeypatch, n, mode):
        scale = Fraction(10, 3) if mode == "rational" else 10.0 / 3
        game = random_monotone_game(n, n, scale)
        # labels whose sorted order is not the players' order
        labels = default_labels(n) if n % 2 else tuple(f"p{12 - i}" for i in range(n))
        text = serialize_game(GameDocument(game, labels, mode))
        for order, variant in _key_orders(text, n).items():
            assert _stored_read(variant) is not None, order
            outcome = _game_outcome(variant)
            assert outcome == self._by_key(monkeypatch, variant), order
            assert outcome[2:4] == (game._numerators, game._denominator), order

    @pytest.mark.parametrize("mode", ["rational", "float"])
    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_off_form_twins(self, monkeypatch, n, mode):
        scale = Fraction(10, 3) if mode == "rational" else 10.0 / 3
        game = random_monotone_game(n, n, scale)
        text = serialize_game(GameDocument(game, default_labels(n), mode))
        values = json.loads(text)["values"]
        twins = []
        if n > 1:
            values_21 = {("2,1" if k == "1,2" else k): x for k, x in values.items()}
            assert _stored_read(_with_values(text, values_21)) is None
            twins.append(_with_values(text, values_21))
            # a string with no "/" and one with two: as many "/" as strings
            twins.append(_with_values(text, {**values, "1": "0/1/1", "2": "5000"}))
        grand = coalition_key(default_labels(n), (1 << n) - 1)
        for token in OFF_FORM_TOKENS:
            for raw in (token, json.loads(token) if _is_json_number(token) else None):
                if raw is not None:
                    twins.append(_with_values(text, {**values, grand: raw}))
        for twin in twins:
            assert _game_outcome(twin) == self._by_key(monkeypatch, twin), twin

    def test_float_zeros_stay_on_the_stored_read(self, monkeypatch):
        # an exact zero has no sign, an underflow keeps its own
        text = (
            '{"players": 3, "number_mode": "float", "values": {"1": 0.0, "2": -0.0, '
            '"3": -1e-400, "1,2": 0, "1,3": 1.5, "2,3": 2.0, "1,2,3": 4}}'
        )
        assert _stored_read(text) is not None
        outcome = _game_outcome(text)
        assert outcome == self._by_key(monkeypatch, text)
        assert outcome[0] == "(0.0, 0.0, 0.0, 0.0, -0.0, 1.5, 2.0, 4.0)"

    def test_denominator_past_the_cap(self, monkeypatch):
        game = additive_game([Fraction(1, 2**p - 1) for p in (89, 107, 127)])
        text = serialize_game(GameDocument(game, default_labels(3), "rational"))
        assert _stored_read(text) is None
        outcome = _game_outcome(text)
        assert outcome == self._by_key(monkeypatch, text)
        assert outcome[3] is None
        assert parse_game(text).game == game

    def test_keys_match_coalition_key(self):
        for labels in [("1",), default_labels(11), ("b", "a", "10", "9", "x y", "%")]:
            keys = _coalition_keys(labels)
            assert keys == [coalition_key(labels, m) for m in range(1 << len(labels))]
