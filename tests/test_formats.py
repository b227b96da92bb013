import csv
import io
import json
import math
from fractions import Fraction

import pytest

from fairshare import (
    EmptyNotZeroError,
    FileFormatError,
    GameDocument,
    MatrixDocument,
    NegativeValueError,
    NotMonotoneError,
    align_matrix_labels,
    coalition_key,
    default_labels,
    format_scalar,
    parse_game,
    parse_matrix,
    parse_rho,
    serialize_game,
    check_all,
    random_monotone_game,
    serialize_matrix,
    solve,
)
from reference import dumps_game, dumps_matrix


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
        assert parsed.matrix.column(0) == solved_doc.matrix.column(0)


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
                "player '1' in coalition '1'",
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


WRITER_CASES = list(_writer_cases())


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
