"""Reading and writing games and reward tables.

Game files are JSON:

    {
      "players": 4,                    // or a list of label strings
      "number_mode": "rational",       // optional; "rational" (default) or "float"
      "values": {"1": 1, "1,2": 3, "1,2,3,4": 9, ...}
    }

A coalition key is the comma-joined, sorted labels of its members; the
empty coalition's key is "" and may be omitted (its value must be 0).
Every non-empty coalition needs exactly one entry. Numbers may be JSON
numbers, decimal strings, or "p/q" rational strings; in rational mode
decimals are read exactly (0.1 means one tenth, not the nearest double).

Serialization is canonical: keys ordered by coalition size then
lexicographically, two-space indent, the empty coalition omitted, and
"players" collapsed to a count when the labels are the default "1".."n".
Parsing a generated file and re-serializing reproduces it byte for byte.

Reward tables come in three shapes: "table" (CSV, one row per player, one
column per coalition), "long" (CSV triples player,coalition,reward), and
"json" (nested object, the only shape that also carries the per-coalition
efficient player). Rationals render as "p/q", floats as their shortest
round-trip decimal (``repr``), so every shape reads back the very table
that was written. Only output meant for people (``format_scalar``) rounds
floats to 12 significant digits.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat

from .errors import FileFormatError, NotMonotoneError
from .games import Game, Scalar, _check_player_count, members
from .solver import EfficientPlayerMap, RewardMatrix

RATIONAL = "rational"
FLOAT = "float"


def default_labels(n_players: int) -> tuple[str, ...]:
    return tuple(str(i + 1) for i in range(n_players))


def coalition_key(labels: tuple[str, ...], mask: int) -> str:
    return ",".join(sorted(labels[i] for i in members(mask)))


def _coalition_keys(labels: tuple[str, ...]) -> list[str]:
    """``coalition_key(labels, mask)`` for every mask, one join each.

    Masks are walked over the players in label order, where adding the
    last-sorted member appends its label to the key of the rest.
    """
    width = 1 << len(labels)
    by_label = sorted(range(len(labels)), key=labels.__getitem__)
    sorted_keys = [""] * width
    mask_of = [0] * width
    keys = [""] * width
    for r in range(1, width):
        top = r.bit_length() - 1
        rest = r ^ 1 << top
        player = by_label[top]
        key = sorted_keys[rest] + "," + labels[player] if rest else labels[player]
        sorted_keys[r] = key
        mask = mask_of[r] = mask_of[rest] | 1 << player
        keys[mask] = key
    return keys


def _canonical_key_order(keys: list[str], masks) -> list[int]:
    return sorted(masks, key=lambda m: (m.bit_count(), keys[m]))


@dataclass(frozen=True)
class GameDocument:
    """A parsed game plus the labeling and number mode it was stated in."""

    game: Game
    labels: tuple[str, ...]
    number_mode: str

    def key(self, mask: int) -> str:
        return coalition_key(self.labels, mask)


@dataclass(frozen=True)
class MatrixDocument:
    """A parsed reward table plus labels and, when known, efficient players."""

    matrix: RewardMatrix
    labels: tuple[str, ...]
    number_mode: str
    efficient_player: EfficientPlayerMap | None = None

    def key(self, mask: int) -> str:
        return coalition_key(self.labels, mask)


def _check_labels(labels) -> tuple[str, ...]:
    if not isinstance(labels, list) or not labels:
        raise FileFormatError('"players" must be a positive count or a list of labels')
    _check_player_count(len(labels))
    out = []
    for lab in labels:
        # type(), not isinstance(): a JSON number's text is a str subclass
        if type(lab) is not str or not lab or "," in lab or lab != lab.strip():
            raise FileFormatError(f"bad player label {lab!r}")
        out.append(lab)
    if len(set(out)) != len(out):
        raise FileFormatError("player labels must be unique")
    return tuple(out)


def _labels_from_players_field(players) -> tuple[str, ...]:
    if isinstance(players, bool):
        raise FileFormatError('"players" must be a positive count or a list of labels')
    if isinstance(players, int):
        if players < 1:
            raise FileFormatError('"players" count must be at least 1')
        _check_player_count(players)
        return default_labels(players)
    return _check_labels(players)


def _parse_coalition_key(key: str, index_of: dict[str, int]) -> int:
    if key == "":
        return 0
    mask = 0
    for part in key.split(","):
        if part not in index_of:
            raise FileFormatError(f"unknown player label {part!r} in coalition key {key!r}")
        bit = 1 << index_of[part]
        if mask & bit:
            raise FileFormatError(f"player {part!r} repeated in coalition key {key!r}")
        mask |= bit
    return mask


def _fraction(token: str) -> Fraction:
    """``Fraction(token)``, with a fast path for a plain integer or "p/q".

    The fast path takes only an optional sign, decimal digits and at most
    one "/" followed by decimal digits, all of which ``Fraction`` accepts
    with the same value; any other token goes to ``Fraction`` itself.
    """
    num, slash, den = token.partition("/")
    digits = num[1:] if num[:1] in ("+", "-") else num
    if digits.isdecimal() and (not slash or den.isdecimal()):
        return Fraction(int(num), int(den)) if slash else Fraction(int(num))
    return Fraction(token)


class _JsonDecimal(str):
    """The text of a JSON number with a fraction or an exponent.

    ``_json_loads`` keeps it as text, so that ``_parse_number`` converts it
    once, by the document's number mode, and can still tell it from a JSON
    string.
    """

    __slots__ = ()
    __repr__ = str.__str__


def _parse_number(raw, mode: str) -> Scalar:
    """One JSON number; raises ValueError when it is not a finite number.

    Float mode gives the double nearest the exact value, rational mode the
    exact value itself.
    """
    if type(raw) is _JsonDecimal:
        if mode != FLOAT:
            return Fraction(raw)
        x = float(raw)
        if not x:
            # float() keeps the sign of "-0.0"; its exact value has none
            return float(Fraction(raw))
        if not math.isfinite(x):
            raise ValueError
        return x
    if isinstance(raw, str):
        try:
            value = _fraction(raw.strip())
        except ZeroDivisionError:
            raise ValueError from None
    elif isinstance(raw, int) and not isinstance(raw, bool):
        value = Fraction(raw)
    else:
        raise ValueError
    if mode != FLOAT:
        return value
    try:
        return float(value)
    except OverflowError:
        raise ValueError from None


def _json_loads(text: str):
    def reject_duplicates(pairs):
        out = dict(pairs)
        if len(out) != len(pairs):
            seen = set()
            for k, _ in pairs:
                if k in seen:
                    raise FileFormatError(f"duplicate key {k!r}")
                seen.add(k)
        return out

    try:
        return json.loads(
            text, parse_float=_JsonDecimal, object_pairs_hook=reject_duplicates
        )
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"not valid JSON: {exc}") from None


def parse_game(text: str) -> GameDocument:
    """Parse a game file; raises FileFormatError or a game validation error."""
    doc = _json_loads(text)
    if not isinstance(doc, dict):
        raise FileFormatError("game file must be a JSON object")
    unknown = set(doc) - {"players", "values", "number_mode"}
    if unknown:
        raise FileFormatError(f"unknown field(s): {', '.join(sorted(unknown))}")
    if "players" not in doc or "values" not in doc:
        raise FileFormatError('game file needs "players" and "values"')
    labels = _labels_from_players_field(doc["players"])
    n = len(labels)
    mode = doc.get("number_mode", RATIONAL)
    if mode not in (RATIONAL, FLOAT):
        raise FileFormatError(f'number_mode must be "rational" or "float", got {mode!r}')
    raw_values = doc["values"]
    if not isinstance(raw_values, dict):
        raise FileFormatError('"values" must be an object keyed by coalition')

    index_of = {lab: i for i, lab in enumerate(labels)}
    table: list[Scalar | None] = [None] * (1 << n)
    for key, raw in raw_values.items():
        mask = _parse_coalition_key(key, index_of)
        if table[mask] is not None:
            raise FileFormatError(
                f"duplicate coalition {coalition_key(labels, mask)!r}"
            )
        try:
            table[mask] = _parse_number(raw, mode)
        except ValueError:
            raise FileFormatError(f"bad number for coalition {key!r}: {raw!r}") from None
    if table[0] is None:
        table[0] = 0.0 if mode == FLOAT else Fraction(0)
    for mask, x in enumerate(table):
        if x is None:
            raise FileFormatError(
                f"missing coalition value {coalition_key(labels, mask)!r}"
            )
    try:
        game = Game(n, tuple(table))
    except NotMonotoneError as exc:
        sub = coalition_key(labels, exc.subset) or "(empty)"
        sup = coalition_key(labels, exc.superset)
        raise NotMonotoneError(
            exc.subset,
            exc.superset,
            f"not monotone: coalition {{{sub}}} is worth more than its superset {{{sup}}}",
        ) from None
    return GameDocument(game, labels, mode)


# The canonical JSON shapes are written directly, as json.dumps(indent=2)
# writes them; json.dumps itself would run its pure-Python encoder over a
# dict per coalition.
_json_string = json.encoder.encode_basestring_ascii

_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_number(x: Scalar) -> str:
    """A number as JSON: an int, a quoted "p/q", or a float's repr."""
    if isinstance(x, float):
        text = float.__repr__(x)
        return _NON_FINITE.get(text, text)
    p, q = x.as_integer_ratio()
    return repr(p) if q == 1 else f'"{p}/{q}"'


def _json_block(brackets: str, lines, indent: str) -> str:
    """A JSON object or array with one rendered member per line, nested at
    ``indent``; an empty one stays on one line."""
    body = (",\n  " + indent).join(lines)
    if not body:
        return brackets
    return f"{brackets[0]}\n  {indent}{body}\n{indent}{brackets[1]}"


def _json_players(labels: tuple[str, ...]) -> str:
    """The "players" field: a count for the default labels, else the list."""
    if labels == default_labels(len(labels)):
        return f'"players": {len(labels)}'
    return '"players": ' + _json_block("[]", map(_json_string, labels), "  ")


def serialize_game(doc: GameDocument) -> str:
    """Canonical, byte-stable JSON for a game document."""
    labels = doc.labels
    values = doc.game.values
    keys = _coalition_keys(labels)
    fields = [_json_players(labels)]
    if doc.number_mode == FLOAT:
        fields.append(f'"number_mode": "{FLOAT}"')
    order = _canonical_key_order(keys, range(1, len(values)))
    lines = (f"{_json_string(keys[m])}: {_json_number(values[m])}" for m in order)
    fields.append('"values": ' + _json_block("{}", lines, "  "))
    return _json_block("{}", fields, "") + "\n"


def format_scalar(x: Scalar) -> str:
    """Render one number: exact rationals as p/q, floats to 12 significant digits."""
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def serialize_matrix(doc: MatrixDocument, form: str = "table") -> str:
    """Render a reward table as "table" or "long" CSV, or as JSON."""
    labels = doc.labels
    matrix = doc.matrix
    if len(labels) != matrix.n_players:
        raise FileFormatError("label count does not match the matrix")
    keys = _coalition_keys(labels)
    order = _canonical_key_order(keys, range(matrix.num_coalitions))
    rows = matrix.rewards

    if form == "json":
        json_keys = list(map(_json_string, keys))
        players = [_json_string(lab) + ": " for lab in labels]
        # cells[mask] holds one '"label": number' line per player
        rendered = ([p + _json_number(x) for x in row] for p, row in zip(players, rows))
        cells = list(zip(*rendered))
        rewards = (f"{json_keys[m]}: {_json_block('{}', cells[m], '    ')}" for m in order)
        fields = [
            _json_players(labels),
            f'"number_mode": "{RATIONAL if matrix.exact else FLOAT}"',
            '"rewards": ' + _json_block("{}", rewards, "  "),
        ]
        efficient = doc.efficient_player
        if efficient is not None:
            lines = (
                f"{json_keys[m]}: {_json_string(labels[efficient[m]])}"
                for m in _canonical_key_order(keys, efficient)
            )
            fields.append('"efficient_player": ' + _json_block("{}", lines, "  "))
        return _json_block("{}", fields, "") + "\n"

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if form == "table":
        writer.writerow(["player", *(keys[m] for m in order)])
        for lab, row in zip(labels, rows):
            writer.writerow([lab, *map(str, map(row.__getitem__, order))])
    elif form == "long":
        writer.writerow(["player", "coalition", "reward"])
        ordered_keys = [keys[m] for m in order]
        for lab, row in zip(labels, rows):
            writer.writerows(
                zip(repeat(lab), ordered_keys, map(str, map(row.__getitem__, order)))
            )
    else:
        raise FileFormatError(f'unknown format {form!r}; expected table, long, or json')
    return buf.getvalue()


def _parse_csv_number(token: str) -> Scalar:
    """One CSV number; raises ValueError when it is not a finite number."""
    token = token.strip()
    try:
        if "." in token or "e" in token or "E" in token:
            x = float(token)
            if not math.isfinite(x):
                raise ValueError
            return x
        return _fraction(token)
    except ZeroDivisionError:
        raise ValueError from None


def _csv_number_error(token: str, where: str) -> FileFormatError:
    token = token.strip()
    if not token:
        return FileFormatError(f"empty number for {where}")
    return FileFormatError(f"bad number for {where}: {token!r}")


def _first_cell(rows, bad) -> tuple[int, int]:
    """(player, mask) of the first cell, row by row, for which ``bad`` holds."""
    return next((i, m) for i, row in enumerate(rows) for m, x in enumerate(row) if bad(x))


def _cell_name(labels: tuple[str, ...], i: int, mask: int) -> str:
    return f"player {labels[i]!r}, coalition {coalition_key(labels, mask)!r}"


def _fits_float(x) -> bool:
    try:
        float(x)
    except OverflowError:
        return False
    return True


def _finish_matrix(
    labels: tuple[str, ...],
    rows: list[list[Scalar | None]],
    number_mode: str | None,
    efficient: EfficientPlayerMap | None,
) -> MatrixDocument:
    """Build the matrix from per-player rows in which None marks a missing cell."""
    types = set().union(*(map(type, row) for row in rows))
    if type(None) in types:
        i, m = _first_cell(rows, lambda x: x is None)
        raise FileFormatError(f"missing reward for {_cell_name(labels, i, m)}")
    is_float = number_mode == FLOAT or float in types
    if is_float and types != {float}:
        try:
            rows = [[float(x) for x in row] for row in rows]
        except OverflowError:
            i, m = _first_cell(rows, lambda x: not _fits_float(x))
            raise FileFormatError(
                f"bad number for {_cell_name(labels, i, m)}: {rows[i][m]} is too large "
                "for a float"
            ) from None
    return MatrixDocument(
        RewardMatrix(len(labels), tuple(map(tuple, rows))),
        labels,
        FLOAT if is_float else RATIONAL,
        efficient,
    )


def _parse_matrix_json(doc: dict) -> MatrixDocument:
    unknown = set(doc) - {"players", "rewards", "number_mode", "efficient_player"}
    if unknown:
        raise FileFormatError(f"unknown field(s): {', '.join(sorted(unknown))}")
    if "players" not in doc or "rewards" not in doc:
        raise FileFormatError('reward table needs "players" and "rewards"')
    labels = _labels_from_players_field(doc["players"])
    n = len(labels)
    mode = doc.get("number_mode", RATIONAL)
    if mode not in (RATIONAL, FLOAT):
        raise FileFormatError(f'number_mode must be "rational" or "float", got {mode!r}')
    index_of = {lab: i for i, lab in enumerate(labels)}
    rewards = doc["rewards"]
    if not isinstance(rewards, dict):
        raise FileFormatError('"rewards" must be an object keyed by coalition')
    rows: list[list[Scalar | None]] = [[None] * (1 << n) for _ in range(n)]
    for key, per_player in rewards.items():
        mask = _parse_coalition_key(key, index_of)
        if not isinstance(per_player, dict):
            raise FileFormatError(f"rewards for coalition {key!r} must be an object")
        for lab, raw in per_player.items():
            if lab not in index_of:
                raise FileFormatError(f"unknown player label {lab!r}")
            row = rows[index_of[lab]]
            if row[mask] is not None:
                raise FileFormatError(
                    f"duplicate reward for player {lab!r} in coalition {key!r}"
                )
            try:
                row[mask] = _parse_number(raw, mode)
            except ValueError:
                raise FileFormatError(
                    f"bad number for player {lab!r} in coalition {key!r}: {raw!r}"
                ) from None
    efficient: EfficientPlayerMap | None = None
    if "efficient_player" in doc:
        efficient = {}
        raw_map = doc["efficient_player"]
        if not isinstance(raw_map, dict):
            raise FileFormatError('"efficient_player" must be an object')
        for key, lab in raw_map.items():
            mask = _parse_coalition_key(key, index_of)
            if type(lab) is not str or lab not in index_of:
                raise FileFormatError(f"unknown player label {lab!r}")
            efficient[mask] = index_of[lab]
    return _finish_matrix(labels, rows, mode, efficient)


def _parse_matrix_table_csv(rows: list[list[str]]) -> MatrixDocument:
    header = rows[0]
    if not header or header[0] != "player":
        raise FileFormatError('wide CSV must start with a "player" header column')
    body = [r for r in rows[1:] if r]
    labels = _check_labels([r[0] for r in body])
    index_of = {lab: i for i, lab in enumerate(labels)}
    masks = [_parse_coalition_key(k, index_of) for k in header[1:]]
    if len(set(masks)) != len(masks):
        raise FileFormatError("duplicate coalition column")
    width = 1 << len(labels)
    table: list[list[Scalar | None]] = [[None] * width for _ in labels]
    for row in body:
        if len(row) != len(header):
            raise FileFormatError(f"row for player {row[0]!r} has the wrong width")
        out = table[index_of[row[0]]]
        for mask, token in zip(masks, row[1:]):
            try:
                out[mask] = _parse_csv_number(token)
            except ValueError:
                raise _csv_number_error(
                    token, f"player {row[0]!r}, coalition mask {mask}"
                ) from None
    return _finish_matrix(labels, table, None, None)


def _parse_matrix_long_csv(rows: list[list[str]]) -> MatrixDocument:
    body = [r for r in rows[1:] if r]
    seen_labels: dict[str, None] = {}
    for r in body:
        if len(r) != 3:
            raise FileFormatError("long CSV rows must be player,coalition,reward")
        seen_labels[r[0]] = None
    labels = _check_labels(list(seen_labels))
    index_of = {lab: i for i, lab in enumerate(labels)}
    width = 1 << len(labels)
    table: list[list[Scalar | None]] = [[None] * width for _ in labels]
    mask_of_key: dict[str, int] = {}
    for lab, key, token in body:
        mask = mask_of_key.get(key)
        if mask is None:
            mask = mask_of_key[key] = _parse_coalition_key(key, index_of)
        row = table[index_of[lab]]
        if row[mask] is not None:
            raise FileFormatError(
                f"duplicate reward for player {lab!r}, coalition {key!r}"
            )
        try:
            row[mask] = _parse_csv_number(token)
        except ValueError:
            raise _csv_number_error(
                token, f"player {lab!r}, coalition {key!r}"
            ) from None
    return _finish_matrix(labels, table, None, None)


def parse_matrix(text: str) -> MatrixDocument:
    """Parse a reward table in any of the three shapes (detected from content)."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        doc = _json_loads(text)
        if not isinstance(doc, dict):
            raise FileFormatError("reward table file must be a JSON object")
        return _parse_matrix_json(doc)
    rows = list(csv.reader(io.StringIO(text)))
    rows = [r for r in rows if r]
    if not rows:
        raise FileFormatError("empty reward table file")
    if [c.strip() for c in rows[0]] == ["player", "coalition", "reward"]:
        return _parse_matrix_long_csv(rows)
    return _parse_matrix_table_csv(rows)


def align_matrix_labels(
    doc: MatrixDocument, labels: tuple[str, ...]
) -> MatrixDocument:
    """Reorder a parsed reward table to match another label ordering.

    Rows and coalition masks are permuted together so entry meanings are
    preserved. The label sets must coincide.
    """
    if set(doc.labels) != set(labels):
        raise FileFormatError(
            "reward table player labels do not match the game's labels"
        )
    if doc.labels == labels:
        return doc
    n = len(labels)
    target_index = {lab: i for i, lab in enumerate(labels)}
    perm = [target_index[lab] for lab in doc.labels]
    # remapped[mask] is the mask in the target labeling, filled from the mask
    # without its lowest member.
    width = 1 << n
    remapped = [0] * width
    for mask in range(1, width):
        low = mask & -mask
        remapped[mask] = remapped[mask ^ low] | 1 << perm[low.bit_length() - 1]
    source = [0] * width
    for mask, target in enumerate(remapped):
        source[target] = mask
    rows: list[tuple[Scalar, ...]] = [()] * n
    for i, row in enumerate(doc.matrix.rewards):
        rows[perm[i]] = tuple(map(row.__getitem__, source))
    efficient = None
    if doc.efficient_player is not None:
        efficient = {remapped[m]: perm[k] for m, k in doc.efficient_player.items()}
    return MatrixDocument(
        RewardMatrix(n, tuple(rows)), labels, doc.number_mode, efficient
    )


_RHO_SYMBOLIC = re.compile(
    r"^log2\((?P<arg>\d+(?:/\d+)?)\)(?:\s*-\s*(?P<sub>\d+(?:/\d+)?))?$"
)


def parse_rho(text: str) -> Scalar:
    """Parse a scaling exponent: "1", "2/3", "0.75", or "log2(3)-1".

    Plain rational text stays exact; the log2 form evaluates to a float.
    Range is checked by the baseline itself, not here.
    """
    token = text.strip()
    m = _RHO_SYMBOLIC.match(token)
    if m:
        arg = Fraction(m.group("arg"))
        if arg <= 0:
            raise FileFormatError(f"bad rho {text!r}: log2 needs a positive argument")
        sub = Fraction(m.group("sub")) if m.group("sub") else Fraction(0)
        return math.log2(arg) - float(sub)
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise FileFormatError(
            f"bad rho {text!r}: use a decimal, p/q, or log2(k)-m"
        ) from None
