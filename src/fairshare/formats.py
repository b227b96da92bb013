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
floats to 12 significant digits. One cell reader reads all three shapes,
and any fault in a cell has one form, naming the cell by player label and
coalition key: "bad number for player '1', coalition '1,2': 'x'".

Exact numbers are read with the spellings and checks of
``Fraction(text)``, game files and reward tables alike, and stored as ints
over the lcm of their denominators, the form ``Game`` and ``RewardMatrix``
keep, without a ``Fraction`` per number. A game file whose keys are the
canonical ones, in any order, and whose tokens are JSON ints or "p/q"
strings (finite JSON numbers in float mode) is read with C-level maps
straight into that form; any other file is read key by key, one token at
a time as an int pair (p, q) in lowest terms, and reports its first fault.
The cell reader reads each distinct token of a table once.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, count, groupby, islice, repeat
from operator import floordiv, itemgetter, mul, not_, or_

from .errors import FileFormatError, NotMonotoneError
from .games import _MAX_DENOMINATOR_BITS, Game, Scalar, _check_player_count, members
from .solver import EfficientPlayerMap, RewardMatrix

RATIONAL = "rational"
FLOAT = "float"


def default_labels(n_players: int) -> tuple[str, ...]:
    return tuple(str(i + 1) for i in range(n_players))


def coalition_key(labels: tuple[str, ...], mask: int) -> str:
    return ",".join(sorted(labels[i] for i in members(mask)))


def _coalition_keys(labels: tuple[str, ...]) -> list[str]:
    """``coalition_key(labels, mask)`` for every mask, by doubling.

    Over the players in label order, the keys of the coalitions that add
    the next player are those of the coalitions before it with its label
    appended, since it sorts last. Each doubling is one C-level map, and so
    is the step from that order to mask order.
    """
    by_label = sorted(range(len(labels)), key=labels.__getitem__)
    in_label_order = [""]
    for player in by_label:
        label = labels[player]
        in_label_order += [label, *map(str.__add__, in_label_order[1:], repeat("," + label))]
    # where each mask's coalition sits in label order: bit r for the label ranked r
    position = [0]
    for rank in sorted(range(len(labels)), key=by_label.__getitem__):
        position += [*map(or_, position, repeat(1 << rank))]
    return list(map(in_label_order.__getitem__, position))


def _keys_in_order(labels: tuple[str, ...]) -> tuple[list[str], list[int]]:
    """Every mask's coalition key, and all masks in canonical order: by
    coalition size, then by key, two stable sorts on C-level keys."""
    keys = _coalition_keys(labels)
    return keys, sorted(sorted(range(len(keys)), key=keys.__getitem__), key=int.bit_count)


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


def _check_labels(players) -> tuple[str, ...]:
    """Player labels from a "players" field (a count or a list of labels) or
    from a CSV table's player column."""
    if type(players) is int:  # not a bool
        if players < 1:
            raise FileFormatError('"players" count must be at least 1')
        _check_player_count(players)
        return default_labels(players)
    if not isinstance(players, list) or not players:
        raise FileFormatError('"players" must be a positive count or a list of labels')
    _check_player_count(len(players))
    out = []
    for lab in players:
        # type(), not isinstance(): a JSON number's text is a str subclass
        if type(lab) is not str or not lab or "," in lab or lab != lab.strip():
            raise FileFormatError(f"bad player label {lab!r}")
        out.append(lab)
    if len(set(out)) != len(out):
        raise FileFormatError("player labels must be unique")
    return tuple(out)


class _KeyMasks(dict):
    """Coalition key -> mask over ``labels``, each key parsed on first use.

    A key whose spelling less its last label is already known costs one
    lookup. That is nearly every key when a file lists coalitions by size,
    as the writers do, or by mask, as perfbench's ``game_json`` does.
    The dict keeps the caller's key strings: seeding it with the canonical
    keys instead would hold a second copy of each while the parsed
    document holds its own (1.1 MB at n=14).
    """

    def __init__(self, labels: tuple[str, ...]):
        super().__init__({"": 0})
        self.labels = labels
        self.bit_of = {lab: 1 << i for i, lab in enumerate(labels)}

    def __missing__(self, key: str) -> int:
        head, comma, last = key.rpartition(",")
        mask = self.get(head) if head else (None if comma else 0)
        bit = self.bit_of.get(last, 0)
        if mask is not None and bit and not mask & bit:
            mask |= bit
            self[key] = mask
            return mask
        parts = key.split(",")
        try:
            mask = sum(map(self.bit_of.__getitem__, parts))
        except KeyError as exc:
            message = f"unknown player label {exc.args[0]!r} in coalition key {key!r}"
            raise FileFormatError(message) from None
        if mask.bit_count() != len(parts):  # the sum carried: a label is repeated
            part = next(p for i, p in enumerate(parts) if p in parts[:i])
            raise FileFormatError(f"player {part!r} repeated in coalition key {key!r}")
        self[key] = mask
        return mask


def _within_digit_limit(token: str) -> bool:
    """False when the token's exponent makes more digits than Python writes
    as text; ValueError when the exponent is not an integer."""
    mantissa, e, exponent = token.lower().partition("e")
    limit = sys.get_int_max_str_digits()
    return not (e and limit and len(mantissa) + abs(int(exponent)) > limit)


def _exact_ratio(token: str) -> tuple[int, int]:
    """The value ``Fraction(token)`` reads, as (p, q) in lowest terms, q > 0;
    ValueError when Fraction rejects the token or its denominator is 0.

    An optional sign and decimal digits, with at most one "/" followed by
    decimal digits, are read by ``int`` and ``math.gcd``; Fraction accepts
    them with the same value. Any other spelling goes to ``Fraction``
    itself, unless its exponent makes more digits than Python writes as
    text (ValueError): that exact value could never be written out.
    """
    num, slash, den = token.partition("/")
    digits = num[1:] if num[:1] in ("+", "-") else num
    if digits.isdecimal():
        if not slash:
            return int(num), 1
        if den.isdecimal():
            p, q = int(num), int(den)
            if not q:
                raise ValueError
            g = math.gcd(p, q)
            return p // g, q // g
    if not _within_digit_limit(token):
        raise ValueError
    try:
        return Fraction(token).as_integer_ratio()
    except ZeroDivisionError:
        raise ValueError from None


class _JsonDecimal(str):
    """The text of a JSON number with a fraction or an exponent.

    ``_json_loads`` keeps it as text, so that ``_read_json_number`` converts
    it once, by the document's number mode, and can still tell it from a
    JSON string.
    """

    __slots__ = ()
    __repr__ = str.__str__


def _decimal_float(text: str) -> float:
    """The double nearest a decimal's exact value; ValueError when it is not
    a finite number."""
    x = float(text)
    if not x and not text.lower().partition("e")[0].strip("+-.0"):
        # float() keeps the sign of "-0.0"; its exact value has none
        return 0.0
    if not math.isfinite(x):
        raise ValueError
    return x


def _read_json_number(raw, mode: str) -> tuple[int, int] | float:
    """One JSON number as ``mode`` reads it: its exact value as (p, q) in
    lowest terms in rational mode, the double nearest that value in float
    mode. ValueError when it is not a finite number (a bool, say).

    A string is read as its stripped text. The digit limit binds only
    where an exact int is built: in float mode a string whose exponent
    passes it reads as the JSON number of that text does.
    """
    if type(raw) is int:  # not a bool
        p, q = raw, 1
    elif isinstance(raw, str):
        text = raw.strip()
        if mode == FLOAT and (type(raw) is _JsonDecimal or not _within_digit_limit(text)):
            return _decimal_float(text)
        p, q = _exact_ratio(text)
    else:
        raise ValueError
    if mode != FLOAT:
        return p, q
    try:
        return p / q
    except OverflowError:
        raise ValueError from None


def _json_loads(text: str):
    """A JSON document, its decimals kept as ``_JsonDecimal`` text and any
    repeated key rejected.

    A colon in JSON text either ends an object member's key or sits inside
    a string. So when the text holds as many colons as the plain decode
    has members in the top-level object, the objects among its values and
    theirs (``_members``), no object repeated a key and every object
    deeper down is empty: that decode, with no Python call per object, is
    the document. Any other text is decoded again with a hook that finds
    the repeat, and it raises any error the plain decode met.
    """
    try:
        doc = json.loads(text, parse_float=_JsonDecimal)
    except (ValueError, RecursionError):
        pass
    else:
        if text.count(":") == _members(doc):
            return doc

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
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise FileFormatError(f"bad number: {str(exc).partition(';')[0]}") from None
    except RecursionError:
        raise FileFormatError("not valid JSON: nested too deeply") from None


def _members(doc) -> int:
    """The members of ``doc``, when it is an object, of the objects among
    its values, and of theirs where every value of an object is one."""
    if type(doc) is not dict:
        return 0
    count = len(doc)
    for value in doc.values():
        if type(value) is dict:
            count += len(value)
            inner = value.values()
            if set(map(type, inner)) == {dict}:
                count += sum(map(len, inner))
    return count


def _read_header(text: str, what: str, body: str, *optional: str):
    """(labels, number mode, document) of a game or JSON table file, whose
    coalition-keyed objects sit under ``body`` and any ``optional`` field."""
    doc = _json_loads(text)
    if not isinstance(doc, dict):
        raise FileFormatError(f"{what} must be a JSON object")
    unknown = set(doc) - {"players", "number_mode", body, *optional}
    if unknown:
        raise FileFormatError(f"unknown field(s): {', '.join(sorted(unknown))}")
    if "players" not in doc or body not in doc:
        raise FileFormatError(f'{what} needs "players" and "{body}"')
    labels = _check_labels(doc["players"])
    mode = doc.get("number_mode", RATIONAL)
    if mode not in (RATIONAL, FLOAT):
        raise FileFormatError(f'number_mode must be "rational" or "float", got {mode!r}')
    for field in (body, *optional):
        if not isinstance(doc.get(field, {}), dict):
            raise FileFormatError(f'"{field}" must be an object keyed by coalition')
    return labels, mode, doc


def parse_game(text: str) -> GameDocument:
    """Parse a game file; raises FileFormatError or a game validation error."""
    labels, mode, doc = _read_header(text, "game file", "values")
    try:
        game = _read_stored(labels, mode, doc["values"])
        if game is None:
            game = _read_by_key(labels, mode, doc["values"])
    except NotMonotoneError as exc:
        sub = coalition_key(labels, exc.subset) or "(empty)"
        sup = coalition_key(labels, exc.superset)
        raise NotMonotoneError(
            exc.subset,
            exc.superset,
            f"not monotone: coalition {{{sub}}} is worth more than its superset {{{sup}}}",
        ) from None
    return GameDocument(game, labels, mode)


def _read_stored(labels: tuple[str, ...], mode: str, values: dict) -> Game | None:
    """The game of a "values" object that every screen below clears, read
    with C-level maps straight into ``Game._stored``; None when a screen
    fails, and the object is read key by key instead.

    The keys must be the canonical ones, in any order: each mask's key is
    looked up once in ``values``. In rational mode every token must be a
    JSON int, or a string "p/q" of decimal digits with q not 0, which
    ``_exact_ratio`` reads with ``int`` too. The tokens are scaled to the
    lcm D of their stated denominators and then reduced by
    g = gcd(D, N₁, …, N_k): as lcmᵢ(D / gcd(Nᵢ, D)) = D / g, that gives
    the least common denominator ``Game`` would find. A D past the
    denominator cap goes key by key, where ``Game`` decides. In float mode
    every token must be a JSON number that ``float`` reads as a finite
    double; zeros are read again by ``_decimal_float`` for its rule on
    signed zeros.
    """
    keys = _coalition_keys(labels)
    if len(values) != len(keys) - ("" not in values):
        return None
    raw = list(map(values.get, keys))
    if "" not in values:
        raw[0] = 0
    types = set(map(type, raw))  # NoneType for a key not in canonical form
    n = len(labels)
    if mode == FLOAT:
        if not types <= {_JsonDecimal, int}:
            return None
        try:
            floats = list(map(float, raw))
        except OverflowError:  # an int too large for a float
            return None
        if not all(map(math.isfinite, floats)):
            return None
        for mask in list(compress(count(), map(not_, floats))):
            floats[mask] = _decimal_float(str(raw[mask]))
        return Game._stored(n, tuple(floats), None)
    if not types <= {int, str}:
        return None
    is_text = list(map(isinstance, raw, repeat(str)))
    texts = list(compress(raw, is_text))
    # each text must be "p/q": one "/" between two runs of decimal digits
    parts = "/".join(texts).split("/") if texts else []
    if (
        len(parts) != 2 * len(texts)
        or not all(map(str.__contains__, texts, repeat("/")))
        or not all(map(str.isdecimal, parts))
    ):
        return None
    nums, dens = parts[0::2], parts[1::2]
    try:  # int() refuses digits past Python's limit
        den_of = {text: int(text) for text in set(dens)}
        d = math.lcm(*den_of.values())
        if not d or d.bit_length() > _MAX_DENOMINATOR_BITS:
            return None
        factor = {text: d // q for text, q in den_of.items()}
        # the ints and the texts, each scaled to d, merged back in mask order
        sources = (
            map(mul, compress(raw, map(not_, is_text)), repeat(d)),
            map(mul, map(int, nums), map(factor.__getitem__, dens)),
        )
        scaled = list(map(next, map(sources.__getitem__, is_text)))
    except ValueError:
        return None
    g = math.gcd(d, *scaled)
    if g > 1:
        scaled = list(map(floordiv, scaled, repeat(g)))
        d //= g
    return Game._stored(n, tuple(scaled), d)


def _read_by_key(labels: tuple[str, ...], mode: str, values: dict) -> Game:
    """The game of any "values" object, one key and one token at a time,
    each fault reported as the first key that shows it."""
    n = len(labels)
    mask_of = _KeyMasks(labels)
    table: list[Scalar | None] = [None] * (1 << n)
    for key, raw in values.items():
        mask = mask_of[key]
        if table[mask] is not None:
            raise FileFormatError(
                f"duplicate coalition {coalition_key(labels, mask)!r}"
            )
        try:
            x = _read_json_number(raw, mode)
        except ValueError:
            raise FileFormatError(f"bad number for coalition {key!r}: {raw!r}") from None
        table[mask] = x if mode == FLOAT else Fraction(*x)
    if table[0] is None:
        table[0] = 0.0 if mode == FLOAT else Fraction(0)
    for mask, x in enumerate(table):
        if x is None:
            raise FileFormatError(
                f"missing coalition value {coalition_key(labels, mask)!r}"
            )
    return Game(n, tuple(table))


# The writers build each document from C-level maps and one join: every
# distinct entry of a row is rendered once, a JSON member and a long CSV
# row are one "%" template filled per coalition, and a wide CSV row is one
# join. No Python statement runs per cell, and the bytes are those of
# json.dumps(indent=2) and csv.writer on the same document.
_json_string = json.encoder.encode_basestring_ascii

_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_number(x: Scalar) -> str:
    """A number as JSON: an int, a quoted "p/q", or a float's repr."""
    if isinstance(x, float):
        text = float.__repr__(x)
        return _NON_FINITE.get(text, text)
    p, q = x.as_integer_ratio()
    return repr(p) if q == 1 else f'"{p}/{q}"'


def _ordered_texts(rows, d: int | None, order: list[int], quote: str):
    """Each row's entry texts, a tuple in ``order`` (two masks or more):
    "p/q" in lowest terms (inside ``quote``) or "p" for an exact number,
    ``repr`` for a float (JSON's spelling for one that is not finite when
    ``quote`` is set).

    ``rows`` are stored entries, ints over ``d`` when ``d`` is set. Each
    distinct entry of a row is rendered once and found by a dict lookup.
    A NaN is found only by identity, which holds since the dict's keys are
    the row's own objects. 0.0 and -0.0 are one key with two texts, so a
    float row that holds both renders entry by entry.
    """
    in_order = itemgetter(*order)
    for row in rows:
        distinct = set(row)
        if d is not None:
            text = {}
            for p in distinct:
                g = math.gcd(p, d)
                text[p] = str(p // d) if g == d else f"{quote}{p // g}/{d // g}{quote}"
            lookup = text.__getitem__
        else:
            render = _json_number if quote else str
            if (
                type(row[0]) is float
                and 0.0 in distinct
                and len(set(map(math.copysign, repeat(1.0), filter(not_, row)))) > 1
            ):
                lookup = render
            else:
                lookup = dict(zip(distinct, map(render, distinct))).__getitem__
        yield in_order(list(map(lookup, row)))


def _json_object(parts: list[str], template: str, items) -> None:
    """Append a JSON object nested one level deep, one member per item,
    rendered by ``template`` (four spaces in, ",\n" at the end), as
    json.dumps(indent=2) writes it; with no items, "{}"."""
    start = len(parts)
    parts += map(template.__mod__, items)
    if len(parts) == start:
        parts.append("{}")
    else:
        parts[start] = "{\n" + parts[start]
        parts[-1] = parts[-1][:-2] + "\n  }"


def _json_players(labels: tuple[str, ...]) -> str:
    """The "players" field: a count for the default labels, else the list."""
    if labels == default_labels(len(labels)):
        return f'"players": {len(labels)}'
    return '"players": [\n    ' + ",\n    ".join(map(_json_string, labels)) + "\n  ]"


def serialize_game(doc: GameDocument) -> str:
    """Canonical, byte-stable JSON for a game document."""
    labels = doc.labels
    game = doc.game
    keys, order = _keys_in_order(labels)
    parts = ["{\n  ", _json_players(labels), ",\n  "]
    if doc.number_mode == FLOAT:
        parts.append(f'"number_mode": "{FLOAT}",\n  ')
    parts.append('"values": ')
    (texts,) = _ordered_texts((game._numerators,), game._denominator, order, '"')
    json_keys = map(_json_string, map(keys.__getitem__, order))
    # the empty coalition, first in the order, is left out
    _json_object(parts, "    %s: %s,\n", islice(zip(json_keys, texts), 1, None))
    parts.append("\n}\n")
    return "".join(parts)


def format_scalar(x: Scalar) -> str:
    """Render one number: exact rationals as p/q, floats to 12 significant digits."""
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it among other fields, quoted when
    it holds a "\r" too: a writer quotes only the line breaks of its own
    line terminator, and a bare "\r" would end the line for a reader."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow((text, ""))
    return buf.getvalue()[:-3]


def serialize_matrix(doc: MatrixDocument, form: str = "table") -> str:
    """Render a reward table as "table" or "long" CSV, or as JSON."""
    return _serialize_matrix(doc, form, *_keys_in_order(doc.labels))


def _serialize_matrix(doc: MatrixDocument, form: str, keys: list[str], order: list[int]) -> str:
    """``serialize_matrix`` with the labels' ``_keys_in_order`` given."""
    labels = doc.labels
    matrix = doc.matrix
    n = len(labels)
    if n != matrix.n_players:
        raise FileFormatError("label count does not match the matrix")
    if form not in ("table", "long", "json"):
        raise FileFormatError(f'unknown format {form!r}; expected table, long, or json')
    rows = _ordered_texts(
        matrix._numerators, matrix._denominator, order, '"' if form == "json" else ""
    )

    if form == "json":
        json_keys = list(map(_json_string, keys))
        players = (_json_string(lab).replace("%", "%%") + ": %s" for lab in labels)
        template = "    %s: {\n      " + ",\n      ".join(players) + "\n    },\n"
        mode = RATIONAL if matrix.exact else FLOAT
        parts = ["{\n  ", _json_players(labels), f',\n  "number_mode": "{mode}",\n  "rewards": ']
        _json_object(parts, template, zip(map(json_keys.__getitem__, order), *rows))
        efficient = doc.efficient_player
        if efficient is not None:
            parts.append(',\n  "efficient_player": ')
            chosen = list(filter(efficient.__contains__, order))
            names = map(_json_string, map(labels.__getitem__, map(efficient.__getitem__, chosen)))
            _json_object(parts, "    %s: %s,\n", zip(map(json_keys.__getitem__, chosen), names))
        parts.append("\n}\n")
        return "".join(parts)

    # Canonical order puts the empty coalition first, then the n singletons,
    # whose keys are labels; every larger key holds a comma, so csv.writer
    # quotes it.
    label_fields = list(map(_csv_field, labels))
    larger = map(keys.__getitem__, order[n + 1 :])
    if any('"' in lab for lab in labels):
        larger = map(str.replace, larger, repeat('"'), repeat('""'))
    key_fields = [
        "",
        *(label_fields[m.bit_length() - 1] for m in order[1 : n + 1]),
        *map('"%s"'.__mod__, larger),
    ]
    if form == "table":
        parts = ["player,", ",".join(key_fields), "\n"]
        for field, texts in zip(label_fields, rows):
            parts += (field, ",", ",".join(texts), "\n")
    else:
        parts = ["player,coalition,reward\n"]
        for field, texts in zip(label_fields, rows):
            template = field.replace("%", "%%") + ",%s,%s\n"
            parts.append("".join(map(template.__mod__, zip(key_fields, texts))))
    return "".join(parts)


def _read_csv_number(token: str) -> tuple[int, int] | float:
    """One CSV number: a float when spelled with "." or an exponent, else
    its exact value as (p, q) in lowest terms. ValueError when it is not a
    finite number."""
    token = token.strip()
    if "." in token or "e" in token or "E" in token:
        x = float(token)
        if not math.isfinite(x):
            raise ValueError
        return x
    return _exact_ratio(token)


def _read_table(mask_of: _KeyMasks, runs, read) -> RewardMatrix:
    """The one cell reader: the table over ``mask_of.labels`` that ``runs`` fill.

    A run is one player's cells, (label, keys, tokens), or one coalition's,
    (labels, key, tokens). Its one label or key is resolved once, and a run
    with the very keys list of the run before reuses its masks.

    ``read`` gives a token's value: its exact (p, q) in lowest terms, or a
    float (ValueError when the token is not a finite number). It runs once
    per distinct token. A memo maps each token to the index of its value,
    and a cell holds that index, so a cell costs at most a dict hit, the
    duplicate check and a memo hit. Tokens repeat in every balanced table:
    a player's non-member cells all hold their solo value.

    The table is built from the distinct values. When all are exact, it is
    stored as ints over the lcm of their denominators, each value scaled
    once. A float among them makes the whole table float, and an lcm past
    ``_MAX_DENOMINATOR_BITS`` keeps the Fractions; both go through
    ``RewardMatrix`` itself.
    """
    labels = mask_of.labels
    table = [[None] * (1 << len(labels)) for _ in labels]
    row_of = dict(zip(labels, table))
    last_keys = masks = None
    filled = 0
    memo: dict = {}
    values: list = []

    def fault(what: str, row: list, mask: int, detail: str = "") -> FileFormatError:
        label = next(lab for lab, r in row_of.items() if r is row)
        key = coalition_key(labels, mask)
        return FileFormatError(f"{what} for player {label!r}, coalition {key!r}{detail}")

    for first, second, tokens in runs:
        if type(first) is str:
            if second is not last_keys:
                last_keys, masks = second, list(map(mask_of.__getitem__, second))
            cells = zip(repeat(row_of[first]), masks, tokens)
        else:
            cells = zip(map(row_of.__getitem__, first), repeat(mask_of[second]), tokens)
        try:
            for row, mask, token in cells:
                if row[mask] is not None:
                    raise fault("duplicate reward", row, mask)
                # True == 1 and hashes as 1, so a JSON true would find 1's entry
                if token is True or token is False:
                    raise ValueError
                try:
                    row[mask] = memo[token]
                except KeyError:
                    values.append(read(token))
                    row[mask] = memo[token] = len(values) - 1
        except KeyError as exc:  # from row_of alone: a coalition names an unknown player
            label, key = exc.args[0], coalition_key(labels, mask_of[second])
            raise FileFormatError(f"unknown player label {label!r}, coalition {key!r}") from None
        except (ValueError, TypeError):  # TypeError: a JSON array or object, unhashable
            if isinstance(token, str) and not token.strip():
                raise fault("empty number", row, mask) from None
            raise fault("bad number", row, mask, f": {token!r}") from None
        filled += len(tokens)
    if filled != len(labels) << len(labels):  # with no duplicates, a cell is missing
        row, mask = next((r, m) for r in table for m, x in enumerate(r) if x is None)
        raise fault("missing reward", row, mask)

    def rows(entries: list) -> tuple[tuple, ...]:
        return tuple(tuple(map(entries.__getitem__, row)) for row in table)

    if all(type(x) is tuple for x in values):
        d = 1
        for q in {q for _, q in values}:
            d = math.lcm(d, q)
            if d.bit_length() > _MAX_DENOMINATOR_BITS:
                break  # keep the Fractions, as RewardMatrix does
        else:
            return RewardMatrix._stored(len(labels), rows([p * (d // q) for p, q in values]), d)
    entries = [Fraction(*x) if type(x) is tuple else x for x in values]
    try:
        return RewardMatrix(len(labels), rows(entries))
    except OverflowError:  # a float made the table float, and an exact entry overflows it
        for row in table:
            for mask, i in enumerate(row):
                try:
                    float(entries[i])
                except OverflowError:
                    detail = f": {entries[i]} is too large for a float"
                    raise fault("bad number", row, mask, detail) from None
        raise


def parse_matrix(text: str) -> MatrixDocument:
    """Parse a reward table in any of the three shapes (detected from content).

    Each shape turns its text into runs of cells and checks only its own
    structure; ``_read_table`` reads the cells.
    """
    efficient: EfficientPlayerMap | None = None
    read = _read_csv_number
    if text.lstrip().startswith("{"):
        labels, mode, doc = _read_header(text, "reward table file", "rewards", "efficient_player")
        mask_of = _KeyMasks(labels)
        if "efficient_player" in doc:
            efficient = {}
            for key, lab in doc["efficient_player"].items():
                mask = mask_of[key]
                if mask in efficient:
                    key = coalition_key(labels, mask)
                    raise FileFormatError(f"duplicate efficient player for coalition {key!r}")
                bit = mask_of.bit_of.get(lab) if type(lab) is str else None
                if bit is None:
                    raise FileFormatError(f"unknown player label {lab!r}")
                if not mask & bit:
                    raise FileFormatError(f"efficient player {lab!r} is not in coalition {key!r}")
                efficient[mask] = bit.bit_length() - 1
        rewards = doc["rewards"]
        for key, per_player in rewards.items():
            if not isinstance(per_player, dict):
                raise FileFormatError(f"rewards for coalition {key!r} must be an object")
        runs = ((per_player, key, per_player.values()) for key, per_player in rewards.items())
        read = lambda raw: _read_json_number(raw, mode)
    else:
        try:
            rows = list(filter(None, csv.reader(io.StringIO(text))))
        except csv.Error as exc:
            raise FileFormatError(f"bad CSV: {exc}") from None
        if not rows:
            raise FileFormatError("empty reward table file")
        header, body = rows[0], rows[1:]
        if not body:
            raise FileFormatError("reward table has no player rows")
        if [c.strip() for c in header] == ["player", "coalition", "reward"]:
            # One pass over the rows: one run per stretch of rows that share
            # a player, its width checked and its rows split into keys and
            # tokens. The labels then come from the runs, not the rows.
            runs = []
            for label, stretch in groupby(body, itemgetter(0)):
                stretch = list(stretch)
                if set(map(len, stretch)) != {3}:
                    raise FileFormatError("long CSV rows must be player,coalition,reward")
                runs.append((label, [r[1] for r in stretch], [r[2] for r in stretch]))
            mask_of = _KeyMasks(_check_labels(list(dict.fromkeys(run[0] for run in runs))))
        else:
            if header[0] != "player":
                raise FileFormatError('wide CSV must start with a "player" header column')
            mask_of = _KeyMasks(_check_labels([r[0] for r in body]))
            for r in body:
                if len(r) != len(header):
                    raise FileFormatError(f"row for player {r[0]!r} has the wrong width")
            keys = header[1:]
            runs = ((r[0], keys, r[1:]) for r in body)
    matrix = _read_table(mask_of, runs, read)
    return MatrixDocument(matrix, mask_of.labels, RATIONAL if matrix.exact else FLOAT, efficient)


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
    matrix = doc.matrix
    rows: list[tuple] = [()] * n
    for i, row in enumerate(matrix._numerators):
        rows[perm[i]] = tuple(map(row.__getitem__, source))
    efficient = None
    if doc.efficient_player is not None:
        efficient = {remapped[m]: perm[k] for m, k in doc.efficient_player.items()}
    # the same entries in another order keep their least denominator
    aligned = RewardMatrix._stored(n, tuple(rows), matrix._denominator)
    return MatrixDocument(aligned, labels, doc.number_mode, efficient)


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
