"""Players, coalitions, and monotone characteristic functions.

A coalition is a plain int used as a bitmask: bit ``i`` set means player
``i`` belongs to it (players are 0-indexed internally). A game stores its
characteristic function as a dense table indexed by coalition mask, so a
game on ``n`` players carries ``2**n`` values.

Values are either all exact rationals (fractions.Fraction, the default) or
all binary64 floats; a single game never mixes the two.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import (
    BadLengthError,
    BadParamsError,
    EmptyNotZeroError,
    NegativeValueError,
    NotMonotoneError,
    SizeLimitExceededError,
)

Scalar = Fraction | float

MAX_PLAYERS = 20

# Increments from the random generator land on this grid so rational games
# keep small denominators no matter how many values get combined later.
_INCREMENT_GRID = 16


def _check_player_count(count: int) -> None:
    # before anything is sized by the count: tables hold 2**count cells
    if count > MAX_PLAYERS:
        raise SizeLimitExceededError(
            f"{count} players exceed MAX_PLAYERS = {MAX_PLAYERS}"
        )


def members(coalition: int) -> list[int]:
    """Player indices contained in a coalition mask, ascending."""
    out = []
    i = 0
    while coalition:
        if coalition & 1:
            out.append(i)
        coalition >>= 1
        i += 1
    return out


def mask_of(players: Iterable[int]) -> int:
    """Bitmask for an iterable of player indices."""
    mask = 0
    for p in players:
        mask |= 1 << p
    return mask


def submasks(coalition: int) -> Iterator[int]:
    """All subsets of a coalition mask, including itself and the empty set."""
    sub = coalition
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & coalition


def coalitions_by_size(n_players: int, min_size: int = 0) -> list[int]:
    """Every coalition mask ordered by size, then numerically within a size."""
    return sorted(
        (m for m in range(1 << n_players) if m.bit_count() >= min_size),
        key=lambda m: (m.bit_count(), m),
    )


def _coerce_values(raw: Sequence) -> tuple[Scalar, ...]:
    # Any float makes the whole table float; otherwise everything becomes
    # an exact Fraction (plain ints included).
    if any(isinstance(x, float) for x in raw):
        out = []
        for x in raw:
            try:
                x = float(x)
            except OverflowError:  # too large for a float: rejected below
                x = math.inf
            if not math.isfinite(x):
                raise NegativeValueError("values must be finite numbers")
            out.append(x)
        return tuple(out)
    return tuple(x if type(x) is Fraction else Fraction(x) for x in raw)


# Past this many bits the common denominator is dropped and exact
# comparisons run on the Fractions themselves: a table with thousands of
# distinct prime denominators would otherwise scale every entry to an
# enormous integer.
_MAX_DENOMINATOR_BITS = 256


def _common_denominator(seqs) -> int | None:
    """Least common denominator of every number, or None when one is not a
    Fraction or the denominator would pass ``_MAX_DENOMINATOR_BITS``."""
    denominators = set()
    for seq in seqs:
        if set(map(type, seq)) != {Fraction}:
            return None
        denominators.update(map(attrgetter("denominator"), seq))
    d = 1
    for q in denominators:
        d = math.lcm(d, q)
        if d.bit_length() > _MAX_DENOMINATOR_BITS:
            return None
    return d


def _scaled(seq: Sequence[Fraction], d: int) -> list[int]:
    return [p * (d // q) for p, q in map(Fraction.as_integer_ratio, seq)]


def first_monotonicity_violation(values: Sequence[Scalar]) -> tuple[int, int] | None:
    """First (subset, superset) pair where dropping a player raises the value.

    Scans coalitions in ascending mask order and players in ascending index
    order. Checking only single-player removals suffices: any violating
    subset chain contains a violating single step.
    """
    for mask in range(len(values)):
        sub = mask
        while sub:
            low = sub & -sub
            if values[mask ^ low] > values[mask]:
                return (mask ^ low, mask)
            sub ^= low
    return None


def is_monotone(values: Sequence) -> bool:
    """Whether a dense value table is monotone under coalition growth."""
    n_values = len(values)
    if n_values == 0 or n_values & (n_values - 1):
        raise BadLengthError(f"table length {n_values} is not a power of two")
    return first_monotonicity_violation(_coerce_values(values)) is None


@dataclass(frozen=True)
class Game:
    """A validated monotone cooperative game.

    Construction rejects anything that is not a genuine monotone game with
    a zero-valued empty coalition, so downstream code can rely on those
    facts without rechecking.
    """

    n_players: int
    values: tuple[Scalar, ...]

    def __post_init__(self):
        if not isinstance(self.n_players, int) or not 1 <= self.n_players <= MAX_PLAYERS:
            raise BadParamsError(
                f"n_players must be an int in [1, {MAX_PLAYERS}], got {self.n_players!r}"
            )
        values = _coerce_values(tuple(self.values))
        object.__setattr__(self, "values", values)
        if len(values) != 1 << self.n_players:
            raise BadLengthError(
                f"expected {1 << self.n_players} values for {self.n_players} players, "
                f"got {len(values)}"
            )
        # Exact values are compared as ints over their common denominator,
        # which keeps every < and != of the Fractions.
        d = _common_denominator((values,))
        compared = values if d is None else _scaled(values, d)
        if compared[0] != 0:
            raise EmptyNotZeroError("the empty coalition must have value 0")
        for mask, x in enumerate(compared):
            if x < 0:
                raise NegativeValueError(
                    f"coalition mask {mask} has negative value {values[mask]}"
                )
        violation = first_monotonicity_violation(compared)
        if violation is not None:
            raise NotMonotoneError(*violation)

    @property
    def num_coalitions(self) -> int:
        return 1 << self.n_players

    @property
    def grand_coalition(self) -> int:
        return (1 << self.n_players) - 1

    @property
    def exact(self) -> bool:
        """True when values are exact rationals rather than floats."""
        return not isinstance(self.values[0], float)

    def value(self, coalition: int) -> Scalar:
        return self.values[coalition]

    def solo_value(self, player: int) -> Scalar:
        """Value the player earns alone, v({i})."""
        return self.values[1 << player]

    def as_float(self) -> "Game":
        """The same game with every value converted to float."""
        return Game(self.n_players, tuple(float(x) for x in self.values))


def random_monotone_game(
    n_players: int, seed: int, max_increment: Scalar | int = 10
) -> Game:
    """Deterministic random monotone game.

    Built level by level: each coalition's value is the max over its
    one-player-smaller subsets plus a nonnegative increment drawn from a
    uniform grid over [0, max_increment]. Same arguments, same game,
    bitwise, on any platform.
    """
    if n_players < 1:
        raise BadParamsError("n_players must be at least 1")
    _check_player_count(n_players)
    if max_increment < 0:
        raise BadParamsError("max_increment must be nonnegative")
    if not isinstance(max_increment, float):
        max_increment = Fraction(max_increment)
    rng = random.Random(seed)
    values: list[Scalar] = [0] * (1 << n_players)
    for mask in coalitions_by_size(n_players, min_size=1):
        base = max(values[mask ^ (1 << i)] for i in members(mask))
        step = Fraction(rng.randint(0, _INCREMENT_GRID), _INCREMENT_GRID)
        values[mask] = base + step * max_increment
    return Game(n_players, tuple(values))


def additive_game(weights: Sequence[Scalar | int]) -> Game:
    """Game where a coalition is worth the sum of its members' weights."""
    if not weights:
        raise BadParamsError("additive game needs at least one weight")
    if any(w < 0 for w in weights):
        raise BadParamsError("additive weights must be nonnegative")
    n = len(weights)
    _check_player_count(n)
    values = [sum(weights[i] for i in members(mask)) for mask in range(1 << n)]
    values[0] = 0
    return Game(n, tuple(values))


def coverage_game(
    player_elements: Sequence[Iterable[str]],
    element_weights: Mapping[str, Scalar | int],
) -> Game:
    """Game where a coalition is worth the total weight of elements it covers.

    Each player owns a set of elements (possibly empty, which makes the
    player useless); a coalition covers the union of its members' sets.
    Coverage games are monotone and subadditive.
    """
    if not player_elements:
        raise BadParamsError("coverage game needs at least one player")
    n = len(player_elements)
    _check_player_count(n)
    sets = [frozenset(es) for es in player_elements]
    known = set(element_weights)
    for i, es in enumerate(sets):
        missing = es - known
        if missing:
            raise BadParamsError(
                f"player {i} owns elements with no weight: {sorted(missing)}"
            )
    if any(w < 0 for w in element_weights.values()):
        raise BadParamsError("element weights must be nonnegative")
    values: list[Scalar] = []
    for mask in range(1 << n):
        covered: set[str] = set()
        for i in members(mask):
            covered |= sets[i]
        values.append(sum(element_weights[e] for e in covered))
    values[0] = 0
    return Game(n, tuple(values))


def example1_game() -> Game:
    """The bundled 4-player demo game used throughout the docs and tests."""
    v = {
        (): 0,
        (1,): 1, (2,): 2, (3,): 1, (4,): 4,
        (1, 2): 3, (1, 3): 4, (1, 4): 7, (2, 3): 4, (2, 4): 7, (3, 4): 6,
        (1, 2, 3): 6, (1, 2, 4): 7, (1, 3, 4): 9, (2, 3, 4): 9,
        (1, 2, 3, 4): 9,
    }
    values = [0] * 16
    for players, x in v.items():
        values[mask_of(p - 1 for p in players)] = x
    return Game(4, tuple(values))


def counterexample3_game() -> Game:
    """Bundled 3-player game on which scaled Shapley rewards, for every
    admissible exponent, fail the balanced-reciprocity check.

    It is the additive game with weights (1, 2, 3); its simplicity is the
    point, since even here proportional scaling breaks pairwise balance.
    """
    return additive_game([1, 2, 3])


def raise_coalition_value(game: Game, coalition: int, delta: Scalar | int) -> Game:
    """A new game with ``coalition`` made strictly more valuable.

    Adds ``delta`` to the coalition's value and lifts any superset that
    would otherwise fall below it, so the result stays monotone while every
    non-superset keeps its old value.
    """
    if not 0 < coalition <= game.grand_coalition:
        raise BadParamsError(f"coalition mask {coalition} out of range")
    if not 0 < delta < math.inf:
        raise BadParamsError("delta must be positive and finite")
    if not isinstance(delta, float):
        delta = Fraction(delta)
    raised = game.values[coalition] + delta
    values = list(game.values)
    for mask in range(game.num_coalitions):
        if mask & coalition == coalition and values[mask] < raised:
            values[mask] = raised
    return Game(game.n_players, tuple(values))


FAMILIES = ("additive", "coverage", "example1", "counterexample3", "random-monotone")


def make_family(family: str, **params) -> Game:
    """Construct a game from one of the named families.

    Accepted parameters: additive(weights), coverage(sets, element_weights),
    random-monotone(players, seed, max_increment); example1 and
    counterexample3 take none.
    """
    builders: dict[str, Callable[..., Game]] = {
        "additive": lambda weights: additive_game(weights),
        "coverage": lambda sets, element_weights: coverage_game(sets, element_weights),
        "example1": example1_game,
        "counterexample3": counterexample3_game,
        "random-monotone": lambda players, seed, max_increment=10: random_monotone_game(
            players, seed, max_increment
        ),
    }
    if family not in builders:
        raise BadParamsError(
            f"unknown family {family!r}; expected one of {', '.join(FAMILIES)}"
        )
    try:
        return builders[family](**params)
    except TypeError as exc:
        raise BadParamsError(f"bad parameters for family {family!r}: {exc}") from None
