"""The balanced reward allocation for games with replicable rewards.

Rewards here are replicable (think information or software): handing a
member their share does not shrink what the others can get, so a coalition
may pay out more than its own value in total. What pins down a unique
allocation is a reciprocity condition: for any two members, what i gains
by j joining equals what j gains by i joining. Together with giving some
member the full coalition value, and fixing non-members at their solo
value, this determines every entry of the reward table.

The table is the gradient of a min-plus potential over coalitions,

    P(∅) = 0,    P(C) = v(C) + min_{i∈C} P(C∖i),    r_i(C) = P(C) − P(C∖i),

the ``min`` analogue of the Hart–Mas-Colell potential behind Shapley values
(Econometrica 57(3), 1989). The efficient player k of C is the
lowest-index argmin, so r_k(C) = v(C). The solver computes P one
coalition size at a time: per member position, one C-level gather reads P
at every C∖i of that size, and the first position holding the minimum
gives k. Exact entries are then the differences P(C) − P(C∖i), taken a
row slice at a time. Float entries are filled size by size from k's row,
as v(C) − r_k(C∖i) + r_i(C∖k), which equals P(C) − P(C∖i) in exact
arithmetic but keeps the rounding relative to v(C), whereas the difference
of two float potentials rounds relative to P, which grows to about n·v(N).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import compress
from operator import add, and_, getitem, itemgetter, setitem, sub
from typing import NamedTuple, Sequence

from .errors import DimensionMismatchError, OutOfRangeError
from .games import Game, Scalar, _over_common_denominator, _runs

# Maps each coalition of size >= 2 to the member whose reward equals the
# coalition's full value.
EfficientPlayerMap = dict[int, int]


@dataclass(frozen=True, init=False, repr=False, eq=False)
class RewardMatrix:
    """Dense reward table: ``rewards[player][coalition_mask]``.

    One row per player, one column per coalition, 2**n_players columns.
    Frozen and hashable; tables with equal entries are == and hash equal.

    An exact table is stored once, as ints over the least common
    denominator of its entries (``_numerators`` over ``_denominator``),
    and every layer computes on those ints. ``rewards`` gives the same
    entries as Fractions; it is built on first read and then kept. As in
    ``Game``, one float entry makes the whole table float. A float table,
    or an exact one past the denominator cap of
    ``games._over_common_denominator``, keeps its entries as given (floats
    by ``float()``), with ``_denominator`` None.
    """

    n_players: int
    _numerators: tuple[tuple, ...]
    _denominator: int | None

    def __init__(self, n_players: int, rewards: tuple[tuple[Scalar, ...], ...]):
        width = 1 << n_players
        if len(rewards) != n_players or any(len(row) != width for row in rewards):
            raise DimensionMismatchError(f"reward table must be {n_players} x {width}")
        numerators, d = _over_common_denominator(rewards)
        if d is None:
            types = set().union(*(map(type, row) for row in rewards))
            if float in types and types != {float}:
                numerators = tuple(tuple(map(float, row)) for row in rewards)
        object.__setattr__(self, "n_players", n_players)
        object.__setattr__(self, "_numerators", numerators)
        object.__setattr__(self, "_denominator", d)

    @classmethod
    def _stored(
        cls, n_players: int, numerators: tuple[tuple, ...], denominator: int | None
    ) -> "RewardMatrix":
        """A table from rows already in stored form, over the least common
        denominator of its entries, as the public constructor would find."""
        matrix = object.__new__(cls)
        object.__setattr__(matrix, "n_players", n_players)
        object.__setattr__(matrix, "_numerators", numerators)
        object.__setattr__(matrix, "_denominator", denominator)
        return matrix

    @cached_property
    def rewards(self) -> tuple[tuple[Scalar, ...], ...]:
        d = self._denominator
        if d is None:
            return self._numerators
        out = []
        for row in self._numerators:
            # non-members all hold the solo value: one Fraction serves them
            entry = {p: Fraction(p, d) for p in set(row)}
            out.append(tuple(map(entry.__getitem__, row)))
        return tuple(out)

    def __eq__(self, other):
        if not isinstance(other, RewardMatrix):
            return NotImplemented
        return self.n_players == other.n_players and self.rewards == other.rewards

    def __hash__(self):
        return hash((self.n_players, self.rewards))

    def __repr__(self):
        return f"RewardMatrix(n_players={self.n_players!r}, rewards={self.rewards!r})"

    @property
    def num_coalitions(self) -> int:
        return 1 << self.n_players

    @property
    def exact(self) -> bool:
        return self._denominator is not None or not isinstance(
            self._numerators[0][0], float
        )

    def reward(self, player: int, coalition: int) -> Scalar:
        if not 0 <= player < self.n_players:
            raise OutOfRangeError(f"player {player} out of range")
        if not 0 <= coalition < self.num_coalitions:
            raise OutOfRangeError(f"coalition mask {coalition} out of range")
        x = self._numerators[player][coalition]
        return x if self._denominator is None else Fraction(x, self._denominator)

    def as_float(self) -> "RewardMatrix":
        return RewardMatrix(
            self.n_players,
            tuple(tuple(float(x) for x in row) for row in self.rewards),
        )

    def replace_entry(self, player: int, coalition: int, value: Scalar) -> "RewardMatrix":
        """Copy with a single entry overwritten (handy for tamper tests)."""
        self.reward(player, coalition)  # bounds check
        rows = [list(row) for row in self.rewards]
        rows[player][coalition] = value
        return RewardMatrix(self.n_players, tuple(tuple(row) for row in rows))


class SolveResult(NamedTuple):
    matrix: RewardMatrix
    efficient_player: EfficientPlayerMap


class _Level(NamedTuple):
    """The coalitions of one size, ascending (``masks``). For each member
    position j, counted from the lowest player, ``drop[j]`` gathers a dense
    table at every mask less its j-th member, and ``who[j]`` holds that
    member."""

    masks: tuple[int, ...]
    drop: tuple[itemgetter, ...]
    who: tuple[bytes, ...]


def _gather(indices: Sequence[int]) -> itemgetter:
    # itemgetter of one index returns the item itself; a one-wide slice
    # keeps the result a sequence
    if len(indices) == 1:
        return itemgetter(slice(indices[0], indices[0] + 1))
    return itemgetter(*indices)


@lru_cache(maxsize=None)
def _levels(n_players: int) -> tuple[_Level, ...]:
    """Every coalition size of an n-player game, as ``_Level``s, size 0 first.

    Built from 0 players up: with t players, size L holds the masks of
    size L without player t, then those of size L−1 with t added, so each
    size stays ascending and every position's gather extends the last
    one's. The smaller player counts it passes through are not kept. Every
    mask is an int of one shared list, so the tables cost a pointer per
    (coalition, member): 1.6 MB at n=14.
    """
    shared = list(range(1 << n_players))
    levels = [([0], [], [])]
    for t in range(n_players):
        top = 1 << t
        # x -> x | top for x < top, without a new int per entry
        up = shared[top : 2 * top].__getitem__
        grown = [levels[0]]
        for size in range(1, t + 2):
            masks, drops, who = levels[size] if size <= t else ([], [[]] * size, [b""] * size)
            lo_masks, lo_drops, lo_who = levels[size - 1]
            # positions below t keep their gathers moved up by top; t, the
            # last position, leaves exactly the mask it was added to
            grown.append((
                [*masks, *map(up, lo_masks)],
                [[*d, *map(up, lo)] for d, lo in zip(drops, lo_drops)] + [drops[-1] + lo_masks],
                [w + lo for w, lo in zip(who, lo_who)] + [who[-1] + bytes([t]) * len(lo_masks)],
            ))
        levels = grown
    return tuple(
        _Level(tuple(masks), tuple(map(_gather, drops)), tuple(who))
        for masks, drops, who in levels
    )


def _fill_float(rows: list[list], level: _Level, efficient: list[int], values: list) -> None:
    """One size's float entries, from the entries of the size below.

    The efficient player k of C gets v(C), and every other member
    v(C) − r_k(C∖i) + r_i(C∖k), which rounds relative to v(C).
    """
    masks = level.masks
    deque(map(setitem, map(rows.__getitem__, efficient), masks, values), 0)
    for who in level.who:
        for mask, i, k, v_c in zip(masks, who, efficient, values):
            if i != k:
                row_i = rows[i]
                row_i[mask] = v_c - rows[k][mask ^ (1 << i)] + row_i[mask ^ (1 << k)]


def _min_plus(n: int, v: Sequence[Scalar]) -> list:
    """The min-plus potential P of the n-player game whose stored values
    are ``v``, without the efficient players: one C-level ``min`` over the
    size's gathers per coalition."""
    p = list(v)
    for level in _levels(n)[2:]:
        masks = level.masks
        least = map(min, *[take(p) for take in level.drop])
        deque(map(p.__setitem__, masks, map(add, map(v.__getitem__, masks), least)), 0)
    return p


def _min_plus_potential(
    n: int, v: Sequence[Scalar], float_rows: list[list] | None = None
) -> tuple[list, list[int]]:
    """The min-plus potential P of the n-player game whose stored values
    are ``v``, and the efficient player at every mask of two or more
    members. Given a float game's reward rows, seeded with solo values,
    it also fills their entries one size at a time."""
    # P(C) = v(C) up to size 1, since v(∅) = 0
    p = list(v)
    chosen = [0] * len(v)
    for level in _levels(n)[2:]:
        masks = level.masks
        options = list(zip(*[take(p) for take in level.drop]))
        least = list(map(min, options))
        # the first position holding the minimum is the lowest-index argmin
        at = map(level.who.__getitem__, map(tuple.index, options, least))
        efficient = list(map(getitem, at, range(len(masks))))
        values = list(map(v.__getitem__, masks))
        deque(map(p.__setitem__, masks, map(add, values, least)), 0)
        deque(map(chosen.__setitem__, masks, efficient), 0)
        if float_rows is not None:
            _fill_float(float_rows, level, efficient, values)
    return p, chosen


def solve(game: Game) -> SolveResult:
    """Compute the full reward table and the efficient player per coalition.

    Deterministic: equal games give entrywise-equal matrices. An exact game
    is solved on its ints over its common denominator, and the table keeps
    them as they are; its ``rewards`` read as Fractions. A float game is
    solved on its floats.
    """
    n = game.n_players
    v = game._numerators
    # non-members keep their solo value, as does every member of a
    # coalition of size <= 1
    rows = [[v[1 << i]] * (1 << n) for i in range(n)]
    if game.exact:
        p, chosen = _min_plus_potential(n, v)
        for run in _runs(n):
            rows[run.i][run.with_i] = map(sub, p[run.with_i], p[run.without_i])
    else:
        _, chosen = _min_plus_potential(n, v, rows)
    # ascending masks of two or more members: m & (m − 1) is nonzero
    pairs = map(and_, range(1 << n), range(-1, (1 << n) - 1))
    # the table holds every value of the game (v(C) goes to C's efficient
    # player, v({i}) to i alone), so the game's denominator is its least one
    matrix = RewardMatrix._stored(n, tuple(map(tuple, rows)), game._denominator)
    return SolveResult(matrix, dict(compress(enumerate(chosen), pairs)))
