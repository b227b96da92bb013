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
lowest-index argmin, so r_k(C) = v(C). The solver computes P in one pass
over coalitions in ascending mask order and fills every other member's
entry from k's row, as v(C) − r_k(C∖i) + r_i(C∖k), which equals
P(C) − P(C∖i) in exact arithmetic. In float mode that expression keeps the
rounding relative to v(C), whereas the difference of two potentials
rounds relative to P, which grows to about n·v(N).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .errors import DimensionMismatchError, OutOfRangeError
from .games import Game, Scalar, _over_common_denominator, members

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


def _fill_down_set(game: Game, top: int) -> tuple[list[list[Scalar]], EfficientPlayerMap]:
    """Reward rows filled for every submask of ``top``, and their efficient
    players; entries of coalitions outside that down-set keep solo values.

    One pass over the submasks in ascending mask order, so every C∖i is
    done before C. Each entry depends only on its coalition's own
    submasks, so it comes out the same whatever ``top`` contains it.
    Entries are in the game's stored form: ints over its denominator when
    it has one, otherwise the values' own type.
    """
    v = game._numerators
    n = game.n_players
    # Non-members always keep their solo value, and in coalitions of size
    # <= 1 every player's reward is their solo value, so seed the whole
    # table with solo values and only overwrite members of larger coalitions.
    rows = [[v[1 << i]] * (1 << n) for i in range(n)]
    p = [v[0]] * (1 << n)
    efficient: EfficientPlayerMap = {}
    mask = 0
    while mask != top:
        mask = (mask - top) & top  # the next submask of top
        mem = members(mask)
        k = min(mem, key=lambda i: p[mask ^ (1 << i)])
        v_c = v[mask]
        p[mask] = v_c + p[mask ^ (1 << k)]
        if len(mem) < 2:
            continue
        efficient[mask] = k
        rows[k][mask] = v_c
        for i in mem:
            if i != k:
                rows[i][mask] = v_c - rows[k][mask ^ (1 << i)] + rows[i][mask ^ (1 << k)]
    return rows, efficient


def solve(game: Game) -> SolveResult:
    """Compute the full reward table and the efficient player per coalition.

    Deterministic: equal games give entrywise-equal matrices. An exact game
    is solved on its ints over its common denominator, and the table keeps
    them as they are; its ``rewards`` read as Fractions. A float game is
    solved on its floats.
    """
    rows, efficient = _fill_down_set(game, game.grand_coalition)
    # the table holds every value of the game (v(C) goes to C's efficient
    # player, v({i}) to i alone), so the game's denominator is its least one
    matrix = RewardMatrix._stored(game.n_players, tuple(map(tuple, rows)), game._denominator)
    return SolveResult(matrix, efficient)
