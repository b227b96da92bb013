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
from typing import NamedTuple

from .errors import DimensionMismatchError, OutOfRangeError
from .games import Game, Scalar, members

# Maps each coalition of size >= 2 to the member whose reward equals the
# coalition's full value.
EfficientPlayerMap = dict[int, int]


@dataclass(frozen=True)
class RewardMatrix:
    """Dense reward table: ``rewards[player][coalition_mask]``.

    One row per player, one column per coalition, 2**n_players columns.
    Frozen and hashable so matrices can be compared and deduplicated
    entrywise.
    """

    n_players: int
    rewards: tuple[tuple[Scalar, ...], ...]

    def __post_init__(self):
        width = 1 << self.n_players
        if len(self.rewards) != self.n_players or any(
            len(row) != width for row in self.rewards
        ):
            raise DimensionMismatchError(
                f"reward table must be {self.n_players} x {width}"
            )

    @property
    def num_coalitions(self) -> int:
        return 1 << self.n_players

    @property
    def exact(self) -> bool:
        return not isinstance(self.rewards[0][0], float)

    def reward(self, player: int, coalition: int) -> Scalar:
        if not 0 <= player < self.n_players:
            raise OutOfRangeError(f"player {player} out of range")
        if not 0 <= coalition < self.num_coalitions:
            raise OutOfRangeError(f"coalition mask {coalition} out of range")
        return self.rewards[player][coalition]

    def column(self, coalition: int) -> tuple[Scalar, ...]:
        """All players' rewards for one coalition."""
        if not 0 <= coalition < self.num_coalitions:
            raise OutOfRangeError(f"coalition mask {coalition} out of range")
        return tuple(row[coalition] for row in self.rewards)

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
    """
    v = game.values
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

    Deterministic: equal games give entrywise-equal matrices. In exact mode
    every entry is a Fraction; in float mode, a float.
    """
    rows, efficient = _fill_down_set(game, game.grand_coalition)
    return SolveResult(RewardMatrix(game.n_players, tuple(map(tuple, rows))), efficient)
