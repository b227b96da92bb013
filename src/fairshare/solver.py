"""The balanced reward allocation for games with replicable rewards.

Rewards here are replicable (think information or software): handing a
member their share does not shrink what the others can get, so a coalition
may pay out more than its own value in total. What pins down a unique
allocation is a reciprocity condition: for any two members, what i gains
by j joining equals what j gains by i joining. Together with giving some
member the full coalition value, and fixing non-members at their solo
value, this determines every entry of the reward table.

The solver fills the table level by level over coalition size. For each
coalition it provisionally anchors one member, scores every member by the
reward reciprocity would force on them, crowns the highest-scoring member
``k`` (ties broken by lowest index) with the full coalition value, and
derives everyone else's reward from k's row. The anchor choice provably
cannot change the output; ``solve_with_anchor`` exists so that claim can
be exercised directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

from .errors import BadAnchorError, DimensionMismatchError, OutOfRangeError
from .games import Game, Scalar, coalitions_by_size, members

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


def lowest_member_anchor(coalition: int) -> int:
    return (coalition & -coalition).bit_length() - 1


def highest_member_anchor(coalition: int) -> int:
    return coalition.bit_length() - 1


def _solve(
    game: Game,
    anchor_of: Callable[[int], int],
    pick_k: Callable[[int, dict[int, Scalar]], int] | None = None,
) -> SolveResult:
    v = game.values
    n = game.n_players
    # Non-members always keep their solo value, and in coalitions of size
    # <= 1 every player's reward is their solo value, so seed the whole
    # table with solo values and only overwrite members of larger coalitions.
    rows = [[v[1 << i]] * (1 << n) for i in range(n)]
    efficient: EfficientPlayerMap = {}

    for mask in coalitions_by_size(n, min_size=2):
        mem = members(mask)
        j = anchor_of(mask)
        if j not in mem:
            raise BadAnchorError(
                f"anchor {j} is not a member of coalition mask {mask}"
            )
        scores: dict[int, Scalar] = {j: v[mask]}
        for i in mem:
            if i != j:
                scores[i] = scores[j] - rows[j][mask ^ (1 << i)] + rows[i][mask ^ (1 << j)]
        if pick_k is None:
            best = max(scores.values())
            k = next(i for i in mem if scores[i] == best)
        else:
            k = pick_k(mask, dict(scores))
            if k not in mem or any(scores[i] > scores[k] for i in mem):
                raise BadAnchorError(
                    f"pick_k must return a maximizing member for mask {mask}, got {k}"
                )
        rows[k][mask] = v[mask]
        for i in mem:
            if i != k:
                rows[i][mask] = v[mask] - rows[k][mask ^ (1 << i)] + rows[i][mask ^ (1 << k)]
        efficient[mask] = k

    matrix = RewardMatrix(n, tuple(tuple(row) for row in rows))
    return SolveResult(matrix, efficient)


def solve(game: Game) -> SolveResult:
    """Compute the full reward table and the efficient player per coalition.

    Deterministic: equal games give entrywise-equal matrices. In exact mode
    every entry is a Fraction; in float mode, a float.
    """
    return _solve(game, lowest_member_anchor)


def solve_with_anchor(game: Game, anchor_choice: Callable[[int], int]) -> RewardMatrix:
    """Solve with a caller-supplied anchor member per coalition.

    ``anchor_choice(mask)`` must return a member of the coalition; anything
    else raises BadAnchorError. The anchor only seeds the internal scoring
    pass, so the returned matrix is identical to ``solve(game).matrix`` for
    every valid choice.
    """
    return _solve(game, anchor_choice).matrix
