"""Exhaustive checkers for the reward-allocation axioms.

Each checker enumerates every coalition (and pair, and subset) its
quantifier ranges over and returns a verdict plus, on failure, a witness:
the concrete players, coalitions, and values that violate the condition.
Witnesses are plain dicts so they can be re-evaluated or serialized as-is.

Verdicts distinguish a pass whose premise never applied (PASS_VACUOUS)
from one that was actually exercised. Scans run in a fixed order,
ascending coalition mask and then ascending player index, so the first
witness is deterministic.

The conditional axioms follow the implication shape "if the game relates
players like X, rewards must relate like Y"; the checkers first find where
the premise holds, then verify the conclusion only there.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import attrgetter
from typing import Iterator, Mapping, NamedTuple, Sequence

from .errors import BadParamsError, DimensionMismatchError, OutOfRangeError
from .games import Game, Scalar, members, submasks
from .solver import RewardMatrix, _fill_down_set

DEFAULT_EPSILON = 1e-9


@dataclass(frozen=True)
class Tolerance:
    """Comparison policy: exact, or absolute-epsilon for float tables.

    Under absolute(eps), values within eps are equal and "strictly greater"
    means exceeding by more than eps.
    """

    epsilon: Scalar | None = None

    @classmethod
    def exact(cls) -> "Tolerance":
        return cls(None)

    @classmethod
    def absolute(cls, epsilon: Scalar) -> "Tolerance":
        if epsilon <= 0:
            raise BadParamsError("epsilon must be positive")
        return cls(epsilon)

    @property
    def is_exact(self) -> bool:
        return self.epsilon is None

    def eq(self, a: Scalar, b: Scalar) -> bool:
        if self.epsilon is None:
            return a == b
        return abs(a - b) <= self.epsilon

    def le(self, a: Scalar, b: Scalar) -> bool:
        if self.epsilon is None:
            return a <= b
        return a - b <= self.epsilon

    def ge(self, a: Scalar, b: Scalar) -> bool:
        return self.le(b, a)

    def gt(self, a: Scalar, b: Scalar) -> bool:
        if self.epsilon is None:
            return a > b
        return a - b > self.epsilon

    def lt(self, a: Scalar, b: Scalar) -> bool:
        return self.gt(b, a)


def default_tolerance(game: Game, matrix: RewardMatrix) -> Tolerance:
    """Exact when both tables are rational, absolute 1e-9 otherwise."""
    if game.exact and matrix.exact:
        return Tolerance.exact()
    return Tolerance.absolute(DEFAULT_EPSILON)


class Verdict(enum.Enum):
    PASS = "pass"
    PASS_VACUOUS = "pass (vacuous)"
    FAIL = "fail"
    PREMISE_NOT_MET = "premise not met"


@dataclass(frozen=True)
class CheckResult:
    axiom: str
    verdict: Verdict
    witness: dict | None = None

    @property
    def passed(self) -> bool:
        return self.verdict in (Verdict.PASS, Verdict.PASS_VACUOUS)


AXIOM_NAMES: Mapping[str, str] = {
    "R1": "nonnegativity",
    "R2": "feasibility",
    "R3": "weak efficiency",
    "R4": "individual rationality",
    "R5": "non-participation",
    "F1": "useless player",
    "F2": "symmetry",
    "F3": "strict desirability",
    "F4": "strict monotonicity",
    "F5": "balanced reciprocity",
}


@dataclass(frozen=True)
class AxiomReport:
    """Aggregate of per-axiom results, in check order."""

    results: tuple[CheckResult, ...] = field(default_factory=tuple)

    def __iter__(self) -> Iterator[CheckResult]:
        return iter(self.results)

    def __getitem__(self, axiom: str) -> CheckResult:
        for r in self.results:
            if r.axiom == axiom:
                return r
        raise KeyError(axiom)

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(r for r in self.results if not r.passed)


def _require_same_shape(game: Game, matrix: RewardMatrix) -> None:
    if matrix.n_players != game.n_players:
        raise DimensionMismatchError(
            f"matrix has {matrix.n_players} players, game has {game.n_players}"
        )


# Past this many bits the common denominator is dropped and the exact checks
# compare the Fractions themselves: a table with thousands of distinct prime
# denominators would otherwise scale every entry to an enormous integer.
_MAX_DENOMINATOR_BITS = 256


class _Numbers(NamedTuple):
    """Game values and reward rows as the R1-R5 and F5 checkers compare them.

    A comparison allows ``eps``: equal means ``abs(a - b) <= eps``, at most
    means ``a - b <= eps``. When ``denominator`` is set, every number is an
    int scaled by it and eps is 0; otherwise the numbers are the entries
    themselves.
    """

    values: Sequence
    rows: Sequence[Sequence]
    eps: Scalar
    denominator: int | None

    def unscale(self, x):
        """A compared number as the entry it came from (for witnesses)."""
        return x if self.denominator is None else Fraction(x, self.denominator)


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


class _Operands:
    """One game, table and tolerance, checked by any number of checkers.

    ``numbers`` is built on first use and then shared. For an exact game
    and table under an exact tolerance it scales every value and entry to
    an int over their common denominator: multiplying by a positive
    constant keeps every ==, <= and <, so comparing the ints with eps 0
    gives the exact verdicts without Fraction arithmetic.
    """

    def __init__(self, game: Game, matrix: RewardMatrix, tol: Tolerance | None):
        _require_same_shape(game, matrix)
        self.game = game
        self.matrix = matrix
        self.tol = tol or default_tolerance(game, matrix)

    @cached_property
    def numbers(self) -> _Numbers:
        values, rows = self.game.values, self.matrix.rewards
        if not self.tol.is_exact:
            return _Numbers(values, rows, self.tol.epsilon, None)
        d = _common_denominator((values, *rows))
        if d is None:
            return _Numbers(values, rows, 0, None)
        return _Numbers(_scaled(values, d), [_scaled(row, d) for row in rows], 0, d)


def check_nonnegativity(
    game: Game, matrix: RewardMatrix, tol: Tolerance | None = None
) -> CheckResult:
    """R1: every member's reward is nonnegative."""
    return _nonnegativity(_Operands(game, matrix, tol))


def _nonnegativity(ops: _Operands) -> CheckResult:
    nums = ops.numbers
    rows, eps = nums.rows, nums.eps
    for mask in range(len(nums.values)):
        for i in members(mask):
            r = rows[i][mask]
            if not 0 - r <= eps:
                return CheckResult(
                    "R1",
                    Verdict.FAIL,
                    {"coalition": mask, "player": i, "reward": nums.unscale(r)},
                )
    return CheckResult("R1", Verdict.PASS)


def check_feasibility(
    game: Game, matrix: RewardMatrix, tol: Tolerance | None = None
) -> CheckResult:
    """R2: no member's reward exceeds the coalition's value."""
    return _feasibility(_Operands(game, matrix, tol))


def _feasibility(ops: _Operands) -> CheckResult:
    nums = ops.numbers
    rows, eps = nums.rows, nums.eps
    for mask, v_c in enumerate(nums.values):
        for i in members(mask):
            r = rows[i][mask]
            if not r - v_c <= eps:
                return CheckResult(
                    "R2",
                    Verdict.FAIL,
                    {
                        "coalition": mask,
                        "player": i,
                        "reward": nums.unscale(r),
                        "coalition_value": nums.unscale(v_c),
                    },
                )
    return CheckResult("R2", Verdict.PASS)


def check_weak_efficiency(
    game: Game, matrix: RewardMatrix, tol: Tolerance | None = None
) -> CheckResult:
    """R3: in every non-empty coalition some member gets the full value."""
    return _weak_efficiency(_Operands(game, matrix, tol))


def _weak_efficiency(ops: _Operands) -> CheckResult:
    nums = ops.numbers
    rows, eps = nums.rows, nums.eps
    for mask, v_c in enumerate(nums.values):
        if not mask:
            continue
        mem = members(mask)
        if not any(abs(rows[i][mask] - v_c) <= eps for i in mem):
            return CheckResult(
                "R3",
                Verdict.FAIL,
                {
                    "coalition": mask,
                    "coalition_value": nums.unscale(v_c),
                    "member_rewards": {i: nums.unscale(rows[i][mask]) for i in mem},
                },
            )
    return CheckResult("R3", Verdict.PASS)


def check_individual_rationality(
    game: Game, matrix: RewardMatrix, tol: Tolerance | None = None
) -> CheckResult:
    """R4: nobody, member or not, is ever rewarded below their solo value."""
    return _individual_rationality(_Operands(game, matrix, tol))


def _individual_rationality(ops: _Operands) -> CheckResult:
    nums = ops.numbers
    rows, eps = nums.rows, nums.eps
    solo = [(i, row, nums.values[1 << i]) for i, row in enumerate(rows)]
    for mask in range(len(nums.values)):
        for i, row, v_i in solo:
            r = row[mask]
            if not v_i - r <= eps:
                return CheckResult(
                    "R4",
                    Verdict.FAIL,
                    {
                        "coalition": mask,
                        "player": i,
                        "reward": nums.unscale(r),
                        "solo_value": nums.unscale(v_i),
                    },
                )
    return CheckResult("R4", Verdict.PASS)


def check_nonparticipation(
    game: Game, matrix: RewardMatrix, tol: Tolerance | None = None
) -> CheckResult:
    """R5: non-members keep exactly their solo value."""
    return _nonparticipation(_Operands(game, matrix, tol))


def _nonparticipation(ops: _Operands) -> CheckResult:
    nums = ops.numbers
    rows, eps = nums.rows, nums.eps
    solo = [(i, 1 << i, row, nums.values[1 << i]) for i, row in enumerate(rows)]
    for mask in range(len(nums.values)):
        for i, bit, row, v_i in solo:
            if mask & bit:
                continue
            r = row[mask]
            if not abs(r - v_i) <= eps:
                return CheckResult(
                    "R5",
                    Verdict.FAIL,
                    {
                        "coalition": mask,
                        "player": i,
                        "reward": nums.unscale(r),
                        "solo_value": nums.unscale(v_i),
                    },
                )
    return CheckResult("R5", Verdict.PASS)


def useless_players(game: Game, tol: Tolerance | None = None) -> list[int]:
    """Players whose joining never changes any coalition's value."""
    tol = tol or (Tolerance.exact() if game.exact else Tolerance.absolute(DEFAULT_EPSILON))
    out = []
    for u in range(game.n_players):
        rest = game.grand_coalition ^ (1 << u)
        if all(
            tol.eq(game.values[sub], game.values[sub | (1 << u)])
            for sub in submasks(rest)
        ):
            out.append(u)
    return out


def check_uselessness(
    game: Game, matrix: RewardMatrix, tol: Tolerance | None = None
) -> CheckResult:
    """F1: a player who never changes any value earns nothing and changes nothing.

    For each useless player u: (a) u's reward is zero in every coalition,
    and (b) adding u to any coalition leaves the other members' rewards
    unchanged. Vacuous when the game has no useless player.
    """
    return _uselessness(_Operands(game, matrix, tol))


def _uselessness(ops: _Operands) -> CheckResult:
    game, matrix, tol = ops.game, ops.matrix, ops.tol
    useless = useless_players(game, tol)
    if not useless:
        return CheckResult("F1", Verdict.PASS_VACUOUS)
    for u in useless:
        bit = 1 << u
        for mask in range(matrix.num_coalitions):
            r = matrix.rewards[u][mask]
            if not tol.eq(r, 0):
                return CheckResult(
                    "F1",
                    Verdict.FAIL,
                    {"useless_player": u, "coalition": mask, "reward": r},
                )
        for mask in range(matrix.num_coalitions):
            if mask & bit:
                continue
            for i in members(mask):
                without = matrix.rewards[i][mask]
                with_u = matrix.rewards[i][mask | bit]
                if not tol.eq(without, with_u):
                    return CheckResult(
                        "F1",
                        Verdict.FAIL,
                        {
                            "useless_player": u,
                            "coalition": mask,
                            "player": i,
                            "reward_without": without,
                            "reward_with": with_u,
                        },
                    )
    return CheckResult("F1", Verdict.PASS)


def symmetric_pairs(game: Game, tol: Tolerance | None = None) -> list[tuple[int, int]]:
    """Unordered pairs that contribute identically to every outside coalition."""
    tol = tol or (Tolerance.exact() if game.exact else Tolerance.absolute(DEFAULT_EPSILON))
    out = []
    for i in range(game.n_players):
        for j in range(i + 1, game.n_players):
            rest = game.grand_coalition ^ (1 << i) ^ (1 << j)
            if all(
                tol.eq(game.values[sub | (1 << i)], game.values[sub | (1 << j)])
                for sub in submasks(rest)
            ):
                out.append((i, j))
    return out


def check_symmetry(
    game: Game, matrix: RewardMatrix, tol: Tolerance | None = None
) -> CheckResult:
    """F2: interchangeable players get equal rewards wherever both belong."""
    return _symmetry(_Operands(game, matrix, tol))


def _symmetry(ops: _Operands) -> CheckResult:
    game, matrix, tol = ops.game, ops.matrix, ops.tol
    pairs = symmetric_pairs(game, tol)
    if not pairs:
        return CheckResult("F2", Verdict.PASS_VACUOUS)
    for mask in range(matrix.num_coalitions):
        for i, j in pairs:
            if mask & (1 << i) and mask & (1 << j):
                r_i = matrix.rewards[i][mask]
                r_j = matrix.rewards[j][mask]
                if not tol.eq(r_i, r_j):
                    return CheckResult(
                        "F2",
                        Verdict.FAIL,
                        {
                            "player_i": i,
                            "player_j": j,
                            "coalition": mask,
                            "reward_i": r_i,
                            "reward_j": r_j,
                        },
                    )
    return CheckResult("F2", Verdict.PASS)


def desirable_pairs(game: Game, tol: Tolerance | None = None) -> list[tuple[int, int]]:
    """Ordered pairs (i, j) where i contributes at least as much as j everywhere."""
    tol = tol or (Tolerance.exact() if game.exact else Tolerance.absolute(DEFAULT_EPSILON))
    out = []
    for i in range(game.n_players):
        for j in range(game.n_players):
            if i == j:
                continue
            rest = game.grand_coalition ^ (1 << i) ^ (1 << j)
            if all(
                tol.ge(game.values[sub | (1 << i)], game.values[sub | (1 << j)])
                for sub in submasks(rest)
            ):
                out.append((i, j))
    return out


def check_strict_desirability(
    game: Game, matrix: RewardMatrix, tol: Tolerance | None = None
) -> CheckResult:
    """F3: a player who dominates another, strictly somewhere inside the
    coalition, must earn strictly more there.

    Applies to (i, j, C) when i's contribution weakly dominates j's
    everywhere and some non-empty B inside C (avoiding both) has
    v(B+i) > v(B+j). Vacuous when no such triple exists.
    """
    return _strict_desirability(_Operands(game, matrix, tol))


def _strict_desirability(ops: _Operands) -> CheckResult:
    game, matrix, tol = ops.game, ops.matrix, ops.tol
    pairs = desirable_pairs(game, tol)
    applied = False
    for mask in range(matrix.num_coalitions):
        for i, j in pairs:
            if not (mask & (1 << i) and mask & (1 << j)):
                continue
            rest = mask ^ (1 << i) ^ (1 << j)
            strict_b = None
            for sub in submasks(rest):
                if sub and tol.gt(game.values[sub | (1 << i)], game.values[sub | (1 << j)]):
                    strict_b = sub
                    break
            if strict_b is None:
                continue
            applied = True
            r_i = matrix.rewards[i][mask]
            r_j = matrix.rewards[j][mask]
            if not tol.gt(r_i, r_j):
                return CheckResult(
                    "F3",
                    Verdict.FAIL,
                    {
                        "player_i": i,
                        "player_j": j,
                        "coalition": mask,
                        "strict_witness_subset": strict_b,
                        "reward_i": r_i,
                        "reward_j": r_j,
                    },
                )
    return CheckResult("F3", Verdict.PASS if applied else Verdict.PASS_VACUOUS)


def check_balanced_reciprocity(
    game: Game, matrix: RewardMatrix, tol: Tolerance | None = None
) -> CheckResult:
    """F5: within any coalition, i's gain from j joining equals j's gain
    from i joining."""
    return _balanced_reciprocity(_Operands(game, matrix, tol))


def _balanced_reciprocity(ops: _Operands) -> CheckResult:
    if ops.game.n_players < 2:
        return CheckResult("F5", Verdict.PASS_VACUOUS)
    nums = ops.numbers
    rows, eps = nums.rows, nums.eps
    bits = [1 << i for i in range(len(rows))]
    for mask in range(len(nums.values)):
        mem = members(mask)
        for a, i in enumerate(mem):
            row_i = rows[i]
            r_i = row_i[mask]
            without_i = mask ^ bits[i]
            for j in mem[a + 1 :]:
                row_j = rows[j]
                gain_i = r_i - row_i[mask ^ bits[j]]
                gain_j = row_j[mask] - row_j[without_i]
                if not abs(gain_i - gain_j) <= eps:
                    return CheckResult(
                        "F5",
                        Verdict.FAIL,
                        {
                            "coalition": mask,
                            "player_i": i,
                            "player_j": j,
                            "gain_i": nums.unscale(gain_i),
                            "gain_j": nums.unscale(gain_j),
                        },
                    )
    return CheckResult("F5", Verdict.PASS)


def check_strict_monotonicity_pair(
    game_before: Game,
    game_after: Game,
    player: int,
    coalition: int,
    tol: Tolerance | None = None,
) -> CheckResult:
    """F4 for one (game, game', player, coalition) quadruple.

    Premise: the coalition's value strictly rises, the player's
    contribution inside it never falls, and every sub-coalition without
    the player keeps its exact value. Conclusion: the player's reward in
    that coalition strictly rises. Reports premise-not-met instead of
    passing vacuously so campaigns can count real applications.
    """
    if game_before.n_players != game_after.n_players:
        raise DimensionMismatchError("both games must have the same player count")
    n = game_before.n_players
    if not 0 <= coalition < (1 << n):
        raise OutOfRangeError(f"coalition mask {coalition} out of range")
    if not 0 <= player < n or not coalition & (1 << player):
        raise OutOfRangeError(f"player {player} is not a member of the coalition")
    if tol is None:
        tol = (
            Tolerance.exact()
            if game_before.exact and game_after.exact
            else Tolerance.absolute(DEFAULT_EPSILON)
        )
    v, v2 = game_before.values, game_after.values
    bit = 1 << player
    rest = coalition ^ bit

    if not tol.gt(v2[coalition], v[coalition]):
        return CheckResult(
            "F4",
            Verdict.PREMISE_NOT_MET,
            {"reason": "coalition value did not strictly increase", "coalition": coalition},
        )
    for sub in submasks(rest):
        if not tol.ge(v2[sub | bit], v[sub | bit]):
            return CheckResult(
                "F4",
                Verdict.PREMISE_NOT_MET,
                {"reason": "player's contribution dropped somewhere", "coalition": sub | bit},
            )
        if not tol.eq(v2[sub], v[sub]):
            return CheckResult(
                "F4",
                Verdict.PREMISE_NOT_MET,
                {"reason": "a sub-coalition without the player changed value", "coalition": sub},
            )

    # the entry depends only on the coalition's down-set in each game
    before = _fill_down_set(game_before, coalition)[0][player][coalition]
    after = _fill_down_set(game_after, coalition)[0][player][coalition]
    if not tol.gt(after, before):
        return CheckResult(
            "F4",
            Verdict.FAIL,
            {
                "player": player,
                "coalition": coalition,
                "reward_before": before,
                "reward_after": after,
            },
        )
    return CheckResult(
        "F4",
        Verdict.PASS,
        {
            "player": player,
            "coalition": coalition,
            "reward_before": before,
            "reward_after": after,
        },
    )


_SINGLE_MATRIX_CHECKS = {
    "R1": _nonnegativity,
    "R2": _feasibility,
    "R3": _weak_efficiency,
    "R4": _individual_rationality,
    "R5": _nonparticipation,
    "F1": _uselessness,
    "F2": _symmetry,
    "F3": _strict_desirability,
    "F5": _balanced_reciprocity,
}


def _run_checks(
    codes, game: Game, matrix: RewardMatrix, tol: Tolerance | None
) -> Iterator[CheckResult]:
    """Lazily run the named checks, in order, on one shared set of operands."""
    ops = _Operands(game, matrix, tol)
    return (_SINGLE_MATRIX_CHECKS[code](ops) for code in codes)


def check_axiom(
    axiom: str, game: Game, matrix: RewardMatrix, tol: Tolerance | None = None
) -> CheckResult:
    """Run one single-matrix axiom check by its code (R1..R5, F1..F3, F5)."""
    code = axiom.upper()
    if code not in _SINGLE_MATRIX_CHECKS:
        raise BadParamsError(
            f"unknown axiom {axiom!r}; expected one of {', '.join(_SINGLE_MATRIX_CHECKS)}"
        )
    return _SINGLE_MATRIX_CHECKS[code](_Operands(game, matrix, tol))


def check_all(
    game: Game, matrix: RewardMatrix, tol: Tolerance | None = None
) -> AxiomReport:
    """Run every single-matrix axiom check and collect the verdicts.

    The two-game strict-monotonicity check is excluded; it quantifies over
    pairs of games and is exposed separately as
    ``check_strict_monotonicity_pair``. The checks share one set of
    operands, so an exact table is scaled to integers once.
    """
    return AxiomReport(tuple(_run_checks(_SINGLE_MATRIX_CHECKS, game, matrix, tol)))
