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
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import BadParamsError, DimensionMismatchError, OutOfRangeError
from .games import Game, Scalar, members, submasks
from .solver import RewardMatrix, _fill_down_set


@dataclass(frozen=True)
class Tolerance:
    """Comparison policy: exact, an absolute epsilon, or the rounding rule.

    Under absolute(eps), values within eps are equal and "strictly greater"
    means exceeding by more than eps. Exact compares with eps 0. The rounding
    rule, ``default_tolerance``'s for float inputs, allows each coalition C
    ``8·n·2⁻⁵²·v(C)``; it has no epsilon, and its private ``_rounding`` flag
    is set.
    """

    epsilon: Scalar | None = None
    _rounding: bool = False

    def __post_init__(self):
        if self.epsilon is not None and not 0 < self.epsilon < math.inf:
            raise BadParamsError("epsilon must be positive and finite")

    @classmethod
    def exact(cls) -> "Tolerance":
        return cls(None)

    @classmethod
    def absolute(cls, epsilon: Scalar) -> "Tolerance":
        return cls(epsilon)

    @property
    def is_exact(self) -> bool:
        return self.epsilon is None and not self._rounding


def default_tolerance(*tables: Game | RewardMatrix) -> Tolerance:
    """Exact when every game and table given is rational, the rounding rule otherwise."""
    return Tolerance(_rounding=not all(t.exact for t in tables))


def _slacks(tol: Tolerance | None, values: Iterable, *tables: Game | RewardMatrix) -> list:
    """Per coalition mask, the slack every verdict on it allows under ``tol``
    (by default the tables' ``default_tolerance``), with v(C) from ``values``.

    The rounding rule's ``8·n·2⁻⁵²·v(C)`` bounds the rounding of sums and
    differences of about n terms, each at most v(C) in a monotone game
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 2-3).
    """
    tol = tol or default_tolerance(*tables)
    n = tables[0].n_players
    if tol._rounding:
        ulps = 8 * n * 2.0**-52
        return [ulps * float(v) for v in values]
    return [tol.epsilon or 0] * (1 << n)


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


class _Numbers(NamedTuple):
    """Game values and reward rows as every single-table checker compares them.

    A comparison allows ``eps[C]`` for the smallest coalition C whose value
    bounds both sides: equal means ``abs(a - b) <= eps[C]``, at most means
    ``a - b <= eps[C]``, strictly greater means ``a - b > eps[C]``. When
    ``denominator`` is set, the numbers are the game's and the table's
    stored ints over that shared denominator, and eps is 0; otherwise they
    are the entries themselves.
    """

    values: Sequence
    rows: Sequence[Sequence]
    eps: Sequence[Scalar]
    denominator: int | None

    def unscale(self, x):
        """A compared number as the entry it came from (for witnesses)."""
        return x if self.denominator is None else Fraction(x, self.denominator)


def _numbers(game: Game, matrix: RewardMatrix, tol: Tolerance | None) -> _Numbers:
    """What the checkers compare for one game, table and tolerance.

    Under an exact tolerance, a game and a table stored as ints over the
    same denominator are compared as those ints: the denominator is
    positive, so every ==, <= and < keeps its verdict. Any other pair, a
    tampered table with a new denominator say, is compared as its entries.
    """
    if matrix.n_players != game.n_players:
        raise DimensionMismatchError(
            f"matrix has {matrix.n_players} players, game has {game.n_players}"
        )
    eps = _slacks(tol, game.values, game, matrix)
    d = game._denominator
    if d is not None and d == matrix._denominator and not any(eps):
        return _Numbers(game._numerators, matrix._numerators, eps, d)
    return _Numbers(game.values, matrix.rewards, eps, None)


def _nonnegativity(nums: _Numbers) -> CheckResult:
    """R1: every member's reward is nonnegative."""
    rows = nums.rows
    for mask, e in enumerate(nums.eps):
        for i in members(mask):
            r = rows[i][mask]
            if not 0 - r <= e:
                return CheckResult(
                    "R1",
                    Verdict.FAIL,
                    {"coalition": mask, "player": i, "reward": nums.unscale(r)},
                )
    return CheckResult("R1", Verdict.PASS)


def _feasibility(nums: _Numbers) -> CheckResult:
    """R2: no member's reward exceeds the coalition's value."""
    rows = nums.rows
    for mask, (v_c, e) in enumerate(zip(nums.values, nums.eps)):
        for i in members(mask):
            r = rows[i][mask]
            if not r - v_c <= e:
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


def _weak_efficiency(nums: _Numbers) -> CheckResult:
    """R3: in every non-empty coalition some member gets the full value."""
    rows = nums.rows
    for mask, (v_c, e) in enumerate(zip(nums.values, nums.eps)):
        if not mask:
            continue
        mem = members(mask)
        if not any(abs(rows[i][mask] - v_c) <= e for i in mem):
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


def _individual_rationality(nums: _Numbers) -> CheckResult:
    """R4: nobody, member or not, is ever rewarded below their solo value."""
    rows, eps = nums.rows, nums.eps
    solo = [(i, 1 << i, row, nums.values[1 << i]) for i, row in enumerate(rows)]
    no_slack = not any(eps)  # exact: compare with 0, not a lookup per entry
    for mask in range(len(nums.values)):
        for i, bit, row, v_i in solo:
            r = row[mask]
            if not v_i - r <= (0 if no_slack else eps[mask | bit]):
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


def _nonparticipation(nums: _Numbers) -> CheckResult:
    """R5: non-members keep exactly their solo value."""
    rows, eps = nums.rows, nums.eps
    solo = [(i, 1 << i, row, nums.values[1 << i]) for i, row in enumerate(rows)]
    no_slack = not any(eps)  # exact: compare with 0, not a lookup per entry
    for mask in range(len(nums.values)):
        for i, bit, row, v_i in solo:
            if mask & bit:
                continue
            r = row[mask]
            if not abs(r - v_i) <= (0 if no_slack else eps[mask | bit]):
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
    return _useless_players(game.values, _slacks(tol, game.values, game))


def _useless_players(values: Sequence, eps: Sequence) -> list[int]:
    grand = len(values) - 1
    out = []
    for u in range(grand.bit_length()):
        bit = 1 << u
        if all(abs(values[s] - values[s | bit]) <= eps[s | bit] for s in submasks(grand ^ bit)):
            out.append(u)
    return out


def _uselessness(nums: _Numbers) -> CheckResult:
    """F1: a player who never changes any value earns nothing and changes nothing.

    For each useless player u: (a) u's reward is zero in every coalition,
    and (b) adding u to any coalition leaves the other members' rewards
    unchanged. Vacuous when the game has no useless player. Entries of C
    and of C∪{u} compare on C∪{u}'s slack.
    """
    rows, eps = nums.rows, nums.eps
    useless = _useless_players(nums.values, eps)
    if not useless:
        return CheckResult("F1", Verdict.PASS_VACUOUS)
    for u in useless:
        bit = 1 << u
        for mask, r in enumerate(rows[u]):
            if not abs(r) <= eps[mask | bit]:
                return CheckResult(
                    "F1",
                    Verdict.FAIL,
                    {"useless_player": u, "coalition": mask, "reward": nums.unscale(r)},
                )
        for mask in range(len(nums.values)):
            if mask & bit:
                continue
            for i in members(mask):
                without = rows[i][mask]
                with_u = rows[i][mask | bit]
                if not abs(without - with_u) <= eps[mask | bit]:
                    return CheckResult(
                        "F1",
                        Verdict.FAIL,
                        {
                            "useless_player": u,
                            "coalition": mask,
                            "player": i,
                            "reward_without": nums.unscale(without),
                            "reward_with": nums.unscale(with_u),
                        },
                    )
    return CheckResult("F1", Verdict.PASS)


def symmetric_pairs(game: Game, tol: Tolerance | None = None) -> list[tuple[int, int]]:
    """Unordered pairs that contribute identically to every outside coalition."""
    return _symmetric_pairs(game.values, _slacks(tol, game.values, game))


def _symmetric_pairs(values: Sequence, eps: Sequence) -> list[tuple[int, int]]:
    grand = len(values) - 1
    n = grand.bit_length()
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            bit_i, bit_j = 1 << i, 1 << j
            if all(
                abs(values[sub | bit_i] - values[sub | bit_j]) <= eps[sub | bit_i | bit_j]
                for sub in submasks(grand ^ bit_i ^ bit_j)
            ):
                out.append((i, j))
    return out


def _symmetry(nums: _Numbers) -> CheckResult:
    """F2: interchangeable players get equal rewards wherever both belong."""
    rows, eps = nums.rows, nums.eps
    pairs = _symmetric_pairs(nums.values, eps)
    if not pairs:
        return CheckResult("F2", Verdict.PASS_VACUOUS)
    for mask, e in enumerate(eps):
        for i, j in pairs:
            if mask & (1 << i) and mask & (1 << j):
                r_i = rows[i][mask]
                r_j = rows[j][mask]
                if not abs(r_i - r_j) <= e:
                    return CheckResult(
                        "F2",
                        Verdict.FAIL,
                        {
                            "player_i": i,
                            "player_j": j,
                            "coalition": mask,
                            "reward_i": nums.unscale(r_i),
                            "reward_j": nums.unscale(r_j),
                        },
                    )
    return CheckResult("F2", Verdict.PASS)


def desirable_pairs(game: Game, tol: Tolerance | None = None) -> list[tuple[int, int]]:
    """Ordered pairs (i, j) where i contributes at least as much as j everywhere."""
    return _desirable_pairs(game.values, _slacks(tol, game.values, game))


def _desirable_pairs(values: Sequence, eps: Sequence) -> list[tuple[int, int]]:
    grand = len(values) - 1
    n = grand.bit_length()
    out = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            bit_i, bit_j = 1 << i, 1 << j
            if all(
                values[sub | bit_j] - values[sub | bit_i] <= eps[sub | bit_i | bit_j]
                for sub in submasks(grand ^ bit_i ^ bit_j)
            ):
                out.append((i, j))
    return out


def _strict_desirability(nums: _Numbers) -> CheckResult:
    """F3: a player who dominates another, strictly somewhere inside the
    coalition, must earn strictly more there.

    Applies to (i, j, C) when i's contribution weakly dominates j's
    everywhere and some non-empty B inside C (avoiding both) has
    v(B+i) > v(B+j). Vacuous when no such triple exists. B's strictness
    compares on C's slack, as the conclusion does.
    """
    values, rows, eps = nums.values, nums.rows, nums.eps
    pairs = _desirable_pairs(values, eps)
    applied = False
    for mask, e in enumerate(eps):
        for i, j in pairs:
            bit_i, bit_j = 1 << i, 1 << j
            if not (mask & bit_i and mask & bit_j):
                continue
            strict_b = None
            for sub in submasks(mask ^ bit_i ^ bit_j):
                if sub and values[sub | bit_i] - values[sub | bit_j] > e:
                    strict_b = sub
                    break
            if strict_b is None:
                continue
            applied = True
            r_i = rows[i][mask]
            r_j = rows[j][mask]
            if not r_i - r_j > e:
                return CheckResult(
                    "F3",
                    Verdict.FAIL,
                    {
                        "player_i": i,
                        "player_j": j,
                        "coalition": mask,
                        "strict_witness_subset": strict_b,
                        "reward_i": nums.unscale(r_i),
                        "reward_j": nums.unscale(r_j),
                    },
                )
    return CheckResult("F3", Verdict.PASS if applied else Verdict.PASS_VACUOUS)


def _balanced_reciprocity(nums: _Numbers) -> CheckResult:
    """F5: within any coalition, i's gain from j joining equals j's gain
    from i joining."""
    rows, eps = nums.rows, nums.eps
    if len(rows) < 2:
        return CheckResult("F5", Verdict.PASS_VACUOUS)
    bits = [1 << i for i in range(len(rows))]
    for mask, e in enumerate(eps):
        mem = members(mask)
        for a, i in enumerate(mem):
            row_i = rows[i]
            r_i = row_i[mask]
            without_i = mask ^ bits[i]
            for j in mem[a + 1 :]:
                row_j = rows[j]
                gain_i = r_i - row_i[mask ^ bits[j]]
                gain_j = row_j[mask] - row_j[without_i]
                if not abs(gain_i - gain_j) <= e:
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


def _balanced_reward(game: Game, player: int, coalition: int) -> Scalar:
    """The solver's entry for one member of one coalition, computed on the
    coalition's down-set alone, which is all the entry depends on."""
    x = _fill_down_set(game, coalition)[0][player][coalition]
    return x if game._denominator is None else Fraction(x, game._denominator)


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
    passing vacuously so campaigns can count real applications. The
    rounding rule sizes each slack by the larger of the two games' values.
    """
    if game_before.n_players != game_after.n_players:
        raise DimensionMismatchError("both games must have the same player count")
    n = game_before.n_players
    if not 0 <= coalition < (1 << n):
        raise OutOfRangeError(f"coalition mask {coalition} out of range")
    if not 0 <= player < n or not coalition & (1 << player):
        raise OutOfRangeError(f"player {player} is not a member of the coalition")
    v, v2 = game_before.values, game_after.values
    eps = _slacks(tol, map(max, v, v2), game_before, game_after)
    bit = 1 << player

    if not v2[coalition] - v[coalition] > eps[coalition]:
        return CheckResult(
            "F4",
            Verdict.PREMISE_NOT_MET,
            {"reason": "coalition value did not strictly increase", "coalition": coalition},
        )
    for sub in submasks(coalition ^ bit):
        if not v[sub | bit] - v2[sub | bit] <= eps[sub | bit]:
            return CheckResult(
                "F4",
                Verdict.PREMISE_NOT_MET,
                {"reason": "player's contribution dropped somewhere", "coalition": sub | bit},
            )
        if not abs(v2[sub] - v[sub]) <= eps[sub]:
            return CheckResult(
                "F4",
                Verdict.PREMISE_NOT_MET,
                {"reason": "a sub-coalition without the player changed value", "coalition": sub},
            )

    before = _balanced_reward(game_before, player, coalition)
    after = _balanced_reward(game_after, player, coalition)
    return CheckResult(
        "F4",
        Verdict.PASS if after - before > eps[coalition] else Verdict.FAIL,
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
    """Lazily run the named checks, in order, on one shared set of numbers."""
    nums = _numbers(game, matrix, tol)
    return (_SINGLE_MATRIX_CHECKS[code](nums) for code in codes)


def check_axiom(
    axiom: str, game: Game, matrix: RewardMatrix, tol: Tolerance | None = None
) -> CheckResult:
    """Run one single-matrix axiom check by its code (R1..R5, F1..F3, F5).

    The default tolerance is exact when game and table are both rational,
    the rounding rule (see ``Tolerance``) otherwise.
    """
    code = axiom.upper()
    if code not in _SINGLE_MATRIX_CHECKS:
        raise BadParamsError(
            f"unknown axiom {axiom!r}; expected one of {', '.join(_SINGLE_MATRIX_CHECKS)}"
        )
    return _SINGLE_MATRIX_CHECKS[code](_numbers(game, matrix, tol))


def check_all(
    game: Game, matrix: RewardMatrix, tol: Tolerance | None = None
) -> AxiomReport:
    """Run every single-matrix axiom check and collect the verdicts.

    The two-game strict-monotonicity check is excluded; it quantifies over
    pairs of games and is exposed separately as
    ``check_strict_monotonicity_pair``. The checks share one set of
    numbers: an exact game and table compare as the ints they store.
    """
    return AxiomReport(tuple(_run_checks(_SINGLE_MATRIX_CHECKS, game, matrix, tol)))
