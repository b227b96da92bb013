"""Independent reference implementations used only by tests.

Nothing here may call back into the code paths it is meant to check:
Shapley values come from raw permutation enumeration, monotonicity from
an all-pairs subset scan, and witness re-evaluation recomputes the
violated condition straight from the table entries the witness names.
The R1-R5 and F5 checkers in ``TABLE_CHECKS``, the F1-F3 checkers in
``PREMISE_CHECKS``, their premise finders and ``strict_monotonicity_pair``
compare the entries themselves through ``Compare``, the exact-or-absolute
comparison ``Tolerance`` once carried, with no common-denominator scaling.
``anchored_solve`` is the solver's former anchor-and-score pass, which
never forms the potential: it crowns each coalition's efficient player by
the rewards reciprocity would force from a caller-chosen anchor.
``dumps_game`` and ``dumps_matrix`` are the former serializers, which
rendered through nested dicts, ``json.dumps(indent=2)`` and one
``coalition_key`` call per entry; ``dumps_matrix`` quotes a CSV label with
an inner "\r", as the writers now do. ``echo_efficient_players`` is the
CLI's former listing of efficient players, one sort key and one echo per
coalition, and ``members_by_bit_position`` is ``members`` as it walked
every bit position. ``check_game_values`` is ``Game``'s
former sign and monotonicity scan on the Fractions themselves.
``product_enumeration_solve`` is the global enumeration's former loop: a
product over every assignment of full-value members, each row rebuilt from
solo values, with no pruning of the assignment space.
``fraction_potential``, ``potential_shapley``, ``potential_scaled_rho_shapley``
and ``eager_compare_mechanisms`` are the Shapley baselines' former
``Fraction`` potential and scaled table, and the comparison that kept every
``PairResidual`` and took its summary from that tuple.
``fraction_fill_down_set``, ``fraction_solve`` and
``fraction_brute_force_solve`` are the solver's pass and the level-wise
oracle as they ran before exact games were solved on integers: ``Fraction``
arithmetic on every entry. ``column`` is the former ``RewardMatrix.column``.
``parse_matrix_by_shape`` is ``parse_matrix`` as it read each table shape
through a loop of its own (``_parse_matrix_json``,
``_parse_matrix_table_csv``, ``_parse_matrix_long_csv``) and finished all
three in ``_finish_matrix``. ``fraction_parse_matrix`` is ``parse_matrix``
as it read every cell into a ``Fraction`` (``_fraction``, ``_parse_number``,
``_parse_csv_number``) before ``RewardMatrix`` scaled it back into an int;
both former readers read numbers with those three functions.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from fractions import Fraction
from itertools import groupby, permutations, product, repeat
from operator import itemgetter
from typing import Callable, NamedTuple, Sequence

import click

from fairshare import (
    CheckResult,
    DimensionMismatchError,
    EfficientPlayerMap,
    OutOfRangeError,
    EmptyNotZeroError,
    FileFormatError,
    Game,
    GameDocument,
    MatrixDocument,
    NegativeValueError,
    NoFeasibleCandidateError,
    NotMonotoneError,
    OracleResult,
    RewardMatrix,
    Scalar,
    SizeLimitExceededError,
    SolveResult,
    Tolerance,
    Verdict,
    additive_game,
    coalition_key,
    coalitions_by_size,
    default_labels,
    members,
    pair_residuals,
    random_monotone_game,
    solve,
    submasks,
)
from fairshare.axioms import _run_checks, default_tolerance
from fairshare.formats import (
    FLOAT,
    RATIONAL,
    _check_labels,
    _json_loads,
    _JsonDecimal,
    _KeyMasks,
    _read_header,
)
from fairshare.oracle import (
    GLOBAL_MAX_PLAYERS,
    LEVEL_WISE_MAX_PLAYERS,
    _TABLE_AXIOMS,
)


# A game whose values' common denominator passes 256 bits (the product of
# three Mersenne primes), so it keeps its Fractions past the cap.
WIDE_DENOMINATOR_GAME = additive_game(
    [Fraction(1, 2**61 - 1), Fraction(1, 2**89 - 1), Fraction(1, 2**107 - 1), 1, Fraction(2, 3)]
)


def random_games(sizes, per_size, seed0=0, max_increment=10):
    """Deterministic stream of random monotone games for campaigns."""
    seed = seed0
    for n in sizes:
        for _ in range(per_size):
            yield random_monotone_game(n, seed, max_increment)
            seed += 1


def column(matrix: RewardMatrix, coalition: int) -> tuple[Scalar, ...]:
    """All players' rewards for one coalition."""
    if not 0 <= coalition < matrix.num_coalitions:
        raise OutOfRangeError(f"coalition mask {coalition} out of range")
    return tuple(row[coalition] for row in matrix.rewards)


def lowest_member_anchor(coalition: int) -> int:
    return (coalition & -coalition).bit_length() - 1


def highest_member_anchor(coalition: int) -> int:
    return coalition.bit_length() - 1


def anchored_solve(
    game: Game,
    anchor_of: Callable[[int], int],
    pick_k: Callable[[int, dict[int, Scalar]], int] | None = None,
) -> SolveResult:
    """The balanced table built level by level from a provisional anchor.

    For each coalition, ``anchor_of(mask)`` names a member j; every member
    is scored by the reward reciprocity would force from j's row, and the
    highest-scoring member k (lowest index on ties, or ``pick_k``'s choice
    among the maximizers) gets the full value. ValueError when the anchor
    is not a member or ``pick_k`` returns a non-maximizer.
    """
    v = game.values
    n = game.n_players
    rows = [[v[1 << i]] * (1 << n) for i in range(n)]
    efficient: dict[int, int] = {}

    for mask in coalitions_by_size(n, min_size=2):
        mem = members(mask)
        j = anchor_of(mask)
        if j not in mem:
            raise ValueError(
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
                raise ValueError(
                    f"pick_k must return a maximizing member for mask {mask}, got {k}"
                )
        rows[k][mask] = v[mask]
        for i in mem:
            if i != k:
                rows[i][mask] = v[mask] - rows[k][mask ^ (1 << i)] + rows[i][mask ^ (1 << k)]
        efficient[mask] = k

    matrix = RewardMatrix(n, tuple(tuple(row) for row in rows))
    return SolveResult(matrix, efficient)


def shapley_by_permutations(game: Game, coalition: int) -> dict:
    """Average marginal contribution over every member ordering."""
    mem = members(coalition)
    totals = {i: Fraction(0) for i in mem}
    n_perms = 0
    for order in permutations(mem):
        built = 0
        for i in order:
            totals[i] += game.values[built | (1 << i)] - game.values[built]
            built |= 1 << i
        n_perms += 1
    return {i: totals[i] / n_perms for i in mem}


def monotone_by_all_pairs(values) -> bool:
    """Check every subset pair directly, not just one-player removals."""
    n_masks = len(values)
    for big in range(n_masks):
        sub = big
        while True:
            if values[sub] > values[big]:
                return False
            if sub == 0:
                break
            sub = (sub - 1) & big
    return True


def violation_reproduces(
    axiom: str, game: Game, matrix: RewardMatrix, witness: dict
) -> bool:
    """Recompute a failed condition from the witness coordinates alone.

    Returns True when the matrix and game really do violate the axiom at
    the witnessed spot, with the witnessed values.
    """
    v = game.values
    r = matrix.rewards
    w = witness
    if axiom == "R1":
        actual = r[w["player"]][w["coalition"]]
        return actual == w["reward"] and actual < 0
    if axiom == "R2":
        actual = r[w["player"]][w["coalition"]]
        return actual == w["reward"] and actual > v[w["coalition"]]
    if axiom == "R3":
        mask = w["coalition"]
        rewards = {i: r[i][mask] for i in members(mask)}
        return rewards == w["member_rewards"] and all(
            x != v[mask] for x in rewards.values()
        )
    if axiom == "R4":
        actual = r[w["player"]][w["coalition"]]
        return actual == w["reward"] and actual < v[1 << w["player"]]
    if axiom == "R5":
        mask, i = w["coalition"], w["player"]
        actual = r[i][mask]
        return not mask & (1 << i) and actual == w["reward"] and actual != v[1 << i]
    if axiom == "F1":
        u = w["useless_player"]
        mask = w["coalition"]
        if "reward" in w:
            return r[u][mask] == w["reward"] and w["reward"] != 0
        i = w["player"]
        return (
            r[i][mask] == w["reward_without"]
            and r[i][mask | (1 << u)] == w["reward_with"]
            and w["reward_without"] != w["reward_with"]
        )
    if axiom == "F2":
        mask, i, j = w["coalition"], w["player_i"], w["player_j"]
        return (
            r[i][mask] == w["reward_i"]
            and r[j][mask] == w["reward_j"]
            and w["reward_i"] != w["reward_j"]
        )
    if axiom == "F3":
        mask, i, j = w["coalition"], w["player_i"], w["player_j"]
        b = w["strict_witness_subset"]
        return (
            b != 0
            and mask & b == b
            and not b & ((1 << i) | (1 << j))
            and v[b | (1 << i)] > v[b | (1 << j)]
            and r[i][mask] == w["reward_i"]
            and r[j][mask] == w["reward_j"]
            and not w["reward_i"] > w["reward_j"]
        )
    if axiom == "F5":
        mask, i, j = w["coalition"], w["player_i"], w["player_j"]
        gain_i = r[i][mask] - r[i][mask ^ (1 << j)]
        gain_j = r[j][mask] - r[j][mask ^ (1 << i)]
        return gain_i == w["gain_i"] and gain_j == w["gain_j"] and gain_i != gain_j
    raise ValueError(f"no re-evaluator for axiom {axiom}")


def strict_desirability_triples(game: Game):
    """Every (i, j, C, B) where strict desirability's premise holds.

    The premise is the one F3's checker documents: i and j
    both belong to C, i's contribution weakly dominates j's over every
    subset of N minus {i, j}, and B is the first non-empty subset of
    C minus {i, j} (ascending mask) with v(B+i) > v(B+j). Dominance is
    rescanned here with plain mask loops, so the enumeration shares no code
    with the checker. Comparisons are exact, as campaign games are rational.
    """
    v = game.values
    n = game.n_players
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            bit_i, bit_j = 1 << i, 1 << j
            both = bit_i | bit_j
            outside = [s for s in range(1 << n) if not s & both]
            if any(v[s | bit_i] < v[s | bit_j] for s in outside):
                continue
            for mask in range(1 << n):
                if mask & both != both:
                    continue
                strict_b = next(
                    (
                        b
                        for b in outside
                        if b and b & mask == b and v[b | bit_i] > v[b | bit_j]
                    ),
                    None,
                )
                if strict_b is not None:
                    yield i, j, mask, strict_b


def rounding_ulps(n: int) -> float:
    """The default float rule's slack per unit of coalition value, 8·n·2⁻⁵²."""
    return 8 * n * 2.0**-52


class Compare:
    """Exact comparison when ``slack`` is None; otherwise two numbers
    compared on coalition ``mask`` are equal within ``slack(mask)``, and
    "strictly greater" means greater by more than it."""

    def __init__(self, slack: Callable[[int], Scalar] | None):
        self.slack = slack

    def eq(self, a: Scalar, b: Scalar, mask: int) -> bool:
        if self.slack is None:
            return a == b
        return abs(a - b) <= self.slack(mask)

    def le(self, a: Scalar, b: Scalar, mask: int) -> bool:
        if self.slack is None:
            return a <= b
        return a - b <= self.slack(mask)

    def ge(self, a: Scalar, b: Scalar, mask: int) -> bool:
        return self.le(b, a, mask)

    def gt(self, a: Scalar, b: Scalar, mask: int) -> bool:
        if self.slack is None:
            return a > b
        return a - b > self.slack(mask)


def compare(tol: Tolerance | None, values, *tables) -> Compare:
    """``tol``'s comparison. By default it is exact when every table is
    rational, and otherwise coalition C allows ``8·n·2⁻⁵²·v(C)``, with v(C)
    read from ``values``."""
    if tol is not None and tol != default_tolerance(*tables):
        eps = tol.epsilon
        return Compare(None if eps is None else lambda mask: eps)
    if all(t.exact for t in tables):
        return Compare(None)
    ulps = rounding_ulps(tables[0].n_players)
    return Compare(lambda mask: ulps * float(values[mask]))


def _require_same_shape(game: Game, matrix: RewardMatrix) -> None:
    if matrix.n_players != game.n_players:
        raise DimensionMismatchError(
            f"matrix has {matrix.n_players} players, game has {game.n_players}"
        )


def check_nonnegativity(
    game: Game, matrix: RewardMatrix, tol: Tolerance | None = None
) -> CheckResult:
    """R1: every member's reward is nonnegative."""
    _require_same_shape(game, matrix)
    tol = compare(tol, game.values, game, matrix)
    for mask in range(matrix.num_coalitions):
        for i in members(mask):
            r = matrix.rewards[i][mask]
            if not tol.ge(r, 0, mask):
                return CheckResult(
                    "R1",
                    Verdict.FAIL,
                    {"coalition": mask, "player": i, "reward": r},
                )
    return CheckResult("R1", Verdict.PASS)


def check_feasibility(
    game: Game, matrix: RewardMatrix, tol: Tolerance | None = None
) -> CheckResult:
    """R2: no member's reward exceeds the coalition's value."""
    _require_same_shape(game, matrix)
    tol = compare(tol, game.values, game, matrix)
    for mask in range(matrix.num_coalitions):
        v_c = game.values[mask]
        for i in members(mask):
            r = matrix.rewards[i][mask]
            if not tol.le(r, v_c, mask):
                return CheckResult(
                    "R2",
                    Verdict.FAIL,
                    {"coalition": mask, "player": i, "reward": r, "coalition_value": v_c},
                )
    return CheckResult("R2", Verdict.PASS)


def check_weak_efficiency(
    game: Game, matrix: RewardMatrix, tol: Tolerance | None = None
) -> CheckResult:
    """R3: in every non-empty coalition some member gets the full value."""
    _require_same_shape(game, matrix)
    tol = compare(tol, game.values, game, matrix)
    for mask in range(1, matrix.num_coalitions):
        v_c = game.values[mask]
        mem = members(mask)
        if not any(tol.eq(matrix.rewards[i][mask], v_c, mask) for i in mem):
            return CheckResult(
                "R3",
                Verdict.FAIL,
                {
                    "coalition": mask,
                    "coalition_value": v_c,
                    "member_rewards": {i: matrix.rewards[i][mask] for i in mem},
                },
            )
    return CheckResult("R3", Verdict.PASS)


def check_individual_rationality(
    game: Game, matrix: RewardMatrix, tol: Tolerance | None = None
) -> CheckResult:
    """R4: nobody, member or not, is ever rewarded below their solo value."""
    _require_same_shape(game, matrix)
    tol = compare(tol, game.values, game, matrix)
    for mask in range(matrix.num_coalitions):
        for i in range(game.n_players):
            r = matrix.rewards[i][mask]
            v_i = game.values[1 << i]
            if not tol.ge(r, v_i, mask | (1 << i)):
                return CheckResult(
                    "R4",
                    Verdict.FAIL,
                    {"coalition": mask, "player": i, "reward": r, "solo_value": v_i},
                )
    return CheckResult("R4", Verdict.PASS)


def check_nonparticipation(
    game: Game, matrix: RewardMatrix, tol: Tolerance | None = None
) -> CheckResult:
    """R5: non-members keep exactly their solo value."""
    _require_same_shape(game, matrix)
    tol = compare(tol, game.values, game, matrix)
    for mask in range(matrix.num_coalitions):
        for i in range(game.n_players):
            if mask & (1 << i):
                continue
            r = matrix.rewards[i][mask]
            v_i = game.values[1 << i]
            if not tol.eq(r, v_i, mask | (1 << i)):
                return CheckResult(
                    "R5",
                    Verdict.FAIL,
                    {"coalition": mask, "player": i, "reward": r, "solo_value": v_i},
                )
    return CheckResult("R5", Verdict.PASS)


def check_balanced_reciprocity(
    game: Game, matrix: RewardMatrix, tol: Tolerance | None = None
) -> CheckResult:
    """F5: within any coalition, i's gain from j joining equals j's gain
    from i joining."""
    _require_same_shape(game, matrix)
    tol = compare(tol, game.values, game, matrix)
    if game.n_players < 2:
        return CheckResult("F5", Verdict.PASS_VACUOUS)
    rows = matrix.rewards
    for mask in range(matrix.num_coalitions):
        mem = members(mask)
        for a in range(len(mem)):
            for b in range(a + 1, len(mem)):
                i, j = mem[a], mem[b]
                gain_i = rows[i][mask] - rows[i][mask ^ (1 << j)]
                gain_j = rows[j][mask] - rows[j][mask ^ (1 << i)]
                if not tol.eq(gain_i, gain_j, mask):
                    return CheckResult(
                        "F5",
                        Verdict.FAIL,
                        {
                            "coalition": mask,
                            "player_i": i,
                            "player_j": j,
                            "gain_i": gain_i,
                            "gain_j": gain_j,
                        },
                    )
    return CheckResult("F5", Verdict.PASS)


TABLE_CHECKS = {
    "R1": check_nonnegativity,
    "R2": check_feasibility,
    "R3": check_weak_efficiency,
    "R4": check_individual_rationality,
    "R5": check_nonparticipation,
    "F5": check_balanced_reciprocity,
}


def useless_players(game: Game, tol: Tolerance | None = None) -> list[int]:
    """Players whose joining never changes any coalition's value."""
    return _useless_players(game, compare(tol, game.values, game))


def _useless_players(game: Game, tol: Compare) -> list[int]:
    out = []
    for u in range(game.n_players):
        rest = game.grand_coalition ^ (1 << u)
        if all(
            tol.eq(game.values[sub], game.values[sub | (1 << u)], sub | (1 << u))
            for sub in submasks(rest)
        ):
            out.append(u)
    return out


def symmetric_pairs(game: Game, tol: Tolerance | None = None) -> list[tuple[int, int]]:
    """Unordered pairs that contribute identically to every outside coalition."""
    return _symmetric_pairs(game, compare(tol, game.values, game))


def _symmetric_pairs(game: Game, tol: Compare) -> list[tuple[int, int]]:
    out = []
    for i in range(game.n_players):
        for j in range(i + 1, game.n_players):
            rest = game.grand_coalition ^ (1 << i) ^ (1 << j)
            if all(
                tol.eq(
                    game.values[sub | (1 << i)],
                    game.values[sub | (1 << j)],
                    sub | (1 << i) | (1 << j),
                )
                for sub in submasks(rest)
            ):
                out.append((i, j))
    return out


def desirable_pairs(game: Game, tol: Tolerance | None = None) -> list[tuple[int, int]]:
    """Ordered pairs (i, j) where i contributes at least as much as j everywhere."""
    return _desirable_pairs(game, compare(tol, game.values, game))


def _desirable_pairs(game: Game, tol: Compare) -> list[tuple[int, int]]:
    out = []
    for i in range(game.n_players):
        for j in range(game.n_players):
            if i == j:
                continue
            rest = game.grand_coalition ^ (1 << i) ^ (1 << j)
            if all(
                tol.ge(
                    game.values[sub | (1 << i)],
                    game.values[sub | (1 << j)],
                    sub | (1 << i) | (1 << j),
                )
                for sub in submasks(rest)
            ):
                out.append((i, j))
    return out


PREMISE_FINDERS = {
    "useless_players": useless_players,
    "symmetric_pairs": symmetric_pairs,
    "desirable_pairs": desirable_pairs,
}


def check_uselessness(
    game: Game, matrix: RewardMatrix, tol: Tolerance | None = None
) -> CheckResult:
    """F1: a useless player earns nothing and changes nobody's reward."""
    _require_same_shape(game, matrix)
    tol = compare(tol, game.values, game, matrix)
    useless = _useless_players(game, tol)
    if not useless:
        return CheckResult("F1", Verdict.PASS_VACUOUS)
    for u in useless:
        bit = 1 << u
        for mask in range(matrix.num_coalitions):
            r = matrix.rewards[u][mask]
            if not tol.eq(r, 0, mask | bit):
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
                if not tol.eq(without, with_u, mask | bit):
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


def check_symmetry(
    game: Game, matrix: RewardMatrix, tol: Tolerance | None = None
) -> CheckResult:
    """F2: interchangeable players get equal rewards wherever both belong."""
    _require_same_shape(game, matrix)
    tol = compare(tol, game.values, game, matrix)
    pairs = _symmetric_pairs(game, tol)
    if not pairs:
        return CheckResult("F2", Verdict.PASS_VACUOUS)
    for mask in range(matrix.num_coalitions):
        for i, j in pairs:
            if mask & (1 << i) and mask & (1 << j):
                r_i = matrix.rewards[i][mask]
                r_j = matrix.rewards[j][mask]
                if not tol.eq(r_i, r_j, mask):
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


def check_strict_desirability(
    game: Game, matrix: RewardMatrix, tol: Tolerance | None = None
) -> CheckResult:
    """F3: a weakly dominant player, strictly so inside the coalition, earns
    strictly more there."""
    _require_same_shape(game, matrix)
    tol = compare(tol, game.values, game, matrix)
    pairs = _desirable_pairs(game, tol)
    applied = False
    for mask in range(matrix.num_coalitions):
        for i, j in pairs:
            if not (mask & (1 << i) and mask & (1 << j)):
                continue
            rest = mask ^ (1 << i) ^ (1 << j)
            strict_b = None
            for sub in submasks(rest):
                if sub and tol.gt(game.values[sub | (1 << i)], game.values[sub | (1 << j)], mask):
                    strict_b = sub
                    break
            if strict_b is None:
                continue
            applied = True
            r_i = matrix.rewards[i][mask]
            r_j = matrix.rewards[j][mask]
            if not tol.gt(r_i, r_j, mask):
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


PREMISE_CHECKS = {
    "F1": check_uselessness,
    "F2": check_symmetry,
    "F3": check_strict_desirability,
}


def strict_monotonicity_pair(
    game_before: Game,
    game_after: Game,
    player: int,
    coalition: int,
    tol: Tolerance | None = None,
) -> CheckResult:
    """F4 for one quadruple, with both rewards read from ``solve``'s tables."""
    if game_before.n_players != game_after.n_players:
        raise DimensionMismatchError("both games must have the same player count")
    n = game_before.n_players
    if not 0 <= coalition < (1 << n):
        raise OutOfRangeError(f"coalition mask {coalition} out of range")
    if not 0 <= player < n or not coalition & (1 << player):
        raise OutOfRangeError(f"player {player} is not a member of the coalition")
    v, v2 = game_before.values, game_after.values
    tol = compare(tol, [max(a, b) for a, b in zip(v, v2)], game_before, game_after)
    bit = 1 << player
    rest = coalition ^ bit

    if not tol.gt(v2[coalition], v[coalition], coalition):
        return CheckResult(
            "F4",
            Verdict.PREMISE_NOT_MET,
            {"reason": "coalition value did not strictly increase", "coalition": coalition},
        )
    for sub in submasks(rest):
        if not tol.ge(v2[sub | bit], v[sub | bit], sub | bit):
            return CheckResult(
                "F4",
                Verdict.PREMISE_NOT_MET,
                {"reason": "player's contribution dropped somewhere", "coalition": sub | bit},
            )
        if not tol.eq(v2[sub], v[sub], sub):
            return CheckResult(
                "F4",
                Verdict.PREMISE_NOT_MET,
                {"reason": "a sub-coalition without the player changed value", "coalition": sub},
            )

    before = solve(game_before).matrix.rewards[player][coalition]
    after = solve(game_after).matrix.rewards[player][coalition]
    witness = {
        "player": player,
        "coalition": coalition,
        "reward_before": before,
        "reward_after": after,
    }
    return CheckResult("F4", Verdict.PASS if tol.gt(after, before, coalition) else Verdict.FAIL, witness)


def _render_number(x: Scalar) -> int | str | float:
    if isinstance(x, float):
        return x
    return int(x) if x.denominator == 1 else str(x)


def _canonical_order(labels: tuple[str, ...], masks) -> list[int]:
    return sorted(masks, key=lambda m: (m.bit_count(), coalition_key(labels, m)))


def _players_field(labels: tuple[str, ...]):
    return len(labels) if labels == default_labels(len(labels)) else list(labels)


def dumps_game(doc: GameDocument) -> str:
    """A game document as the former ``serialize_game`` wrote it."""
    labels, game = doc.labels, doc.game
    out: dict = {"players": _players_field(labels)}
    if doc.number_mode == "float":
        out["number_mode"] = "float"
    out["values"] = {
        coalition_key(labels, mask): _render_number(game.values[mask])
        for mask in _canonical_order(labels, range(1, game.num_coalitions))
    }
    return json.dumps(out, indent=2) + "\n"


def dumps_matrix(doc: MatrixDocument, form: str) -> str:
    """A reward table as the former ``serialize_matrix`` wrote it."""
    labels, matrix = doc.labels, doc.matrix
    order = _canonical_order(labels, range(matrix.num_coalitions))
    if form == "json":
        out: dict = {
            "players": _players_field(labels),
            "number_mode": "rational" if matrix.exact else "float",
            "rewards": {
                coalition_key(labels, mask): {
                    labels[i]: _render_number(matrix.rewards[i][mask])
                    for i in range(matrix.n_players)
                }
                for mask in order
            },
        }
        if doc.efficient_player is not None:
            out["efficient_player"] = {
                coalition_key(labels, mask): labels[doc.efficient_player[mask]]
                for mask in _canonical_order(labels, doc.efficient_player)
            }
        return json.dumps(out, indent=2) + "\n"
    if form == "table":
        rows = [["player"] + [coalition_key(labels, m) for m in order]]
        for i in range(matrix.n_players):
            rows.append([labels[i]] + [str(matrix.rewards[i][m]) for m in order])
    else:
        rows = [["player", "coalition", "reward"]]
        for i in range(matrix.n_players):
            for mask in order:
                rows.append(
                    [labels[i], coalition_key(labels, mask), str(matrix.rewards[i][mask])]
                )
    return "".join(map(_csv_line, rows))


def _csv_line(fields) -> str:
    """One CSV row ending in "\n", by a writer whose "\r\n" line terminator
    makes it quote a field with an inner "\r" as well as one with "\n"."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow(fields)
    return buf.getvalue()[:-2] + "\n"


def echo_efficient_players(doc: GameDocument, efficient: dict[int, int]) -> None:
    """The efficient-player listing as the CLI's former
    ``_echo_efficient_players`` printed it."""
    click.echo("efficient player per coalition:")
    order = sorted(efficient, key=lambda m: (m.bit_count(), doc.key(m)))
    for mask in order:
        key = coalition_key(doc.labels, mask) or ""
        click.echo(f"  {{{key}}} -> {doc.labels[efficient[mask]]}")


def members_by_bit_position(coalition: int) -> list[int]:
    """``members`` as its former loop found them: every bit position up to
    the highest member, one shift each."""
    out = []
    i = 0
    while coalition:
        if coalition & 1:
            out.append(i)
        coalition >>= 1
        i += 1
    return out


def check_game_values(values) -> None:
    """Raise what ``Game`` raises for a bad value table of the right length.

    Runs the sign checks and the first-violation monotonicity scan
    (ascending mask, then ascending player) on the values as given.
    """
    if values[0] != 0:
        raise EmptyNotZeroError("the empty coalition must have value 0")
    for mask, x in enumerate(values):
        if x < 0:
            raise NegativeValueError(f"coalition mask {mask} has negative value {x}")
    for mask in range(len(values)):
        for i in members(mask):
            if values[mask ^ (1 << i)] > values[mask]:
                raise NotMonotoneError(mask ^ (1 << i), mask)


def product_enumeration_solve(game: Game) -> list[RewardMatrix]:
    """Every axiom-satisfying matrix, found by raw global search.

    Enumerates all assignments of a full-value member to every coalition
    of size >= 2 (a product over coalitions, with no pruning of the
    assignment space), builds each complete matrix from balanced
    reciprocity, and keeps those passing nonnegativity, feasibility, weak
    efficiency, individual rationality, non-participation, and the full
    reciprocity check. Duplicates are collapsed: in float mode, tables that
    agree within ``8·n·2⁻⁵²·v(C)`` in every entry of coalition C count as
    one, and the fail-fast filter allows the same slack. Uniqueness of the
    allocation means the result should be a single matrix.
    """
    if game.n_players > GLOBAL_MAX_PLAYERS:
        raise SizeLimitExceededError(
            f"global enumeration supports at most {GLOBAL_MAX_PLAYERS} players"
        )
    v = game.values
    n = game.n_players
    big = coalitions_by_size(n, min_size=2)
    tol = default_tolerance(game)
    ulps = 0 if game.exact else rounding_ulps(n)
    # the fail-fast filter's range per coalition, [-slack, v(C) + slack]
    bounds = {mask: (-ulps * v[mask], v[mask] + ulps * v[mask]) for mask in big}

    def agree(a: RewardMatrix, b: RewardMatrix) -> bool:
        return all(
            abs(x - y) <= ulps * v_c
            for row_a, row_b in zip(a.rewards, b.rewards)
            for x, y, v_c in zip(row_a, row_b, v)
        )

    survivors: list[RewardMatrix] = []
    seen: set[RewardMatrix] = set()
    for assignment in product(*(members(mask) for mask in big)):
        rows = [[v[1 << i]] * (1 << n) for i in range(n)]
        feasible = True
        for mask, k in zip(big, assignment):
            v_c = v[mask]
            lo, hi = bounds[mask]
            rows[k][mask] = v_c
            for i in members(mask):
                if i == k:
                    continue
                x = v_c - rows[k][mask ^ (1 << i)] + rows[i][mask ^ (1 << k)]
                # R1/R2 fail-fast: the axiom filter below would reject the
                # finished matrix anyway, this just skips the build early.
                if x < lo or x > hi:
                    feasible = False
                    break
                rows[i][mask] = x
            if not feasible:
                break
        if not feasible:
            continue
        matrix = RewardMatrix(n, tuple(tuple(row) for row in rows))
        if matrix in seen:
            continue
        seen.add(matrix)
        passes = all(r.passed for r in _run_checks(_TABLE_AXIOMS, game, matrix, tol))
        if passes and not any(agree(matrix, s) for s in survivors):
            survivors.append(matrix)
    return survivors


def fraction_potential(values: Sequence[Scalar], coalition: int) -> dict[int, Scalar]:
    """Hart–Mas-Colell potential on every subset of one coalition, on the
    values as given: ``Fraction`` division in exact mode."""
    q = {0: values[0]}
    sub = coalition & -coalition
    while sub:
        total = values[sub]
        rest = sub
        while rest:
            low = rest & -rest
            total += q[sub ^ low]
            rest ^= low
        q[sub] = total / sub.bit_count()
        sub = (sub - coalition) & coalition  # next submask, ascending
    return q


def phi_from_potential(q: dict[int, Scalar], coalition: int) -> dict[int, Scalar]:
    """One coalition's Shapley values off ``fraction_potential``, clamped at 0."""
    top, zero = q[coalition], q[0]
    return {i: max(top - q[coalition ^ (1 << i)], zero) for i in members(coalition)}


def potential_shapley(game: Game, coalition: int) -> dict[int, Scalar]:
    """Shapley values of one subgame from the ``Fraction`` potential."""
    return phi_from_potential(fraction_potential(game.values, coalition), coalition)


def potential_scaled_rho_shapley(game: Game, rho) -> RewardMatrix:
    """Scaled-Shapley table from the ``Fraction`` potential: exact for
    rho == 1 on an exact game, float otherwise through ``float(φ)``."""
    exact = game.exact and rho == 1
    n = game.n_players
    if exact:
        base = [game.values[1 << i] for i in range(n)]
    else:
        base = [float(game.values[1 << i]) for i in range(n)]
    rows: list[list[Scalar]] = [[base[i]] * (1 << n) for i in range(n)]
    q = fraction_potential(game.values, game.grand_coalition)
    for mask in range(1, 1 << n):
        phi = phi_from_potential(q, mask)
        phi_max = max(phi.values())
        v_c = game.values[mask]
        if phi_max == 0:
            for i in phi:
                rows[i][mask] = v_c if exact else 0.0
            continue
        for i, phi_i in phi.items():
            if exact:
                rows[i][mask] = (phi_i / phi_max) * v_c
            elif rho == 1:
                rows[i][mask] = float(phi_i) / float(phi_max) * float(v_c)
            else:
                rows[i][mask] = (float(phi_i) / float(phi_max)) ** float(rho) * float(v_c)
    return RewardMatrix(n, tuple(tuple(row) for row in rows))


class EagerComparison(NamedTuple):
    rho: Scalar
    residuals: tuple
    max_residual: Scalar
    max_residual_witness: tuple[int, int, int] | None
    unbalanced: int
    max_abs_diff: Scalar
    entry_diffs: tuple[tuple[Scalar, ...], ...]


def eager_compare_mechanisms(game: Game, rho) -> EagerComparison:
    """Every residual of the scaled table as a ``PairResidual``, then the
    summary taken from that tuple; ``unbalanced`` counts the residuals above
    0 for an exact table and above ``8·n·2⁻⁵²·v(C)`` otherwise."""
    scaled = potential_scaled_rho_shapley(game, rho)
    balanced = solve(game).matrix
    if not scaled.exact and balanced.exact:
        balanced = balanced.as_float()

    residuals = tuple(pair_residuals(scaled))
    max_residual: Scalar = 0 if scaled.exact else 0.0
    witness: tuple[int, int, int] | None = None
    for r in residuals:
        if witness is None or r.residual > max_residual:
            max_residual = r.residual
            witness = (r.coalition, r.player_i, r.player_j)
    ulps = 0 if scaled.exact else rounding_ulps(game.n_players)
    diffs = tuple(
        tuple(s - b for s, b in zip(srow, brow))
        for srow, brow in zip(scaled.rewards, balanced.rewards)
    )
    return EagerComparison(
        rho=rho,
        residuals=residuals,
        max_residual=max_residual,
        max_residual_witness=witness,
        unbalanced=sum(
            1 for r in residuals if r.residual > ulps * float(game.values[r.coalition])
        ),
        max_abs_diff=max(abs(d) for row in diffs for d in row),
        entry_diffs=diffs,
    )


def fraction_fill_down_set(game: Game, top: int) -> tuple[list[list[Scalar]], EfficientPlayerMap]:
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


def fraction_solve(game: Game) -> SolveResult:
    """``solve`` as it was before exact games ran on integers."""
    rows, efficient = fraction_fill_down_set(game, game.grand_coalition)
    return SolveResult(RewardMatrix(game.n_players, tuple(map(tuple, rows))), efficient)


def fraction_brute_force_solve(game: Game) -> OracleResult:
    """Level-wise enumeration of full-value candidates.

    For each coalition (ascending size), every member k is tried as the
    one rewarded the full value; the other members' rewards follow from
    balanced reciprocity against the already-fixed smaller coalitions.
    Rows with a negative entry or an entry above the coalition value are
    discarded. Float mode lets an entry stray past either bound by
    ``8·n·2⁻⁵²·v(C)``, the rounding that differencing sums of coalition
    values can leave; by monotonicity every term is at most v(C), so the
    slack scales with the coalition, not the game. Exact mode allows no
    slack. The returned matrix uses
    the lowest-index survivor; the ``unique`` flag records whether all
    survivors agreed entrywise, in float mode within that same slack.

    Monotone games always admit at least one survivor, so
    NoFeasibleCandidateError signals a broken input (or a broken theory).
    """
    if game.n_players > LEVEL_WISE_MAX_PLAYERS:
        raise SizeLimitExceededError(
            f"level-wise enumeration supports at most {LEVEL_WISE_MAX_PLAYERS} players"
        )
    v = game.values
    n = game.n_players
    rows = [[v[1 << i]] * (1 << n) for i in range(n)]
    feasible: dict[int, tuple[int, ...]] = {}
    unique = True
    ulps = 0 if game.exact else rounding_ulps(n)

    for mask in coalitions_by_size(n, min_size=2):
        v_c = v[mask]
        slack = ulps * v_c
        hi = v_c + slack
        mem = members(mask)
        surviving_rows: dict[int, dict[int, Scalar]] = {}
        for k in mem:
            row = {k: v_c}
            ok = True
            for i in mem:
                if i == k:
                    continue
                x = v_c - rows[k][mask ^ (1 << i)] + rows[i][mask ^ (1 << k)]
                if x < -slack or x > hi:
                    ok = False
                    break
                row[i] = x
            if ok:
                surviving_rows[k] = row
        if not surviving_rows:
            raise NoFeasibleCandidateError(mask)
        survivors = tuple(surviving_rows)
        feasible[mask] = survivors
        chosen = surviving_rows[survivors[0]]
        if any(
            abs(x - chosen[i]) > slack
            for k in survivors[1:]
            for i, x in surviving_rows[k].items()
        ):
            unique = False
        for i, x in chosen.items():
            rows[i][mask] = x

    matrix = RewardMatrix(n, tuple(tuple(row) for row in rows))
    return OracleResult(matrix, feasible, unique)


# The number readers as they were before exact cells were read as int
# pairs: one Fraction per cell.
def _fraction(token: str) -> Fraction:
    """``Fraction(token)``, with a fast path for a plain integer or "p/q".

    The fast path takes only an optional sign, decimal digits and at most
    one "/" followed by decimal digits, all of which ``Fraction`` accepts
    with the same value; any other goes to ``Fraction`` itself, unless its
    exponent makes more digits than Python writes as text (ValueError).
    """
    num, slash, den = token.partition("/")
    digits = num[1:] if num[:1] in ("+", "-") else num
    if digits.isdecimal() and (not slash or den.isdecimal()):
        return Fraction(int(num), int(den)) if slash else Fraction(int(num))
    mantissa, e, exponent = token.lower().partition("e")
    limit = sys.get_int_max_str_digits()
    if e and limit and len(mantissa) + abs(int(exponent)) > limit:
        raise ValueError
    return Fraction(token)


def _parse_number(raw, mode: str) -> Scalar:
    """One JSON number; raises ValueError when it is not a finite number.

    Float mode gives the double nearest the exact value, rational mode the
    exact value itself.
    """
    if type(raw) is _JsonDecimal:
        if mode != FLOAT:
            return _fraction(raw)
        x = float(raw)
        if not x and not raw.lower().partition("e")[0].strip("+-.0"):
            # float() keeps the sign of "-0.0"; its exact value has none
            return 0.0
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


def _fraction_read_table(mask_of: _KeyMasks, runs, parse) -> RewardMatrix:
    """The one cell reader as it read a ``Fraction`` or a float per cell,
    with ``parse``, and left the scaling to ``RewardMatrix``."""
    labels = mask_of.labels
    table = [[None] * (1 << len(labels)) for _ in labels]
    row_of = dict(zip(labels, table))
    last_keys = masks = None
    filled = 0

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
                try:
                    row[mask] = parse(token)
                except ValueError:
                    if isinstance(token, str) and not token.strip():
                        raise fault("empty number", row, mask) from None
                    raise fault("bad number", row, mask, f": {token!r}") from None
        except KeyError as exc:  # from row_of alone: a coalition names an unknown player
            label, key = exc.args[0], coalition_key(labels, mask_of[second])
            raise FileFormatError(f"unknown player label {label!r}, coalition {key!r}") from None
        filled += len(tokens)
    if filled != len(labels) << len(labels):  # with no duplicates, a cell is missing
        row, mask = next((r, m) for r in table for m, x in enumerate(r) if x is None)
        raise fault("missing reward", row, mask)
    try:
        return RewardMatrix(len(labels), tuple(map(tuple, table)))
    except OverflowError:  # a float made the table float, and an exact entry overflows it
        for row in table:
            for mask, x in enumerate(row):
                try:
                    float(x)
                except OverflowError:
                    detail = f": {x} is too large for a float"
                    raise fault("bad number", row, mask, detail) from None
        raise


def fraction_parse_matrix(text: str) -> MatrixDocument:
    """``parse_matrix`` as it read every cell into a ``Fraction`` or a float."""
    efficient: EfficientPlayerMap | None = None
    parse = _parse_csv_number
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
        parse = lambda raw: _parse_number(raw, mode)
    else:
        rows = [r for r in csv.reader(io.StringIO(text)) if r]
        if not rows:
            raise FileFormatError("empty reward table file")
        header, body = rows[0], rows[1:]
        if not body:
            raise FileFormatError("reward table has no player rows")
        if [c.strip() for c in header] == ["player", "coalition", "reward"]:
            if any(len(r) != 3 for r in body):
                raise FileFormatError("long CSV rows must be player,coalition,reward")
            mask_of = _KeyMasks(_check_labels(list(dict.fromkeys(r[0] for r in body))))
            # one run per stretch of rows that share a player
            stretches = (list(rs) for _, rs in groupby(body, itemgetter(0)))
            runs = ((s[0][0], [r[1] for r in s], [r[2] for r in s]) for s in stretches)
        else:
            if header[0] != "player":
                raise FileFormatError('wide CSV must start with a "player" header column')
            mask_of = _KeyMasks(_check_labels([r[0] for r in body]))
            for r in body:
                if len(r) != len(header):
                    raise FileFormatError(f"row for player {r[0]!r} has the wrong width")
            keys = header[1:]
            runs = ((r[0], keys, r[1:]) for r in body)
    matrix = _fraction_read_table(mask_of, runs, parse)
    return MatrixDocument(matrix, mask_of.labels, RATIONAL if matrix.exact else FLOAT, efficient)


# The reward-table readers as they were before all three shapes shared one
# cell reader: one loop per shape, each with its own label lookup, duplicate
# check and number errors, and `_finish_matrix` to fill in the float rule.
# `_check_labels` now reads a "players" count too, which the former
# `_labels_from_players_field` did; `_parse_coalition_key` is the former
# key parser, since folded into `formats._KeyMasks`.
_labels_from_players_field = _check_labels


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


def parse_matrix_by_shape(text: str) -> MatrixDocument:
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
