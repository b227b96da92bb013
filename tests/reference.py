"""Independent reference implementations used only by tests.

Nothing here may call back into the code paths it is meant to check:
Shapley values come from raw permutation enumeration, monotonicity from
an all-pairs subset scan, and witness re-evaluation recomputes the
violated condition straight from the table entries the witness names.
The R1-R5 and F5 checkers in ``TABLE_CHECKS`` compare the table entries
themselves through ``Tolerance``, with no common-denominator scaling.
``anchored_solve`` is the solver's former anchor-and-score pass, which
never forms the potential: it crowns each coalition's efficient player by
the rewards reciprocity would force from a caller-chosen anchor.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from typing import Callable

from fairshare import (
    CheckResult,
    DimensionMismatchError,
    Game,
    RewardMatrix,
    Scalar,
    SolveResult,
    Tolerance,
    Verdict,
    coalitions_by_size,
    default_tolerance,
    members,
    random_monotone_game,
)


def random_games(sizes, per_size, seed0=0, max_increment=10):
    """Deterministic stream of random monotone games for campaigns."""
    seed = seed0
    for n in sizes:
        for _ in range(per_size):
            yield random_monotone_game(n, seed, max_increment)
            seed += 1


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

    The premise is the one ``check_strict_desirability`` documents: i and j
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
    tol = tol or default_tolerance(game, matrix)
    for mask in range(matrix.num_coalitions):
        for i in members(mask):
            r = matrix.rewards[i][mask]
            if not tol.ge(r, 0):
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
    tol = tol or default_tolerance(game, matrix)
    for mask in range(matrix.num_coalitions):
        v_c = game.values[mask]
        for i in members(mask):
            r = matrix.rewards[i][mask]
            if not tol.le(r, v_c):
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
    tol = tol or default_tolerance(game, matrix)
    for mask in range(1, matrix.num_coalitions):
        v_c = game.values[mask]
        mem = members(mask)
        if not any(tol.eq(matrix.rewards[i][mask], v_c) for i in mem):
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
    tol = tol or default_tolerance(game, matrix)
    for mask in range(matrix.num_coalitions):
        for i in range(game.n_players):
            r = matrix.rewards[i][mask]
            v_i = game.values[1 << i]
            if not tol.ge(r, v_i):
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
    tol = tol or default_tolerance(game, matrix)
    for mask in range(matrix.num_coalitions):
        for i in range(game.n_players):
            if mask & (1 << i):
                continue
            r = matrix.rewards[i][mask]
            v_i = game.values[1 << i]
            if not tol.eq(r, v_i):
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
    tol = tol or default_tolerance(game, matrix)
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
                if not tol.eq(gain_i, gain_j):
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
