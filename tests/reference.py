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
``coalition_key`` call per entry. ``check_game_values`` is ``Game``'s
former sign and monotonicity scan on the Fractions themselves.
``product_enumeration_solve`` is the global enumeration's former loop: a
product over every assignment of full-value members, each row rebuilt from
solo values, with no pruning of the assignment space.
``fraction_potential``, ``potential_shapley``, ``potential_scaled_rho_shapley``
and ``eager_compare_mechanisms`` are the Shapley baselines' former
``Fraction`` potential and scaled table, and the comparison that kept every
``PairResidual`` and took its summary from that tuple.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from itertools import permutations, product
from typing import Callable, NamedTuple, Sequence

from fairshare import (
    CheckResult,
    DimensionMismatchError,
    OutOfRangeError,
    EmptyNotZeroError,
    Game,
    GameDocument,
    MatrixDocument,
    NegativeValueError,
    NotMonotoneError,
    RewardMatrix,
    Scalar,
    SizeLimitExceededError,
    SolveResult,
    Tolerance,
    Verdict,
    coalition_key,
    coalitions_by_size,
    default_labels,
    members,
    pair_residuals,
    random_monotone_game,
    solve,
    submasks,
)
from fairshare.axioms import DEFAULT_EPSILON, _run_checks, default_tolerance
from fairshare.oracle import (
    GLOBAL_MAX_PLAYERS,
    _TABLE_AXIOMS,
    _slack_ulps,
    agree_up_to_rounding,
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


class Compare:
    """Exact comparison when ``epsilon`` is None; otherwise values within
    epsilon are equal and "strictly greater" means greater by more than it."""

    def __init__(self, epsilon: Scalar | None):
        self.epsilon = epsilon

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


def compare(tol: Tolerance | None, *tables) -> Compare:
    """``tol``'s comparison; by default exact when every table is rational,
    absolute 1e-9 otherwise."""
    if tol is not None:
        return Compare(tol.epsilon)
    return Compare(None if all(t.exact for t in tables) else DEFAULT_EPSILON)


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
    tol = compare(tol, game, matrix)
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
    tol = compare(tol, game, matrix)
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
    tol = compare(tol, game, matrix)
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
    tol = compare(tol, game, matrix)
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
    tol = compare(tol, game, matrix)
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
    tol = compare(tol, game, matrix)
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


def useless_players(game: Game, tol: Tolerance | None = None) -> list[int]:
    """Players whose joining never changes any coalition's value."""
    return _useless_players(game, compare(tol, game))


def _useless_players(game: Game, tol: Compare) -> list[int]:
    out = []
    for u in range(game.n_players):
        rest = game.grand_coalition ^ (1 << u)
        if all(
            tol.eq(game.values[sub], game.values[sub | (1 << u)])
            for sub in submasks(rest)
        ):
            out.append(u)
    return out


def symmetric_pairs(game: Game, tol: Tolerance | None = None) -> list[tuple[int, int]]:
    """Unordered pairs that contribute identically to every outside coalition."""
    return _symmetric_pairs(game, compare(tol, game))


def _symmetric_pairs(game: Game, tol: Compare) -> list[tuple[int, int]]:
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


def desirable_pairs(game: Game, tol: Tolerance | None = None) -> list[tuple[int, int]]:
    """Ordered pairs (i, j) where i contributes at least as much as j everywhere."""
    return _desirable_pairs(game, compare(tol, game))


def _desirable_pairs(game: Game, tol: Compare) -> list[tuple[int, int]]:
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
    tol = compare(tol, game, matrix)
    useless = _useless_players(game, tol)
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


def check_symmetry(
    game: Game, matrix: RewardMatrix, tol: Tolerance | None = None
) -> CheckResult:
    """F2: interchangeable players get equal rewards wherever both belong."""
    _require_same_shape(game, matrix)
    tol = compare(tol, game, matrix)
    pairs = _symmetric_pairs(game, tol)
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


def check_strict_desirability(
    game: Game, matrix: RewardMatrix, tol: Tolerance | None = None
) -> CheckResult:
    """F3: a weakly dominant player, strictly so inside the coalition, earns
    strictly more there."""
    _require_same_shape(game, matrix)
    tol = compare(tol, game, matrix)
    pairs = _desirable_pairs(game, tol)
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
    tol = compare(tol, game_before, game_after)
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

    before = solve(game_before).matrix.rewards[player][coalition]
    after = solve(game_after).matrix.rewards[player][coalition]
    witness = {
        "player": player,
        "coalition": coalition,
        "reward_before": before,
        "reward_after": after,
    }
    return CheckResult("F4", Verdict.PASS if tol.gt(after, before) else Verdict.FAIL, witness)


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
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if form == "table":
        writer.writerow(["player"] + [coalition_key(labels, m) for m in order])
        for i in range(matrix.n_players):
            writer.writerow([labels[i]] + [str(matrix.rewards[i][m]) for m in order])
    else:
        writer.writerow(["player", "coalition", "reward"])
        for i in range(matrix.n_players):
            for mask in order:
                writer.writerow(
                    [labels[i], coalition_key(labels, mask), str(matrix.rewards[i][mask])]
                )
    return buf.getvalue()


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
    agree within ``brute_force_solve``'s slack of ``8·n·2⁻⁵²·v(C)`` count as
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
    ulps = _slack_ulps(game)
    # the fail-fast filter's range per coalition, [-slack, v(C) + slack]
    bounds = {mask: (-ulps * v[mask], v[mask] + ulps * v[mask]) for mask in big}

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
        if passes and not any(agree_up_to_rounding(game, matrix, s) for s in survivors):
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
    0 for an exact table and above ``DEFAULT_EPSILON`` otherwise."""
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
    threshold = 0 if scaled.exact else DEFAULT_EPSILON
    diffs = tuple(
        tuple(s - b for s, b in zip(srow, brow))
        for srow, brow in zip(scaled.rewards, balanced.rewards)
    )
    return EagerComparison(
        rho=rho,
        residuals=residuals,
        max_residual=max_residual,
        max_residual_witness=witness,
        unbalanced=sum(1 for r in residuals if r.residual > threshold),
        max_abs_diff=max(abs(d) for row in diffs for d in row),
        entry_diffs=diffs,
    )
