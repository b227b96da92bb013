"""Independent cross-checks for the solver, built from the axioms alone.

Neither function here reuses the solver's potential. The level-wise
enumeration tries every member of every coalition as the candidate who
receives the full value, derives the rest of the row purely from balanced
reciprocity, and keeps the candidates whose rows stay nonnegative and
within the coalition's value. The global enumeration goes further and
tries every assignment of full-value recipients across all coalitions at
once, filtering complete matrices by the axioms; it exists precisely
because it does not share the solver's level-by-level structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .axioms import _run_checks, default_tolerance
from .errors import NoFeasibleCandidateError, SizeLimitExceededError
from .games import Game, Scalar, coalitions_by_size, members
from .solver import RewardMatrix

LEVEL_WISE_MAX_PLAYERS = 10
GLOBAL_MAX_PLAYERS = 4

# The axioms a complete matrix must pass to survive global enumeration.
_TABLE_AXIOMS = ("R1", "R2", "R3", "R4", "R5", "F5")


def _slack_ulps(game: Game) -> float:
    """Float slack per unit of coalition value (see ``brute_force_solve``);
    exact games get none."""
    return 0 if game.exact else 8 * game.n_players * 2.0**-52


def agree_up_to_rounding(game: Game, a: RewardMatrix, b: RewardMatrix) -> bool:
    """Whether two tables for ``game`` differ in no entry of coalition C's
    column by more than the oracles' float slack, ``8·n·2⁻⁵²·v(C)``.

    Exact games allow no slack, so their tables must be equal.
    """
    ulps = _slack_ulps(game)
    return all(
        abs(x - y) <= ulps * v_c
        for row_a, row_b in zip(a.rewards, b.rewards)
        for x, y, v_c in zip(row_a, row_b, game.values)
    )


@dataclass(frozen=True)
class OracleResult:
    matrix: RewardMatrix
    # surviving full-value candidates per coalition of size >= 2
    feasible_candidates: dict[int, tuple[int, ...]]
    # True iff every coalition's surviving candidates produce the same rows
    # (in float mode, up to the per-coalition slack)
    unique: bool


def brute_force_solve(game: Game) -> OracleResult:
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
    ulps = _slack_ulps(game)

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


def global_enumeration_solve(game: Game) -> list[RewardMatrix]:
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
