"""Independent cross-checks for the solver, built from the axioms alone.

Neither function here reuses the solver's potential. The level-wise
enumeration tries every member of every coalition as the candidate who
receives the full value, derives the rest of the row purely from balanced
reciprocity, and keeps the candidates whose rows stay nonnegative and
within the coalition's value. The global enumeration goes further and
considers every assignment of full-value recipients across all coalitions
at once, filtering complete matrices by the axioms. It searches the
assignments depth first and drops a partial assignment only at an entry
outside its coalition's range, an entry every completion of it shares; it
never commits to one candidate per coalition, so it keeps every table the
axioms allow rather than the one the solver's level-by-level structure
picks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .axioms import _run_checks, _slacks, default_tolerance
from .errors import NoFeasibleCandidateError, SizeLimitExceededError
from .games import Game, Scalar, coalitions_by_size, members
from .solver import RewardMatrix

LEVEL_WISE_MAX_PLAYERS = 10
GLOBAL_MAX_PLAYERS = 4

# The axioms a complete matrix must pass to survive global enumeration.
_TABLE_AXIOMS = ("R1", "R2", "R3", "R4", "R5", "F5")


def agree_up_to_rounding(game: Game, a: RewardMatrix, b: RewardMatrix) -> bool:
    """Whether two tables for ``game`` differ in no entry of coalition C's
    column by more than the game's default slack for C: ``8·n·2⁻⁵²·v(C)``
    for a float game, none for an exact one, whose tables must be equal.
    """
    return _agree(_slacks(None, game), a, b)


def _agree(eps, a: RewardMatrix, b: RewardMatrix) -> bool:
    return all(
        abs(x - y) <= e
        for row_a, row_b in zip(a.rewards, b.rewards)
        for x, y, e in zip(row_a, row_b, eps)
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
    discarded. Float mode lets an entry stray past either bound by the
    checkers' default slack for C, ``8·n·2⁻⁵²·v(C)``, the rounding that
    differencing sums of coalition values can leave; exact mode allows no
    slack. The returned matrix uses the lowest-index survivor; the
    ``unique`` flag records whether all survivors agreed entrywise, in
    float mode within that same slack.

    An exact game runs on its ints over its common denominator, as the
    solver does; that scaling in ``games.py`` is all the two share.

    Monotone games always admit at least one survivor, so
    NoFeasibleCandidateError signals a broken input (or a broken theory).
    """
    if game.n_players > LEVEL_WISE_MAX_PLAYERS:
        raise SizeLimitExceededError(
            f"level-wise enumeration supports at most {LEVEL_WISE_MAX_PLAYERS} players"
        )
    v = game._numerators
    n = game.n_players
    rows = [[v[1 << i]] * (1 << n) for i in range(n)]
    feasible: dict[int, tuple[int, ...]] = {}
    unique = True
    eps = _slacks(None, game)

    for mask in coalitions_by_size(n, min_size=2):
        v_c = v[mask]
        slack = eps[mask]
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

    # every value of the game is an entry, so its denominator is the least
    matrix = RewardMatrix._stored(n, tuple(tuple(row) for row in rows), game._denominator)
    return OracleResult(matrix, feasible, unique)


def global_enumeration_solve(game: Game) -> list[RewardMatrix]:
    """Every axiom-satisfying matrix, found by exhaustive global search.

    Considers every assignment of a full-value member to every coalition
    of size >= 2, builds each complete matrix from balanced reciprocity,
    and keeps those passing nonnegativity, feasibility, weak efficiency,
    individual rationality, non-participation, and the full reciprocity
    check. The search is depth first over the coalitions, by size then
    mask, trying each coalition's members in ascending order, so it
    reaches the assignments in lexicographic order. A coalition's column
    depends only on the choices for the coalitions before it, so a partial
    assignment is dropped only at an entry outside the coalition's range,
    where every completion of it would be rejected too. One tolerance, the
    game's default, serves the range filter, the axiom filter and the
    dedupe: in float mode coalition C allows ``8·n·2⁻⁵²·v(C)``, so tables
    that agree within it count as one. Uniqueness of the allocation means
    the result should be a single matrix.
    """
    if game.n_players > GLOBAL_MAX_PLAYERS:
        raise SizeLimitExceededError(
            f"global enumeration supports at most {GLOBAL_MAX_PLAYERS} players"
        )
    v = game._numerators
    n = game.n_players
    tol = default_tolerance(game)
    eps = _slacks(tol, game)
    # per coalition: its mask, value, the range filter's [-slack, v(C) +
    # slack] and, per candidate k, the (i, C∖i, C∖k) index triples that
    # fill the other members' entries
    levels = []
    for mask in coalitions_by_size(n, min_size=2):
        mem = members(mask)
        candidates = [
            (k, [(i, mask ^ (1 << i), mask ^ (1 << k)) for i in mem if i != k])
            for k in mem
        ]
        levels.append((mask, v[mask], -eps[mask], v[mask] + eps[mask], candidates))

    survivors: list[RewardMatrix] = []
    seen: set[tuple[tuple, ...]] = set()
    # entries of coalitions past the current depth are stale, and each is
    # rewritten before any deeper coalition or leaf reads it
    rows = [[v[1 << i]] * (1 << n) for i in range(n)]

    def search(depth: int) -> None:
        if depth == len(levels):
            # every table here is over the game's denominator, so equal
            # stored rows are equal tables
            stored = tuple(tuple(row) for row in rows)
            if stored in seen:
                return
            seen.add(stored)
            matrix = RewardMatrix._stored(n, stored, game._denominator)
            passes = all(r.passed for r in _run_checks(_TABLE_AXIOMS, game, matrix, tol))
            if passes and not any(_agree(eps, matrix, s) for s in survivors):
                survivors.append(matrix)
            return
        mask, v_c, lo, hi, candidates = levels[depth]
        for k, others in candidates:
            row_k = rows[k]
            row_k[mask] = v_c
            for i, without_i, without_k in others:
                x = v_c - row_k[without_i] + rows[i][without_k]
                # R1/R2 fail-fast: the axiom filter at the leaf would reject
                # every completion anyway, this just skips building them
                if x < lo or x > hi:
                    break
                rows[i][mask] = x
            else:
                search(depth + 1)

    search(0)
    return survivors
