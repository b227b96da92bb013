"""Shapley-value baselines and their comparison against the balanced solver.

The scaled Shapley allocation pays member i of coalition C the share
``(phi_i / phi_max) ** rho * v(C)``, where phi is the Shapley value of the
subgame on C. It keeps the best member at the full coalition value and
everyone else below it, but it does not balance pairwise gains: there are
tiny games where no exponent in (0, 1] restores that balance. The
comparison report quantifies exactly that failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .errors import (
    EmptyCoalitionError,
    OutOfRangeError,
    RhoOutOfRangeError,
    ZeroMaxShapleyError,
)
from .games import Game, Scalar, members
from .solver import RewardMatrix, solve


def _potential(values: Sequence[Scalar], coalition: int) -> dict[int, Scalar]:
    """Hart–Mas-Colell potential on every subset of one coalition.

    ``Q(∅) = 0`` and ``Q(C) = (v(C) + Σ_{i∈C} Q(C∖i)) / |C|``, filled in
    ascending mask order so each ``Q(C∖i)`` is ready before ``Q(C)``. The
    Shapley value of member i in the subgame on C is ``Q(C) − Q(C∖i)``
    (Hart & Mas-Colell, "Potential, Value, and Consistency", Econometrica
    57(3), 1989), so one pass gives every subgame's values.
    """
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


def _shapley_from_potential(q: dict[int, Scalar], coalition: int) -> dict[int, Scalar]:
    # A monotone game's Shapley values are never negative, but in float
    # mode the difference of two potentials can round just below zero, and
    # a negative value raised to a fractional exponent is complex.
    top, zero = q[coalition], q[0]
    return {i: max(top - q[coalition ^ (1 << i)], zero) for i in members(coalition)}


def shapley(game: Game, coalition: int) -> dict[int, Scalar]:
    """Shapley values of the subgame restricted to one coalition.

    Computed from the Hart–Mas-Colell potential over the coalition's
    subsets, in O(c·2^c) for a coalition of c members. Exact in rational
    mode; in float mode a value that rounds below zero is clamped to 0.0.
    The members' values always sum to the coalition's value (up to
    rounding in float mode).
    """
    if not 0 <= coalition < game.num_coalitions:
        raise OutOfRangeError(f"coalition mask {coalition} out of range")
    if coalition == 0:
        raise EmptyCoalitionError("Shapley values need a non-empty coalition")
    return _shapley_from_potential(_potential(game.values, coalition), coalition)


@dataclass(frozen=True)
class RhoShapleyMatrix:
    """Scaled Shapley reward table plus the exponent that produced it."""

    matrix: RewardMatrix
    rho: Scalar

    def reward(self, player: int, coalition: int) -> Scalar:
        return self.matrix.reward(player, coalition)


def scaled_rho_shapley(game: Game, rho: Scalar | int) -> RhoShapleyMatrix:
    """Full scaled-Shapley reward table for an exponent in (0, 1].

    Non-members keep their solo value. Members get
    ``(phi_i / phi_max) ** rho * v(C)``. Exact rationals survive only for
    rho == 1; any other exponent forces float mode (the powers are
    irrational in general).
    """
    if not 0 < rho <= 1:
        raise RhoOutOfRangeError(f"rho must be in (0, 1], got {rho}")
    exact = game.exact and rho == 1
    n = game.n_players
    if exact:
        base = [game.values[1 << i] for i in range(n)]
    else:
        base = [float(game.values[1 << i]) for i in range(n)]
    rows: list[list[Scalar]] = [[base[i]] * (1 << n) for i in range(n)]

    q = _potential(game.values, game.grand_coalition)
    for mask in range(1, 1 << n):
        phi = _shapley_from_potential(q, mask)
        phi_max = max(phi.values())
        v_c = game.values[mask]
        if phi_max == 0:
            if v_c > 0:
                raise ZeroMaxShapleyError(
                    f"coalition mask {mask} has value {v_c} but all-zero Shapley values"
                )
            # worthless coalition: every member's share is zero
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

    matrix = RewardMatrix(n, tuple(tuple(row) for row in rows))
    return RhoShapleyMatrix(matrix, rho)


class PairResidual(NamedTuple):
    """How far one (coalition, i, j) triple is from balanced reciprocity."""

    coalition: int
    player_i: int
    player_j: int
    residual: Scalar


def pair_residuals(matrix: RewardMatrix) -> list[PairResidual]:
    """Reciprocity imbalance |(M[i][C]-M[i][C\\j]) - (M[j][C]-M[j][C\\i])|
    for every coalition and unordered member pair.

    All residuals are zero exactly when the matrix balances pairwise gains.
    """
    out: list[PairResidual] = []
    rows = matrix.rewards
    for mask in range(matrix.num_coalitions):
        mem = members(mask)
        for a in range(len(mem)):
            for b in range(a + 1, len(mem)):
                i, j = mem[a], mem[b]
                gain_i = rows[i][mask] - rows[i][mask ^ (1 << j)]
                gain_j = rows[j][mask] - rows[j][mask ^ (1 << i)]
                out.append(PairResidual(mask, i, j, abs(gain_i - gain_j)))
    return out


@dataclass(frozen=True)
class ComparisonReport:
    """Divergence of the scaled Shapley table from the balanced solver."""

    rho: Scalar
    residuals: tuple[PairResidual, ...]
    max_residual: Scalar
    max_residual_witness: tuple[int, int, int] | None
    max_abs_diff: Scalar
    entry_diffs: tuple[tuple[Scalar, ...], ...]  # scaled minus balanced, per entry


def compare_mechanisms(game: Game, rho: Scalar | int) -> ComparisonReport:
    """Measure how the scaled Shapley table diverges from the balanced one.

    Reports every pairwise reciprocity residual of the scaled table, the
    largest one with its witnessing (coalition, i, j), and the entrywise
    difference against ``solve``. When rho forces float mode the balanced
    matrix is converted to float before differencing.
    """
    scaled = scaled_rho_shapley(game, rho).matrix
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

    diffs = tuple(
        tuple(s - b for s, b in zip(srow, brow))
        for srow, brow in zip(scaled.rewards, balanced.rewards)
    )
    max_abs_diff = max((abs(d) for row in diffs for d in row), default=max_residual * 0)
    return ComparisonReport(
        rho=rho,
        residuals=residuals,
        max_residual=max_residual,
        max_residual_witness=witness,
        max_abs_diff=max_abs_diff,
        entry_diffs=diffs,
    )
