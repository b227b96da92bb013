"""Shapley-value baselines and their comparison against the balanced solver.

The scaled Shapley allocation pays member i of coalition C the share
``(phi_i / phi_max) ** rho * v(C)``, where phi is the Shapley value of the
subgame on C. It keeps the best member at the full coalition value and
everyone else below it, but it does not balance pairwise gains: there are
tiny games where no exponent in (0, 1] restores that balance. The
comparison report quantifies exactly that failure.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Sequence

from .axioms import _slacks
from .errors import (
    EmptyCoalitionError,
    OutOfRangeError,
    RhoOutOfRangeError,
    ZeroMaxShapleyError,
)
from .games import Game, Scalar, members
from .solver import RewardMatrix, solve


def _potential(
    values: Sequence[Scalar], coalition: int
) -> tuple[dict[int, int | float], int | None]:
    """Hart–Mas-Colell potential on every subset of one coalition.

    ``Q(∅) = 0`` and ``Q(C) = (v(C) + Σ_{i∈C} Q(C∖i)) / |C|``, filled in
    ascending mask order so each ``Q(C∖i)`` is ready before ``Q(C)``. The
    Shapley value of member i in the subgame on C is ``Q(C) − Q(C∖i)``
    (Hart & Mas-Colell, "Potential, Value, and Consistency", Econometrica
    57(3), 1989), so one pass gives every subgame's values.

    Exact values run on integers. With d the common denominator of the
    values and c the coalition's size, ``Q(C)·|C|!·d`` is an integer and
    ``|C|!`` divides ``c!``, so ``Q·c!·d`` fills by exact integer division.
    Returns the potential and its scale ``c!·d``; float values give the
    float potential and scale None.
    """
    subs = [0]
    while subs[-1] != coalition:
        subs.append((subs[-1] - coalition) & coalition)  # next submask, ascending
    if isinstance(values[0], float):
        scale, own = None, values
    else:
        d = math.lcm(*{values[s].denominator for s in subs})
        scale = math.factorial(coalition.bit_count()) * d
        own = {s: values[s].numerator * (scale // values[s].denominator) for s in subs}
    q = {0: own[0]}
    for sub in subs[1:]:
        total = own[sub]
        rest = sub
        while rest:
            low = rest & -rest
            total += q[sub ^ low]
            rest ^= low
        q[sub] = total / sub.bit_count() if scale is None else total // sub.bit_count()
    return q, scale


def _shapley_from_potential(
    q: dict[int, int | float], coalition: int
) -> dict[int, int | float]:
    # A monotone game's Shapley values are never negative, but in float
    # mode the difference of two potentials can round just below zero, and
    # a negative value raised to a fractional exponent is complex.
    top, zero = q[coalition], q[0]
    return {i: max(top - q[coalition ^ (1 << i)], zero) for i in members(coalition)}


def _shapley_values(
    q: dict[int, int | float], scale: int | None, coalition: int
) -> dict[int, Scalar]:
    """One coalition's Shapley values read off a potential from ``_potential``."""
    phi = _shapley_from_potential(q, coalition)
    if scale is None:
        return phi
    return {i: Fraction(x, scale) for i, x in phi.items()}


def shapley(game: Game, coalition: int) -> dict[int, Scalar]:
    """Shapley values of the subgame restricted to one coalition.

    Computed from the Hart–Mas-Colell potential over the coalition's
    subsets, in O(c·2^c) for a coalition of c members, on integers in
    rational mode. In float mode a value that rounds below zero is clamped
    to 0.0. The members' values always sum to the coalition's value (up to
    rounding in float mode).
    """
    if not 0 <= coalition < game.num_coalitions:
        raise OutOfRangeError(f"coalition mask {coalition} out of range")
    if coalition == 0:
        raise EmptyCoalitionError("Shapley values need a non-empty coalition")
    return _shapley_values(*_potential(game.values, coalition), coalition)


@dataclass(frozen=True)
class RhoShapleyMatrix:
    """Scaled Shapley reward table plus the exponent that produced it."""

    matrix: RewardMatrix
    rho: Scalar


# A scaled table in exact mode, before any Fraction is made: per coalition
# C, the members' entries as integer numerators ``nums[i][C]`` over the
# shared denominator ``dens[C]``.
_Columns = tuple[list[list[int]], list[int]]


def _scaled_table(
    game: Game, rho: Scalar | int, potential: tuple[dict[int, int | float], int | None]
) -> RewardMatrix | _Columns:
    """The scaled-Shapley table: as integer columns (``nums``, ``dens``) in
    exact mode, as a float ``RewardMatrix`` otherwise. ``potential`` is
    ``_potential`` of the game's values on the grand coalition.

    With ``Φ_i = φ_i·n!·d`` from the integer potential and ``v(C) = p/q``,
    member i's exact share is ``Φ_i·p / (Φ_max·q)``, so ``Φ_max·q`` is the
    column's denominator. For a float exponent on an exact game,
    ``Φ_i / (n!·d)`` is the correctly rounded ``float(φ_i)``.
    """
    if not 0 < rho <= 1:
        raise RhoOutOfRangeError(f"rho must be in (0, 1], got {rho}")
    exact = game.exact and rho == 1
    n = game.n_players
    values = game.values
    if exact:
        nums = [[0] * (1 << n) for _ in range(n)]
        dens = [1] * (1 << n)
    else:
        rows = [[float(values[1 << i])] * (1 << n) for i in range(n)]
    power = float(rho)

    q, scale = potential
    for mask in range(1, 1 << n):
        phi = _shapley_from_potential(q, mask)
        phi_max = max(phi.values())
        v_c = values[mask]
        if phi_max == 0:
            if v_c > 0:
                raise ZeroMaxShapleyError(
                    f"coalition mask {mask} has value {v_c} but all-zero Shapley values"
                )
            # worthless coalition: every member's share is zero, as the
            # exact columns' 0 over 1 already says
            if not exact:
                for i in phi:
                    rows[i][mask] = 0.0
            continue
        if exact:
            p = v_c.numerator
            dens[mask] = phi_max * v_c.denominator
            for i, phi_i in phi.items():
                nums[i][mask] = phi_i * p
            continue
        if scale is not None:
            phi = {i: phi_i / scale for i, phi_i in phi.items()}
            phi_max /= scale
        v_f = float(v_c)
        for i, phi_i in phi.items():
            if rho == 1:
                rows[i][mask] = phi_i / phi_max * v_f
            else:
                rows[i][mask] = (phi_i / phi_max) ** power * v_f
    if exact:
        return nums, dens
    return RewardMatrix(n, tuple(map(tuple, rows)))


def _scaled_matrix(game: Game, table: RewardMatrix | _Columns) -> RewardMatrix:
    """A table from ``_scaled_table`` as a ``RewardMatrix``: exact columns
    become Fractions, and non-members keep their solo value."""
    if isinstance(table, RewardMatrix):
        return table
    nums, dens = table
    n = game.n_players
    rows = [[game.values[1 << i]] * (1 << n) for i in range(n)]
    for mask in range(1, 1 << n):
        den = dens[mask]
        for i in members(mask):
            rows[i][mask] = Fraction(nums[i][mask], den)
    return RewardMatrix(n, tuple(map(tuple, rows)))


def scaled_rho_shapley(game: Game, rho: Scalar | int) -> RhoShapleyMatrix:
    """Full scaled-Shapley reward table for an exponent in (0, 1].

    Non-members keep their solo value. Members get
    ``(phi_i / phi_max) ** rho * v(C)``. Exact rationals survive only for
    rho == 1; any other exponent forces float mode (the powers are
    irrational in general).
    """
    potential = _potential(game.values, game.grand_coalition)
    return RhoShapleyMatrix(_scaled_matrix(game, _scaled_table(game, rho, potential)), rho)


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
    """Divergence of the scaled Shapley table from the balanced solver.

    ``unbalanced`` counts the (coalition, pair) triples whose reciprocity
    residual exceeds the checkers' default slack: 0 when the table is exact
    (rho == 1 on an exact game), ``8·n·2⁻⁵²·v(C)`` for coalition C
    otherwise. The tables behind the figures are built on first read and
    then kept: ``scaled``, the scaled Shapley table; ``entry_diffs``, scaled
    minus balanced entry by entry; and ``residuals``, every triple's
    residual. Reports of the same game and rho are equal.
    """

    rho: Scalar
    max_residual: Scalar
    max_residual_witness: tuple[int, int, int] | None
    unbalanced: int
    max_abs_diff: Scalar
    _game: Game = field(repr=False)
    # the balanced table (float when the scaled one is), and the scaled one
    # as ``_scaled_table`` gives it: both follow from the game and rho
    _balanced: RewardMatrix = field(repr=False, compare=False)
    _scaled: RewardMatrix | _Columns = field(repr=False, compare=False)

    @cached_property
    def scaled(self) -> RewardMatrix:
        return _scaled_matrix(self._game, self._scaled)

    @cached_property
    def entry_diffs(self) -> tuple[tuple[Scalar, ...], ...]:
        return tuple(
            tuple(map(operator.sub, s_row, b_row))
            for s_row, b_row in zip(self.scaled.rewards, self._balanced.rewards)
        )

    @cached_property
    def residuals(self) -> tuple[PairResidual, ...]:
        return tuple(pair_residuals(self.scaled))


def compare_mechanisms(game: Game, rho: Scalar | int) -> ComparisonReport:
    """Measure how the scaled Shapley table diverges from the balanced one.

    One pass over every coalition and member pair, in ascending mask order
    and then i < j, finds the largest reciprocity residual of the scaled
    table, its first witnessing (coalition, i, j), and how many residuals
    lie above the threshold. A second pass over the members of every
    coalition finds the largest entrywise difference against ``solve``.
    Exact tables are compared as integers over each coalition's shared
    denominator. When rho forces float mode the balanced matrix is
    converted to float first.
    """
    potential = _potential(game.values, game.grand_coalition)
    table = _scaled_table(game, rho, potential)
    n = game.n_players
    balanced = solve(game).matrix
    if isinstance(table, RewardMatrix) and balanced.exact:
        balanced = balanced.as_float()

    witness: tuple[int, int, int] | None = None
    unbalanced = 0
    if isinstance(table, RewardMatrix):
        rows = table._numerators  # the floats
        max_residual: Scalar = 0.0
        eps = _slacks(None, game.values, game, table)
        for mask in range(3, 1 << n):
            mem = members(mask)
            for a, i in enumerate(mem):
                row_i, bit_i = rows[i], 1 << i
                for j in mem[a + 1:]:
                    row_j = rows[j]
                    gain_i = row_i[mask] - row_i[mask ^ (1 << j)]
                    gain_j = row_j[mask] - row_j[mask ^ bit_i]
                    residual = abs(gain_i - gain_j)
                    if residual > eps[mask]:
                        unbalanced += 1
                    if witness is None or residual > max_residual:
                        max_residual = residual
                        witness = (mask, i, j)
    else:
        nums, dens = table
        # The residual of (C, i, j) is |x| / (D_C·D_{C∖i}·D_{C∖j}), with D
        # each column's shared denominator.
        best_num, best_den = 0, 1
        for mask in range(3, 1 << n):
            mem = members(mask)
            d_c = dens[mask]
            for a, i in enumerate(mem):
                num_i, bit_i = nums[i], 1 << i
                d_i = dens[mask ^ bit_i]
                for j in mem[a + 1:]:
                    num_j, bit_j = nums[j], 1 << j
                    d_j = dens[mask ^ bit_j]
                    x = (num_i[mask] - num_j[mask]) * d_i * d_j - d_c * (
                        num_i[mask ^ bit_j] * d_i - num_j[mask ^ bit_i] * d_j
                    )
                    if x:
                        unbalanced += 1
                        x = abs(x)
                        den = d_c * d_i * d_j
                        if witness is None or x * best_den > best_num * den:
                            best_num, best_den = x, den
                            witness = (mask, i, j)
                    elif witness is None:
                        witness = (mask, i, j)
        max_residual = 0 if witness is None else Fraction(best_num, best_den)

    # Both tables hold the solo value at every non-member entry and in
    # coalitions of one, so only members of larger coalitions differ.
    larger = [mask for mask in range(3, 1 << n) if mask & (mask - 1)]
    b_den = balanced._denominator
    if isinstance(table, RewardMatrix) or b_den is None:
        # float tables, or a balanced table past the denominator cap
        table = _scaled_matrix(game, table)
        s_rows, b_rows = table.rewards, balanced.rewards
        max_abs_diff = max(
            (abs(s_rows[i][m] - b_rows[i][m]) for m in larger for i in members(m)),
            default=Fraction(0) if table.exact else 0.0,
        )
    else:
        # Member i of C sits at nums[i][C] / dens[C] against brows[i][C] /
        # b_den: one denominator per coalition, so compare numerators there
        # and cross-multiply only between coalitions.
        brows = balanced._numerators
        top_num, top_den = 0, 1
        for mask in larger:
            d_c = dens[mask]
            x = max(abs(nums[i][mask] * b_den - brows[i][mask] * d_c) for i in members(mask))
            if x * top_den > top_num * d_c:
                top_num, top_den = x, d_c
        max_abs_diff = Fraction(top_num, top_den * b_den)
    return ComparisonReport(
        rho=rho,
        max_residual=max_residual,
        max_residual_witness=witness,
        unbalanced=unbalanced,
        max_abs_diff=max_abs_diff,
        _game=game,
        _balanced=balanced,
        _scaled=table,
    )
