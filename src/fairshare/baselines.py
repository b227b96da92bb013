"""Shapley-value baselines and their comparison against the balanced solver.

The scaled Shapley allocation pays member i of coalition C the share
``(phi_i / phi_max) ** rho * v(C)``, where phi is the Shapley value of the
subgame on C. It keeps the best member at the full coalition value and
everyone else below it, but it does not balance pairwise gains: there are
tiny games where no exponent in (0, 1] restores that balance. The
comparison report quantifies exactly that failure.

Every subgame's Shapley values come from one Hart–Mas-Colell potential Q,
filled one coalition size at a time on the solver's level tables
(``solver._levels``). The scaled table is built a row slice at a time
(``games._runs``). ``compare_mechanisms`` reads every (coalition, pair)
triple through gathers kept per player count (``_triple_blocks``), and it
compares an exact table behind a float screen with a proven error bound,
so exact arithmetic runs only where that bound cannot decide.
"""

from __future__ import annotations

import math
import operator
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, compress, count, repeat
from operator import (
    add,
    eq,
    floordiv,
    ge,
    gt,
    itemgetter,
    le,
    lshift,
    mul,
    or_,
    sub,
    truediv,
)
from typing import Iterator, NamedTuple, Sequence

from .axioms import _slacks
from .errors import (
    BadParamsError,
    EmptyCoalitionError,
    OutOfRangeError,
    RhoOutOfRangeError,
    ZeroMaxShapleyError,
)
from .games import Game, Scalar, _Run, _runs, members
from .solver import RewardMatrix, _gather, _levels, _min_plus, solve


def _potential(n: int, v: Sequence) -> tuple[list, list]:
    """Hart–Mas-Colell potential Q of the n-player game with values ``v``,
    and φ_max(C), the largest Shapley value of the subgame on C, at every
    mask.

    ``Q(∅) = 0`` and ``Q(C) = (v(C) + Σ_{i∈C} Q(C∖i)) / |C|``. The Shapley
    value of member i in the subgame on C is ``Q(C) − Q(C∖i)`` (Hart &
    Mas-Colell, "Potential, Value, and Consistency", Econometrica 57(3),
    1989), so ``φ_max(C) = Q(C) − min_i Q(C∖i)``, clamped at ``Q(∅)`` as
    each value is (``_shapley_runs``). Q is filled one coalition size at a
    time: per member position, one gather of ``_levels`` reads Q at every
    C∖i of the size, and the gathers are added to v(C) in ascending member
    order, one ``add`` each, so every float rounds as a loop over the
    members would. Float values give the float Q. Int values must be
    scaled so that |C| divides each sum (``_game_potential``); then ``//``
    is exact.
    """
    q = list(v)
    zero = q[0]
    top = [zero] * len(q)
    divide = truediv if isinstance(zero, float) else floordiv
    for size, level in enumerate(_levels(n)[1:], 1):
        masks = level.masks
        below = [take(q) for take in level.drop]
        # v(C) is read off q, which holds it at this size until own is stored
        total = map(q.__getitem__, masks)
        for sums in below:
            total = map(add, total, sums)
        own = list(map(divide, total, repeat(size)))
        deque(map(q.__setitem__, masks, own), 0)
        least = below[0] if size == 1 else map(min, *below)
        best = list(map(sub, own, least))
        if not min(best) >= zero:
            best = list(map(max, best, repeat(zero)))
        deque(map(top.__setitem__, masks, best), 0)
    return q, top


class _Potential(NamedTuple):
    """A whole game's Q and φ_max per mask, from ``_potential``. For an
    exact game both are ints scaled by ``scale = n!·d``, with d the common
    denominator of the values: Q(C)·|C|!·d is an integer, and |C|! divides
    n!. For a float game they are floats, and ``scale`` is None."""

    q: list
    top: list
    scale: int | None


def _integers(game: Game) -> tuple[Sequence[int], int]:
    """An exact game's values as ints over one denominator: the stored
    ones, or past the denominator cap over the lcm of them all."""
    if game._denominator is not None:
        return game._numerators, game._denominator
    ratios = list(map(Fraction.as_integer_ratio, game.values))
    d = math.lcm(*{q for _, q in ratios})
    return [p * (d // q) for p, q in ratios], d


def _game_potential(game: Game) -> _Potential:
    n = game.n_players
    if not game.exact:
        return _Potential(*_potential(n, game.values), None)
    v, d = _integers(game)
    factorial = math.factorial(n)
    return _Potential(*_potential(n, list(map(mul, v, repeat(factorial)))), factorial * d)


def _shapley_runs(potential: _Potential) -> Iterator[tuple[_Run, list]]:
    """Per ``_runs`` row slice of player i, the Shapley values
    ``Q(C) − Q(C∖i)`` of the slice's coalitions, clamped at ``Q(∅)``.

    A monotone game's Shapley values are never negative, but in float mode
    the difference of two potentials can round just below zero, and a
    negative value raised to a fractional exponent is complex.
    """
    q = potential.q
    zero = q[0]
    for run in _runs(len(q).bit_length() - 1):
        phi = list(map(sub, q[run.with_i], q[run.without_i]))
        # max(x, zero) keeps x unless x < zero; a NaN min clamps too
        if not min(phi) >= zero:
            phi = list(map(max, phi, repeat(zero)))
        yield run, phi


def _shapley_rows(potential: _Potential) -> list[list[Scalar]]:
    """Every subgame's Shapley values off one potential: ``rows[i][C]`` is
    member i's value in the subgame on C (None at non-members)."""
    q, _, scale = potential
    rows: list[list] = [[None] * len(q) for _ in range(len(q).bit_length() - 1)]
    for run, phi in _shapley_runs(potential):
        rows[run.i][run.with_i] = phi if scale is None else map(Fraction, phi, repeat(scale))
    return rows


def shapley(game: Game, coalition: int) -> dict[int, Scalar]:
    """Shapley values of the subgame restricted to one coalition.

    Computed from the Hart–Mas-Colell potential of that subgame, whose
    players keep their order, in O(c·2^c) for a coalition of c members, on
    integers in rational mode. In float mode a value that rounds below zero
    is clamped to 0.0. The members' values always sum to the coalition's
    value (up to rounding in float mode).
    """
    if not 0 <= coalition < game.num_coalitions:
        raise OutOfRangeError(f"coalition mask {coalition} out of range")
    if coalition == 0:
        raise EmptyCoalitionError("Shapley values need a non-empty coalition")
    mem = members(coalition)
    subs = [0]
    for i in mem:
        subs += [s | 1 << i for s in subs]
    factorial = math.factorial(len(mem))
    if game.exact:
        v, d = _integers(game)
        q, _ = _potential(len(mem), [v[s] * factorial for s in subs])
    else:
        q, _ = _potential(len(mem), list(map(game.values.__getitem__, subs)))
    full = len(q) - 1
    phi = {i: max(q[full] - q[full ^ 1 << j], q[0]) for j, i in enumerate(mem)}
    if not game.exact:
        return phi
    return {i: Fraction(x, factorial * d) for i, x in phi.items()}


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
    game: Game, rho: Scalar | int, potential: _Potential
) -> RewardMatrix | _Columns:
    """The scaled-Shapley table: as integer columns (``nums``, ``dens``) in
    exact mode, as a float ``RewardMatrix`` otherwise, a ``_runs`` row
    slice at a time. ``potential`` is ``_game_potential(game)``.

    With ``Φ_i = φ_i·n!·d`` from the integer potential and ``v(C) = V/d``,
    member i's exact share is ``Φ_i·V / (Φ_max·d)``, so ``Φ_max·d`` is the
    column's denominator. For a float exponent on an exact game,
    ``Φ_i / (n!·d)`` is the correctly rounded ``float(φ_i)``, and a game
    whose values pass the float range is refused.
    """
    if not 0 < rho <= 1:
        raise RhoOutOfRangeError(f"rho must be in (0, 1], got {rho}")
    n = game.n_players
    size = 1 << n
    values = game.values
    q, top, scale = potential
    if scale is None:
        floats = values
    else:
        v, d = _integers(game)
        if rho != 1:
            try:
                floats = list(map(truediv, v, repeat(d)))
            except OverflowError:
                raise BadParamsError(
                    f"rho = {rho} needs float arithmetic, "
                    "but this game's values pass the float range"
                ) from None
    # a worthless coalition (φ_max = 0, as at mask 0) pays every member 0
    worthless = list(compress(range(size), map(operator.not_, top)))
    for mask in worthless:
        if values[mask] > 0:
            raise ZeroMaxShapleyError(
                f"coalition mask {mask} has value {values[mask]} but all-zero Shapley values"
            )
    divisor = top[:]
    for mask in worthless:
        divisor[mask] = 1

    if scale is not None and rho == 1:
        dens = list(map(mul, divisor, repeat(d)))
        nums = [[0] * size for _ in range(n)]
        for run, phi in _shapley_runs(potential):
            nums[run.i][run.with_i] = map(mul, phi, v[run.with_i])
        return nums, dens

    if scale is not None:
        divisor = list(map(truediv, divisor, repeat(scale)))
    power = float(rho)
    rows = [[floats[1 << i]] * size for i in range(n)]
    for run, phi in _shapley_runs(potential):
        w = run.with_i
        if scale is not None:
            phi = map(truediv, phi, repeat(scale))
        share = map(truediv, phi, divisor[w])
        if rho != 1:
            share = map(pow, share, repeat(power))
        rows[run.i][w] = map(mul, share, floats[w])
    for mask in worthless:
        for i in members(mask):
            rows[i][mask] = 0.0
    # every entry is a float, which the table keeps as it is
    return RewardMatrix._stored(n, tuple(map(tuple, rows)), None)


def _scaled_matrix(game: Game, table: RewardMatrix | _Columns) -> RewardMatrix:
    """A table from ``_scaled_table`` as a ``RewardMatrix``: exact columns
    become Fractions, and non-members keep their solo value."""
    if isinstance(table, RewardMatrix):
        return table
    nums, dens = table
    n = game.n_players
    rows = [[game.values[1 << i]] * (1 << n) for i in range(n)]
    for run in _runs(n):
        rows[run.i][run.with_i] = map(Fraction, nums[run.i][run.with_i], dens[run.with_i])
    return RewardMatrix(n, tuple(map(tuple, rows)))


def scaled_rho_shapley(game: Game, rho: Scalar | int) -> RhoShapleyMatrix:
    """Full scaled-Shapley reward table for an exponent in (0, 1].

    Non-members keep their solo value. Members get
    ``(phi_i / phi_max) ** rho * v(C)``. Exact rationals survive only for
    rho == 1; any other exponent forces float mode (the powers are
    irrational in general).
    """
    table = _scaled_table(game, rho, _game_potential(game))
    return RhoShapleyMatrix(_scaled_matrix(game, table), rho)


class PairResidual(NamedTuple):
    """How far one (coalition, i, j) triple is from balanced reciprocity."""

    coalition: int
    player_i: int
    player_j: int
    residual: Scalar


class _Triples(NamedTuple):
    """Triples (C, i, j), with i < j members of C, of some coalition sizes.

    ``entries`` gather M[i][C], M[i][C∖j], M[j][C] and M[j][C∖i] from a
    flattened table, where M[i][C] sits at i·2ⁿ + C, and ``at_mask`` gathers
    a table over masks at each triple's C. ``masks``, ``first`` and
    ``second`` hold each triple's C, i and j.
    """

    entries: tuple[itemgetter, ...]
    at_mask: itemgetter
    masks: tuple[int, ...]
    first: bytes
    second: bytes

    def triple(self, k: int) -> tuple[int, int, int]:
        return self.masks[k], self.first[k], self.second[k]

    def gaps(self, flat: Sequence) -> list:
        """Each triple's |(M[i][C] − M[i][C∖j]) − (M[j][C] − M[j][C∖i])|."""
        i_c, i_less, j_c, j_less = (take(flat) for take in self.entries)
        return list(map(abs, map(sub, map(sub, i_c, i_less), map(sub, j_c, j_less))))


def _triple_indices(n: int) -> Iterator[tuple]:
    """Per coalition size of two or more, the flat indices of each triple's
    four entries, then each triple's C, i and j, a block per member-position
    pair a < b.

    Each size's entry indices are kept in one dense table per position, so
    that for the a-th and b-th members i < j of C, the index of M[i][C∖j] is
    position a's table read by the level's drop gather of position b, and
    that of M[j][C∖i] is position b−1's table read by the drop gather of
    position a.
    """
    at = [[0] * (1 << n) for _ in range(n)]
    for size, level in enumerate(_levels(n)[1:], 1):
        masks, drop, who = level.masks, level.drop, level.who
        here = [list(map(or_, map(lshift, member, repeat(n)), masks)) for member in who]
        if size < n:  # the sizes above read them
            for table, index in zip(at, here):
                deque(map(table.__setitem__, masks, index), 0)
        if size == 1:
            continue
        pairs = [(a, b) for b in range(1, size) for a in range(b)]
        yield (
            list(chain.from_iterable(here[a] for a, _ in pairs)),
            list(chain.from_iterable(drop[b](at[a]) for a, b in pairs)),
            list(chain.from_iterable(here[b] for _, b in pairs)),
            list(chain.from_iterable(drop[a](at[b - 1]) for a, b in pairs)),
            masks * len(pairs),
            b"".join(who[a] for a, _ in pairs),
            b"".join(who[b] for _, b in pairs),
        )


def _triples_of(i_c, i_less, j_c, j_less, masks, first, second) -> _Triples:
    entries = tuple(map(_gather, (i_c, i_less, j_c, j_less)))
    return _Triples(entries, _gather(masks), masks, first, second)


# Up to this many players the triples of every size are kept, as one block
# per player count: 0.25 MB at n=9, and 0.42 MB for n = 2..9 together
# (tracemalloc).
_CACHED_PLAYERS = 9


@lru_cache(maxsize=None)
def _cached_triples(n: int) -> _Triples:
    sizes = list(zip(*_triple_indices(n)))
    # each index is one int object, shared by all the gathers
    shared = list(range(n << n)).__getitem__
    return _triples_of(
        *(list(map(shared, chain.from_iterable(index))) for index in sizes[:4]),
        tuple(chain.from_iterable(sizes[4])),
        b"".join(sizes[5]),
        b"".join(sizes[6]),
    )


def _triple_blocks(n: int) -> Iterator[_Triples]:
    """Every triple of an n-player table: one kept block up to
    ``_CACHED_PLAYERS`` players, else one block per coalition size, built
    for the call. The first triple is ({0,1}, 0, 1)."""
    if n > _CACHED_PLAYERS:
        for size in _triple_indices(n):
            yield _triples_of(*size)
    elif n > 1:
        yield _cached_triples(n)


def pair_residuals(matrix: RewardMatrix) -> list[PairResidual]:
    """Reciprocity imbalance |(M[i][C]-M[i][C\\j]) - (M[j][C]-M[j][C\\i])|
    for every coalition and unordered member pair, in ascending
    (coalition, i, j) order.

    All residuals are zero exactly when the matrix balances pairwise gains.
    """
    flat = list(chain.from_iterable(matrix.rewards))
    out = [
        PairResidual(*block.triple(k), residual)
        for block in _triple_blocks(matrix.n_players)
        for k, residual in enumerate(block.gaps(flat))
    ]
    out.sort(key=operator.itemgetter(0, 1, 2))
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
    # the scaled table as ``_scaled_table`` gives it, which follows from the
    # game and rho
    _scaled: RewardMatrix | _Columns = field(repr=False, compare=False)

    @cached_property
    def scaled(self) -> RewardMatrix:
        return _scaled_matrix(self._game, self._scaled)

    @cached_property
    def entry_diffs(self) -> tuple[tuple[Scalar, ...], ...]:
        balanced = solve(self._game).matrix
        if balanced.exact and not self.scaled.exact:
            balanced = balanced.as_float()
        return tuple(
            tuple(map(operator.sub, s_row, b_row))
            for s_row, b_row in zip(self.scaled.rewards, balanced.rewards)
        )

    @cached_property
    def residuals(self) -> tuple[PairResidual, ...]:
        return tuple(pair_residuals(self.scaled))


# The float screen of exact residuals and differences. In a monotone game
# every entry on the square of C (M[i][C], M[j][C], M[i][C∖j], M[j][C∖i])
# lies in [0, v(C)] ⊆ [0, v(N)], as does the balanced table's entry.
# Rounding an entry to float moves it by at most 2⁻⁵³·v(N) + 2⁻¹⁰⁷⁵ (the
# second term for a subnormal result), and the three subtractions of a
# residual add at most 2⁻⁵³·v(N)·(1 + 1 + 2), each up to a factor 1 + 2⁻⁵²:
# under 8.01·2⁻⁵³·v(N) + 2⁻¹⁰⁷³ in all, and a difference under half that.
# The screen allows 32·2⁻⁵³·v(N), with v(N) rounded, which covers both while
# 2⁻¹⁰⁰⁰ <= v(N) <= 2¹⁰⁰⁰. Outside that range the bound is infinite, and
# every triple and entry is compared exactly.
_SCREEN_ULPS = 32 * 2.0**-53
_SCREEN_RANGE_BITS = 1000


def _near_peak(groups: list[tuple], bound: float) -> Iterator[tuple]:
    """The (tag, k) of every float ``floats[k]`` of the (tag, floats) groups
    that lies within twice ``bound`` of the largest, so that its exact value,
    within ``bound`` of the float, may be the largest exact value. The test
    runs as fl(x + bound) >= fl(peak − bound), which rounding keeps true
    wherever it holds in exact arithmetic."""
    floor = max(max(floats) for _, floats in groups) - bound if groups else 0.0
    for tag, floats in groups:
        if max(floats) + bound >= floor:
            for k in compress(count(), map(ge, map(add, floats, repeat(bound)), repeat(floor))):
                yield tag, k


def _exact_summary(
    game: Game, nums: list[list[int]], dens: list[int]
) -> tuple[int, Scalar, tuple[int, int, int] | None, Fraction]:
    """``compare``'s figures for exact columns: the unbalanced count, the
    largest residual with its first triple, and the largest difference from
    the balanced table, all exact, behind the float screen above.

    A float residual above the bound is an exact one above 0. Only those at
    or below it are tested exactly, and only the triples whose float is
    within twice the bound of the largest are compared exactly for the
    maximum; the same holds for the differences.
    """
    n = game.n_players
    size = 1 << n
    v, d = _integers(game)
    # the balanced entry of member i of C is (P(C) − P(C∖i)) / d
    p = _min_plus(n, v)
    floats = [[0.0] * size for _ in range(n)]
    # v(N) bounds every value of a monotone game
    if d <= v[-1] << _SCREEN_RANGE_BITS and v[-1] <= d << _SCREEN_RANGE_BITS:
        bound = v[-1] / d * _SCREEN_ULPS
        for run in _runs(n):
            w = run.with_i
            floats[run.i][w] = map(truediv, nums[run.i][w], dens[w])
    else:
        bound = math.inf

    # kept, as a triple the zero test reads may be a candidate for the maximum
    @lru_cache(maxsize=None)
    def residual(mask: int, i: int, j: int) -> tuple[int, int]:
        # |x| / (D_C·D_{C∖i}·D_{C∖j}), with D each column's denominator
        bit_i, bit_j = 1 << i, 1 << j
        d_c, d_i, d_j = dens[mask], dens[mask ^ bit_i], dens[mask ^ bit_j]
        num_i, num_j = nums[i], nums[j]
        x = (num_i[mask] - num_j[mask]) * d_i * d_j - d_c * (
            num_i[mask ^ bit_j] * d_i - num_j[mask ^ bit_i] * d_j
        )
        return abs(x), d_c * d_i * d_j

    flat = list(chain.from_iterable(floats))
    gaps = [(block, block.gaps(flat)) for block in _triple_blocks(n)]
    unbalanced = 0
    for block, approx in gaps:
        unbalanced += len(approx)
        if min(approx) <= bound:
            close = compress(count(), map(le, approx, repeat(bound)))
            unbalanced -= sum(residual(*block.triple(k))[0] == 0 for k in close)
    witness = None
    best_num, best_den = 0, 1
    for triple in sorted(block.triple(k) for block, k in _near_peak(gaps, bound)):
        x, den = residual(*triple)
        if x * best_den > best_num * den:
            best_num, best_den, witness = x, den, triple
    if n < 2:
        max_residual: Scalar = 0
    else:
        max_residual = Fraction(best_num, best_den)
        # with no residual above zero, the first triple witnesses it
        witness = witness or (3, 0, 1)

    # Member i of C sits at nums[i][C] / dens[C] against P's gradient over
    # d: the exact difference compares numerators over dens[C]·d.
    diffs = []
    for run in _runs(n):
        w = run.with_i
        if bound < math.inf:
            balanced = map(truediv, map(sub, p[w], p[run.without_i]), repeat(d))
        else:
            balanced = repeat(0.0)
        diffs.append((run, list(map(abs, map(sub, floats[run.i][w], balanced)))))
    top_num, top_den = 0, 1
    for run, k in _near_peak(diffs, bound):
        mask, bit = run.masks[k], 1 << run.i
        den = dens[mask]
        x = abs(nums[run.i][mask] * d - (p[mask] - p[mask ^ bit]) * den)
        if x * top_den > top_num * den:
            top_num, top_den = x, den
    return unbalanced, max_residual, witness, Fraction(top_num, top_den * d)


def _float_summary(
    game: Game, table: RewardMatrix
) -> tuple[int, float, tuple[int, int, int] | None, float]:
    """``compare``'s figures for a float table, with the float operations
    of a scan over the triples in ascending (mask, i, j) order, and over
    the members of each coalition of two or more, and with its results: a
    NaN first residual or difference stays, and later NaNs never win."""
    n = game.n_players
    if n < 2:
        return 0, 0.0, None, 0.0
    rows = table._numerators
    balanced = solve(game).matrix
    b_rows, d = balanced._numerators, balanced._denominator
    if d is not None:
        # ints over d divide to the correctly rounded float(Fraction)
        b_rows = [list(map(truediv, row, repeat(d))) for row in b_rows]
    elif balanced.exact:  # past the denominator cap
        b_rows = balanced.as_float()._numerators
    eps = _slacks(None, game, table)

    flat = list(chain.from_iterable(rows))
    unbalanced = 0
    first = best = None
    kept = []
    for block in _triple_blocks(n):
        gaps = block.gaps(flat)
        unbalanced += sum(map(gt, gaps, block.at_mask(eps)))
        if first is None:
            first = gaps[0]  # the triple ({0,1}, 0, 1)
        # max keeps its first item against any NaN and never takes a later
        # NaN, as the scan does; a block that opens with a NaN sets it aside
        high = max(gaps)
        if high != high:
            high = max(compress(gaps, map(eq, gaps, gaps)), default=-math.inf)
        if best is None or high > best:
            best, kept = high, []
        if high == best:
            kept.append((block, gaps))
    if first != first:
        max_residual, witness = first, (3, 0, 1)
    else:
        max_residual = best
        witness = min(
            block.triple(k)
            for block, gaps in kept
            for k in compress(count(), map(eq, gaps, repeat(best)))
        )

    # the scan's first difference is member 0's in {0,1}; non-members and
    # coalitions of one hold the solo value in both tables, so their 0.0 are
    # harmless, and the first of them opens the rows
    max_abs_diff = abs(rows[0][3] - b_rows[0][3])
    if max_abs_diff == max_abs_diff:
        max_abs_diff = max(map(abs, map(sub, flat, chain.from_iterable(b_rows))))
    return unbalanced, max_residual, witness, max_abs_diff


def compare_mechanisms(game: Game, rho: Scalar | int) -> ComparisonReport:
    """Measure how the scaled Shapley table diverges from the balanced one.

    Finds the largest reciprocity residual of the scaled table, its first
    witnessing (coalition, i, j) in ascending mask and then i < j order, how
    many residuals lie above the threshold, and the largest entrywise
    difference against ``solve``. The residuals of all triples are taken
    at once, through ``_triple_blocks``, and the differences a row at a
    time. A float table is compared with float operations; when rho forces
    float mode the balanced table is converted to float first. An exact
    table is screened in floats with a proven error bound, and only the
    triples and entries the screen cannot decide are compared exactly, as
    integers over each coalition's denominator.
    """
    table = _scaled_table(game, rho, _game_potential(game))
    if isinstance(table, RewardMatrix):
        summary = _float_summary(game, table)
    else:
        summary = _exact_summary(game, *table)
    unbalanced, max_residual, witness, max_abs_diff = summary
    return ComparisonReport(
        rho=rho,
        max_residual=max_residual,
        max_residual_witness=witness,
        unbalanced=unbalanced,
        max_abs_diff=max_abs_diff,
        _game=game,
        _scaled=table,
    )
