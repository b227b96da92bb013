"""Exhaustive checkers for the reward-allocation axioms.

Each checker covers every coalition (and pair, and subset) its quantifier
ranges over and returns a verdict plus, on failure, a witness: the
concrete players, coalitions, and values that violate the condition.
Witnesses are plain dicts so they can be re-evaluated or serialized as-is.

R1-R5 pass over the table a run at a time. The coalitions that contain
player i are a few stride or block slices of a row (``_runs`` in
``games.py``), and the same slices shifted down by 2^i hold them without
i. C-level ``map``, ``count`` and ``compress`` compare whole slices of a
reward row, the values and the potential. A cheap screen clears most
entries, and the axiom's own comparison runs on the rest (see
``_Numbers.least_failure``), so verdicts and witnesses are those of an
entry-by-entry scan in every number mode.

F5 on an exact table without slack reads the table's own potential:
Π(∅) = 0 and Π(C) = Π(C∖l) + r_l(C) for C's lowest member l. F5 holds iff
``r_i(C) = Π(C) − Π(C∖i)`` everywhere (the balanced contributions of
Myerson, IJGT 1980; the potential of Hart and Mas-Colell, Econometrica
1989), one comparison per entry instead of one per member pair. A float
table reads its entries as dyadic ints and screens each coalition with a
proven bound on the same potential (``_unscreened``); the pair scan runs
only where the bound does not clear it. Other tables under a slack keep
the pair scan.

Verdicts distinguish a pass whose premise never applied (PASS_VACUOUS)
from one that was actually exercised. Witnesses are the first failure in
ascending coalition mask and then ascending player index, so they are
deterministic.

The conditional axioms follow the implication shape "if the game relates
players like X, rewards must relate like Y"; the checkers first find where
the premise holds, then verify the conclusion only there. F1-F3's premises
are one relation, found once per set of numbers (``_Numbers.dominance``):
whether joining i is worth at least joining j to every coalition with
neither. F1 reads the players whom joining nobody dominates, F2 the pairs
that dominate each other, and F3 the pairs where only one dominates.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations, compress, permutations, repeat
from operator import add, and_, eq, le, not_, sub, truediv
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import BadParamsError, DimensionMismatchError, OutOfRangeError
from .games import Game, Scalar, _least_failure, _Run, _runs, members, submasks
from .solver import RewardMatrix, _min_plus, _min_plus_potential


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


def _slacks(
    tol: Tolerance | None, *tables: Game | RewardMatrix, values: Iterable | None = None
) -> list:
    """Per coalition mask, the slack every verdict on it allows under ``tol``
    (by default the tables' ``default_tolerance``), with v(C) from
    ``values``, or else from the first table, a game.

    The rounding rule's ``8·n·2⁻⁵²·v(C)`` bounds the rounding of sums and
    differences of about n terms, each at most v(C) in a monotone game
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 2-3).
    No other rule reads v(C).
    """
    tol = tol or default_tolerance(*tables)
    n = tables[0].n_players
    if tol._rounding:
        ulps = 8 * n * 2.0**-52
        if values is None:
            values, d = tables[0]._numerators, tables[0]._denominator
            if d is not None:
                # ints over d divide to the correctly rounded float(Fraction)
                values = map(truediv, values, repeat(d))
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


class _Fields(NamedTuple):
    """``_Numbers``' fields: its subclass, unlike a NamedTuple, can cache."""

    values: Sequence
    rows: Sequence[Sequence]
    eps: Sequence[Scalar]
    denominator: int | None
    no_slack: bool
    exact: bool
    runs: tuple[_Run, ...]


class _Numbers(_Fields):
    """Game values and reward rows as every single-table checker compares them.

    A comparison allows ``eps[C]`` for the smallest coalition C whose value
    bounds both sides: equal means ``abs(a - b) <= eps[C]``, at most means
    ``a - b <= eps[C]``, strictly greater means ``a - b > eps[C]``. When
    ``denominator`` is set, the numbers are the game's and the table's
    stored ints over that shared denominator, and eps is 0; otherwise they
    are the entries themselves. ``no_slack`` says that every slack is 0;
    ``exact`` says that, and that game and table are both exact, so sums of
    entries are exact too. ``runs`` holds every player's ``_Run``.
    """

    def unscale(self, x):
        """A compared number as the entry it came from (for witnesses)."""
        return x if self.denominator is None else Fraction(x, self.denominator)

    def least_failure(self, screens, holds) -> tuple[int, int] | None:
        """``_least_failure`` of an axiom's screens and its own comparison.

        A screen compares with slack 0 and without the subtraction, such as
        ``0 <= r`` for ``0 - r <= eps[C]``. Game values are finite and
        slacks nonnegative, so ``a <= b`` gives ``a - b <= 0 <= eps[C]``, in
        rounded arithmetic too, and a NaN fails the screen and meets the
        comparison. When every slack is 0 the screen's exact comparison is
        the verdict, and ``holds`` does not run: between a float and a
        ``Fraction`` it would subtract in floats.
        """
        return _least_failure(screens, None if self.no_slack else holds)

    @cached_property
    def dominance(self) -> set[tuple[int, int]]:
        """Every (x, y) of player bits, x = 0 for nobody, where x dominates
        y (``_dominates``): the one relation that F1-F3's premises read,
        found once for all three."""
        bits = [1 << i for i in range(len(self.rows))]
        return {
            (x, y)
            for x in (0, *bits)
            for y in bits
            if x != y and _dominates(self.values, self.eps, x, y)
        }


def _dominates(values: Sequence, eps: Sequence, x: int, y: int) -> bool:
    """Whether joining player bit x is worth at least joining y to every
    coalition B that has neither: ``v(B+y) − v(B+x) <= eps[B+x+y]``. With
    x = 0, joining nobody, it says that y never raises a value by more than
    the slack; the game is monotone, so y is useless."""
    both = x | y
    return all(
        values[b | y] - values[b | x] <= eps[b | both]
        for b in submasks((len(values) - 1) ^ both)
    )


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
    eps = _slacks(tol, game, matrix)
    no_slack = not any(eps)
    exact = no_slack and game.exact and matrix.exact
    runs = _runs(game.n_players)
    d = game._denominator
    if d is not None and d == matrix._denominator and exact:
        return _Numbers(game._numerators, matrix._numerators, eps, d, no_slack, exact, runs)
    return _Numbers(game.values, matrix.rewards, eps, None, no_slack, exact, runs)


def _entry_verdict(code: str, nums: _Numbers, bad, compared=None) -> CheckResult:
    """PASS when ``bad`` is None, else FAIL at the (mask, player) it names,
    with the reward there and, for ``compared = (key, at)``, the game value
    ``values[at(mask, player)]`` the reward was compared with."""
    if bad is None:
        return CheckResult(code, Verdict.PASS)
    mask, i = bad
    witness = {"coalition": mask, "player": i, "reward": nums.unscale(nums.rows[i][mask])}
    if compared is not None:
        key, at = compared
        witness[key] = nums.unscale(nums.values[at(mask, i)])
    return CheckResult(code, Verdict.FAIL, witness)


_SOLO_VALUE = ("solo_value", lambda mask, i: 1 << i)


def _nonnegativity(nums: _Numbers) -> CheckResult:
    """R1: every member's reward is nonnegative."""
    rows, eps = nums.rows, nums.eps
    bad = nums.least_failure(
        ((run.i, run.masks, map(le, repeat(0), rows[run.i][run.with_i])) for run in nums.runs),
        lambda i, mask: 0 - rows[i][mask] <= eps[mask],
    )
    return _entry_verdict("R1", nums, bad)


def _feasibility(nums: _Numbers) -> CheckResult:
    """R2: no member's reward exceeds the coalition's value."""
    rows, values, eps = nums.rows, nums.values, nums.eps
    bad = nums.least_failure(
        (
            (run.i, run.masks, map(le, rows[run.i][run.with_i], values[run.with_i]))
            for run in nums.runs
        ),
        lambda i, mask: rows[i][mask] - values[mask] <= eps[mask],
    )
    return _entry_verdict("R2", nums, bad, ("coalition_value", lambda mask, i: mask))


def _weak_efficiency(nums: _Numbers) -> CheckResult:
    """R3: in every non-empty coalition some member gets the full value.

    A member whose reward equals v(C) covers C. Only the coalitions that
    no member covers that way take the comparison within slack, ascending;
    without slack the least of them fails.
    """
    rows, values, eps = nums.rows, nums.values, nums.eps
    # one byte per mask: a set of them, freed after every check, raised the
    # peak RSS of perfbench's ``large`` from 76.8 to 80.6 MB on one seed
    covered = bytearray(len(values))
    for run in nums.runs:
        for mask in compress(run.masks, map(eq, rows[run.i][run.with_i], values[run.with_i])):
            covered[mask] = 1
    mask = 0
    while (mask := covered.find(0, mask + 1)) != -1:
        v_c, e = values[mask], eps[mask]
        mem = members(mask)
        if nums.no_slack or not any(abs(rows[i][mask] - v_c) <= e for i in mem):
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


def _solo_screen(compare, v_i, others: Sequence) -> Iterable[bool]:
    """The screen for a player's non-member entries, which all hold the
    solo value ``v_i`` in a balanced table: nothing is left to compare when
    they all equal it, else ``compare(v_i, r)`` entry by entry."""
    if others.count(v_i) == len(others):
        return ()
    return map(compare, repeat(v_i), others)


def _individual_rationality(nums: _Numbers) -> CheckResult:
    """R4: nobody, member or not, is ever rewarded below their solo value."""
    rows, values, eps = nums.rows, nums.values, nums.eps

    def screens():
        for run in nums.runs:
            row, v_i = rows[run.i], values[1 << run.i]
            yield run.i, run.masks, map(le, repeat(v_i), row[run.with_i])
            yield run.i, run.masks_without, _solo_screen(le, v_i, row[run.without_i])

    bad = nums.least_failure(
        screens(), lambda i, mask: values[1 << i] - rows[i][mask] <= eps[mask | 1 << i]
    )
    return _entry_verdict("R4", nums, bad, _SOLO_VALUE)


def _nonparticipation(nums: _Numbers) -> CheckResult:
    """R5: non-members keep exactly their solo value."""
    rows, values, eps = nums.rows, nums.values, nums.eps
    bad = nums.least_failure(
        (
            (
                run.i,
                run.masks_without,
                _solo_screen(eq, values[1 << run.i], rows[run.i][run.without_i]),
            )
            for run in nums.runs
        ),
        lambda i, mask: abs(rows[i][mask] - values[1 << i]) <= eps[mask | 1 << i],
    )
    return _entry_verdict("R5", nums, bad, _SOLO_VALUE)


def _uselessness(nums: _Numbers) -> CheckResult:
    """F1: a player who never changes any value earns nothing and changes nothing.

    For each useless player u, one whom joining nobody dominates: (a) u's
    reward is zero in every coalition, and (b) adding u to any coalition
    leaves the other members' rewards unchanged. Vacuous when the game has no useless
    player. Entries of C and of C∪{u} compare on C∪{u}'s slack.
    """
    rows, eps = nums.rows, nums.eps
    useless = [u for u in range(len(rows)) if (0, 1 << u) in nums.dominance]
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


def _symmetry(nums: _Numbers) -> CheckResult:
    """F2: interchangeable players, each dominating the other, get equal
    rewards wherever both belong."""
    rows, eps, dominance = nums.rows, nums.eps, nums.dominance
    pairs = [
        (i, j)
        for i, j in combinations(range(len(rows)), 2)
        if (1 << i, 1 << j) in dominance and (1 << j, 1 << i) in dominance
    ]
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


def _strict_desirability(nums: _Numbers) -> CheckResult:
    """F3: a player who dominates another, strictly somewhere inside the
    coalition, must earn strictly more there.

    Applies to (i, j, C) when i dominates j and some non-empty B inside C
    (avoiding both) has v(B+i) > v(B+j). Vacuous when no such triple
    exists. B's strictness compares on C's slack, as the conclusion does.
    Only the pairs where j does not dominate i in turn are scanned: if it
    does, ``v(B+i) − v(B+j) <= eps[B+i+j] <= eps[C]`` for every such B,
    since no slack shrinks as a coalition grows, so no B is strict.
    """
    values, rows, eps, dominance = nums.values, nums.rows, nums.eps, nums.dominance
    pairs = [
        (i, j)
        for i, j in permutations(range(len(rows)), 2)
        if (1 << i, 1 << j) in dominance and (1 << j, 1 << i) not in dominance
    ]
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


def _potential(rows: Sequence[Sequence], read=None) -> list:
    """Π(∅) = 0 and Π(C) = Π(C∖l) + r_l(C), with l C's lowest member: the
    potential that the table is the gradient of, if it is a gradient. With
    ``read``, each entry read is ``read(r_l(C))``.

    Built from the highest player down. Before player l's step, ``p``
    holds Π, ascending, on the multiples of 2^(l+1): the masks with no
    member below l+1. The masks whose lowest member is l are those
    multiples plus 2^l, so they interleave with them, each one bit above
    the mask it extends.
    """
    p = [0]
    for l in reversed(range(len(rows))):
        bit = 1 << l
        entries = rows[l][bit :: 2 * bit]
        merged = [0] * (2 * len(p))
        merged[::2] = p
        merged[1::2] = map(add, p, entries if read is None else map(read, entries))
        p = merged
    return p


# From this many players on, F5 screens a float table's coalitions
# (``_unscreened``) before the pair scan; below it the scan alone is
# cheaper. Median of 7, solver tables of ``random_monotone_game(n, 5, s)``,
# scan against screen and scan, in ms: at n=7 0.44 against 0.54 (s=10/3)
# and 0.42 against 0.34 (s=10); at n=8 1.03 against 0.98 and 1.01 against
# 0.63; at n=14 about 2× and 3× faster (2-core VM, Python 3.11.7).
_SCREENED_PLAYERS = 8


def _unscreened(nums: _Numbers) -> Iterable[int]:
    """The ascending masks where F5's pair scan could fail on a float
    table: every mask that a bound on the dyadic ints of its entries does
    not clear.

    Every finite float is an int over a power of two, so each distinct
    member entry x reads exactly as X = x·2^k, with one k for the table.
    Let Π be the potential of those ints and m_i(C) = X_i(C) − Π(C) +
    Π(C∖i) each entry's mismatch. Π cancels in a pair's residual:
    ``(r_i(C) − r_i(C∖j)) − (r_j(C) − r_j(C∖i))`` is exactly
    ``(m_i(C) − m_i(C∖j) − m_j(C) + m_j(C∖i))·2^−k``. The scan rounds each
    gain to nearest, within 2^−53 of it relatively, so with G the largest
    |X| the rounded gains differ by at most ``(|Σ m| + 4·2^−53·G)·2^−k``.
    Rounding that difference keeps it at or below any float it was at or
    below.

    So let q(C) = ⌊eps[C]·2^k / 4⌋ − ⌈2^−53·G⌉, and 0 where that is
    negative, with eps[C] read as a float at or below it. q grows with C,
    as eps does in a monotone game. When every member entry of C and of
    each C∖j has |m| <= q on its own mask, every pair of C passes the
    scan: its four mismatches sum to at most 4·q(C), or they are all 0 and
    its two gains are one number. Only the masks with an entry past its
    bound, and the masks one player above them, are left.

    NaN and infinite entries, and entries so large that a gain could
    overflow, leave every mask.
    """
    rows, eps, runs = nums.rows, nums.eps, nums.runs
    every = range(len(eps))
    entries = [rows[run.i][run.with_i] for run in runs]
    distinct = set().union(*entries)
    if not all(map(math.isfinite, distinct)):
        return every
    ratios = list(map(float.as_integer_ratio, distinct))
    k = max(q for _, q in ratios).bit_length() - 1
    ints = [p << k >> q.bit_length() - 1 for p, q in ratios]
    big = max(map(abs, ints))
    if big.bit_length() > 1021 + k:
        return every
    as_int = dict(zip(distinct, ints)).__getitem__
    e = eps[0]
    try:
        if type(e) is float:
            quarter = map(int, map(math.ldexp, eps, repeat(k - 2)))
        else:  # one exact slack everywhere, read as the float at or below it
            e_float = float(e)
            if e_float > e:
                e_float = math.nextafter(e_float, 0)
            quarter = repeat(int(math.ldexp(e_float, k - 2)), len(eps))
        bound = list(map(max, map(sub, quarter, repeat((big >> 53) + 1)), repeat(0)))
    except OverflowError:
        return every
    p = _potential(rows, as_int)
    lo = list(map(sub, p, bound))
    hi = list(map(add, p, bound))
    failed = set()
    for run, row in zip(runs, entries):
        at = run.with_i
        s = list(map(add, map(as_int, row), p[run.without_i]))
        # where the table is a gradient exactly, no bound is read
        if s == p[at] or (all(map(le, lo[at], s)) and all(map(le, s, hi[at]))):
            continue
        within = map(and_, map(le, lo[at], s), map(le, s, hi[at]))
        failed.update(compress(run.masks, map(not_, within)))
    full = len(eps) - 1
    for mask in list(failed):
        out = full ^ mask
        while out:
            low = out & -out
            failed.add(mask | low)
            out ^= low
    return sorted(failed)


def _balanced_reciprocity(nums: _Numbers) -> CheckResult:
    """F5: within any coalition, i's gain from j joining equals j's gain
    from i joining.

    An exact table without slack goes through the potential Π that the
    table itself gives (``_potential``). F5 holds iff
    ``r_i(C) == Π(C) − Π(C∖i)`` everywhere. The least coalition where
    that fails is the least one where some pair fails: every coalition
    below it is a gradient, so there a pair's gain difference is the
    difference of the two members' mismatches, and C's lowest member has
    none. So only that coalition takes the pair scan, which reports the
    pair a full scan would.

    A float table with ``_SCREENED_PLAYERS`` players or more takes the
    pair scan, ascending, only on the coalitions that ``_unscreened``
    leaves. Its Π is exact on the entries' dyadic ints, and its bound
    allows for the scan's rounding, so the scan's first failure is among
    them. Float sums along Π would round otherwise than the pair
    differences, which is why Π is not built in floats.

    Every other table, exact entries under a slack say, takes the pair
    scan on every coalition: a residual within slack on each square does
    not bound Π's mismatch, which adds residuals along the chain of lowest
    members.
    """
    rows, eps = nums.rows, nums.eps
    if len(rows) < 2:
        return CheckResult("F5", Verdict.PASS_VACUOUS)
    scan: Iterable[int] = range(len(eps))
    if type(rows[0][0]) is float and len(rows) >= _SCREENED_PLAYERS:
        scan = _unscreened(nums)
    elif nums.exact:
        p = _potential(rows)
        bad = _least_failure(
            (
                run.i,
                run.masks,
                map(eq, rows[run.i][run.with_i], map(sub, p[run.with_i], p[run.without_i])),
            )
            for run in nums.runs
        )
        scan = () if bad is None else (bad[0],)
    bits = [1 << i for i in range(len(rows))]
    for mask in scan:
        e = eps[mask]
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
    """The solver's entry for one member of one coalition.

    An entry depends only on its coalition's submasks, so it is the entry
    of the subgame on that coalition, whose players keep their order.
    """
    mem = members(coalition)
    subs = [0]
    for i in mem:
        subs += [s | 1 << i for s in subs]
    # a subgame of a valid game is valid, so it is solved on the game's
    # stored values as they are
    v = list(map(game._numerators.__getitem__, subs))
    top, j = len(subs) - 1, mem.index(player)
    if game.exact:
        p = _min_plus(len(mem), v)
        x = p[top] - p[top ^ 1 << j]
        return x if game._denominator is None else Fraction(x, game._denominator)
    rows = [[v[1 << i]] * len(v) for i in range(len(mem))]
    _min_plus_potential(len(mem), v, rows)
    return rows[j][top]


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
    eps = _slacks(tol, game_before, game_after, values=map(max, v, v2))
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
