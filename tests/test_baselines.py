import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from fairshare import (
    BadParamsError,
    EmptyCoalitionError,
    Game,
    OutOfRangeError,
    RhoOutOfRangeError,
    additive_game,
    check_all,
    compare_mechanisms,
    counterexample3_game,
    example1_game,
    members,
    pair_residuals,
    random_monotone_game,
    scaled_rho_shapley,
    shapley,
    solve,
)
from fairshare import baselines
from fairshare.baselines import _cached_triples, _triple_blocks
from fairshare.solver import _levels
from reference import (
    WIDE_DENOMINATOR_GAME,
    EagerComparison,
    column,
    eager_compare_mechanisms,
    potential_scaled_rho_shapley,
    potential_shapley,
    random_games,
    shapley_by_permutations,
)

RHO_IRRATIONAL = math.log2(3) - 1

# Scaled table for the bundled 3-player game at rho=1, keyed by coalition
# mask; non-members sit at their solo value.
C3_RHO1_EXPECTED = {
    0b011: (Fraction(3, 2), Fraction(3), Fraction(3)),
    0b101: (Fraction(4, 3), Fraction(2), Fraction(4)),
    0b110: (Fraction(1), Fraction(10, 3), Fraction(5)),
    0b111: (Fraction(2), Fraction(4), Fraction(6)),
}


class TestShapley:
    def test_additive_game_pays_weights(self):
        g = additive_game([1, 2, Fraction(7, 2)])
        for mask in range(1, 8):
            phi = shapley(g, mask)
            assert phi == {i: g.solo_value(i) for i in members(mask)}

    def test_counterexample3_grand_coalition(self, counterexample3):
        assert shapley(counterexample3, 0b111) == {0: 1, 1: 2, 2: 3}

    def test_matches_permutation_enumeration(self):
        for g in random_games([2, 3, 4], 4, seed0=300):
            for mask in range(1, g.num_coalitions):
                assert shapley(g, mask) == shapley_by_permutations(g, mask)

    def test_members_share_the_full_coalition_value(self, example1):
        for mask in range(1, 16):
            assert sum(shapley(example1, mask).values()) == example1.value(mask)
        g = random_monotone_game(12, 5)
        assert sum(shapley(g, g.grand_coalition).values()) == g.value(g.grand_coalition)

    def test_rejects_empty_and_out_of_range(self, example1):
        with pytest.raises(EmptyCoalitionError):
            shapley(example1, 0)
        with pytest.raises(OutOfRangeError):
            shapley(example1, 16)

    def test_float_game_gives_float_values(self):
        g = additive_game([1, 2]).as_float()
        phi = shapley(g, 0b11)
        assert all(isinstance(x, float) for x in phi.values())
        assert phi == {0: 1.0, 1: 2.0}

    def test_float_rounding_below_zero_is_clamped(self):
        # player 3's exact value in coalition {2,3,4} is 0, but the potential
        # difference rounds to about -8.9e-16
        g = random_monotone_game(6, 39, 10.0 / 3)
        assert shapley(g, 28)[3] == 0.0
        matrix = scaled_rho_shapley(g, RHO_IRRATIONAL).matrix
        assert all(isinstance(x, float) and x >= 0 for row in matrix.rewards for x in row)


class TestScaledRhoShapley:
    def test_rho_must_be_in_unit_interval(self, counterexample3):
        for bad in (0, -1, Fraction(3, 2), 1.5):
            with pytest.raises(RhoOutOfRangeError):
                scaled_rho_shapley(counterexample3, bad)

    def test_rho_one_table_is_exact(self, counterexample3):
        scaled = scaled_rho_shapley(counterexample3, 1)
        assert scaled.matrix.exact
        solo = (Fraction(1), Fraction(2), Fraction(3))
        for mask in range(8):
            assert column(scaled.matrix, mask) == C3_RHO1_EXPECTED.get(mask, solo)

    def test_rho_one_as_float_literal_still_exact(self, counterexample3):
        scaled = scaled_rho_shapley(counterexample3, 1.0)
        assert scaled.matrix.exact

    def test_irrational_rho_forces_float_mode(self, counterexample3):
        scaled = scaled_rho_shapley(counterexample3, RHO_IRRATIONAL)
        assert not scaled.matrix.exact
        assert scaled.matrix.reward(0, 0b011) == pytest.approx(2, abs=1e-9)
        assert scaled.matrix.reward(0, 0b101) == pytest.approx(2.1036, abs=1e-4)

    def test_fractional_rational_rho_forces_float_mode(self, counterexample3):
        scaled = scaled_rho_shapley(counterexample3, Fraction(1, 2))
        assert not scaled.matrix.exact

    def test_best_member_gets_full_value_and_nonmembers_solo(self):
        # the shape constraints hold for any admissible exponent
        for g in random_games([3, 4], 3, seed0=77):
            for rho in (1, Fraction(2, 3), 0.31):
                matrix = scaled_rho_shapley(g, rho).matrix
                tol = 0 if matrix.exact else 1e-9
                for mask in range(1, g.num_coalitions):
                    phi = shapley(g, mask)
                    top = max(phi.values())
                    rewards = [matrix.rewards[i][mask] for i in members(mask)]
                    assert any(abs(r - g.value(mask)) <= tol for r in rewards)
                    assert all(r <= g.value(mask) + tol for r in rewards)
                    assert all(r >= -tol for r in rewards)
                    for i in range(g.n_players):
                        if not mask & (1 << i):
                            expected = g.solo_value(i)
                            assert abs(matrix.rewards[i][mask] - expected) <= tol

    def test_rho_one_columns_are_per_coalition_shares(self):
        # ties the whole-game potential to the per-coalition down-set one
        for g in random_games([2, 3, 4, 5, 6], 3, seed0=500):
            matrix = scaled_rho_shapley(g, 1).matrix
            for mask in range(1, g.num_coalitions):
                phi = shapley(g, mask)
                top = max(phi.values())
                for i, phi_i in phi.items():
                    # a worthless coalition pays every member its value, 0
                    share = phi_i / top if top else 1
                    assert matrix.rewards[i][mask] == share * g.value(mask)

    def test_worthless_coalitions_pay_zero(self):
        g = Game(2, [0, 0, 0, 1])
        matrix = scaled_rho_shapley(g, Fraction(1, 2)).matrix
        assert column(matrix, 0b01) == (0.0, 0.0)
        assert column(matrix, 0b11) == (1.0, 1.0)

    def test_all_zero_game(self):
        g = Game(2, [0, 0, 0, 0])
        matrix = scaled_rho_shapley(g, 1).matrix
        assert all(x == 0 for row in matrix.rewards for x in row)


class TestReciprocityResiduals:
    def test_balanced_matrix_has_zero_residuals(self, example1):
        matrix = solve(example1).matrix
        assert all(r.residual == 0 for r in pair_residuals(matrix))

    def test_rho_one_counterexample_witness(self, counterexample3):
        scaled = scaled_rho_shapley(counterexample3, 1)
        by_triple = {
            (r.coalition, r.player_i, r.player_j): r.residual
            for r in pair_residuals(scaled.matrix)
        }
        assert by_triple[(0b011, 0, 1)] == Fraction(1, 2)

    def test_no_admissible_exponent_restores_balance(self, counterexample3):
        # sweep a dense grid over (0, 1]; the imbalance never drops near zero
        grid = 10_000
        floor = None
        for step in range(1, grid + 1):
            rho = step / grid
            matrix = scaled_rho_shapley(counterexample3, rho).matrix
            worst = max(r.residual for r in pair_residuals(matrix))
            floor = worst if floor is None else min(floor, worst)
        assert floor > 1e-3


class TestCompareMechanisms:
    def test_exact_report_for_rho_one(self, counterexample3):
        report = compare_mechanisms(counterexample3, 1)
        # worst imbalance sits at the grand coalition: player 2 gains 1 from
        # player 3 joining while player 3 gains 2 from player 2 joining
        assert report.max_residual == Fraction(1)
        assert report.max_residual_witness == (0b111, 1, 2)
        # balanced solver pays (3,5,6) at the grand coalition, scaled pays (2,4,6)
        assert report.entry_diffs[0][0b111] == -1
        assert report.entry_diffs[1][0b111] == -1
        assert report.entry_diffs[2][0b111] == 0
        assert report.max_abs_diff == Fraction(1)

    def test_residuals_match_direct_enumeration(self):
        g = next(random_games([4], 1, seed0=42))
        report = compare_mechanisms(g, 1)
        matrix = scaled_rho_shapley(g, 1).matrix
        expected = {}
        for mask in range(16):
            mem = members(mask)
            for a in range(len(mem)):
                for b in range(a + 1, len(mem)):
                    i, j = mem[a], mem[b]
                    lhs = matrix.rewards[i][mask] - matrix.rewards[i][mask ^ (1 << j)]
                    rhs = matrix.rewards[j][mask] - matrix.rewards[j][mask ^ (1 << i)]
                    expected[(mask, i, j)] = abs(lhs - rhs)
        got = {(r.coalition, r.player_i, r.player_j): r.residual for r in report.residuals}
        assert got == expected

    def test_float_rho_report_is_float(self, counterexample3):
        report = compare_mechanisms(counterexample3, RHO_IRRATIONAL)
        assert isinstance(report.max_residual, float)
        assert report.max_residual > 1e-3

    def test_single_player_game_has_no_pairs(self):
        report = compare_mechanisms(Game(1, [0, 2]), 1)
        assert report.residuals == ()
        assert report.max_residual == 0
        assert report.max_abs_diff == 0


def test_scaled_table_passes_everything_but_reciprocity(counterexample3):
    report = check_all(counterexample3, scaled_rho_shapley(counterexample3, 1).matrix)
    for result in report:
        if result.axiom == "F5":
            assert not result.passed
        else:
            assert result.passed, result.axiom


DIFFERENTIAL_RHOS = (1, Fraction(1, 2), RHO_IRRATIONAL)

# an additive game whose values pass the float range: its exact report needs
# no float, and any other exponent is refused
HUGE_GAME = additive_game([10**400, 2 * 10**400, 3 * 10**400])


def _unit_perturbed_game(n: int, seed: int) -> Game:
    """v(C) = 2⁷⁰·|C|² plus 0–3: the symmetric part balances, so every
    residual is a few units, far below float resolution at 2⁷⁰."""
    rng = random.Random(seed)
    values = [2**70 * m.bit_count() ** 2 + rng.randint(0, 3) for m in range(1, 1 << n)]
    return Game(n, [0] + values)


def _differential_games():
    for n in range(1, 9):
        for seed in range(2):
            yield f"exact-n{n}-s{seed}", random_monotone_game(n, seed)
    yield "example1", example1_game()
    yield "counterexample3", counterexample3_game()
    yield "wide-denominator", WIDE_DENOMINATOR_GAME
    yield "zero", Game(3, [0] * 8)
    # symmetric players tie at the largest residual, so the first witness shows
    yield "tied-maxima", additive_game([1, 1, 3, 3])
    yield "tied-maxima-float", additive_game([1, 1, 3, 3]).as_float()
    for k in range(-6, 13):
        yield f"float-1e{k}/3", random_monotone_game(3 + k % 4, 100 + k, 10.0**k / 3)
    for seed in range(2):
        yield f"exact-n9-s{seed}", random_monotone_game(9, seed)
    yield "float-n9", random_monotone_game(9, 2, 10.0 / 3)
    # games the float screen of exact reports cannot decide alone: exact zero
    # residuals, nonzero ones below float resolution and subnormal values
    # (the game past the float range has its own test below)
    yield "squares", Game(5, [m.bit_count() ** 2 for m in range(32)])
    yield "repeated-weights", additive_game([2, 2, 5, 5, 5])
    yield "unit-over-2^70", _unit_perturbed_game(5, 0)
    yield "subnormal", random_monotone_game(5, 1, Fraction(1, 10**320))


def _same(got, want) -> bool:
    # repr tells Fraction from int and keeps every float bit, -0.0 included
    return type(got) is type(want) and repr(got) == repr(want)


@pytest.mark.parametrize("name, game", list(_differential_games()))
class TestMatchesFractionReference:
    """Exact results equal the former ``Fraction`` potential's, and float
    results match it bit for bit."""

    def test_shapley(self, name, game):
        for mask in range(1, game.num_coalitions):
            assert _same(shapley(game, mask), potential_shapley(game, mask)), mask

    def test_scaled_rho_shapley(self, name, game):
        for rho in DIFFERENTIAL_RHOS:
            got = scaled_rho_shapley(game, rho).matrix
            assert _same(got, potential_scaled_rho_shapley(game, rho)), rho

    def test_comparison_report(self, name, game):
        for rho in DIFFERENTIAL_RHOS:
            got = compare_mechanisms(game, rho)
            want = eager_compare_mechanisms(game, rho)
            for field in EagerComparison._fields:
                assert _same(getattr(got, field), getattr(want, field)), (rho, field)
            assert _same(got.scaled, potential_scaled_rho_shapley(game, rho)), rho


def test_past_the_float_range_matches_the_reference_at_rho_one():
    """The one exponent such a game takes: every value stays exact."""
    for mask in range(1, HUGE_GAME.num_coalitions):
        assert _same(shapley(HUGE_GAME, mask), potential_shapley(HUGE_GAME, mask)), mask
    got = compare_mechanisms(HUGE_GAME, 1)
    want = eager_compare_mechanisms(HUGE_GAME, 1)
    for field in EagerComparison._fields:
        assert _same(getattr(got, field), getattr(want, field)), field
    assert _same(got.scaled, potential_scaled_rho_shapley(HUGE_GAME, 1))


@pytest.mark.parametrize("rho", [Fraction(1, 2), RHO_IRRATIONAL])
def test_float_exponent_past_the_float_range_is_refused(rho):
    for call in (scaled_rho_shapley, compare_mechanisms):
        with pytest.raises(BadParamsError, match="pass the float range"):
            call(HUGE_GAME, rho)


def test_wide_denominator_passes_256_bits():
    d = math.lcm(*(x.denominator for x in WIDE_DENOMINATOR_GAME.values))
    assert d.bit_length() > 256


@pytest.mark.parametrize("rho", [1, RHO_IRRATIONAL])
def test_tables_are_built_on_first_read(rho):
    game = random_monotone_game(6, 2)
    report = compare_mechanisms(game, rho)
    for name in ("scaled", "entry_diffs", "residuals"):
        assert name not in vars(report), name
    want = eager_compare_mechanisms(game, rho)
    assert _same(report.entry_diffs, want.entry_diffs)
    assert _same(report.scaled, potential_scaled_rho_shapley(game, rho))
    assert len(report.residuals) == math.comb(6, 2) * 2 ** (6 - 2)
    for name in ("scaled", "entry_diffs", "residuals"):
        assert getattr(report, name) is getattr(report, name), name


@pytest.mark.parametrize("rho", [1, RHO_IRRATIONAL])
def test_reports_of_one_game_are_equal_and_hashable(rho):
    game = random_monotone_game(5, 1)
    first, second = compare_mechanisms(game, rho), compare_mechanisms(game, rho)
    assert first == second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1
    # reading a lazy table changes neither
    first.entry_diffs
    assert first == second and hash(first) == hash(second)
    assert first != compare_mechanisms(random_monotone_game(5, 2), rho)


def test_kept_triples_stay_small():
    """What ``compare`` keeps per player count: the triples of every size,
    up to ``_CACHED_PLAYERS``, under 2 MB together; larger games, up to
    n=14, build theirs per call and keep nothing."""
    for n in range(1, 15):
        _levels(n)  # the solver's own tables, pinned by their own test
    _cached_triples.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for n in range(1, 15):
            triples = sum(len(block.masks) for block in _triple_blocks(n))
            assert triples == math.comb(n, 2) << max(n - 2, 0)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 2 * 2**20, kept


def test_triples_built_per_call_match_the_kept_ones(monkeypatch):
    games = [random_monotone_game(n, 7) for n in range(2, 8)]
    games += [random_monotone_game(6, 8, 10.0 / 3), counterexample3_game()]
    kept = [
        (pair_residuals(scaled_rho_shapley(g, 1).matrix), compare_mechanisms(g, 1)) for g in games
    ]
    monkeypatch.setattr(baselines, "_CACHED_PLAYERS", 1)
    for game, (residuals, report) in zip(games, kept):
        assert pair_residuals(scaled_rho_shapley(game, 1).matrix) == residuals
        assert compare_mechanisms(game, 1) == report
