import math
import random
import struct
from fractions import Fraction
from itertools import combinations, permutations

import pytest

import reference
from fairshare import (
    BadParamsError,
    DimensionMismatchError,
    Game,
    OutOfRangeError,
    RewardMatrix,
    Tolerance,
    Verdict,
    additive_game,
    brute_force_solve,
    check_all,
    check_axiom,
    check_strict_monotonicity_pair,
    coverage_game,
    default_tolerance,
    members,
    raise_coalition_value,
    random_monotone_game,
    scaled_rho_shapley,
    shapley,
    solve,
)
from fairshare import axioms
from fairshare.axioms import _numbers, _potential
from fairshare.games import _MAX_DENOMINATOR_BITS
from fairshare.oracle import agree_up_to_rounding
from reference import (
    PREMISE_CHECKS,
    PREMISE_FINDERS,
    TABLE_CHECKS,
    column,
    planted_games,
    random_games,
    violation_reproduces,
)


class TestTolerance:
    def test_epsilon_must_be_positive(self):
        for bad in (0, -1e-9, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(BadParamsError):
                Tolerance.absolute(bad)
            with pytest.raises(BadParamsError):
                Tolerance(bad)

    def test_default_tolerance_follows_value_modes(self, example1, example1_solution):
        matrix = example1_solution.matrix
        assert default_tolerance(example1, matrix).is_exact
        assert not default_tolerance(example1.as_float(), matrix).is_exact
        assert not default_tolerance(example1, matrix.as_float()).is_exact


def premises(game, tol=None) -> dict:
    """The useless players, symmetric pairs and desirable pairs that the
    checkers' one dominance relation gives, as the reference finders list
    them. The slack is the game's own, as theirs is."""
    dominance = _numbers(game, solve(game).matrix, tol).dominance
    n = game.n_players

    def dominates(i, j):
        return (1 << i, 1 << j) in dominance

    return {
        "useless_players": [u for u in range(n) if (0, 1 << u) in dominance],
        "symmetric_pairs": [
            (i, j) for i, j in combinations(range(n), 2) if dominates(i, j) and dominates(j, i)
        ],
        "desirable_pairs": [(i, j) for i, j in permutations(range(n), 2) if dominates(i, j)],
    }


class TestPremiseHelpers:
    def test_useless_players(self):
        g = coverage_game([["a"], [], ["b"]], {"a": 2, "b": 1})
        assert premises(g)["useless_players"] == [1]
        assert premises(additive_game([1, 2]))["useless_players"] == []

    def test_symmetric_pairs(self):
        assert premises(Game(2, [0, 1, 1, 3]))["symmetric_pairs"] == [(0, 1)]
        assert premises(additive_game([1, 2, 1]))["symmetric_pairs"] == [(0, 2)]

    def test_example1_has_no_symmetric_pair(self, example1):
        # players 1 and 3 alone are worth the same but diverge with partners
        assert premises(example1)["symmetric_pairs"] == []

    def test_desirable_pairs_are_ordered(self):
        g = additive_game([1, 2])
        assert premises(g)["desirable_pairs"] == [(1, 0)]
        sym = Game(2, [0, 1, 1, 3])
        assert set(premises(sym)["desirable_pairs"]) == {(0, 1), (1, 0)}

    def test_relation_is_found_once_per_set_of_numbers(self, example1, example1_solution):
        nums = _numbers(example1, example1_solution.matrix, None)
        assert nums.dominance is nums.dominance


class TestIncentiveChecksOnSolverOutput:
    def test_all_pass_on_example1(self, example1, example1_solution):
        report = check_all(example1, example1_solution.matrix)
        assert report.all_pass
        assert [r.axiom for r in report] == [
            "R1", "R2", "R3", "R4", "R5", "F1", "F2", "F3", "F5",
        ]

    def test_vacuous_verdicts_are_distinguished(self, example1, example1_solution):
        report = check_all(example1, example1_solution.matrix)
        assert report["F1"].verdict is Verdict.PASS_VACUOUS
        assert report["F2"].verdict is Verdict.PASS_VACUOUS
        assert report["F3"].verdict is Verdict.PASS
        assert report["R1"].verdict is Verdict.PASS

    def test_report_lookup(self, example1, example1_solution):
        report = check_all(example1, example1_solution.matrix)
        assert report["F5"].axiom == "F5"
        with pytest.raises(KeyError):
            report["F4"]
        assert report.failures == ()


class TestFailuresAndWitnesses:
    """Tamper with a correct matrix and confirm the right witness comes back."""

    def test_nonnegativity(self, example1, example1_solution):
        bad = example1_solution.matrix.replace_entry(1, 0b0011, Fraction(-1))
        result = check_axiom("R1", example1, bad)
        assert result.verdict is Verdict.FAIL
        assert result.witness == {"coalition": 0b0011, "player": 1, "reward": -1}
        assert violation_reproduces("R1", example1, bad, result.witness)

    def test_feasibility(self, example1, example1_solution):
        bad = example1_solution.matrix.replace_entry(0, 0b0011, Fraction(100))
        result = check_axiom("R2", example1, bad)
        assert result.verdict is Verdict.FAIL
        assert result.witness["coalition_value"] == 3
        assert violation_reproduces("R2", example1, bad, result.witness)

    def test_weak_efficiency(self, example1, example1_solution):
        # only player 2 reaches the full value in {1,2}; lower it
        bad = example1_solution.matrix.replace_entry(1, 0b0011, Fraction(5, 2))
        result = check_axiom("R3", example1, bad)
        assert result.verdict is Verdict.FAIL
        assert result.witness["coalition"] == 0b0011
        assert violation_reproduces("R3", example1, bad, result.witness)

    def test_weak_efficiency_witness_names_the_efficient_player(
        self, example1, example1_solution
    ):
        matrix, efficient = example1_solution
        result = check_axiom("R3", example1, matrix)
        assert result.passed
        for mask, k in efficient.items():
            assert matrix.rewards[k][mask] == example1.value(mask)

    def test_individual_rationality(self, example1, example1_solution):
        bad = example1_solution.matrix.replace_entry(3, 0b1010, Fraction(1, 2))
        result = check_axiom("R4", example1, bad)
        assert result.verdict is Verdict.FAIL
        assert result.witness["solo_value"] == 4
        assert violation_reproduces("R4", example1, bad, result.witness)

    def test_nonparticipation(self, example1, example1_solution):
        bad = example1_solution.matrix.replace_entry(3, 0b0011, Fraction(5))
        result = check_axiom("R5", example1, bad)
        assert result.verdict is Verdict.FAIL
        assert result.witness == {
            "coalition": 0b0011,
            "player": 3,
            "reward": 5,
            "solo_value": 4,
        }
        assert violation_reproduces("R5", example1, bad, result.witness)

    def test_uselessness_zero_reward_clause(self):
        g = coverage_game([["a"], [], ["b"]], {"a": 2, "b": 1})
        matrix = solve(g).matrix
        assert check_axiom("F1", g, matrix).verdict is Verdict.PASS
        bad = matrix.replace_entry(1, 0b011, Fraction(1))
        result = check_axiom("F1", g, bad)
        assert result.verdict is Verdict.FAIL
        assert violation_reproduces("F1", g, bad, result.witness)

    def test_uselessness_join_invariance_clause(self):
        g = coverage_game([["a"], [], ["b"]], {"a": 2, "b": 1})
        matrix = solve(g).matrix
        # change player 1's reward in {1,2} without touching player 2's zero
        bad = matrix.replace_entry(0, 0b011, Fraction(0))
        result = check_axiom("F1", g, bad)
        assert result.verdict is Verdict.FAIL
        assert result.witness["player"] == 0
        assert violation_reproduces("F1", g, bad, result.witness)

    def test_symmetry(self):
        g = Game(2, [0, 1, 1, 3])
        matrix = solve(g).matrix
        assert column(matrix, 0b11) == (3, 3)
        assert check_axiom("F2", g, matrix).verdict is Verdict.PASS
        bad = matrix.replace_entry(0, 0b11, Fraction(2))
        result = check_axiom("F2", g, bad)
        assert result.verdict is Verdict.FAIL
        assert violation_reproduces("F2", g, bad, result.witness)

    def test_strict_desirability_pass_on_both_mechanisms(self, counterexample3):
        balanced = solve(counterexample3).matrix
        scaled = scaled_rho_shapley(counterexample3, 1).matrix
        assert check_axiom("F3", counterexample3, balanced).verdict is Verdict.PASS
        assert check_axiom("F3", counterexample3, scaled).verdict is Verdict.PASS

    def test_strict_desirability_fail(self, counterexample3):
        matrix = solve(counterexample3).matrix
        # give players 2 and 3 equal rewards in the grand coalition
        bad = matrix.replace_entry(2, 0b111, matrix.reward(1, 0b111))
        result = check_axiom("F3", counterexample3, bad)
        assert result.verdict is Verdict.FAIL
        assert result.witness["player_i"] == 2
        assert result.witness["player_j"] == 1
        assert violation_reproduces("F3", counterexample3, bad, result.witness)

    def test_balanced_reciprocity_fail_first_witness(self, counterexample3):
        scaled = scaled_rho_shapley(counterexample3, 1).matrix
        result = check_axiom("F5", counterexample3, scaled)
        assert result.verdict is Verdict.FAIL
        assert result.witness == {
            "coalition": 0b011,
            "player_i": 0,
            "player_j": 1,
            "gain_i": Fraction(1, 2),
            "gain_j": Fraction(1),
        }
        assert violation_reproduces("F5", counterexample3, scaled, result.witness)

    def test_zero_matrix_fails(self, example1):
        zero = RewardMatrix(4, tuple((Fraction(0),) * 16 for _ in range(4)))
        report = check_all(example1, zero)
        assert not report.all_pass
        assert not report["R3"].passed
        assert not report["R4"].passed
        assert not report["R5"].passed


class TestStrictMonotonicityPair:
    def test_raised_coalition_rewards_its_members_more(self, example1, example1_variant):
        result = check_strict_monotonicity_pair(example1, example1_variant, 0, 0b0101)
        assert result.verdict is Verdict.PASS
        assert result.witness["reward_before"] == 4
        assert result.witness["reward_after"] == 5

    def test_unchanged_coalition_reports_premise_not_met(
        self, example1, example1_variant
    ):
        # the grand coalition's value did not move, so the premise fails
        result = check_strict_monotonicity_pair(example1, example1_variant, 0, 0b1111)
        assert result.verdict is Verdict.PREMISE_NOT_MET

    def test_changed_subcoalition_breaks_premise(self, example1, example1_variant):
        # {1,3} changed but player 4 is outside it: the all-else-equal clause fails
        result = check_strict_monotonicity_pair(example1, example1_variant, 3, 0b1101)
        assert result.verdict is Verdict.PREMISE_NOT_MET

    def test_bad_arguments(self, example1, example1_variant):
        with pytest.raises(OutOfRangeError):
            check_strict_monotonicity_pair(example1, example1_variant, 1, 0b0101)
        with pytest.raises(OutOfRangeError):
            check_strict_monotonicity_pair(example1, example1_variant, 0, 1 << 10)
        with pytest.raises(DimensionMismatchError):
            check_strict_monotonicity_pair(example1, additive_game([1, 2]), 0, 0b01)

    def test_campaign_on_random_games(self):
        # each game also runs in float mode; the check reads its rewards
        # from the subgame on the coalition alone, and they must be solve's
        import random

        rng = random.Random(99)
        checked = 0
        for g in random_games([3, 4, 5], 4, seed0=500):
            for _ in range(3):
                coalition = rng.randrange(1, g.num_coalitions)
                player = rng.choice(
                    [i for i in range(g.n_players) if coalition & (1 << i)]
                )
                delta = Fraction(rng.randint(1, 5))
                for game in (g, g.as_float()):
                    bumped = raise_coalition_value(game, coalition, delta)
                    result = check_strict_monotonicity_pair(game, bumped, player, coalition)
                    assert result.verdict is Verdict.PASS
                    before = solve(game).matrix.rewards[player][coalition]
                    after = solve(bumped).matrix.rewards[player][coalition]
                    assert result.witness["reward_before"] == before
                    assert result.witness["reward_after"] == after
                    checked += 1
        assert checked == 72


@pytest.fixture(scope="module")
def edge_game():
    from fairshare import random_monotone_game

    return random_monotone_game(5, seed=2110, max_increment=10)


class TestStrictDesirabilityForcedEquality:
    """Strictness is unattainable when the two complements tie in value.

    If v(C minus i) == v(C minus j) while i otherwise dominates j, and each
    of i, j earns the full value of the complement excluding the other,
    reciprocity pins M(i, C) == M(j, C): routing both rewards through any
    third member a, the two identities
        M(i, C) = M(a, C) - M(a, C-i) + M(i, C-a)
        M(j, C) = M(a, C) - M(a, C-j) + M(j, C-a)
    subtract to zero because M(i, C-a) - M(j, C-a) and
    M(a, C-i) - M(a, C-j) both equal M(i, C-a-j) - M(j, C-a-i).
    The solver's table is still the unique feasible one; the strictness
    check reports the forced equality faithfully rather than papering
    over it.
    """

    def test_dominance_premise_holds(self, edge_game):
        g = edge_game
        assert (3, 0) in premises(g)["desirable_pairs"]
        strict = [
            b
            for b in range(8)
            if g.value(self._embed(b) | 0b01000) > g.value(self._embed(b) | 0b00001)
        ]
        assert len(strict) == 7  # every subset but the full complement

    @staticmethod
    def _embed(three_bits):
        # place bits over players {1, 2, 4}
        return ((three_bits & 1) << 1) | ((three_bits & 2) << 1) | ((three_bits & 4) << 2)

    def test_complements_tie(self, edge_game):
        assert edge_game.value(0b11110) == edge_game.value(0b10111) == Fraction(235, 8)

    def test_equality_is_reported_and_everything_else_passes(self, edge_game):
        matrix = solve(edge_game).matrix
        report = check_all(edge_game, matrix)
        assert [r.axiom for r in report.failures] == ["F3"]
        w = report["F3"].witness
        assert (w["player_i"], w["player_j"], w["coalition"]) == (3, 0, 0b11111)
        assert w["reward_i"] == w["reward_j"] == Fraction(365, 8)

    def test_equality_is_forced_not_a_solver_choice(self, edge_game):
        from fairshare import brute_force_solve

        result = brute_force_solve(edge_game)
        assert result.unique
        assert result.matrix == solve(edge_game).matrix

    def test_cancellation_identity(self, edge_game):
        m = solve(edge_game).matrix
        i, j, a, C = 3, 0, 4, 0b11111
        rw = m.reward
        gap_ij = rw(i, C ^ (1 << a)) - rw(j, C ^ (1 << a))
        gap_a = rw(a, C ^ (1 << i)) - rw(a, C ^ (1 << j))
        assert gap_ij == gap_a == Fraction(135, 8)
        assert rw(i, C) == rw(j, C)

    def test_dominance_never_reverses_rewards(self):
        # equality can replace strictness, a reversal never can
        for g in random_games([3, 4, 5], 20, seed0=10_000):
            matrix = solve(g).matrix
            for i, j in premises(g)["desirable_pairs"]:
                both = (1 << i) | (1 << j)
                for mask in range(g.num_coalitions):
                    if mask & both == both:
                        assert matrix.reward(i, mask) >= matrix.reward(j, mask)


class TestDispatcherAndShapes:
    def test_check_axiom_dispatch(self, example1, example1_solution):
        matrix = example1_solution.matrix
        assert check_axiom("r3", example1, matrix).axiom == "R3"
        assert check_axiom("F5", example1, matrix).passed
        with pytest.raises(BadParamsError):
            check_axiom("F9", example1, matrix)
        with pytest.raises(BadParamsError):
            check_axiom("F4", example1, matrix)  # needs two games, not served here

    def test_dimension_mismatch(self, example1):
        small = solve(additive_game([1, 2])).matrix
        with pytest.raises(DimensionMismatchError):
            check_all(example1, small)

    def test_single_player_reciprocity_is_vacuous(self):
        g = Game(1, [0, 3])
        result = check_axiom("F5", g, solve(g).matrix)
        assert result.verdict is Verdict.PASS_VACUOUS


class TestFloatModeAgreement:
    def test_verdicts_agree_between_exact_and_float(self):
        for g in random_games([2, 3, 4, 5], 5, seed0=900):
            matrix = solve(g).matrix
            exact_report = check_all(g, matrix)
            float_report = check_all(
                g.as_float(), matrix.as_float(), Tolerance.absolute(1e-9)
            )
            for e, f in zip(exact_report, float_report):
                assert e.axiom == f.axiom
                assert e.verdict == f.verdict, (e.axiom, g)

    def test_float_failure_verdicts_agree_too(self, counterexample3):
        scaled = scaled_rho_shapley(counterexample3, 1).matrix
        exact_report = check_all(counterexample3, scaled)
        float_report = check_all(counterexample3.as_float(), scaled.as_float())
        for e, f in zip(exact_report, float_report):
            assert e.verdict == f.verdict


class TestFloatScales:
    """Float games at value scales 1e-6 to 1e12 pass their own checks, and a
    member entry moved by a millionth of its coalition's value fails them
    at every scale: the default slack is relative to each coalition."""

    @pytest.mark.parametrize("n", [4, 7, 10])
    def test_solver_tables_pass_and_moved_entries_fail(self, n):
        rng = random.Random(n)
        for seed in range(3):
            for k in range(-6, 13, 2):
                g = random_monotone_game(n, seed, 10.0**k / 3)
                matrix = solve(g).matrix
                # no F3 forced equality arises on these games
                assert check_all(g, matrix).all_pass, (n, seed, k)
                oracle = brute_force_solve(g)
                assert oracle.unique and agree_up_to_rounding(g, oracle.matrix, matrix)
                grand = g.grand_coalition
                raised = raise_coalition_value(g, grand, 1e-6 * g.values[grand])
                result = check_strict_monotonicity_pair(g, raised, n - 1, grand)
                assert result.verdict is Verdict.PASS, (n, seed, k)
                for _ in range(5):
                    mask = rng.randrange(1, g.num_coalitions)
                    i = rng.choice(members(mask))
                    for sign in (1, -1):
                        moved = matrix.rewards[i][mask] + sign * 1e-6 * g.values[mask]
                        bad = matrix.replace_entry(i, mask, moved)
                        assert not check_all(g, bad).all_pass, (n, seed, k, i, mask, sign)


# Witness keys that name players or coalitions rather than carry a value.
_INDEX_KEYS = {
    "coalition",
    "player",
    "player_i",
    "player_j",
    "strict_witness_subset",
    "useless_player",
}


def _witness_values(witness: dict):
    for key, value in witness.items():
        if key == "member_rewards":
            yield from value.values()
        elif key not in _INDEX_KEYS:
            yield value


def _primes():
    p = 2
    while True:
        if all(p % q for q in range(2, int(p**0.5) + 1)):
            yield p
        p += 1


class TestReferenceCheckers:
    """Every single-table check gives the verdicts and witnesses of the
    per-comparison loops kept in tests/reference.py, whether run alone or
    through check_all."""

    @staticmethod
    def assert_agree(game, matrix, tol=None):
        report = check_all(game, matrix, tol)
        for code, check in {**TABLE_CHECKS, **PREMISE_CHECKS}.items():
            expected = check(game, matrix, tol)
            assert check_axiom(code, game, matrix, tol) == expected, code
            assert report[code] == expected, code

    @staticmethod
    def assert_fraction_witnesses(game, matrix):
        for result in check_all(game, matrix):
            if result.witness is not None:
                for value in _witness_values(result.witness):
                    assert type(value) is Fraction, (result.axiom, result.witness)

    def test_exact_tables_tampered_at_random_cells(self):
        rng = random.Random(5)
        failures = set()
        games = (*random_games(range(2, 9), 3, seed0=4100), *random_games((1, 9, 10), 3, 4121))
        for g in games:
            matrix = solve(g).matrix
            assert _numbers(g, matrix, None).denominator is not None
            self.assert_agree(g, matrix)
            for d in (3, 7, 13):
                i = rng.randrange(g.n_players)
                mask = rng.randrange(g.num_coalitions)
                shift = Fraction(rng.randint(1, 2 * d), d)
                value = rng.choice((shift, -shift, -matrix.rewards[i][mask] - shift))
                bad = matrix.replace_entry(i, mask, matrix.rewards[i][mask] + value)
                self.assert_agree(g, bad)
                self.assert_fraction_witnesses(g, bad)
                failures.update(r.axiom for r in check_all(g, bad).failures)
        assert {"R1", "R2", "R4", "R5", "F5"} <= failures

    def test_weak_efficiency_failure_witness(self, example1, example1_solution):
        # lowering the full-value entry of {1,2} leaves no member at v = 3
        bad = example1_solution.matrix.replace_entry(1, 0b0011, Fraction(8, 3))
        self.assert_agree(example1, bad)
        self.assert_fraction_witnesses(example1, bad)
        assert not check_axiom("R3", example1, bad).passed

    def test_denominators_past_the_cap_fall_back_to_fractions(self):
        g = random_monotone_game(8, 3)
        matrix = solve(g).matrix
        bad, bits, primes = matrix, 0, _primes()
        cells = ((i, mask) for mask in range(1, g.num_coalitions) for i in range(8))
        while bits <= _MAX_DENOMINATOR_BITS:
            p = next(primes)
            i, mask = next(cells)
            bad = bad.replace_entry(i, mask, bad.rewards[i][mask] + Fraction(1, p))
            bits += p.bit_length() - 1
        nums = _numbers(g, bad, None)
        assert nums.denominator is None and nums.exact  # Fractions, through the potential
        self.assert_agree(g, bad)
        self.assert_fraction_witnesses(g, bad)
        assert not check_axiom("F5", g, bad).passed

    @pytest.mark.parametrize("entry", [7, 2.5], ids=["int", "float"])
    def test_entry_that_is_not_a_fraction_passes_through(self, example1, entry):
        bad = solve(example1).matrix.replace_entry(0, 0b0101, entry)
        assert _numbers(example1, bad, None).denominator is None
        self.assert_agree(example1, bad)

    def test_float_tables_near_the_tolerance(self):
        rng = random.Random(6)
        tol = Tolerance.absolute(1e-9)
        games = [*random_games(range(2, 7), 3, seed0=4200), *_premise_games()]
        for g in games:
            g = g.as_float()
            matrix = solve(g).matrix
            self.assert_agree(g, matrix)
            self.assert_agree(g, matrix, tol)
            for delta in (-2e-9, -1e-9, 5e-10, 1e-9, 2e-9, 1 / 7):
                i = rng.randrange(g.n_players)
                mask = rng.randrange(g.num_coalitions)
                bad = matrix.replace_entry(i, mask, matrix.rewards[i][mask] + delta)
                self.assert_agree(g, bad)
        # within eps is equal, and strictly greater means greater by more than eps
        useless = coverage_game([["a"], [], ["b"]], {"a": 2, "b": 1})
        c3 = additive_game([1, 2, 3])
        for game, i, mask, base, sign, code in (
            (useless, 1, 0b011, 0.0, 1, "F1"),
            (Game(2, [0, 1, 1, 3]), 0, 0b11, 3.0, 1, "F2"),
            (c3, 2, 0b111, 5.0, 1, "F3"),
            (c3, 1, 0b111, 6.0, 1, "R2"),
            (c3, 0, 0b001, 1.0, -1, "R4"),
        ):
            g = game.as_float()
            matrix = solve(g).matrix
            near = matrix.replace_entry(i, mask, base + sign * 5e-10)
            far = matrix.replace_entry(i, mask, base + sign * 2e-9)
            self.assert_agree(g, near)
            self.assert_agree(g, far)
            assert check_axiom(code, g, near, tol).passed is (code != "F3"), code
            assert check_axiom(code, g, far, tol).passed is (code == "F3"), code
            # by default the entry compares on the rounding slack of C∪{i}
            slack = 8 * g.n_players * 2.0**-52 * g.values[mask | 1 << i]
            for factor, within in ((0.5, True), (2, False)):
                moved = matrix.replace_entry(i, mask, base + sign * factor * slack)
                self.assert_agree(g, moved)
                assert check_axiom(code, g, moved).passed is (within != (code == "F3")), code

    def test_the_least_mask_wins_over_the_least_player(self):
        # A higher-index player's cell fails at a lower mask than a lower
        # one's, so each player's column fails first somewhere else than
        # the scan does; the witness is the least (mask, player).
        rng = random.Random(7)
        for g in random_games(range(3, 7), 2, seed0=4400):
            n, grand = g.n_players, g.grand_coalition
            for form in (g, g.as_float()):
                matrix, v = solve(form).matrix, form.values
                lo, hi = sorted(rng.sample(range(n), 2))
                for member, code, move in (
                    (True, "R1", lambda c, i: -1),
                    (True, "R2", lambda c, i: v[c] + 1),
                    (False, "R4", lambda c, i: v[1 << i] - 1),
                    (False, "R5", lambda c, i: v[1 << i] + 1),
                ):
                    def cells(i):
                        return [c for c in range(grand + 1) if bool(c >> i & 1) is member]

                    c_hi = rng.choice(cells(hi)[:-1])
                    c_lo = rng.choice([c for c in cells(lo) if c > c_hi])
                    bad = matrix.replace_entry(hi, c_hi, move(c_hi, hi))
                    bad = bad.replace_entry(lo, c_lo, move(c_lo, lo))
                    self.assert_agree(form, bad)
                    witness = check_axiom(code, form, bad).witness
                    assert (witness["coalition"], witness["player"]) == (c_hi, hi), code
                    # a third cell moved anywhere
                    i, c = rng.randrange(n), rng.randrange(1 << n)
                    shift = Fraction(1, 3) if form.exact else 1 / 3
                    self.assert_agree(form, bad.replace_entry(i, c, bad.rewards[i][c] - shift))

    def test_float_entries_at_the_slack_boundary(self):
        # Each screen clears an entry only where the comparison itself
        # holds, so entries at v ± eps[C], and one ulp past, get the
        # comparison's own verdict under either slack.
        seen = set()
        for g in random_games([3, 4, 5], 3, seed0=4500):
            g = g.as_float()
            matrix, efficient = solve(g)
            v, grand = g.values, g.grand_coalition
            ulps = reference.rounding_ulps(g.n_players)
            for tol, eps in ((None, ulps * v[grand]), (Tolerance.absolute(1e-9), 1e-9)):
                k = efficient[grand]
                i = (k + 1) % g.n_players  # not efficient in the grand coalition
                out = grand ^ 1 << i  # i's non-member cell, on the grand slack
                for code, player, mask, edge, toward in (
                    ("R1", i, grand, 0 - eps, -math.inf),
                    ("R2", i, grand, v[grand] + eps, math.inf),
                    ("R3", k, grand, v[grand] - eps, -math.inf),
                    ("R3", k, grand, v[grand] + eps, math.inf),
                    ("R4", i, out, v[1 << i] - eps, -math.inf),
                    ("R5", i, out, v[1 << i] - eps, -math.inf),
                    ("R5", i, out, v[1 << i] + eps, math.inf),
                ):
                    for x in (edge, math.nextafter(edge, toward)):
                        moved = matrix.replace_entry(player, mask, x)
                        self.assert_agree(g, moved, tol)
                        seen.add((code, check_axiom(code, g, moved, tol).passed))
        codes = ("R1", "R2", "R3", "R4", "R5")
        assert seen == {(code, ok) for code in codes for ok in (True, False)}

    @pytest.mark.parametrize("seed, passes", [(2, False), (3, True)])
    def test_float_table_of_an_exact_game_takes_the_pair_scan(self, seed, passes):
        # Under Tolerance.exact(), a float table is compared exactly but its
        # sums round: the potential rebuilt from it gives the opposite
        # verdict to the pair scan here, so F5 must not use it.
        g = random_monotone_game(2, seed, Fraction(1, 10))
        matrix = solve(g).matrix
        table = matrix.replace_entry(0, 0b11, float(matrix.rewards[0][0b11]))
        tol = Tolerance.exact()
        assert not _numbers(g, table, tol).exact
        expected = reference.check_balanced_reciprocity(g, table, tol)
        assert check_axiom("F5", g, table, tol) == expected
        assert check_all(g, table, tol)["F5"] == expected
        assert expected.passed is passes
        rows = table.rewards
        p = _potential(rows)
        gradient = all(rows[i][c] == p[c] - p[c ^ 1 << i] for c in range(4) for i in members(c))
        assert gradient is not passes


def _gradient_table(game: Game, efficient_of) -> RewardMatrix:
    """Members get P(C) − P(C∖i), for P(∅) = 0 and P(C) = v(C) + P(C∖k)
    with k = efficient_of(C); non-members keep their solo value."""
    n, v = game.n_players, game.values
    p = [Fraction(0)] * game.num_coalitions
    rows = [[v[1 << i]] * game.num_coalitions for i in range(n)]
    for c in range(1, game.num_coalitions):
        p[c] = v[c] + p[c ^ 1 << efficient_of(c)]
        for i in members(c):
            rows[i][c] = p[c] - p[c ^ 1 << i]
    return RewardMatrix(n, tuple(map(tuple, rows)))


def _subgame_shapley_table(game: Game) -> RewardMatrix:
    """Members get their unscaled Shapley value in the subgame on C;
    non-members keep their solo value."""
    v = game.values
    rows = [[v[1 << i]] * game.num_coalitions for i in range(game.n_players)]
    for c in range(1, game.num_coalitions):
        for i, phi in shapley(game, c).items():
            rows[i][c] = phi
    return RewardMatrix(game.n_players, tuple(map(tuple, rows)))


class TestIndependence:
    """R2, R3, R5 and F5 leave one table (README), and none of the four
    follows from the other three: each table here passes three and fails
    the fourth, on example1."""

    @staticmethod
    def failures(game, matrix):
        results = (check_axiom(code, game, matrix) for code in ("R2", "R3", "R5", "F5"))
        return {r.axiom: r.witness for r in results if not r.passed}

    def test_a_non_argmin_efficient_player_breaks_feasibility(self, example1):
        # the highest member gets v(C); in {2,3} the argmin is player 2 (index 1)
        table = _gradient_table(example1, lambda c: c.bit_length() - 1)
        assert self.failures(example1, table) == {
            "R2": {"coalition": 0b110, "player": 1, "reward": 5, "coalition_value": 4}
        }

    def test_unscaled_subgame_shapley_breaks_weak_efficiency(self, example1):
        assert self.failures(example1, _subgame_shapley_table(example1)) == {
            "R3": {"coalition": 0b011, "coalition_value": 3, "member_rewards": {0: 1, 1: 2}}
        }

    def test_scaled_shapley_breaks_balanced_reciprocity(self, example1):
        table = scaled_rho_shapley(example1, 1).matrix
        assert self.failures(example1, table) == {
            "F5": {
                "coalition": 0b011,
                "player_i": 0,
                "player_j": 1,
                "gain_i": Fraction(1, 2),
                "gain_j": 1,
            }
        }

    def test_a_moved_non_member_entry_breaks_non_participation(self, example1):
        table = solve(example1).matrix.replace_entry(0, 0b110, 2)
        assert self.failures(example1, table) == {
            "R5": {"coalition": 0b110, "player": 0, "reward": 2, "solo_value": 1}
        }


_TOLERANCES = (
    None,
    Tolerance.exact(),
    Tolerance.absolute(1e-9),
    Tolerance.absolute(Fraction(1, 10**9)),
)


def _premise_games():
    """Games where each F1-F3 premise fires; games where pairs that dominate
    each other sit beside one-way pairs; then random ones."""
    yield coverage_game([["a"], [], ["b"], ["a", "c"]], {"a": 2, "b": 1, "c": 3})
    yield additive_game([1, 2, 1, 2])
    yield additive_game([1, 2, 3, 5])
    yield Game(3, [0, 1, 1, 3, 2, 4, 4, 7])
    yield Game(6, [m.bit_count() ** 2 for m in range(64)])
    yield Game(6, [int(m & 0b111 == 0b111) for m in range(64)])
    yield from planted_games()
    yield from random_games([2, 3, 4, 5], 2, seed0=4300)


def _tampered(rng, game, matrix):
    """The table itself, then copies with one cell moved near or far."""
    yield matrix
    exact = matrix.exact
    n = game.n_players
    deltas = (Fraction(1, 7), -Fraction(2, 3)) if exact else (5e-10, -2e-9, 1 / 7)
    for delta in deltas:
        i, mask = rng.randrange(n), rng.randrange(1, game.num_coalitions)
        yield matrix.replace_entry(i, mask, matrix.rewards[i][mask] + delta)
    # the first member pair of the grand coalition made equal there
    if n >= 2:
        yield matrix.replace_entry(1, game.grand_coalition, matrix.rewards[0][game.grand_coalition])


def _witness_types(result):
    if result.witness is None:
        return None
    return {key: type(value) for key, value in result.witness.items()}


def _assert_same(result, expected):
    assert result == expected
    assert _witness_types(result) == _witness_types(expected)


class TestPremiseReferences:
    """F1-F3, their premise finders and F4 give the verdicts, witness values
    and witness types of the per-comparison loops in tests/reference.py."""

    def test_premise_finders(self):
        games = list(_premise_games())
        assert premises(games[0])["useless_players"] == [1]
        assert premises(games[1])["symmetric_pairs"] == [(0, 2), (1, 3)]
        assert premises(games[2])["symmetric_pairs"] == []
        assert (3, 0) in premises(games[2])["desirable_pairs"]
        for g in games:
            for form in (g, g.as_float()):
                for tol in _TOLERANCES:
                    found = premises(form, tol)
                    for name, finder in PREMISE_FINDERS.items():
                        assert found[name] == finder(form, tol), name

    def test_mutual_and_one_way_pairs_side_by_side(self):
        # |C|², unanimity on {0,1,2}, a planted twin and a planted null player
        square, unanimity, twin, null = list(_premise_games())[4:8]
        assert premises(square)["symmetric_pairs"] == list(combinations(range(6), 2))
        assert check_axiom("F3", square, solve(square).matrix).verdict is Verdict.PASS_VACUOUS
        found = premises(unanimity)
        assert found["useless_players"] == [3, 4, 5]
        assert {(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)} == set(found["symmetric_pairs"])
        assert (0, 3) in found["desirable_pairs"] and (3, 0) not in found["desirable_pairs"]
        assert (2, 5) in premises(twin)["symmetric_pairs"]
        assert premises(null)["useless_players"] == [0]

    def test_single_table_checks(self):
        rng = random.Random(8)
        seen = set()
        for g in _premise_games():
            for form in (g, g.as_float()):
                for matrix in _tampered(rng, form, solve(form).matrix):
                    for tol in _TOLERANCES:
                        for code, check in PREMISE_CHECKS.items():
                            result = check_axiom(code, form, matrix, tol)
                            _assert_same(result, check(form, matrix, tol))
                            seen.add((code, result.verdict))
        for code in PREMISE_CHECKS:
            assert {(code, Verdict.PASS), (code, Verdict.FAIL)} <= seen, code

    def test_mixed_modes(self):
        # an exact game with a float table, and the reverse; in the last
        # game float(v({1})) rounds up, so the exact comparisons fail
        # where the float differences read 0
        for g in (*_premise_games(), random_monotone_game(2, 2, Fraction(1, 10))):
            matrix = solve(g).matrix
            for form, table in ((g, matrix.as_float()), (g.as_float(), matrix)):
                for tol in _TOLERANCES:
                    for code, check in {**TABLE_CHECKS, **PREMISE_CHECKS}.items():
                        _assert_same(
                            check_axiom(code, form, table, tol), check(form, table, tol)
                        )

    def test_strict_monotonicity_pair(self):
        rng = random.Random(9)
        seen = set()
        for g in _premise_games():
            for form in (g, g.as_float()):
                for _ in range(4):
                    coalition = rng.randrange(1, g.num_coalitions)
                    player = rng.choice(members(coalition))
                    delta = rng.choice((Fraction(1, 3), Fraction(2), Fraction(1, 10**10)))
                    raised = raise_coalition_value(form, coalition, delta)
                    other = rng.randrange(1, g.num_coalitions)
                    for after in (raised, form, raise_coalition_value(form, other, 1)):
                        for tol in _TOLERANCES:
                            result = check_strict_monotonicity_pair(
                                form, after, player, coalition, tol
                            )
                            _assert_same(
                                result,
                                reference.strict_monotonicity_pair(
                                    form, after, player, coalition, tol
                                ),
                            )
                            seen.add(result.verdict)
        assert {Verdict.PASS, Verdict.PREMISE_NOT_MET} <= seen


@pytest.fixture()
def screened(monkeypatch):
    """F5 screens float tables at every player count."""
    monkeypatch.setattr(axioms, "_SCREENED_PLAYERS", 2)


def _assert_same_f5(result, expected):
    # repr, so that NaN gains compare equal
    assert repr(result) == repr(expected)
    assert _witness_types(result) == _witness_types(expected)


def _level_game(n: int, seed: int, increment) -> Game:
    """v(C) = max_i v(C∖i) + increment(rng), level by level."""
    rng = random.Random(seed)
    values = [0.0] * (1 << n)
    for mask in sorted(range(1, 1 << n), key=lambda m: (m.bit_count(), m)):
        values[mask] = max(values[mask ^ 1 << i] for i in members(mask)) + increment(rng)
    return Game(n, values)


def _near_max(n):
    return lambda rng: rng.uniform(0, 1.7e308 / (2 * n))


def _log_uniform(seed):
    lo, hi = ((-300, 300), (-20, 20), (-150, 150), (0, 300))[seed % 4]
    return lambda rng: 0.0 if rng.random() < 0.3 else 10 ** rng.uniform(lo, hi)


def _moved(matrix, cells, delta):
    """``matrix`` with each (player, mask, sign) entry moved by sign·delta."""
    for i, mask, sign in cells:
        matrix = matrix.replace_entry(i, mask, matrix.rewards[i][mask] + sign * delta)
    return matrix


def _aligned(c, i, j):
    """The four entries of pair (i, j) on c, moved so that their mismatches
    add up in the pair's residual."""
    return ((i, c, 1), (i, c ^ 1 << j, -1), (j, c, -1), (j, c ^ 1 << i, 1))


def _scan_boundary(game, matrix, cells, tol=None):
    """The largest float move of ``cells`` that the reference pair scan
    passes, and the next float, which it fails: bisected on the bit
    patterns of positive floats, which ascend with them."""
    as_float = lambda bits: struct.unpack("<d", struct.pack("<q", bits))[0]  # noqa: E731
    lo, hi = 0, struct.unpack("<q", struct.pack("<d", float(game.values[-1])))[0]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        moved = _moved(matrix, cells, as_float(mid))
        if reference.check_balanced_reciprocity(game, moved, tol).passed:
            lo = mid
        else:
            hi = mid
    return as_float(lo), as_float(hi)


@pytest.mark.usefixtures("screened")
class TestFloatBalancedReciprocityScreen:
    """F5 on a float table screens coalitions with a bound on its dyadic
    ints and scans the rest: it gives the verdicts, witnesses and witness
    types of the pair scan in tests/reference.py."""

    @staticmethod
    def assert_agree(game, matrix, tol=None):
        expected = reference.check_balanced_reciprocity(game, matrix, tol)
        _assert_same_f5(check_axiom("F5", game, matrix, tol), expected)
        _assert_same_f5(check_all(game, matrix, tol)["F5"], expected)
        return expected

    @pytest.mark.parametrize("n", range(2, 13))
    def test_solver_tables_on_dyadic_and_non_dyadic_scales(self, n):
        rng = random.Random(n)
        seen = set()
        scales = (10.0, 1.0, *(10.0**k / 3 for k in (-6, 0, 6, 12)))
        for seed in range(3 if n < 10 else 1):
            for scale in scales if n < 10 else scales[::2]:
                g = random_monotone_game(n, seed, scale)
                matrix = solve(g).matrix
                assert self.assert_agree(g, matrix).passed
                mask = rng.randrange(3, g.num_coalitions)
                i = rng.choice(members(mask))
                e = reference.rounding_ulps(n) * g.values[mask]
                for delta in (1e-6 * g.values[mask], e / 2):
                    seen.add(self.assert_agree(g, _moved(matrix, [(i, mask, 1)], delta)).passed)
        assert seen == {True, False} or n == 2

    @pytest.mark.parametrize("n", [13, 14])
    def test_largest_tables_against_the_forced_scan(self, n, monkeypatch):
        for scale in (10.0, 10.0 / 3):
            g = random_monotone_game(n, 5, scale)
            matrix = solve(g).matrix
            grand = g.grand_coalition
            bad = _moved(matrix, [(n - 1, grand, 1)], 1e-3)
            for table in (matrix, bad):
                nums = _numbers(g, table, None)
                screened = axioms._balanced_reciprocity(nums)
                monkeypatch.setattr(axioms, "_SCREENED_PLAYERS", n + 1)
                _assert_same_f5(screened, axioms._balanced_reciprocity(nums))
                monkeypatch.setattr(axioms, "_SCREENED_PLAYERS", 2)
                assert screened.passed is (table is matrix)
            assert not axioms._unscreened(_numbers(g, matrix, None))

    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_near_max_and_log_uniform_games(self, n):
        for seed in range(8):
            for increment in (_near_max(n), _log_uniform(seed)):
                g = _level_game(n, seed, increment)
                self.assert_agree(g, solve(g).matrix)

    def test_moves_one_ulp_around_the_slack_boundary(self):
        seen = set()
        for g in random_games([3, 5, 8], 1, seed0=4600):
            for scale in (1.0, 1 / 3):
                form = Game(g.n_players, [float(v) * scale for v in g.values])
                matrix = solve(form).matrix
                grand = form.grand_coalition
                i, j = form.n_players - 2, form.n_players - 1
                for cells in ([(j, grand, 1)], _aligned(grand, i, j)):
                    for tol in (None, Tolerance.absolute(1e-9)):
                        for edge in _scan_boundary(form, matrix, cells, tol):
                            for x in (math.nextafter(edge, 0), edge, math.nextafter(edge, 1)):
                                moved = _moved(matrix, cells, x)
                                seen.add(self.assert_agree(form, moved, tol).passed)
        assert seen == {True, False}

    def test_bound_allows_four_mismatches_and_the_scan_rounding(self):
        # Moving the four entries of one pair by δ puts 4δ in its residual:
        # between a quarter and the whole of the slack the pair fails, so
        # no entry may be cleared at more than a quarter of it.
        g = random_monotone_game(5, 1, 10.0)
        matrix = solve(g).matrix
        grand = g.grand_coalition
        e = reference.rounding_ulps(5) * g.values[grand]
        for factor in (0.3, 0.5, 0.9):
            moved = _moved(matrix, _aligned(grand, 3, 4), factor * e)
            assert not self.assert_agree(g, moved).passed
        # An exact gradient whose gains round: r_1(N) − r_1({0,1}) sits half
        # way between two floats near 2^60, as r_2(N) − r_2({0,2}) does, so
        # the pair (1, 2) passes on N. Lowering r_1({0,1}) by far less than
        # its slack rounds the first gain up, and the pair fails by 128.
        potential = {0: 0, 1: 64, 2: 0, 4: 0, 3: 256, 5: 512, 6: 0, 7: 2**60}
        rows = [[0.0] * 8 for _ in range(3)]
        for mask in range(1, 8):
            for i in members(mask):
                rows[i][mask] = float(potential[mask] - potential[mask ^ 1 << i])
        g = additive_game([10**4] * 3).as_float()
        gradient = RewardMatrix(3, tuple(map(tuple, rows)))
        assert self.assert_agree(g, gradient).passed
        lowered = _moved(gradient, [(1, 0b011, -1)], 2.0**-40)
        assert 2.0**-40 < reference.rounding_ulps(3) * g.values[0b011] / 4
        result = self.assert_agree(g, lowered)
        assert result.witness == {
            "coalition": 7,
            "player_i": 1,
            "player_j": 2,
            "gain_i": 2.0**60 - 640,
            "gain_j": 2.0**60 - 768,
        }

    def test_special_entries(self):
        g = random_monotone_game(4, 3, 10.0 / 3)
        matrix = solve(g).matrix
        tiny = 5e-324
        for x in (math.nan, math.inf, -math.inf, -0.0, 0.0, tiny, -tiny, 2.0**-1022, 1e308):
            for i, mask in ((1, 0b0011), (3, 0b1111), (0, 0b1110)):
                self.assert_agree(g, matrix.replace_entry(i, mask, x))
        zero = Game(4, [0.0] * 16)
        for x in (-0.0, tiny):
            self.assert_agree(zero, solve(zero).matrix.replace_entry(2, 0b0110, x))
        subnormal = Game(3, [k * tiny for k in (0, 1, 1, 2, 3, 3, 4, 6)])
        self.assert_agree(subnormal, solve(subnormal).matrix)

    @pytest.mark.parametrize("tol", _TOLERANCES)
    def test_mixed_modes_and_tolerances(self, tol):
        rng = random.Random(10)
        for g in (*random_games([3, 4, 6], 1, seed0=4700), *list(_premise_games())[:6]):
            matrix = solve(g).matrix
            pairs = ((g, matrix.as_float()), (g.as_float(), matrix), (g.as_float(), matrix.as_float()))
            for form, table in pairs:
                for moved in _tampered(rng, form, table):
                    self.assert_agree(form, moved, tol)
