import random
from fractions import Fraction

import pytest

import fairshare
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
    check_all,
    check_axiom,
    check_strict_monotonicity_pair,
    coverage_game,
    default_tolerance,
    desirable_pairs,
    members,
    raise_coalition_value,
    random_monotone_game,
    scaled_rho_shapley,
    solve,
    symmetric_pairs,
    useless_players,
)
from fairshare.axioms import _numbers
from fairshare.games import _MAX_DENOMINATOR_BITS
from reference import (
    PREMISE_CHECKS,
    PREMISE_FINDERS,
    TABLE_CHECKS,
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


class TestPremiseHelpers:
    def test_useless_players(self):
        g = coverage_game([["a"], [], ["b"]], {"a": 2, "b": 1})
        assert useless_players(g) == [1]
        assert useless_players(additive_game([1, 2])) == []

    def test_symmetric_pairs(self):
        assert symmetric_pairs(Game(2, [0, 1, 1, 3])) == [(0, 1)]
        assert symmetric_pairs(additive_game([1, 2, 1])) == [(0, 2)]

    def test_example1_has_no_symmetric_pair(self, example1):
        # players 1 and 3 alone are worth the same but diverge with partners
        assert symmetric_pairs(example1) == []

    def test_desirable_pairs_are_ordered(self):
        g = additive_game([1, 2])
        assert desirable_pairs(g) == [(1, 0)]
        sym = Game(2, [0, 1, 1, 3])
        assert set(desirable_pairs(sym)) == {(0, 1), (1, 0)}


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
        assert matrix.column(0b11) == (3, 3)
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
        # from the coalition's down-set alone, and they must be solve's
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
        assert (3, 0) in desirable_pairs(g)
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
            for i, j in desirable_pairs(g):
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
        for g in random_games(range(2, 9), 3, seed0=4100):
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
        assert _numbers(g, bad, None).denominator is None
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
            assert check_axiom(code, g, near).passed is (code != "F3"), code
            assert check_axiom(code, g, far).passed is (code == "F3"), code


_TOLERANCES = (
    None,
    Tolerance.exact(),
    Tolerance.absolute(1e-9),
    Tolerance.absolute(Fraction(1, 10**9)),
)


def _premise_games():
    """Games where each F1-F3 premise fires, then random ones."""
    yield coverage_game([["a"], [], ["b"], ["a", "c"]], {"a": 2, "b": 1, "c": 3})
    yield additive_game([1, 2, 1, 2])
    yield additive_game([1, 2, 3, 5])
    yield Game(3, [0, 1, 1, 3, 2, 4, 4, 7])
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
        assert useless_players(games[0]) == [1]
        assert symmetric_pairs(games[1]) == [(0, 2), (1, 3)]
        assert symmetric_pairs(games[2]) == []
        assert (3, 0) in desirable_pairs(games[2])
        for g in games:
            for form in (g, g.as_float()):
                for tol in _TOLERANCES:
                    for name, finder in PREMISE_FINDERS.items():
                        assert getattr(fairshare, name)(form, tol) == finder(form, tol)

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
        # an exact game with a float table, and the reverse
        for g in _premise_games():
            matrix = solve(g).matrix
            for form, table in ((g, matrix.as_float()), (g.as_float(), matrix)):
                for tol in _TOLERANCES:
                    for code, check in PREMISE_CHECKS.items():
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
