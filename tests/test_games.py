import random
from fractions import Fraction

import pytest

from fairshare import (
    BadLengthError,
    BadParamsError,
    EmptyNotZeroError,
    FairshareError,
    Game,
    NegativeValueError,
    NotMonotoneError,
    SizeLimitExceededError,
    additive_game,
    check_all,
    coalitions_by_size,
    counterexample3_game,
    coverage_game,
    example1_game,
    is_monotone,
    make_family,
    mask_of,
    members,
    raise_coalition_value,
    random_monotone_game,
    submasks,
    solve,
)
from fairshare import axioms, baselines, formats, games, oracle, solver
from fairshare.axioms import _numbers
from reference import check_game_values, members_by_bit_position, monotone_by_all_pairs


def test_members_and_mask_roundtrip():
    assert members(0) == []
    assert members(0b1011) == [0, 1, 3]
    assert mask_of([0, 1, 3]) == 0b1011
    assert mask_of([]) == 0


def test_members_match_the_bit_position_walk():
    for mask in range(1 << 12):
        assert members(mask) == members_by_bit_position(mask)


def test_submasks_cover_the_powerset():
    subs = set(submasks(0b0101))
    assert subs == {0b0000, 0b0001, 0b0100, 0b0101}


def test_coalitions_by_size_ordering():
    order = coalitions_by_size(3)
    assert order == [0, 1, 2, 4, 3, 5, 6, 7]
    assert coalitions_by_size(3, min_size=2) == [3, 5, 6, 7]


class TestGameValidation:
    def test_valid_game_coerces_to_fractions(self):
        g = Game(2, [0, 1, 1, 3])
        assert g.values == (Fraction(0), Fraction(1), Fraction(1), Fraction(3))
        assert g.exact

    def test_float_values_make_a_float_game(self):
        g = Game(2, [0, 1.0, 1, 3])
        assert all(isinstance(x, float) for x in g.values)
        assert not g.exact

    def test_wrong_length_rejected(self):
        with pytest.raises(BadLengthError):
            Game(2, [0, 1, 2])

    def test_nonzero_empty_coalition_rejected(self):
        with pytest.raises(EmptyNotZeroError):
            Game(1, [1, 2])

    def test_negative_value_rejected(self):
        with pytest.raises(NegativeValueError):
            Game(2, [0, -1, 1, 3])

    def test_nan_rejected(self):
        with pytest.raises(NegativeValueError):
            Game(1, [0.0, float("nan")])

    def test_value_too_large_for_a_float_rejected(self):
        with pytest.raises(NegativeValueError, match="finite"):
            Game(1, [0.0, 10**400])

    def test_non_monotone_rejected_with_first_violating_pair(self):
        with pytest.raises(NotMonotoneError) as exc_info:
            Game(2, [0, 3, 2, 2])
        assert exc_info.value.subset == 0b01
        assert exc_info.value.superset == 0b11

    def test_player_count_bounds(self):
        with pytest.raises(BadParamsError):
            Game(0, [0])
        with pytest.raises(BadParamsError):
            Game(21, [0] * (1 << 21))

    def test_accessors(self):
        g = Game(2, [0, 1, 2, 4])
        assert g.value(0b11) == 4
        assert g.solo_value(1) == 2
        assert g.grand_coalition == 0b11
        assert g.num_coalitions == 4

    def test_as_float(self):
        g = Game(2, [0, 1, 2, 4]).as_float()
        assert not g.exact
        assert g.values == (0.0, 1.0, 2.0, 4.0)


class TestIsMonotone:
    def test_accepts_monotone_rejects_decreasing(self):
        assert is_monotone([0, 1, 1, 3])
        assert not is_monotone([0, 3, 2, 2])

    def test_length_must_be_power_of_two(self):
        with pytest.raises(BadLengthError):
            is_monotone([0, 1, 2])
        with pytest.raises(BadLengthError):
            is_monotone([])

    def test_agrees_with_all_pairs_scan_on_random_tables(self):
        # single-player-removal checks must match the brute subset scan
        import random

        rng = random.Random(5)
        for _ in range(300):
            n = rng.randint(1, 4)
            table = [0] + [rng.randint(0, 6) for _ in range((1 << n) - 1)]
            assert is_monotone(table) == monotone_by_all_pairs(table)


def _raised(build, values):
    """Type, message and witness of what ``build(values)`` raises, or None."""
    try:
        build(values)
    except FairshareError as exc:
        return type(exc), str(exc), getattr(exc, "subset", None), getattr(exc, "superset", None)
    return None


def _tampered(values, rng):
    """``values`` with one coalition pushed below a subset or below zero."""
    values = list(values)
    mask = rng.randrange(1, len(values))
    if rng.random() < 0.5:
        values[mask] = -values[mask] - Fraction(1, 3)
    else:
        below = max(values[mask ^ (1 << i)] for i in members(mask))
        values[mask] = below - rng.choice([Fraction(1, 7), Fraction(5, 2)])
    return values


def _big_denominator_values(n, rng):
    """Monotone exact values over distinct primes, whose common denominator
    passes the integer scaling's bit cap."""
    primes = [p for p in range(3, 6000) if all(p % q for q in range(2, int(p**0.5) + 1))]
    values = [Fraction(0)] * (1 << n)
    for mask in coalitions_by_size(n, min_size=1):
        base = max(values[mask ^ (1 << i)] for i in members(mask))
        values[mask] = base + Fraction(rng.randint(1, 9), primes[mask])
    assert games._over_common_denominator((values,))[1] is None
    return values


class TestRuns:
    """Each player's coalitions as row slices, which the axiom checkers and
    the monotonicity scan read."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_runs_cover_each_players_coalitions_once(self, n):
        table = list(range(1 << n))
        for i in range(n):
            bit = 1 << i
            runs = [run for run in games._runs(n) if run.i == i]
            assert len(runs) <= 2 ** ((n - 1) // 2)
            seen = []
            for run in runs:
                masks = table[run.with_i]
                assert masks == list(run.masks) == sorted(set(masks))
                assert table[run.without_i] == list(run.masks_without)
                assert list(run.masks_without) == [m - bit for m in masks]
                seen += masks
            assert sorted(seen) == [m for m in table if m & bit]
            assert len(seen) == len(set(seen))


class TestIntegerValidation:
    """Game checks exact values as ints over their common denominator, with
    the errors and witnesses of the Fraction scan in tests/reference.py."""

    def test_game_and_table_share_the_common_denominator_helper(self):
        # the cap and its Fraction fallback are decided where games and
        # tables are built; the checkers read what those stored
        assert solver._over_common_denominator is games._over_common_denominator
        for module in (axioms, baselines, formats, oracle):
            assert not hasattr(module, "_over_common_denominator"), module

    @pytest.mark.parametrize("n", range(2, 13))
    def test_tampered_exact_games(self, n):
        rng = random.Random(n)
        for seed in range(20):
            values = _tampered(random_monotone_game(n, seed, Fraction(10, 3)).values, rng)
            expected = _raised(check_game_values, values)
            assert expected is not None
            assert _raised(lambda v: Game(n, v), values) == expected

    def test_denominators_past_the_cap(self):
        rng = random.Random(11)
        values = _big_denominator_values(8, rng)
        assert _raised(lambda v: Game(8, v), values) is None
        for _ in range(20):
            bad = _tampered(values, rng)
            expected = _raised(check_game_values, bad)
            assert expected is not None
            assert _raised(lambda v: Game(8, v), bad) == expected

    @pytest.mark.parametrize("n", [2, 5, *range(8, 13)])
    def test_float_games(self, n):
        rng = random.Random(100 + n)
        for seed in range(10):
            values = random_monotone_game(n, seed, 10.0 / 3).values
            bad = [float(x) for x in _tampered(values, rng)]
            expected = _raised(check_game_values, bad)
            assert expected is not None
            assert _raised(lambda v: Game(n, v), bad) == expected

    @pytest.mark.parametrize("n", range(2, 13))
    def test_several_violations_report_the_least(self, n):
        # two coalitions zeroed, so several (superset, player) pairs fail:
        # the least superset mask wins, then the least player, whichever
        # player's runs meet their failure first
        rng = random.Random(200 + n)
        for seed in range(5):
            for scale in (Fraction(10, 3), 10.0 / 3):
                values = list(random_monotone_game(n, seed, scale).values)
                for mask in rng.sample(range(1, len(values)), 2):
                    values[mask] *= 0
                expected = _raised(check_game_values, values)
                assert _raised(lambda v: Game(n, v), values) == expected


class TestRandomMonotone:
    def test_deterministic_bitwise(self):
        a = random_monotone_game(5, 42, 10)
        b = random_monotone_game(5, 42, 10)
        assert a.values == b.values

    def test_different_seeds_differ(self):
        assert random_monotone_game(5, 1, 10) != random_monotone_game(5, 2, 10)

    def test_monotone_and_exact(self):
        g = random_monotone_game(6, 7, 10)
        assert g.exact
        assert is_monotone(g.values)

    def test_zero_increment_gives_zero_game(self):
        g = random_monotone_game(1, 0, 0)
        assert g.values == (0, 0)

    def test_float_increment_gives_float_game(self):
        g = random_monotone_game(3, 9, 10.0)
        assert not g.exact
        assert is_monotone(g.values)

    def test_bad_params(self):
        with pytest.raises(BadParamsError):
            random_monotone_game(0, 1, 10)
        with pytest.raises(BadParamsError):
            random_monotone_game(3, 1, -1)


class TestFamilies:
    def test_additive_values_sum_weights(self):
        g = additive_game([1, 2, Fraction(5, 2)])
        assert g.value(0b111) == Fraction(11, 2)
        assert g.value(0b101) == Fraction(7, 2)

    def test_additive_rejects_bad_weights(self):
        with pytest.raises(BadParamsError):
            additive_game([])
        with pytest.raises(BadParamsError):
            additive_game([1, -2])

    def test_coverage_counts_union_weight_once(self):
        g = coverage_game([["a", "b"], ["b", "c"]], {"a": 1, "b": 2, "c": 4})
        assert g.value(0b01) == 3
        assert g.value(0b10) == 6
        assert g.value(0b11) == 7  # b counted once

    def test_coverage_is_subadditive(self):
        g = coverage_game(
            [["a"], ["a", "b"], ["c"], ["b", "c"]],
            {"a": 3, "b": 1, "c": 2},
        )
        for c1 in range(g.num_coalitions):
            for c2 in range(g.num_coalitions):
                if c1 & c2 == 0:
                    assert g.value(c1) + g.value(c2) >= g.value(c1 | c2)

    def test_coverage_empty_set_player_is_useless(self):
        g = coverage_game([["a"], [], ["b"]], {"a": 2, "b": 1})
        dominance = _numbers(g, solve(g).matrix, None).dominance
        # joining nobody dominates joining player 1, and only player 1
        assert [u for u in range(3) if (0, 1 << u) in dominance] == [1]

    def test_coverage_rejects_unknown_elements(self):
        with pytest.raises(BadParamsError):
            coverage_game([["a"], ["zzz"]], {"a": 1})

    def test_example1_value_table(self):
        g = example1_game()
        expected = {
            (1,): 1, (2,): 2, (3,): 1, (4,): 4,
            (1, 2): 3, (1, 3): 4, (1, 4): 7, (2, 3): 4, (2, 4): 7, (3, 4): 6,
            (1, 2, 3): 6, (1, 2, 4): 7, (1, 3, 4): 9, (2, 3, 4): 9,
            (1, 2, 3, 4): 9,
        }
        assert g.value(0) == 0
        for players, want in expected.items():
            assert g.value(mask_of(p - 1 for p in players)) == want

    def test_counterexample3_value_table(self):
        g = counterexample3_game()
        assert g.values == (0, 1, 2, 3, 3, 4, 5, 6)

    def test_make_family_dispatch(self):
        assert make_family("example1") == example1_game()
        assert make_family("additive", weights=[1, 2]) == additive_game([1, 2])
        assert make_family("random-monotone", players=3, seed=1) == random_monotone_game(3, 1, 10)

    def test_make_family_rejects_unknown_and_bad_params(self):
        with pytest.raises(BadParamsError):
            make_family("no-such-family")
        with pytest.raises(BadParamsError):
            make_family("additive", wrong_kw=[1])


class TestGeneratorPlayerLimit:
    """Generators report a player count past MAX_PLAYERS as a size limit,
    as the parsers do, before any table is sized by it."""

    def test_random_monotone(self):
        for n in (21, 1000):
            with pytest.raises(SizeLimitExceededError, match=f"{n} players exceed MAX_PLAYERS"):
                random_monotone_game(n, 0)
        for n in (0, -1):
            with pytest.raises(BadParamsError):
                random_monotone_game(n, 0)

    def test_additive(self):
        with pytest.raises(SizeLimitExceededError, match="21 players exceed MAX_PLAYERS"):
            additive_game([1] * 21)
        with pytest.raises(BadParamsError):
            additive_game([])

    def test_coverage(self):
        with pytest.raises(SizeLimitExceededError, match="21 players exceed MAX_PLAYERS"):
            coverage_game([["a"]] * 21, {"a": 1})
        with pytest.raises(BadParamsError):
            coverage_game([], {"a": 1})

    def test_make_family_keeps_the_error(self):
        with pytest.raises(SizeLimitExceededError):
            make_family("random-monotone", players=21, seed=0)


class TestRaiseCoalitionValue:
    def test_only_supersets_can_change(self, example1):
        bumped = raise_coalition_value(example1, 0b0101, 1)
        assert bumped.value(0b0101) == 5
        for mask in range(16):
            if mask & 0b0101 != 0b0101:
                assert bumped.value(mask) == example1.value(mask)

    def test_supersets_lift_to_preserve_monotonicity(self):
        g = additive_game([1, 1, 1])
        bumped = raise_coalition_value(g, 0b011, 4)  # pair worth 6 > grand's 3
        assert bumped.value(0b011) == 6
        assert bumped.value(0b111) == 6
        assert is_monotone(bumped.values)

    def test_rejects_bad_args(self, example1):
        with pytest.raises(BadParamsError):
            raise_coalition_value(example1, 0, 1)
        with pytest.raises(BadParamsError):
            raise_coalition_value(example1, 1, 0)
        for delta in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(BadParamsError):
                raise_coalition_value(example1.as_float(), 0b0101, delta)


def _stored_form(values):
    """``values`` as ``Game`` stores them: (numerators, denominator)."""
    (numerators,), d = games._over_common_denominator((games._coerce_values(values),))
    return numerators, d


class TestStoredGame:
    """``Game._stored`` takes values already in stored form, checks them as
    ``Game`` does, and builds its Fraction view only when it is read."""

    @staticmethod
    def _games():
        rng = random.Random(7)
        yield example1_game()
        yield Game(1, (0, 0))
        for n in range(1, 9):
            yield random_monotone_game(n, n, Fraction(10, 3))
            yield random_monotone_game(n, n, 10.0 / 3)
        yield Game(8, _big_denominator_values(8, rng))

    def test_same_game_either_way(self):
        for game in self._games():
            stored = Game._stored(game.n_players, game._numerators, game._denominator)
            assert "values" not in vars(stored)
            assert stored.exact == game.exact
            assert stored.value(3 % game.num_coalitions) == game.value(3 % game.num_coalitions)
            assert stored == game and game == stored
            assert hash(stored) == hash(game)
            assert repr(stored) == repr(game)
            assert stored.values == game.values
            assert list(map(type, stored.values)) == list(map(type, game.values))

    @pytest.mark.parametrize("scale", [Fraction(10, 3), 10.0 / 3])
    @pytest.mark.parametrize("n", range(1, 11))
    def test_same_errors_either_way(self, n, scale):
        rng = random.Random(300 + n)
        stored = lambda v: Game._stored(n, *_stored_form(v))
        for seed in range(10):
            values = list(random_monotone_game(n, seed, scale).values)
            for bad in (_tampered(values, rng), [values[-1] + 1, *values[1:]]):
                bad = [type(values[0])(x) for x in bad]
                expected = _raised(lambda v: Game(n, v), bad)
                assert expected is not None
                assert _raised(stored, bad) == expected

    def test_parsed_game_keeps_its_fraction_view_unbuilt(self):
        # the solve path and an exact check read the stored ints alone
        labels = formats.default_labels(12)
        text = formats.serialize_game(
            formats.GameDocument(random_monotone_game(12, 5), labels, "rational")
        )
        game = formats.parse_game(text).game
        matrix = solve(game).matrix
        for form in ("table", "long", "json"):
            formats.serialize_matrix(formats.MatrixDocument(matrix, labels, "rational"), form)
        assert check_all(game, matrix).all_pass
        assert "values" not in vars(game)
        assert "rewards" not in vars(matrix)
