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
    useless_players,
)
from fairshare import axioms, games
from reference import check_game_values, monotone_by_all_pairs


def test_members_and_mask_roundtrip():
    assert members(0) == []
    assert members(0b1011) == [0, 1, 3]
    assert mask_of([0, 1, 3]) == 0b1011
    assert mask_of([]) == 0


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
    assert games._common_denominator((values,)) is None
    return values


class TestIntegerValidation:
    """Game checks exact values as ints over their common denominator, with
    the errors and witnesses of the Fraction scan in tests/reference.py."""

    def test_axioms_share_the_common_denominator_helper(self):
        assert axioms._common_denominator is games._common_denominator

    @pytest.mark.parametrize("n", range(2, 9))
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

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_float_games(self, n):
        rng = random.Random(100 + n)
        for seed in range(10):
            values = random_monotone_game(n, seed, 10.0 / 3).values
            bad = [float(x) for x in _tampered(values, rng)]
            expected = _raised(check_game_values, bad)
            assert expected is not None
            assert _raised(lambda v: Game(n, v), bad) == expected


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
        assert useless_players(g) == [1]

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
