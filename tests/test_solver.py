from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from fairshare import (
    RATIONAL,
    Game,
    MatrixDocument,
    OutOfRangeError,
    RewardMatrix,
    additive_game,
    align_matrix_labels,
    brute_force_solve,
    check_all,
    counterexample3_game,
    default_labels,
    example1_game,
    members,
    parse_matrix,
    random_monotone_game,
    serialize_matrix,
    solve,
)
from fairshare.axioms import _numbers
from fairshare.oracle import agree_up_to_rounding
from reference import (
    WIDE_DENOMINATOR_GAME,
    anchored_solve,
    column,
    fraction_brute_force_solve,
    fraction_solve,
    highest_member_anchor,
    lowest_member_anchor,
    random_games,
)

# Column layout: reward of players 1..4 (indices 0..3), keyed by coalition
# mask over 1-indexed players. Derived once by hand from the recurrence and
# pinned; the oracle tests re-derive the same table independently.
EXAMPLE1_EXPECTED = {
    0b0011: (2, 3, 1, 4),
    0b0101: (4, 2, 4, 4),
    0b1001: (4, 2, 1, 7),
    0b0110: (1, 4, 3, 4),
    0b1010: (1, 5, 1, 7),
    0b1100: (1, 2, 3, 6),
    0b0111: (5, 5, 6, 4),
    0b1011: (2, 3, 1, 7),
    0b1101: (7, 2, 6, 9),
    0b1110: (1, 7, 5, 9),
    0b1111: (5, 5, 8, 9),
}

COUNTEREXAMPLE3_EXPECTED = {
    0b011: (2, 3, 3),
    0b101: (2, 2, 4),
    0b110: (1, 4, 5),
    0b111: (3, 5, 6),
}


def test_example1_full_table(example1, example1_solution):
    matrix, _ = example1_solution
    solo = (1, 2, 1, 4)
    for mask in range(16):
        expected = EXAMPLE1_EXPECTED.get(mask, solo)
        assert column(matrix, mask) == expected, f"coalition mask {mask}"


def test_counterexample3_full_table(counterexample3):
    matrix, _ = solve(counterexample3)
    solo = (1, 2, 3)
    for mask in range(8):
        assert column(matrix, mask) == COUNTEREXAMPLE3_EXPECTED.get(mask, solo)


def test_two_player_worked_case():
    # v = [0, 1, 2, 3]: P({1}) = 1 < P({2}) = 2, so player 2, whose
    # departure leaves {1}, takes the full value; P(N) = 3 + 1 = 4, and
    # player 1 ends at P(N) - P({2}) = 4 - 2 = 2
    matrix, efficient = solve(additive_game([1, 2]))
    assert column(matrix, 0b11) == (2, 3)
    assert efficient == {0b11: 1}


def test_small_coalitions_pay_solo_values_to_everyone(example1_solution):
    matrix, _ = example1_solution
    for mask in (0, 0b0001, 0b0010, 0b0100, 0b1000):
        assert column(matrix, mask) == (1, 2, 1, 4)


def test_nonmembers_keep_solo_value(example1, example1_solution):
    matrix, _ = example1_solution
    for mask in range(16):
        for i in range(4):
            if not mask & (1 << i):
                assert matrix.rewards[i][mask] == example1.solo_value(i)


def test_efficient_player_map_entries_get_full_value(example1, example1_solution):
    matrix, efficient = example1_solution
    assert set(efficient) == {m for m in range(16) if m.bit_count() >= 2}
    for mask, k in efficient.items():
        assert mask & (1 << k)
        assert matrix.rewards[k][mask] == example1.value(mask)


def test_deterministic():
    g = random_monotone_game(5, 17, 10)
    assert solve(g) == solve(g)


def test_exact_mode_yields_fractions(example1_solution):
    matrix, _ = example1_solution
    assert matrix.exact
    assert all(isinstance(x, Fraction) for row in matrix.rewards for x in row)


def test_float_game_yields_float_matrix():
    g = random_monotone_game(4, 3, 10).as_float()
    matrix, _ = solve(g)
    assert not matrix.exact
    assert all(isinstance(x, float) for row in matrix.rewards for x in row)


@pytest.mark.parametrize(
    "rows",
    [
        ((0, 1.0),),
        ((0.0, 1),),
        ((Fraction(1, 3), 1.0),),
        ((Fraction(1), float("nan")),),
        ((float("-inf"), 7),),
    ],
)
def test_any_float_entry_makes_the_whole_table_float(rows):
    # as in Game, whichever entry comes first; plain float(), no finiteness check
    matrix = RewardMatrix(1, rows)
    assert not matrix.exact
    assert repr(matrix.rewards[0]) == repr(tuple(map(float, rows[0])))


def test_exact_entry_too_large_for_a_float_table():
    with pytest.raises(OverflowError):
        RewardMatrix(1, ((Fraction(2**2000), 0.5),))


def test_single_player_game():
    matrix, efficient = solve(Game(1, [0, 5]))
    assert matrix.rewards == ((5, 5),)
    assert efficient == {}


class TestAnchorChoice:
    """The anchored reference pass gives solve's answer for any anchor."""

    def test_lowest_and_highest_agree(self):
        for g in random_games([2, 3, 4, 5], 3, seed0=100):
            expected = solve(g)
            assert anchored_solve(g, lowest_member_anchor) == expected
            assert anchored_solve(g, highest_member_anchor) == expected

    def test_seeded_random_anchor_agrees(self):
        import random

        rng = random.Random(0)
        g = random_monotone_game(5, 23, 10)
        expected = solve(g)

        def random_anchor(mask):
            return rng.choice(members(mask))

        for _ in range(5):
            assert anchored_solve(g, random_anchor) == expected

    def test_invalid_anchor_rejected(self, example1):
        with pytest.raises(ValueError):
            anchored_solve(example1, lambda mask: 0 if mask != 0b0110 else 3)

    def test_float_games_agree_up_to_rounding(self):
        # float argmins of P may fall the other way on near-ties, which
        # moves entries by rounding only; the crowned player still gets
        # exactly the coalition value
        for k in range(-6, 13):
            for n in range(2, 8):
                g = random_monotone_game(n, 100 * k + n, 10.0**k / 3)
                matrix, efficient = solve(g)
                assert agree_up_to_rounding(
                    g, matrix, anchored_solve(g, lowest_member_anchor).matrix
                ), (n, k)
                for mask, i in efficient.items():
                    assert matrix.rewards[i][mask] == g.value(mask)


class TestTieBreaking:
    def tie_sets(self, game):
        """Coalitions whose top score is shared, found by capturing scores."""
        ties = {}

        def capture(mask, scores):
            best = max(scores.values())
            tied = [i for i, s in scores.items() if s == best]
            if len(tied) > 1:
                ties[mask] = tied
            return tied[0]

        anchored_solve(game, lowest_member_anchor, pick_k=capture)
        return ties

    def test_forcing_any_tied_maximizer_gives_same_matrix(self, example1):
        games = [
            example1,
            Game(2, [0, 1, 1, 3]),
            additive_game([2, 2, 2]),
            random_monotone_game(4, 2, 4),
        ]
        for g in games:
            expected = solve(g)
            ties = self.tie_sets(g)
            for mask, tied in ties.items():
                for forced in tied:
                    def pick(m, scores, _mask=mask, _forced=forced):
                        if m == _mask:
                            return _forced
                        best = max(scores.values())
                        return next(i for i, s in scores.items() if s == best)

                    got = anchored_solve(g, lowest_member_anchor, pick_k=pick)
                    assert got.matrix == expected.matrix, (g, mask, forced)
                    assert got.efficient_player == {
                        **expected.efficient_player, mask: forced
                    }

    def test_example1_has_the_known_tie(self, example1):
        # players 1 and 3 tie in coalition {1,3}
        assert self.tie_sets(example1) == {0b0101: [0, 2]}

    def test_forced_nonmaximizer_rejected(self, example1):
        with pytest.raises(ValueError):
            anchored_solve(
                example1, lowest_member_anchor, pick_k=lambda m, s: min(s, key=s.get)
            )


def test_crowned_member_dominates_handovers():
    # for the chosen k of each coalition and any other member i, k's reward
    # after i leaves is at least i's reward after k leaves; this is the
    # inequality that makes every derived entry fit under the coalition value
    for g in random_games([3, 4, 5], 4, seed0=40):
        matrix, efficient = solve(g)
        for mask, k in efficient.items():
            for i in members(mask):
                if i != k:
                    assert (
                        matrix.rewards[i][mask ^ (1 << k)]
                        <= matrix.rewards[k][mask ^ (1 << i)]
                    )


def test_reward_accessor_and_bounds(example1_solution):
    matrix, _ = example1_solution
    assert matrix.reward(3, 0b1110) == 9
    assert matrix.reward(0, 0b1110) == 1
    with pytest.raises(OutOfRangeError):
        matrix.reward(4, 0)
    with pytest.raises(OutOfRangeError):
        matrix.reward(0, 16)
    with pytest.raises(OutOfRangeError):
        column(matrix, 16)


def test_matrix_shape_validation():
    from fairshare import DimensionMismatchError

    with pytest.raises(DimensionMismatchError):
        RewardMatrix(2, ((1, 2, 3), (1, 2, 3)))


def test_replace_entry_changes_one_cell(example1_solution):
    matrix, _ = example1_solution
    tampered = matrix.replace_entry(2, 0b1111, Fraction(99))
    assert tampered.rewards[2][0b1111] == 99
    diff = [
        (i, m)
        for i in range(4)
        for m in range(16)
        if tampered.rewards[i][m] != matrix.rewards[i][m]
    ]
    assert diff == [(2, 0b1111)]


def test_concurrent_solves_match_serial():
    games = [random_monotone_game(5, s, 10) for s in range(8)]
    serial = [solve(g) for g in games]
    with ThreadPoolExecutor(max_workers=4) as pool:
        concurrent = list(pool.map(solve, games))
    assert concurrent == serial


def test_counterexample3_spot_values(counterexample3):
    matrix, _ = solve(counterexample3)
    assert matrix.reward(0, 0b101) == 2
    assert column(matrix, 0b111) == (3, 5, 6)


def _differential_games():
    for n in range(1, 10):
        for seed in range(3):
            yield f"exact-n{n}-s{seed}", random_monotone_game(n, seed)
    yield "example1", example1_game()
    yield "counterexample3", counterexample3_game()
    yield "wide-denominator", WIDE_DENOMINATOR_GAME
    yield "zero", Game(4, [0] * 16)
    for k in (-6, -2, 0, 3, 12):
        yield f"float-1e{k}/3", random_monotone_game(3 + k % 5, 40 + k, 10.0**k / 3)


@pytest.mark.parametrize("name, game", list(_differential_games()))
class TestIntegerPathMatchesFractionPath:
    """Exact games run on ints over their common denominator (past the cap,
    on their Fractions); the tables equal the former ``Fraction``
    arithmetic's in value and type, and float tables match bit for bit."""

    def test_solve(self, name, game):
        got, want = solve(game), fraction_solve(game)
        # repr tells Fraction from int and keeps every float bit
        assert repr(got.matrix.rewards) == repr(want.matrix.rewards)
        assert got.efficient_player == want.efficient_player

    def test_brute_force_solve(self, name, game):
        got, want = brute_force_solve(game), fraction_brute_force_solve(game)
        assert repr(got.matrix.rewards) == repr(want.matrix.rewards)
        assert got.feasible_candidates == want.feasible_candidates
        assert got.unique == want.unique


def test_wide_denominator_game_keeps_its_fractions():
    assert WIDE_DENOMINATOR_GAME._denominator is None
    assert solve(WIDE_DENOMINATOR_GAME).matrix._denominator is None


def test_fraction_view_stays_unbuilt_from_solve_to_check():
    game = random_monotone_game(6, 3, Fraction(10, 3))
    labels = default_labels(6)
    matrix = solve(game).matrix
    assert matrix._denominator == game._denominator == 24
    assert all(type(x) is int for row in matrix._numerators for x in row)
    for form in ("table", "long", "json"):
        text = serialize_matrix(MatrixDocument(matrix, labels, RATIONAL, None), form)
        parsed = align_matrix_labels(parse_matrix(text), labels).matrix
        assert _numbers(game, parsed, None).denominator == 24
        assert check_all(game, parsed).all_pass
        assert "rewards" not in vars(parsed), form
        assert parsed._numerators == matrix._numerators
    assert "rewards" not in vars(matrix)

    # an int-backed table equals the same entries given as Fractions
    fractions = tuple(
        tuple(Fraction(p, game._denominator) for p in row) for row in matrix._numerators
    )
    assert {x.denominator for row in fractions for x in row} != {24}
    built = RewardMatrix(6, fractions)
    assert built == matrix and hash(built) == hash(matrix)
    assert built.rewards == fractions
    assert {built, matrix} == {matrix}
