"""End-to-end acceptance suite.

One test per stated criterion, each with its tolerance and a wall-clock
budget. Campaign seeds are fixed so every run sees the same games. The
axiom campaign (test_axiom_suite_zero_failures_on_random_campaign) asks
the solver's table to meet every axiom wherever any admissible table can:
strict desirability (F3) may fall to an equality only where the
level-wise oracle proves the table forced, which happens on three tie
games (see TestStrictDesirabilityForcedEquality in test_axioms.py and
the README's "Known limitation" section). The companion test right below
it pins those three equality reports as the F3 checker states them.

There is nothing to scale down: the solver and checkers are exhaustive
at these sizes already, so the property campaigns above double as the
full quantitative reproduction.
"""

import math
import random
import time
from fractions import Fraction
from itertools import islice
from typing import NamedTuple

import pytest

from fairshare import (
    Game,
    RewardMatrix,
    Verdict,
    brute_force_solve,
    check_all,
    check_axiom,
    check_strict_monotonicity_pair,
    counterexample3_game,
    example1_game,
    global_enumeration_solve,
    members,
    raise_coalition_value,
    random_monotone_game,
    scaled_rho_shapley,
    shapley,
    solve,
)
from reference import (
    anchored_solve,
    highest_member_anchor,
    lowest_member_anchor,
    random_games,
    shapley_by_permutations,
    strict_desirability_triples,
)

F = Fraction


class Budget:
    """Assert a criterion finishes inside its stated wall-clock budget."""

    def __init__(self, seconds: float):
        self.limit = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.limit, f"took {elapsed:.1f}s, budget {self.limit}s"
        return False


GOLDEN_EXAMPLE1 = {
    0b0000: (1, 2, 1, 4),
    0b0001: (1, 2, 1, 4),
    0b0010: (1, 2, 1, 4),
    0b0100: (1, 2, 1, 4),
    0b1000: (1, 2, 1, 4),
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


def test_example1_full_table_is_reproduced_exactly():
    with Budget(1):
        game = example1_game()
        matrix = solve(game).matrix
        assert matrix.exact
        for mask, expected in GOLDEN_EXAMPLE1.items():
            assert matrix.column(mask) == tuple(F(x) for x in expected), bin(mask)
        assert matrix.column(0b1111) == (F(5), F(5), F(8), F(9))
        assert matrix.column(0b1110) == (F(1), F(7), F(5), F(9))


def test_example1_variant_grand_rewards():
    with Budget(1):
        game = raise_coalition_value(example1_game(), 0b0101, F(1))
        assert game.value(0b0101) == 5
        matrix = solve(game).matrix
        assert matrix.exact
        assert matrix.column(0b1111) == (F(5), F(4), F(8), F(9))


def test_counterexample_tables_and_reciprocity_failure():
    with Budget(1):
        game = counterexample3_game()

        # (a) the rho = 1 scaled table, exactly
        scaled = scaled_rho_shapley(game, 1).matrix
        assert scaled.exact
        assert scaled.reward(1, 0b110) == F(10, 3)
        assert scaled.column(0b011) == (F(3, 2), F(3), F(3))
        assert scaled.column(0b101) == (F(4, 3), F(2), F(4))
        assert scaled.column(0b110) == (F(1), F(10, 3), F(5))
        assert scaled.column(0b111) == (F(2), F(4), F(6))

        # (b) the balanced table's grand coalition, exactly
        balanced = solve(game).matrix
        assert balanced.column(0b111) == (F(3), F(5), F(6))

        # (c) the irrational exponent wipes out one distortion but not both
        rho = math.log2(3) - 1
        bent = scaled_rho_shapley(game, rho).matrix
        assert abs(bent.reward(0, 0b011) - 2) <= 1e-9
        assert abs(bent.reward(0, 0b101) - 2.1036) <= 1e-4

        # (d) the scaled table cannot balance mutual gains
        result = check_axiom("F5", game, scaled)
        assert result.verdict is Verdict.FAIL
        assert result.witness is not None
        assert result.witness["gain_i"] != result.witness["gain_j"]


AXIOM_CAMPAIGN_SIZES = [2, 3, 4, 5, 6, 7]
AXIOM_CAMPAIGN_PER_SIZE = 34


def _axiom_campaign():
    return random_games(AXIOM_CAMPAIGN_SIZES, AXIOM_CAMPAIGN_PER_SIZE, seed0=0)


class CampaignJudgement(NamedTuple):
    failures: list  # (axiom, witness) pairs
    strict: int  # F3 premise triples rewarded strictly
    forced: int  # F3 premise triples whose equality the oracle proves forced


def judge_campaign_game(game: Game, matrix: RewardMatrix) -> CampaignJudgement:
    """Judge a table against every axiom that some admissible table meets.

    Every check_all result other than F3 must pass. F3 is judged at every
    premise triple from the reference enumerator, not at the checker's
    first witness: r_i(C) > r_j(C) must hold, unless r_i(C) == r_j(C) and
    brute_force_solve proves that equality forced (its table is unique,
    equals solve's, and has these very entries at (i, C) and (j, C)). A
    reversal or an unforced equality is an F3 failure.
    """
    failures = [
        (r.axiom, r.witness)
        for r in check_all(game, matrix)
        if r.axiom != "F3" and not r.passed
    ]
    strict = forced = 0
    oracle = None
    for i, j, mask, b in strict_desirability_triples(game):
        r_i, r_j = matrix.reward(i, mask), matrix.reward(j, mask)
        if r_i > r_j:
            strict += 1
            continue
        if r_i == r_j:
            oracle = oracle or brute_force_solve(game)
            if (
                oracle.unique
                and oracle.matrix == solve(game).matrix
                and oracle.matrix.reward(i, mask) == r_i
                and oracle.matrix.reward(j, mask) == r_j
            ):
                forced += 1
                continue
        failures.append(
            (
                "F3",
                {
                    "kind": "reversal" if r_i < r_j else "unforced equality",
                    "player_i": i,
                    "player_j": j,
                    "coalition": mask,
                    "strict_witness_subset": b,
                    "reward_i": r_i,
                    "reward_j": r_j,
                },
            )
        )
    return CampaignJudgement(failures, strict, forced)


def test_axiom_suite_zero_failures_on_random_campaign():
    """Every axiom holds on every random game wherever it can hold at all.

    Checks other than F3 pass outright, and every F3 premise triple is
    rewarded strictly except where the oracle proves the equality forced
    (see judge_campaign_game). The campaign holds 557 premise triples:
    554 strict and 3 forced equalities, one each on games 78, 113 and 132.
    """
    failures = []
    count = strict = forced = 0
    with Budget(120):
        for idx, g in enumerate(_axiom_campaign()):
            count += 1
            judgement = judge_campaign_game(g, solve(g).matrix)
            failures += [(idx, g.n_players, *f) for f in judgement.failures]
            strict += judgement.strict
            forced += judgement.forced
    assert count >= 200
    assert not failures, (
        f"{len(failures)} failures (game, n, axiom, witness) in {count} games: "
        f"{failures}"
    )
    assert (strict, forced) == (554, 3)


# Each edit sets entry (player, coalition) to the untampered table's
# reward of source_player there, plus delta. Game None is counterexample 3,
# where player 2 earns 6 to player 1's 5 in the grand coalition; campaign
# game 78 forces r_3 == r_1 in its grand coalition.
TAMPERS = {
    "equality-at-strict-triple": (None, [(2, 0b111, 1, 0)], "F3", "unforced equality"),
    "reversal": (None, [(2, 0b111, 1, -1)], "F3", "reversal"),
    "broken-F5": (None, [(0, 0b011, 0, F(1, 2))], "F5", None),
    "shifted-forced-equality": (
        78,
        [(3, 0b1111, 3, 1), (1, 0b1111, 3, 1)],
        "F3",
        "unforced equality",
    ),
}


@pytest.mark.parametrize("name", TAMPERS)
def test_campaign_judgement_reports_tampered_tables(name):
    index, edits, axiom, kind = TAMPERS[name]
    if index is None:
        game = counterexample3_game()
    else:
        game = next(islice(_axiom_campaign(), index, None))
    matrix = solve(game).matrix
    assert judge_campaign_game(game, matrix).failures == []
    bad = matrix
    for player, mask, source, delta in edits:
        bad = bad.replace_entry(player, mask, matrix.reward(source, mask) + delta)
    failures = judge_campaign_game(game, bad).failures
    assert (axiom, kind) in [(a, w.get("kind")) for a, w in failures], failures


def test_axiom_suite_corrected_property_on_same_campaign():
    """Same campaign, corrected expectation.

    Every check other than F3 passes outright; every F3 report is the
    forced equality (equal rewards, tied complement values), never a
    reversal, and dominance never reverses rewards anywhere.
    """
    count = 0
    equality_reports = 0
    with Budget(120):
        for g in _axiom_campaign():
            count += 1
            report = check_all(g, solve(g).matrix)
            for r in report:
                if r.passed:
                    continue
                assert r.axiom == "F3", (g, r)
                w = r.witness
                assert w["reward_i"] == w["reward_j"], (g, w)
                out_i = w["coalition"] ^ (1 << w["player_i"])
                out_j = w["coalition"] ^ (1 << w["player_j"])
                assert g.value(out_i) == g.value(out_j), (g, w)
                equality_reports += 1
    assert count >= 200
    # the campaign is known to contain exactly three such tie games
    assert equality_reports == 3


def test_oracle_agreement_level_and_global():
    with Budget(300):
        count = 0
        for g in random_games([2, 3, 4, 5, 6], 20, seed0=40_000):
            count += 1
            result = brute_force_solve(g)
            assert result.matrix == solve(g).matrix
            assert result.unique
        assert count >= 100

        for g in random_games([2, 3, 4], 10, seed0=45_000):
            survivors = global_enumeration_solve(g)
            assert len(survivors) == 1
            assert survivors[0] == solve(g).matrix


def test_anchor_choice_never_changes_the_answer():
    with Budget(60):
        count = 0
        for g in random_games([2, 3, 4, 5, 6], 10, seed0=60_000):
            count += 1
            expected = solve(g)
            assert anchored_solve(g, lowest_member_anchor) == expected
            assert anchored_solve(g, highest_member_anchor) == expected
            rng = random.Random(count)
            assert (
                anchored_solve(g, lambda mask: rng.choice(members(mask)))
                == expected
            )
        assert count >= 50


def test_raising_a_coalition_strictly_raises_member_rewards():
    with Budget(120):
        rng = random.Random(70_000)
        count = 0
        while count < 100:
            n = rng.randint(2, 6)
            g = random_monotone_game(n, seed=70_000 + count, max_increment=10)
            coalition = rng.randrange(1, g.num_coalitions)
            player = rng.choice(members(coalition))
            delta = F(rng.randint(1, 48), 16)
            bumped = raise_coalition_value(g, coalition, delta)
            result = check_strict_monotonicity_pair(g, bumped, player, coalition)
            assert result.verdict is Verdict.PASS, (n, count, result)
            assert result.witness["reward_after"] > result.witness["reward_before"]
            count += 1
        assert count >= 100


def test_shapley_matches_permutation_enumeration():
    with Budget(60):
        count = 0
        for g in random_games([2, 3, 4, 5, 6], 6, seed0=80_000):
            count += 1
            for mask in range(1, g.num_coalitions):
                phi = shapley(g, mask)
                assert phi == shapley_by_permutations(g, mask), (g, bin(mask))
                assert sum(phi.values()) == g.value(mask)
        assert count >= 30
