import json
from fractions import Fraction

import pytest
from click.testing import CliRunner

from fairshare import (
    FLOAT,
    Game,
    GameDocument,
    MatrixDocument,
    align_matrix_labels,
    coalition_key,
    default_labels,
    format_scalar,
    members,
    parse_game,
    parse_matrix,
    parse_rho,
    random_monotone_game,
    scaled_rho_shapley,
    serialize_game,
    serialize_matrix,
    solve,
)
from fairshare.cli import main
from reference import (
    eager_compare_mechanisms,
    echo_efficient_players,
    fraction_potential,
    phi_from_potential,
    potential_scaled_rho_shapley,
)


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def c3_path(tmp_path, runner):
    path = tmp_path / "c3.json"
    result = runner.invoke(main, ["gen", "--family", "counterexample3", "-o", str(path)])
    assert result.exit_code == 0, result.output
    return path


@pytest.fixture()
def ex1_path(tmp_path, runner):
    path = tmp_path / "ex1.json"
    result = runner.invoke(main, ["gen", "--family", "example1", "-o", str(path)])
    assert result.exit_code == 0, result.output
    return path


class TestGen:
    def test_families_round_trip_through_files(self, runner, tmp_path):
        cases = [
            ["--family", "additive", "--weights", "1,2,3"],
            ["--family", "coverage", "--sets", "a,b;b,c", "--element-weights",
             "a=1,b=2,c=3"],
            ["--family", "example1"],
            ["--family", "counterexample3"],
            ["--family", "random-monotone", "--players", "4", "--seed", "7"],
            ["--family", "random-monotone", "--players", "3", "--seed", "1",
             "--max-increment", "5/2"],
        ]
        for extra in cases:
            result = runner.invoke(main, ["gen", *extra])
            assert result.exit_code == 0, (extra, result.output)
            doc = parse_game(result.output)
            assert doc.game.n_players >= 2

    def test_gen_is_byte_stable(self, runner):
        args = ["gen", "--family", "random-monotone", "--players", "5", "--seed", "3"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.output == second.output
        different = runner.invoke(main, ["gen", "--family", "random-monotone",
                                         "--players", "5", "--seed", "4"])
        assert different.output != first.output

    def test_gen_output_is_canonical(self, runner, ex1_path):
        text = ex1_path.read_text()
        assert serialize_game(parse_game(text)) == text

    def test_missing_family_params_exit_1(self, runner):
        for args in (
            ["gen", "--family", "additive"],
            ["gen", "--family", "coverage", "--sets", "a;b"],
            ["gen", "--family", "random-monotone"],
            ["gen", "--family", "bogus"],
            ["gen", "--family", "additive", "--weights", "1,x"],
        ):
            result = runner.invoke(main, args)
            assert result.exit_code == 1, args
            assert "error:" in result.stderr

    @pytest.mark.parametrize(
        "args",
        [
            ["--family", "random-monotone", "--players", "2", "--max-increment", "1e5000"],
            ["--family", "additive", "--weights", "1e5000,1"],
        ],
        ids=["max-increment", "weights"],
    )
    def test_number_past_the_digit_limit_exits_1(self, runner, args):
        result = runner.invoke(main, ["gen", *args])
        assert result.exit_code == 1
        assert result.stderr == f"error: bad number '1e5000' in {args[-2]}\n"

    def test_generator_player_limit_exits_3(self, runner):
        for args in (
            ["gen", "--family", "random-monotone", "--players", "21"],
            ["gen", "--family", "additive", "--weights", ",".join(["1"] * 21)],
            ["gen", "--family", "coverage", "--sets", ";".join(["a"] * 21),
             "--element-weights", "a=1"],
        ):
            result = runner.invoke(main, args)
            assert result.exit_code == 3, args
            assert "21 players exceed MAX_PLAYERS = 20" in result.stderr
            assert result.stdout == ""

    def test_generator_player_count_below_one_exits_1(self, runner):
        result = runner.invoke(main, ["gen", "--family", "random-monotone", "--players", "0"])
        assert result.exit_code == 1
        assert "n_players must be at least 1" in result.stderr


class TestSolve:
    def test_json_output_matches_library_exactly(self, runner, ex1_path):
        result = runner.invoke(main, ["solve", str(ex1_path), "--format", "json"])
        assert result.exit_code == 0
        doc = parse_game(ex1_path.read_text())
        expected_matrix, expected_efficient = solve(doc.game)
        parsed = parse_matrix(result.output)
        assert parsed.matrix == expected_matrix
        assert parsed.efficient_player == expected_efficient

    def test_table_output_shows_efficient_players(self, runner, c3_path):
        result = runner.invoke(main, ["solve", str(c3_path)])
        assert result.exit_code == 0
        assert "efficient player per coalition:" in result.output
        assert "{1,2,3} -> 3" in result.output

    @pytest.mark.parametrize(
        "labels,scale",
        [
            (("b", "a", "10", "2", 'say "hi"', "x y", "caf\u00e9"), Fraction(7, 3)),
            (("z", "y", "x", "w", "v"), 10.0),
            (("solo",), Fraction(1)),
        ],
    )
    def test_efficient_players_print_as_the_former_listing(
        self, runner, tmp_path, capsys, labels, scale
    ):
        game = random_monotone_game(len(labels), 4, scale)
        doc = GameDocument(game, labels, "rational" if game.exact else FLOAT)
        path = tmp_path / "game.json"
        path.write_text(serialize_game(doc))
        matrix, efficient = solve(game)
        capsys.readouterr()
        echo_efficient_players(doc, efficient)
        listing = capsys.readouterr().out
        table = serialize_matrix(MatrixDocument(matrix, labels, doc.number_mode, efficient))
        result = runner.invoke(main, ["solve", str(path)])
        assert result.exit_code == 0, result.output
        assert result.stdout == table + "\n" + listing
        out = tmp_path / "rewards.csv"
        result = runner.invoke(main, ["solve", str(path), "--format", "long", "-o", str(out)])
        assert result.exit_code == 0, result.output
        assert result.stdout == f"wrote reward table to {out}\n" + listing

    def test_write_to_file(self, runner, c3_path, tmp_path):
        out = tmp_path / "rewards.csv"
        result = runner.invoke(main, ["solve", str(c3_path), "-o", str(out)])
        assert result.exit_code == 0
        assert f"wrote reward table to {out}" in result.output
        parsed = parse_matrix(out.read_text())
        assert parsed.matrix == solve(parse_game(c3_path.read_text()).game).matrix

    def test_missing_file_exits_1(self, runner, tmp_path):
        result = runner.invoke(main, ["solve", str(tmp_path / "absent.json")])
        assert result.exit_code == 1
        assert "error:" in result.stderr

    def test_malformed_game_exits_1(self, runner, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text('{"players": 2, "values": {"1": 1, "2": 2}}')
        result = runner.invoke(main, ["solve", str(path)])
        assert result.exit_code == 1
        assert "missing coalition value '1,2'" in result.stderr

    @pytest.mark.parametrize("count", [21, 1000])
    def test_too_many_players_exits_3(self, runner, tmp_path, count):
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"players": count, "values": {}}))
        result = runner.invoke(main, ["solve", str(path)])
        assert result.exit_code == 3
        assert f"error: {count} players exceed MAX_PLAYERS = 20" in result.stderr

    def test_nonmonotone_game_exits_1_with_labels(self, runner, tmp_path):
        path = tmp_path / "drop.json"
        path.write_text('{"players": 2, "values": {"1": 5, "2": 0, "1,2": 3}}')
        result = runner.invoke(main, ["solve", str(path)])
        assert result.exit_code == 1
        assert "{1} is worth more than its superset {1,2}" in result.stderr

    def test_float_overflow_exits_1_naming_the_coalition(self, runner, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(
            '{"players": 2, "number_mode": "float", '
            '"values": {"1": 1e400, "2": 0, "1,2": 1e400}}'
        )
        result = runner.invoke(main, ["solve", str(path)])
        assert result.exit_code == 1
        assert result.stderr == "error: bad number for coalition '1': 1e400\n"

    @pytest.mark.parametrize("raw", ["1e5000", '"1e5000"', "7" * 5000])
    def test_number_past_the_digit_limit_exits_1(self, runner, tmp_path, raw):
        path = tmp_path / "vast.json"
        path.write_text(f'{{"players": 2, "values": {{"1": 1, "2": 1, "1,2": {raw}}}}}')
        result = runner.invoke(main, ["solve", str(path), "--format", "json"])
        assert result.exit_code == 1
        assert result.stderr.startswith("error: bad number"), result.stderr

    def test_bad_format_exits_1(self, runner, c3_path):
        result = runner.invoke(main, ["solve", str(c3_path), "--format", "yaml"])
        assert result.exit_code == 1
        assert "unknown format" in result.stderr

    def test_unknown_flag_is_a_usage_error(self, runner, c3_path):
        # structural CLI misuse stays at click's exit code 2
        result = runner.invoke(main, ["solve", str(c3_path), "--bogus"])
        assert result.exit_code == 2


class TestCheck:
    def test_solver_output_passes(self, runner, ex1_path):
        result = runner.invoke(main, ["check", str(ex1_path)])
        assert result.exit_code == 0
        assert "R1 nonnegativity: pass" in result.output
        assert "F1 useless player: pass (vacuous)" in result.output
        assert "F5 balanced reciprocity: pass" in result.output

    def test_scaled_matrix_fails_reciprocity_with_witness(
        self, runner, c3_path, tmp_path
    ):
        doc = parse_game(c3_path.read_text())
        scaled = scaled_rho_shapley(doc.game, 1).matrix
        mpath = tmp_path / "scaled.json"
        mpath.write_text(
            serialize_matrix(MatrixDocument(scaled, doc.labels, "rational", None), "json")
        )
        result = runner.invoke(main, ["check", str(c3_path), "--matrix", str(mpath)])
        assert result.exit_code == 2
        assert "F5 balanced reciprocity: fail" in result.output
        assert "coalition={1,2}" in result.output
        assert "gain_i=1/2" in result.output and "gain_j=1" in result.output

    def test_matrix_with_permuted_labels_is_aligned(self, runner, tmp_path):
        game_text = json.dumps(
            {
                "players": ["a", "b"],
                "values": {"a": 1, "b": 2, "a,b": 3},
            }
        )
        gpath = tmp_path / "game.json"
        gpath.write_text(game_text)
        doc = parse_game(game_text)
        matrix = solve(doc.game).matrix
        flipped = align_matrix_labels(
            MatrixDocument(matrix, doc.labels, "rational", None), ("b", "a")
        )
        mpath = tmp_path / "flipped.json"
        mpath.write_text(serialize_matrix(flipped, "json"))
        result = runner.invoke(main, ["check", str(gpath), "--matrix", str(mpath)])
        assert result.exit_code == 0, result.output

    @pytest.mark.parametrize("form", ["table", "long"])
    def test_csv_of_a_label_with_an_inner_cr_reads_back(self, runner, tmp_path, form):
        gpath = tmp_path / "game.json"
        labels = ("c\rd", "x")
        gpath.write_text(serialize_game(GameDocument(Game(2, [0, 1, 2, 4]), labels, "rational")))
        mpath = tmp_path / "table.csv"
        result = runner.invoke(main, ["solve", str(gpath), "-o", str(mpath), "--format", form])
        assert result.exit_code == 0, result.output
        result = runner.invoke(main, ["check", str(gpath), "--matrix", str(mpath)])
        assert result.exit_code == 0, result.output
        assert "F5 balanced reciprocity: pass" in result.output

    def test_tampered_matrix_fails_with_exit_2(self, runner, c3_path, tmp_path):
        doc = parse_game(c3_path.read_text())
        matrix = solve(doc.game).matrix.replace_entry(0, 0b011, Fraction(99))
        mpath = tmp_path / "bad.csv"
        mpath.write_text(
            serialize_matrix(MatrixDocument(matrix, doc.labels, "rational", None), "table")
        )
        result = runner.invoke(main, ["check", str(c3_path), "--matrix", str(mpath)])
        assert result.exit_code == 2
        assert "R2 feasibility: fail" in result.output

    def test_matrix_past_the_denominator_cap(self, runner, ex1_path, tmp_path):
        # 17 entries each lowered by 1/p for a distinct 17-bit prime p: the
        # table's common denominator passes 256 bits, so it is checked on
        # its Fractions, and only balanced reciprocity breaks
        doc = parse_game(ex1_path.read_text())
        matrix, efficient = solve(doc.game)
        primes = (p for p in range(2**16, 2**17) if all(p % q for q in range(2, 363)))
        for mask, k in sorted(efficient.items()):
            for i in members(mask):
                if i != k:
                    low = matrix.reward(i, mask) - Fraction(1, next(primes))
                    matrix = matrix.replace_entry(i, mask, low)
        text = serialize_matrix(MatrixDocument(matrix, doc.labels, "rational", None), "table")
        assert parse_matrix(text).matrix._denominator is None
        mpath = tmp_path / "primes.csv"
        mpath.write_text(text)
        result = runner.invoke(main, ["check", str(ex1_path), "--matrix", str(mpath)])
        assert result.exit_code == 2
        assert result.output == (
            "R1 nonnegativity: pass\n"
            "R2 feasibility: pass\n"
            "R3 weak efficiency: pass\n"
            "R4 individual rationality: pass\n"
            "R5 non-participation: pass\n"
            "F1 useless player: pass (vacuous)\n"
            "F2 symmetry: pass (vacuous)\n"
            "F3 strict desirability: pass\n"
            "F5 balanced reciprocity: fail [coalition={1,2}, player_i=1, player_j=2, "
            "gain_i=65536/65537, gain_j=1]\n"
        )

    @pytest.mark.parametrize("count", [21, 1000])
    def test_matrix_with_too_many_players_exits_3(self, runner, c3_path, tmp_path, count):
        mpath = tmp_path / "wide.json"
        mpath.write_text(json.dumps({"players": count, "rewards": {}}))
        result = runner.invoke(main, ["check", str(c3_path), "--matrix", str(mpath)])
        assert result.exit_code == 3
        assert f"error: {count} players exceed MAX_PLAYERS = 20" in result.stderr

    @pytest.mark.parametrize("header", ["player,,1,2,3,\"1,2\"", "player,coalition,reward"])
    def test_matrix_without_player_rows_exits_1(self, runner, c3_path, tmp_path, header):
        mpath = tmp_path / "empty.csv"
        mpath.write_text(header + "\n")
        result = runner.invoke(main, ["check", str(c3_path), "--matrix", str(mpath)])
        assert result.exit_code == 1
        assert result.stderr == "error: reward table has no player rows\n"

    def test_csv_the_csv_module_rejects_exits_1(self, runner, c3_path, tmp_path):
        mpath = tmp_path / "huge.csv"
        mpath.write_text("player,coalition,reward\n1,," + "1" * 200_000 + "\n")
        result = runner.invoke(main, ["check", str(c3_path), "--matrix", str(mpath)])
        assert result.exit_code == 1
        assert result.stderr == "error: bad CSV: field larger than field limit (131072)\n"

    def test_bad_cell_exits_1_naming_player_and_coalition(self, runner, c3_path, tmp_path):
        mpath = tmp_path / "bad.csv"
        result = runner.invoke(main, ["solve", str(c3_path), "-o", str(mpath)])
        assert result.exit_code == 0, result.output
        rows = mpath.read_text().splitlines()
        rows[2] = rows[2].rsplit(",", 1)[0] + ",x"
        mpath.write_text("\n".join(rows) + "\n")
        result = runner.invoke(main, ["check", str(c3_path), "--matrix", str(mpath)])
        assert result.exit_code == 1
        assert result.stderr == "error: bad number for player '2', coalition '1,2,3': 'x'\n"

    def test_efficient_player_spelled_twice_exits_1(self, runner, ex1_path, tmp_path):
        mpath = tmp_path / "twice.json"
        result = runner.invoke(main, ["solve", str(ex1_path), "--format", "json", "-o", str(mpath)])
        assert result.exit_code == 0, result.output
        doc = json.loads(mpath.read_text())
        doc["efficient_player"]["2,1"] = "2"
        mpath.write_text(json.dumps(doc))
        result = runner.invoke(main, ["check", str(ex1_path), "--matrix", str(mpath)])
        assert result.exit_code == 1
        assert result.stderr == "error: duplicate efficient player for coalition '1,2'\n"

    def test_tolerance_flag(self, runner, tmp_path):
        game_text = json.dumps(
            {
                "players": 2,
                "number_mode": "float",
                "values": {"1": 1.0, "2": 2.0, "1,2": 3.5},
            }
        )
        gpath = tmp_path / "float.json"
        gpath.write_text(game_text)
        doc = parse_game(gpath.read_text())
        matrix = solve(doc.game).matrix
        nudged = matrix.replace_entry(0, 0b11, matrix.reward(0, 0b11) + 1e-8)
        mpath = tmp_path / "nudged.csv"
        mpath.write_text(
            serialize_matrix(MatrixDocument(nudged, doc.labels, "float", None), "table")
        )
        strict = runner.invoke(main, ["check", str(gpath), "--matrix", str(mpath)])
        assert strict.exit_code == 2
        loose = runner.invoke(
            main, ["check", str(gpath), "--matrix", str(mpath), "--tolerance", "1e-6"]
        )
        assert loose.exit_code == 0, loose.output

    def test_exact_tolerance_on_rational_game(self, runner, ex1_path):
        result = runner.invoke(main, ["check", str(ex1_path), "--tolerance", "exact"])
        assert result.exit_code == 0

    def test_bad_tolerance_exits_1(self, runner, ex1_path):
        result = runner.invoke(main, ["check", str(ex1_path), "--tolerance", "warm"])
        assert result.exit_code == 1
        assert "bad tolerance" in result.stderr
        for text in ("nan", "inf", "-inf"):
            result = runner.invoke(main, ["check", str(ex1_path), "--tolerance", text])
            assert result.exit_code == 1, text
            assert "epsilon must be positive and finite" in result.stderr, text


class TestShapley:
    def test_values_printed_per_coalition(self, runner, ex1_path):
        result = runner.invoke(main, ["shapley", str(ex1_path)])
        assert result.exit_code == 0
        assert "{1,3}: 1=2, 3=2" in result.output
        assert "{1,2,3,4}: 1=5/4, 2=19/12, 3=23/12, 4=17/4" in result.output

    def test_rho_table(self, runner, c3_path):
        result = runner.invoke(main, ["shapley", str(c3_path), "--rho", "1"])
        assert result.exit_code == 0
        assert "scaled reward table (rho = 1):" in result.output
        assert "10/3" in result.output

    def test_emit_matrix_round_trips(self, runner, c3_path, tmp_path):
        out = tmp_path / "scaled.json"
        result = runner.invoke(
            main,
            ["shapley", str(c3_path), "--rho", "1", "--emit-matrix", str(out),
             "--format", "json"],
        )
        assert result.exit_code == 0
        doc = parse_game(c3_path.read_text())
        expected = scaled_rho_shapley(doc.game, 1).matrix
        assert parse_matrix(out.read_text()).matrix == expected

    def test_emit_matrix_without_rho_exits_1(self, runner, c3_path, tmp_path):
        result = runner.invoke(
            main, ["shapley", str(c3_path), "--emit-matrix", str(tmp_path / "x.csv")]
        )
        assert result.exit_code == 1
        assert "--emit-matrix requires --rho" in result.stderr
        assert result.stdout == ""

    def test_rho_out_of_range_exits_1(self, runner, c3_path):
        for rho in ("0", "1.5", "-1", "2"):
            result = runner.invoke(main, ["shapley", str(c3_path), "--rho", rho])
            assert result.exit_code == 1, rho
            assert result.stdout == "", rho
        result = runner.invoke(main, ["shapley", str(c3_path), "--rho", "elephants"])
        assert result.exit_code == 1
        assert "bad rho" in result.stderr
        assert result.stdout == ""


class TestCompare:
    def test_rho_one_report(self, runner, c3_path):
        result = runner.invoke(main, ["compare", str(c3_path), "--rho", "1"])
        assert result.exit_code == 0
        assert "unbalanced (coalition, pair) triples: 5 of 6" in result.output
        assert "max reciprocity residual: 1" in result.output
        assert "at coalition {1,2,3}, pair (2, 3)" in result.output

    def test_symbolic_rho(self, runner, c3_path):
        result = runner.invoke(main, ["compare", str(c3_path), "--rho", "log2(3)-1"])
        assert result.exit_code == 0
        assert "rho: log2(3)-1" in result.output

    def test_rho_is_required(self, runner, c3_path):
        result = runner.invoke(main, ["compare", str(c3_path)])
        assert result.exit_code == 2  # structural usage error


class TestPastTheFloatRange:
    """An exact game whose values pass the float range keeps its exact
    report at rho = 1, and any other exponent is an input error."""

    @pytest.fixture()
    def huge_path(self, tmp_path, runner):
        path = tmp_path / "huge.json"
        args = ["gen", "--family", "additive", "--weights", "1e400,2e400,3e400", "-o", str(path)]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        return path

    @pytest.mark.parametrize("command", ["shapley", "compare"])
    def test_float_exponent_exits_1(self, runner, huge_path, command):
        result = runner.invoke(main, [command, str(huge_path), "--rho", "1/2"])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == (
            "error: rho = 1/2 needs float arithmetic, "
            "but this game's values pass the float range\n"
        )

    def test_rho_one_report_stays_exact(self, runner, huge_path):
        result = runner.invoke(main, ["compare", str(huge_path), "--rho", "1"])
        assert result.exit_code == 0, result.output
        assert result.stdout.splitlines() == [
            "rho: 1",
            "unbalanced (coalition, pair) triples: 5 of 6",
            f"max reciprocity residual: {10**400}",
            "  at coalition {1,2,3}, pair (2, 3)",
            f"max entrywise difference from balanced table: {10**400}",
        ]


def _braced(labels, mask):
    return "{" + coalition_key(labels, mask) + "}"


def reference_compare_output(doc: GameDocument, rho_text: str) -> str:
    """What ``fairshare compare`` printed when it read the eager report."""
    report = eager_compare_mechanisms(doc.game, parse_rho(rho_text))
    lines = [
        f"rho: {rho_text}",
        f"unbalanced (coalition, pair) triples: {report.unbalanced} of {len(report.residuals)}",
        f"max reciprocity residual: {format_scalar(report.max_residual)}",
    ]
    if report.max_residual_witness is not None and report.max_residual > 0:
        mask, i, j = report.max_residual_witness
        lines.append(
            f"  at coalition {_braced(doc.labels, mask)}, pair ({doc.labels[i]}, {doc.labels[j]})"
        )
    lines.append(
        f"max entrywise difference from balanced table: {format_scalar(report.max_abs_diff)}"
    )
    return "".join(line + "\n" for line in lines)


def reference_shapley_output(doc: GameDocument, rho_text: str) -> str:
    """What ``fairshare shapley --rho`` printed off the ``Fraction`` potential."""
    game = doc.game
    lines = ["shapley values per coalition:"]
    q = fraction_potential(game.values, game.grand_coalition)
    for mask in sorted(range(1, game.num_coalitions), key=lambda m: (m.bit_count(), doc.key(m))):
        phi = phi_from_potential(q, mask)
        inner = ", ".join(f"{doc.labels[i]}={format_scalar(x)}" for i, x in phi.items())
        lines.append(f"  {_braced(doc.labels, mask)}: {inner}")
    scaled = potential_scaled_rho_shapley(game, parse_rho(rho_text))
    mode = doc.number_mode if scaled.exact else FLOAT
    table = serialize_matrix(MatrixDocument(scaled, doc.labels, mode, None), "table")
    lines += ["", f"scaled reward table (rho = {rho_text}):"]
    return "".join(line + "\n" for line in lines) + table


class TestByteIdentityAtScale:
    """On a 10-player game, exact and float, ``compare`` and ``shapley``
    print the bytes the ``Fraction`` references give."""

    @pytest.fixture(params=["exact", "float"])
    def game_path(self, request, tmp_path):
        if request.param == "exact":
            text = CliRunner().invoke(
                main, ["gen", "--family", "random-monotone", "--players", "10", "--seed", "5"]
            ).stdout
        else:
            game = random_monotone_game(10, 5, 10.0)
            text = serialize_game(GameDocument(game, default_labels(10), FLOAT))
        path = tmp_path / "game.json"
        path.write_text(text)
        return path

    @pytest.mark.parametrize("rho_text", ["1", "1/2"])
    def test_compare(self, runner, game_path, rho_text):
        result = runner.invoke(main, ["compare", str(game_path), "--rho", rho_text])
        assert result.exit_code == 0, result.output
        doc = parse_game(game_path.read_text())
        assert result.stdout == reference_compare_output(doc, rho_text)

    def test_shapley(self, runner, game_path):
        result = runner.invoke(main, ["shapley", str(game_path), "--rho", "1"])
        assert result.exit_code == 0, result.output
        doc = parse_game(game_path.read_text())
        assert result.stdout == reference_shapley_output(doc, "1")


class TestVerify:
    def test_level_depth(self, runner, ex1_path):
        result = runner.invoke(main, ["verify", str(ex1_path)])
        assert result.exit_code == 0
        assert "matches solver: yes" in result.output
        assert "candidate rows unique: yes" in result.output

    def test_level_depth_accepts_float_rounding(self, runner, tmp_path):
        # two feasible candidates of one coalition give rows that differ by
        # rounding only, and the oracle's lowest-index row differs from
        # solve's table by rounding only
        path = tmp_path / "rounding.json"
        game = random_monotone_game(4, 11, 1.0 / 3)
        path.write_text(serialize_game(GameDocument(game, ("1", "2", "3", "4"), FLOAT)))
        result = runner.invoke(main, ["verify", str(path)])
        assert result.exit_code == 0, result.output
        assert "candidate rows unique: yes" in result.output
        assert "matches solver: yes" in result.output

    def test_global_depth(self, runner, c3_path):
        result = runner.invoke(main, ["verify", str(c3_path), "--depth", "global"])
        assert result.exit_code == 0
        assert "surviving matrices: 1" in result.output

    @pytest.mark.parametrize("k", [2, 5])
    def test_global_depth_accepts_float_rounding_twins(self, runner, tmp_path, k):
        path = tmp_path / "twins.json"
        game = random_monotone_game(3, 0, 10.0**k / 3)
        path.write_text(serialize_game(GameDocument(game, ("1", "2", "3"), FLOAT)))
        result = runner.invoke(main, ["verify", str(path), "--depth", "global"])
        assert result.exit_code == 0, result.output
        assert "surviving matrices: 1" in result.output

    def test_global_depth_all_ties_worst_case(self, runner, tmp_path):
        path = tmp_path / "zeros.json"
        game = Game(4, [0] * 16)
        path.write_text(serialize_game(GameDocument(game, ("1", "2", "3", "4"), "rational")))
        result = runner.invoke(main, ["verify", str(path), "--depth", "global"])
        assert result.exit_code == 0, result.output
        assert "surviving matrices: 1" in result.output

    def test_global_depth_size_limit_exits_3(self, runner, tmp_path):
        path = tmp_path / "g5.json"
        gen = CliRunner().invoke(
            main,
            ["gen", "--family", "random-monotone", "--players", "5", "--seed", "1",
             "-o", str(path)],
        )
        assert gen.exit_code == 0
        result = runner.invoke(main, ["verify", str(path), "--depth", "global"])
        assert result.exit_code == 3
        assert "error:" in result.stderr

    def test_bad_depth_exits_1(self, runner, c3_path):
        result = runner.invoke(main, ["verify", str(c3_path), "--depth", "sideways"])
        assert result.exit_code == 1


class TestPipelines:
    def test_gen_solve_check_verify_chain(self, runner, tmp_path):
        gpath = tmp_path / "g.json"
        mpath = tmp_path / "m.json"
        assert runner.invoke(
            main,
            ["gen", "--family", "random-monotone", "--players", "4", "--seed", "11",
             "-o", str(gpath)],
        ).exit_code == 0
        assert runner.invoke(
            main, ["solve", str(gpath), "--format", "json", "-o", str(mpath)]
        ).exit_code == 0
        assert runner.invoke(
            main, ["check", str(gpath), "--matrix", str(mpath)]
        ).exit_code == 0
        assert runner.invoke(main, ["verify", str(gpath)]).exit_code == 0
        assert runner.invoke(
            main, ["verify", str(gpath), "--depth", "global"]
        ).exit_code == 0

    def test_solve_output_identical_across_runs(self, runner, ex1_path):
        a = runner.invoke(main, ["solve", str(ex1_path), "--format", "json"])
        b = runner.invoke(main, ["solve", str(ex1_path), "--format", "json"])
        assert a.output == b.output
