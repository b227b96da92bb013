"""Command-line interface.

Subcommands: solve, check, shapley, compare, gen, verify. Games are read
from JSON files (see formats module docs); reward tables are written as
wide CSV, long CSV, or JSON.

Exit codes: 0 success / all checks pass, 1 input error, 2 axiom violation
(or a failed verification), 3 size limit exceeded.
"""

from __future__ import annotations

import functools
import math
import sys
from fractions import Fraction
from pathlib import Path

import click

from .axioms import AXIOM_NAMES, Tolerance, Verdict, check_all
from .baselines import (
    _potential,
    _scaled_matrix,
    _scaled_table,
    _shapley_values,
    compare_mechanisms,
)
from .errors import FairshareError, FileFormatError, SizeLimitExceededError
from .formats import (
    FLOAT,
    GameDocument,
    MatrixDocument,
    _exact_ratio,
    _keys_in_order,
    _serialize_matrix,
    align_matrix_labels,
    coalition_key,
    default_labels,
    format_scalar,
    parse_game,
    parse_matrix,
    parse_rho,
    serialize_game,
    serialize_matrix,
)
from .games import make_family
from .oracle import agree_up_to_rounding, brute_force_solve, global_enumeration_solve
from .solver import solve

EXIT_INPUT_ERROR = 1
EXIT_VIOLATION = 2
EXIT_SIZE_LIMIT = 3


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except SizeLimitExceededError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_SIZE_LIMIT)
        except (FairshareError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_INPUT_ERROR)

    return wrapper


def _load_game(path: str) -> GameDocument:
    return parse_game(Path(path).read_text())


def _braced(labels: tuple[str, ...], mask: int) -> str:
    return "{" + (coalition_key(labels, mask) or "") + "}"


def _render_witness(witness: dict, labels: tuple[str, ...]) -> str:
    player_keys = {"player", "player_i", "player_j", "useless_player"}
    coalition_keys = {"coalition", "strict_witness_subset"}
    parts = []
    for key, val in witness.items():
        if key in coalition_keys:
            rendered = _braced(labels, val)
        elif key in player_keys:
            rendered = labels[val]
        elif key == "member_rewards":
            inner = ", ".join(
                f"{labels[i]}={format_scalar(x)}" for i, x in val.items()
            )
            rendered = "{" + inner + "}"
        elif isinstance(val, (Fraction, float, int)):
            rendered = format_scalar(val)
        else:
            rendered = str(val)
        parts.append(f"{key}={rendered}")
    return ", ".join(parts)


def _echo_efficient_players(
    doc: GameDocument, efficient: dict[int, int], keys: list[str], order: list[int]
) -> None:
    chosen = list(filter(efficient.__contains__, order))
    names = map(doc.labels.__getitem__, map(efficient.__getitem__, chosen))
    lines = map("  {%s} -> %s\n".__mod__, zip(map(keys.__getitem__, chosen), names))
    click.echo("efficient player per coalition:\n" + "".join(lines), nl=False)


def _parse_tolerance(text: str | None) -> Tolerance | None:
    if text is None:
        return None
    if text.strip().lower() == "exact":
        return Tolerance.exact()
    try:
        eps = float(text)
    except ValueError:
        raise FileFormatError(
            f"bad tolerance {text!r}: use 'exact' or a positive number"
        ) from None
    return Tolerance.absolute(eps)


@click.group()
def main():
    """Fair reward allocation for cooperative games with replicable rewards."""


@main.command(name="solve")
@click.argument("game_path", type=click.Path(dir_okay=False))
@click.option("-o", "--out", "out_path", type=click.Path(dir_okay=False), default=None)
@click.option("--format", "form", default="table", help="table, long, or json")
@_guarded
def solve_cmd(game_path: str, out_path: str | None, form: str):
    """Compute the full reward table for a game."""
    doc = _load_game(game_path)
    matrix, efficient = solve(doc.game)
    out_doc = MatrixDocument(matrix, doc.labels, doc.number_mode, efficient)
    # the table and the efficient-player listing share one key order
    keys, order = _keys_in_order(doc.labels)
    rendered = _serialize_matrix(out_doc, form, keys, order)
    if out_path is None:
        click.echo(rendered, nl=False)
        if form != "json":
            click.echo()
            _echo_efficient_players(doc, efficient, keys, order)
    else:
        Path(out_path).write_text(rendered)
        click.echo(f"wrote reward table to {out_path}")
        if form != "json":
            _echo_efficient_players(doc, efficient, keys, order)


@main.command(name="check")
@click.argument("game_path", type=click.Path(dir_okay=False))
@click.option(
    "--matrix", "matrix_path", type=click.Path(dir_okay=False), default=None
)
@click.option("--tolerance", "tolerance_text", help="'exact' or an absolute epsilon "
              "[default: exact for rational inputs, else 8*n*2^-52*v(C) for coalition C]")
@_guarded
def check_cmd(game_path: str, matrix_path: str | None, tolerance_text: str | None):
    """Check a reward table against every axiom (solves the game if no table given)."""
    doc = _load_game(game_path)
    if matrix_path is None:
        matrix = solve(doc.game).matrix
    else:
        # read as written: a quoted CSV label may hold a "\r" of its own
        with open(matrix_path, newline="") as f:
            mdoc = align_matrix_labels(parse_matrix(f.read()), doc.labels)
        matrix = mdoc.matrix
    tol = _parse_tolerance(tolerance_text)
    report = check_all(doc.game, matrix, tol)
    for result in report:
        line = f"{result.axiom} {AXIOM_NAMES[result.axiom]}: {result.verdict.value}"
        if result.verdict is Verdict.FAIL and result.witness:
            line += f" [{_render_witness(result.witness, doc.labels)}]"
        click.echo(line)
    if not report.all_pass:
        sys.exit(EXIT_VIOLATION)


@main.command(name="shapley")
@click.argument("game_path", type=click.Path(dir_okay=False))
@click.option("--rho", "rho_text", default=None, help="scaling exponent in (0,1]")
@click.option(
    "--emit-matrix", "emit_path", type=click.Path(dir_okay=False), default=None
)
@click.option("--format", "form", default="table", help="table, long, or json")
@_guarded
def shapley_cmd(game_path: str, rho_text: str | None, emit_path: str | None, form: str):
    """Print per-coalition Shapley values; with --rho, the scaled reward table."""
    doc = _load_game(game_path)
    game = doc.game
    # one potential serves the scaled table and every coalition's listing;
    # a shapley() call per coalition would redo each down-set
    potential = _potential(game.values, game.grand_coalition)
    # every input error surfaces before the listing is printed
    rendered = None
    if rho_text is not None:
        matrix = _scaled_matrix(game, _scaled_table(game, parse_rho(rho_text), potential))
        mode = FLOAT if not matrix.exact else doc.number_mode
        rendered = serialize_matrix(MatrixDocument(matrix, doc.labels, mode, None), form)
    elif emit_path is not None:
        raise FileFormatError("--emit-matrix requires --rho")
    click.echo("shapley values per coalition:")
    keys, order = _keys_in_order(doc.labels)
    for mask in order[1:]:
        phi = _shapley_values(*potential, mask)
        inner = ", ".join(f"{doc.labels[i]}={format_scalar(x)}" for i, x in phi.items())
        click.echo(f"  {{{keys[mask]}}}: {inner}")
    if rendered is None:
        return
    click.echo(f"\nscaled reward table (rho = {rho_text.strip()}):")
    click.echo(rendered, nl=False)
    if emit_path is not None:
        Path(emit_path).write_text(rendered)
        click.echo(f"wrote scaled reward table to {emit_path}")


@main.command(name="compare")
@click.argument("game_path", type=click.Path(dir_okay=False))
@click.option("--rho", "rho_text", required=True, help="scaling exponent in (0,1]")
@_guarded
def compare_cmd(game_path: str, rho_text: str):
    """Measure how scaled Shapley rewards diverge from the balanced allocation."""
    doc = _load_game(game_path)
    rho = parse_rho(rho_text)
    report = compare_mechanisms(doc.game, rho)
    n = doc.game.n_players
    pairs = math.comb(n, 2) * (1 << n) // 4
    click.echo(f"rho: {rho_text.strip()}")
    click.echo(f"unbalanced (coalition, pair) triples: {report.unbalanced} of {pairs}")
    click.echo(f"max reciprocity residual: {format_scalar(report.max_residual)}")
    if report.max_residual_witness is not None and report.max_residual > 0:
        mask, i, j = report.max_residual_witness
        click.echo(
            f"  at coalition {_braced(doc.labels, mask)}, "
            f"pair ({doc.labels[i]}, {doc.labels[j]})"
        )
    click.echo(
        f"max entrywise difference from balanced table: {format_scalar(report.max_abs_diff)}"
    )


@main.command(name="gen")
@click.option("--family", required=True, help="additive, coverage, example1, counterexample3, or random-monotone")
@click.option("--players", type=int, default=None, help="player count (random-monotone)")
@click.option("--seed", type=int, default=0, help="RNG seed (random-monotone)")
@click.option("--max-increment", default="10", help="largest per-coalition increment")
@click.option("--weights", default=None, help="comma-separated weights (additive)")
@click.option(
    "--sets", default=None, help="semicolon-separated element lists, one per player (coverage)"
)
@click.option(
    "--element-weights", default=None, help="name=weight pairs, comma-separated (coverage)"
)
@click.option("-o", "--out", "out_path", type=click.Path(dir_okay=False), default=None)
@_guarded
def gen_cmd(
    family: str,
    players: int | None,
    seed: int,
    max_increment: str,
    weights: str | None,
    sets: str | None,
    element_weights: str | None,
    out_path: str | None,
):
    """Generate a game file from a named family."""
    params: dict = {}
    if family == "additive":
        if weights is None:
            raise FileFormatError("additive needs --weights")
        params["weights"] = [_parse_fraction(tok, "--weights") for tok in weights.split(",")]
    elif family == "coverage":
        if sets is None or element_weights is None:
            raise FileFormatError("coverage needs --sets and --element-weights")
        params["sets"] = [
            [e.strip() for e in part.split(",") if e.strip()] for part in sets.split(";")
        ]
        parsed = {}
        for pair in element_weights.split(","):
            name, _, raw = pair.partition("=")
            if not name.strip() or not raw:
                raise FileFormatError(f"bad --element-weights entry {pair!r}")
            parsed[name.strip()] = _parse_fraction(raw, "--element-weights")
        params["element_weights"] = parsed
    elif family == "random-monotone":
        if players is None:
            raise FileFormatError("random-monotone needs --players")
        params = {
            "players": players,
            "seed": seed,
            "max_increment": _parse_fraction(max_increment, "--max-increment"),
        }
    game = make_family(family, **params)
    doc = GameDocument(game, default_labels(game.n_players), "rational" if game.exact else FLOAT)
    rendered = serialize_game(doc)
    if out_path is None:
        click.echo(rendered, nl=False)
    else:
        Path(out_path).write_text(rendered)
        click.echo(f"wrote game to {out_path}")


def _parse_fraction(token: str, where: str) -> Fraction:
    try:
        return Fraction(*_exact_ratio(token.strip()))
    except ValueError:
        raise FileFormatError(f"bad number {token!r} in {where}") from None


@main.command(name="verify")
@click.argument("game_path", type=click.Path(dir_okay=False))
@click.option("--depth", default="level", help="level or global")
@_guarded
def verify_cmd(game_path: str, depth: str):
    """Cross-check the solver against an independent enumeration."""
    if depth not in ("level", "global"):
        raise FileFormatError(f"bad --depth {depth!r}: use 'level' or 'global'")
    doc = _load_game(game_path)
    expected = solve(doc.game).matrix
    if depth == "level":
        result = brute_force_solve(doc.game)
        ties = sum(1 for ks in result.feasible_candidates.values() if len(ks) > 1)
        click.echo(f"coalitions with several feasible candidates: {ties}")
        click.echo(f"candidate rows unique: {'yes' if result.unique else 'NO'}")
        matches = agree_up_to_rounding(doc.game, result.matrix, expected)
        click.echo(f"matches solver: {'yes' if matches else 'NO'}")
        if not (result.unique and matches):
            sys.exit(EXIT_VIOLATION)
    else:
        survivors = global_enumeration_solve(doc.game)
        click.echo(f"surviving matrices: {len(survivors)}")
        matches = len(survivors) == 1 and agree_up_to_rounding(
            doc.game, survivors[0], expected
        )
        click.echo(f"exactly one, equal to solver output: {'yes' if matches else 'NO'}")
        if not matches:
            sys.exit(EXIT_VIOLATION)


if __name__ == "__main__":
    main()
