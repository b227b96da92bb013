"""The README's library example runs against the installed package, and
its ``$ fairshare …`` transcripts print what the CLI prints, so a change to
the public names or to the CLI's output cannot break them without failing a
test."""

import re
import shlex
from pathlib import Path

from click.testing import CliRunner

from fairshare.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
ELISION = "..."


def python_blocks(text: str) -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.M | re.S)


def transcripts(text: str) -> list[tuple[list[str], list[str]]]:
    """Every ``$ fairshare …`` command of the sh blocks, in README order,
    with the output lines that follow it up to the next command."""
    out: list[tuple[list[str], list[str]]] = []
    for block in re.findall(r"^```sh\n(.*?)^```$", text, flags=re.M | re.S):
        if not block.startswith("$ "):
            continue
        for line in block.splitlines():
            if line.startswith("$ "):
                argv = shlex.split(line[2:], comments=True)
                assert argv[0] == "fairshare", line
                out.append((argv[1:], []))
            else:
                out[-1][1].append(line)
    return out


def matches(lines: list[str], expected: list[str]) -> bool:
    """Whether the lines match line for line, where an ``...`` line of the
    expectation stands for any number of lines."""
    if not expected:
        return not lines
    if expected[0] == ELISION:
        return any(matches(lines[k:], expected[1:]) for k in range(len(lines) + 1))
    return bool(lines) and lines[0] == expected[0] and matches(lines[1:], expected[1:])


def test_readme_python_blocks_run():
    blocks = python_blocks(README.read_text(encoding="utf-8"))
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_transcripts_match_the_cli(tmp_path, monkeypatch):
    commands = transcripts(README.read_text(encoding="utf-8"))
    assert {argv[0] for argv, _ in commands} >= {"gen", "solve", "check", "shapley", "compare"}
    monkeypatch.chdir(tmp_path)
    runner = CliRunner()
    for argv, expected in commands:
        result = runner.invoke(main, argv)
        assert result.exception is None or isinstance(result.exception, SystemExit), argv
        assert matches(result.stdout.splitlines(), expected), (argv, result.stdout)


def test_elision_matcher():
    assert matches(["a", "b", "c"], ["a", ELISION, "c"])
    assert matches(["a", "c"], ["a", ELISION, "c"])
    assert not matches(["a", "b"], ["a", ELISION, "c"])
    assert not matches(["a", "b"], ["a"])
    assert matches([], [ELISION])
