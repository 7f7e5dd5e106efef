"""The README's library example runs as written, its shell commands parse,
and its bracket list is the one ``relations`` labels by."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from linkcdr.cli import build_parser, main
from linkcdr.relations import BRACKETS

README = Path(__file__).parent.parent / "README.md"
EVENTS_PATH = '"run/gen/events.csv"'


def library_example() -> str:
    """The Python block under the README's "Library use" heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    match = re.match(r"\s*```python\n(.*?)\n```", section, re.DOTALL)
    assert match, "no python block opens the Library use section"
    return match.group(1)


def test_library_example_runs(tmp_path):
    code = library_example()
    assert EVENTS_PATH in code
    gen = tmp_path / "gen"
    assert main(["generate", "--n-pairs", "200", "--seed", "7", "--out", str(gen)]) == 0
    namespace: dict = {}
    exec(code.replace(EVENTS_PATH, repr(str(gen / "events.csv"))), namespace)
    assert namespace["matrix"].shape == (len(namespace["pairs"]), 175)
    assert namespace["row"].shape == (175,)


def test_bracket_list_matches_relations():
    section = README.read_text(encoding="utf-8").split("\n### Classification tasks\n", 1)[1]
    match = re.search(r"younger user's age\s+bracket \((.*?)\):", section, re.DOTALL)
    assert match, "no bracket list under Classification tasks"
    listed = re.findall(r"`([^`]+)` (\d+)–(\d+)", " ".join(match.group(1).split()))
    assert [(code, int(lo), int(hi)) for code, lo, hi in listed] == list(BRACKETS)
    assert match.group(1).count("`") == 2 * len(BRACKETS)


def shell_commands() -> list[str]:
    """Every ``linkcdr`` command the README shows: each line of a bash block,
    its ``\\`` continuation lines joined, and each inline code span."""
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"```bash\n(.*?)\n```", text, re.DOTALL)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith("linkcdr ")] + re.findall(
        r"`(linkcdr [^`]*)`", text
    )


def test_shell_commands_parse():
    parser = build_parser()
    stages = set()
    for command in shell_commands():
        argv = shlex.split(command, comments=True)[1:]
        try:
            stages.add(parser.parse_args(argv).command)
        except SystemExit:
            pytest.fail(f"the README's command does not parse: {command}")
    quick_start = {"generate", "pairs", "features", "pca", "train", "bayes-bounds",
                   "experiment", "report"}
    assert quick_start <= stages
