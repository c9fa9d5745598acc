from __future__ import annotations

import argparse
import contextlib
import doctest
import importlib
import io
import pkgutil
import re
from pathlib import Path

import qgk
from qgk._request import _build_parser
from qgk.cli import run


def test_docstring_examples():
    names = ["qgk"] + [info.name for info in pkgutil.walk_packages(qgk.__path__, "qgk.")]
    attempted = 0
    for name in names:
        if name == "qgk.__main__":  # runs the CLI on import
            continue
        result = doctest.testmod(importlib.import_module(name))
        assert result.failed == 0, name
        attempted += result.attempted
    assert attempted > 0


README = Path(__file__).resolve().parents[1] / "README.md"


def _section(title: str) -> str:
    """The text of README.md's section headed `title`."""
    return README.read_text(encoding="utf-8").split(f"\n## {title}\n")[1].split("\n## ")[0]


def _fenced_blocks(after: str) -> list[str]:
    """The fenced code blocks of README.md's section headed `after`."""
    return _section(after).split("```")[1::2]


def test_readme_names_the_options_the_parser_offers():
    (commands,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    offered = {
        option
        for parser in commands.choices.values()
        for action in parser._actions
        for option in action.option_strings
        if option.startswith("--")
    }
    named = set(re.findall(r"--[a-z][a-z-]*", _section("Command line")))
    assert named == offered - {"--help"}


def test_readme_library_snippet_prints_what_it_shows():
    (code,) = [b.removeprefix("python\n") for b in _fenced_blocks("Library") if b.startswith("python")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    shown = [line.split("#", 1)[1] for line in code.splitlines() if line.startswith("print(")]
    assert [line.split() for line in out.getvalue().splitlines()] == [s.split() for s in shown]


def test_readme_cli_examples_print_what_they_show(monkeypatch):
    """README aligns columns with spaces where the CLI prints tabs."""
    monkeypatch.chdir(README.parent)
    examples = [
        example
        for block in _fenced_blocks("Command line")
        for example in block.split("$ qgk ")[1:]
    ]
    assert [e.split()[0] for e in examples] == ["kac", "cuspidal"]
    for example in examples:
        command, shown = example.split("\n", 1)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert run(command.split()) == 0
        assert out.getvalue().split() == shown.split(), command
