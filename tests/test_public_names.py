"""The package's public vocabulary: every exported function and every public
method of an exported class has a caller outside the tests, and every name
the benchmark tracer patches resolves.

The tracer lives in perfbench/, which the test suite does not collect, so
a library edit that removes a traced name would otherwise go unnoticed
until a traced benchmark pass fails.
"""

from __future__ import annotations

import ast
import importlib.util
import inspect
import re
from pathlib import Path

import qgk
import qgk.cli
from qgk.qpoly import QPoly

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qgk"


def _tracing():
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_target_resolves():
    tracing = _tracing()
    targets = list(tracing.TIMED.values()) + list(tracing.COUNTED.values())
    targets += [("qgk.cli", "_cache_read"), ("qgk.gkm", "GkmEngine")]
    for target in targets:
        assert callable(tracing._lookup(target)), target
    # the tracer's counted_cache_read(path) stands in for it
    assert len(inspect.signature(qgk.cli._cache_read).parameters) == 1
    for methods in tracing.AGGREGATED.values():
        for method in methods:
            assert callable(getattr(QPoly, method)), method


def _named_in(path: Path, bare: bool = True) -> set[str]:
    """The names, attributes and strings of a Python file; the words of a Markdown file's code.

    With bare=False a bare name or an import does not count, so a local
    variable does not name a method of the same name.
    """
    text = path.read_text(encoding="utf-8")
    if path.suffix != ".py":
        return set(re.findall(r"\w+", " ".join(re.findall(r"```.*?```|`[^`\n]*`", text, re.S))))
    names = set()
    for node in ast.walk(ast.parse(text, str(path))):
        if isinstance(node, ast.Name) and bare:
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias) and bare:
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def _places() -> list[Path]:
    places = [*SRC.glob("*.py"), *(ROOT / "demos").glob("*.py"), ROOT / "README.md"]
    return places + [p for p in (ROOT / "perfbench").glob("*") if p.suffix in (".py", ".md")]


def test_every_public_function_is_named_outside_the_tests():
    places = _places()
    named = {path: _named_in(path) for path in places}
    for name in qgk.__all__:
        function = getattr(qgk, name)
        if not inspect.isfunction(function):
            continue
        home = {SRC / "__init__.py", SRC / f"{function.__module__.rsplit('.', 1)[1]}.py"}
        callers = [path for path in places if path not in home and name in named[path]]
        assert callers, f"{name} is named only in {sorted(p.name for p in home)} and the tests"


METHOD_KINDS = (classmethod, staticmethod, property)


def test_every_public_method_is_named_outside_the_tests():
    """A def does not name itself, so a method named nowhere else has no caller but tests."""
    named = set().union(*(_named_in(path, bare=False) for path in _places()))
    unnamed = []
    for name in qgk.__all__:
        cls = getattr(qgk, name)
        if not inspect.isclass(cls):
            continue
        for member, value in vars(cls).items():
            method = inspect.isfunction(value) or isinstance(value, METHOD_KINDS)
            if method and not member.startswith("_") and member not in named:
                unnamed.append(f"{name}.{member}")
    assert not unnamed, f"named only in their own def and the tests: {unnamed}"
