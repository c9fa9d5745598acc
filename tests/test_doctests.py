from __future__ import annotations

import doctest
import importlib
import pkgutil

import qgk


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
