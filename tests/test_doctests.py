from __future__ import annotations

import doctest

import qgk.qpoly
import qgk.quiver


def test_docstring_examples():
    for module in (qgk.quiver, qgk.qpoly):
        failed, attempted = doctest.testmod(module)
        assert failed == 0, module.__name__
        assert attempted > 0, module.__name__
