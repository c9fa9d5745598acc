"""Every work cap in qgk refuses through roots._refuse, in one shape.

Each module-level *_BUDGET has a row here.  With its cap set low, the
smallest case that reaches it raises a BudgetError that names its count and
ends in "(budget N)"; where a command reaches the cap, that command exits 1
with the same text on stderr and prints nothing.
"""

from __future__ import annotations

import importlib
import json
import pkgutil

import pytest

import qgk
from qgk import (
    BudgetError,
    CartanDatum,
    QPoly,
    Quiver,
    WeightFunction,
    gkm_dims,
    hua_kac,
    oracle_kac_full,
    phi_plus,
    positive_roots,
)
from qgk import _burnside
from qgk._presented import GkmEngine
from qgk.cli import run
from qgk.series import vectors_of_total

QUIVERS = {
    "jordan": (["0"], [("0", "0")]),
    "two_loop": (["0"], [("0", "0"), ("0", "0")]),
    "kronecker": (["0", "1"], [("0", "1"), ("0", "1")]),
    "a3": (["0", "1", "2"], [("0", "1"), ("1", "2")]),
    "cycle": (["0", "1", "2"], [("0", "1"), ("1", "2"), ("2", "0")]),
}
JORDAN, TWO_LOOP, KRONECKER, A3, CYCLE = (Quiver(*QUIVERS[name]) for name in QUIVERS)
UNITS = WeightFunction(KRONECKER, {(1, 0): QPoly.one(), (0, 1): QPoly.one()})


def _presented_blocks(bound: int) -> None:
    """Every block of the presented algebra on the Kronecker units; the engine's refusal escapes."""
    engine = GkmEngine(CartanDatum.from_quiver(KRONECKER), bound)
    for root, poly in UNITS.items():
        engine.add_generators(root, poly)
    for total in range(1, bound + 1):
        for d in vectors_of_total(2, total):
            engine.dims_at(d)


#: "module.NAME": (low cap, the count, a call that passes the cap, the refusal
#: without its "(budget N)", and the command that reaches it, or None).
ROWS = {
    "kac.HUA_BUDGET": (
        5, 6, lambda: hua_kac(JORDAN, 3),
        "Hua's sum up to |d| = 3 runs over at least 6 multipartitions",
        ["kac", "jordan", "--bound", "3"],
    ),
    "roots.VECTOR_BUDGET": (
        5, 10, lambda: positive_roots(CartanDatum.from_quiver(A3), 2),
        "|d| <= 2 in rank 3 spans 10 dimension vectors",
        ["roots", "a3", "--bound", "2"],
    ),
    "roots.SPLIT_BUDGET": (
        5, 6, lambda: phi_plus(CartanDatum.from_quiver(JORDAN), 2),
        "|d| <= 2 in rank 1 needs 6 pairs b <= a in the Sigma split table",
        ["roots", "jordan", "--bound", "2"],
    ),
    "gkm.GKM_BUDGET": (
        2, 3, lambda: gkm_dims(CartanDatum.from_quiver(KRONECKER), UNITS, 1),
        "the denominator identity up to |d| = 1 stopped after 3 cliques and Weyl group elements",
        ["gkm-dims", "kronecker", "--from-kac", "--bound", "1"],
    ),
    # verify's gkm-presentation row keeps the totals the engine completed
    "_presented.PRESENTED_BUDGET": (
        1, 2, lambda: _presented_blocks(1),
        "the presented algebra up to |d| = 1 stopped after 2 reduction terms, letters and "
        "letter pairs",
        None,
    ),
    "_burnside.ENUM_BUDGET": (
        15, 81, lambda: oracle_kac_full(JORDAN, 2),
        "enumerating 3^4 = 81 matrices",
        ["kac", "jordan", "--method", "oracle", "--bound", "2"],
    ),
    "_burnside.FIX_BUDGET": (
        3, 16, lambda: oracle_kac_full(TWO_LOOP, 1, "one_nilpotent"),
        "fixed subspace of size 4^2 = 16",
        ["cuspidal", "two_loop", "--flavour", "one_nilpotent", "--bound", "1"],
    ),
    "_burnside.PATH_BUDGET": (
        2, 3, lambda: oracle_kac_full(CYCLE, 3, "nilpotent"),
        "at least 3 paths of length 2 to test",
        ["kac", "cycle", "--method", "oracle", "--flavour", "nilpotent", "--bound", "3"],
    ),
    "_burnside.TYPE_TUPLE_BUDGET": (
        3, 4, lambda: oracle_kac_full(KRONECKER, 2),
        "4 similarity type tuples",
        ["kac", "kronecker", "--method", "oracle", "--bound", "2"],
    ),
}


def _budgets() -> set[str]:
    """Every module-level *_BUDGET in the package, as module.NAME."""
    found = set()
    for info in pkgutil.iter_modules(qgk.__path__):
        module = importlib.import_module(f"qgk.{info.name}")
        found |= {f"{info.name}.{name}" for name in vars(module) if name.endswith("_BUDGET")}
    return found


def test_every_budget_refuses_in_one_shape(tmp_path, monkeypatch, capsys):
    assert _budgets() == set(ROWS)
    files = {}
    for name, (vertices, arrows) in QUIVERS.items():
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps({"vertices": vertices, "arrows": arrows}))
    for budget, (cap, count, call, what, argv) in ROWS.items():
        module, name = budget.split(".")
        assert str(count) in what.split(), budget
        with monkeypatch.context() as patch:
            patch.setattr(f"qgk.{module}.{name}", cap)
            patch.setattr(_burnside, "_TYPE_CACHE", {})  # a cached type list skips ENUM_BUDGET
            with pytest.raises(BudgetError) as refusal:
                call()
            assert str(refusal.value) == f"{what} (budget {cap})", budget
            if argv is not None:
                assert run([str(files.get(a, a)) for a in argv]) == 1, budget
                assert capsys.readouterr() == ("", f"error: {what} (budget {cap})\n"), budget
