"""The package's layering: modules import in pipeline order, and only a few read arrows.

No module names the Euler forms; the pipeline reads the symmetrised form
off CartanDatum, and tests/reference.py keeps the arrow-reading versions.
The checks parse the source with ast, so docstrings and comments do not
count.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import qgk

SRC = Path(__file__).resolve().parents[1] / "src" / "qgk"

#: The pipeline order.  A module imports at load time only modules before
#: it; kac loads _burnside, verify loads _presented and nakajima-decomp loads
#: nakajima inside a function.
#: _request, the CLI's parser and cache, comes before the pipeline so that
#: a cache hit loads none of it.
ORDER = [
    "quiver", "_request", "qpoly", "series", "roots", "kac", "_burnside", "gkm", "_presented",
    "cuspidal", "nakajima", "cli",
]

#: The cross-check oracles, which their callers load on first use.
ORACLES = {"_burnside", "_presented"}

#: Outside quiver.py, the modules that may read Quiver.arrows: the Burnside
#: census counts representations of the oriented quiver, and Cartan data are
#: built from the arrows.
READS_ARROWS = {"roots", "_burnside"}


def _trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _module_level_imports(tree: ast.Module) -> set[str]:
    """The package modules a module imports at load time."""
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                imported.update(alias.name for alias in node.names)
            else:
                imported.add(node.module.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("qgk."):
            imported.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            imported.update(a.name.split(".")[1] for a in node.names if a.name.startswith("qgk."))
    return imported


def _names(tree: ast.Module) -> set[str]:
    """Every attribute, name and imported name used in a module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add("." + node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_modules_import_in_pipeline_order():
    trees = _trees()
    assert set(trees) - {"__init__", "__main__"} == set(ORDER)
    for module in ORDER:
        later = _module_level_imports(trees[module]) & set(ORDER[ORDER.index(module) :])
        assert not later, f"{module} imports {sorted(later)} at load time"


def _absolute_imports(tree: ast.Module) -> set[str]:
    """Every module a module imports by absolute name, at load time or inside a function."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return names


def test_the_package_imports_only_the_standard_library():
    for module, tree in _trees().items():
        for name in _absolute_imports(tree):
            top = name.split(".")[0]
            assert top == "qgk" or top in sys.stdlib_module_names, f"{module} imports {name}"


def test_no_module_loads_an_oracle_at_load_time():
    for module, tree in _trees().items():
        loaded = _module_level_imports(tree) & ORACLES
        assert not loaded, f"{module} imports {sorted(loaded)} at load time"


def test_only_the_census_and_cartan_data_read_arrows():
    for module, tree in _trees().items():
        names = _names(tree)
        if module != "quiver":
            assert module in READS_ARROWS or ".arrows" not in names, f"{module} reads .arrows"
        forms = names & {"euler_form", "sym_form", ".euler_form", ".sym_form"}
        assert not forms, f"{module} uses {sorted(forms)}"


def test_pairings_are_read_off_cartan_rows():
    """Outside roots, only Hua's exponents in kac read the Cartan matrix, and
    no module reaches into CartanDatum's private attributes."""
    private = {
        "." + name
        for name in [*vars(qgk.CartanDatum), *qgk.CartanDatum.__slots__]
        if name.startswith("_") and not name.startswith("__")
    }
    for module, tree in _trees().items():
        if module == "roots":
            continue
        names = _names(tree)
        assert module == "kac" or ".matrix" not in names, f"{module} reads .matrix"
        assert not names & private, f"{module} reads {sorted(names & private)}"


def test_the_request_module_loads_only_quiver():
    """python -m qgk answers a cache hit with _request, quiver and the standard library."""
    trees = _trees()
    assert _module_level_imports(trees["_request"]) == {"quiver"}
    assert _module_level_imports(trees["__main__"]) == {"_request"}
    assert _module_level_imports(trees["__init__"]) == set()


def test_the_census_loads_only_quiver_and_roots():
    """The Burnside census reads no formula from the pipeline it checks."""
    assert _module_level_imports(_trees()["_burnside"]) == {"quiver", "roots"}


def test_series_and_the_gkm_modules_do_not_load_quiver():
    """A series knows only its rank, and the GKM routes read only a CartanDatum."""
    trees = _trees()
    for module in ("series", "gkm", "_presented"):
        assert "quiver" not in _module_level_imports(trees[module]), module


def test_tables_carry_the_cartan_datum_not_the_quiver():
    kronecker = qgk.Quiver(["0", "1"], [("0", "1"), ("0", "1")])
    kac = qgk.hua_kac(kronecker, 2)
    cabs = qgk.absolutely_cuspidal_from_kac(kac)
    dims = qgk.gkm_dims(cabs.cartan, qgk.WeightFunction(kronecker, cabs.table), 2)
    for table in (kac, cabs, dims):
        assert hasattr(table, "cartan") and not hasattr(table, "quiver"), type(table).__name__


def test_no_module_imports_dataclasses():
    """A miss of python -m qgk pays for no dataclasses, inspect or ast at start-up."""
    for module, tree in _trees().items():
        assert "dataclasses" not in _absolute_imports(tree), module


def test_the_cli_loads_nakajima_and_presented_inside_a_function():
    """import qgk.cli loads kac, gkm and cuspidal, but not the framed blocks or the oracle."""
    tree = _trees()["cli"]
    loaded = _module_level_imports(tree)
    assert {"kac", "gkm", "cuspidal"} <= loaded
    assert not loaded & {"nakajima", "_presented"}
    anywhere = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert {"nakajima", "_presented"} <= anywhere


def test_the_q_factorial_log_is_its_own_function():
    """No shared Exp/Log function takes a qfactorial switch; kac reads its own Log."""
    for module, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                arguments = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                names = {a.arg for a in arguments}
                assert "qfactorial" not in names, f"{module} line {node.lineno}"
    imported = {
        alias.name
        for node in ast.walk(_trees()["kac"])
        if isinstance(node, ast.ImportFrom) and node.module == "series"
        for alias in node.names
    }
    assert "_qfactorial_log_levels" in imported and "_pleth_log_levels" not in imported


def _budgets_named_by_hand(tree: ast.AST) -> list[int]:
    """Lines of BudgetError(...) calls with an argument that mentions a budget."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and "BudgetError" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        and any("budget" in ast.unparse(arg).lower() for arg in node.args)
    ]


def test_every_cap_refuses_through_roots():
    """Outside roots, a BudgetError names no budget: each cap refuses through roots._refuse."""
    trees = _trees()
    for module, tree in trees.items():
        if module != "roots":
            assert _budgets_named_by_hand(tree) == [], module
    # it passes the three BudgetErrors built by hand, limits of the input and not
    # caps on work: the peel's two preconditions and the byte-lane limit
    kept = [
        node
        for module, tree in trees.items()
        if module != "roots"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "BudgetError"
    ]
    assert len(kept) == 3
    by_hand = 'raise BudgetError(f"{steps} steps exceed the budget of {STEP_BUDGET}")'
    assert _budgets_named_by_hand(ast.parse(by_hand)) == [1]
    assert _budgets_named_by_hand(ast.parse("raise qgk.BudgetError(STEP_BUDGET)")) == [1]


def _command_dispatches(tree: ast.AST) -> list[str]:
    """The functions that compare command or args.command with a string literal."""

    def names_the_command(node: ast.AST) -> bool:
        return getattr(node, "id", getattr(node, "attr", None)) == "command"

    def literal(node: ast.AST) -> bool:
        items = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
        return any(isinstance(item, ast.Constant) and isinstance(item.value, str) for item in items)

    found = []
    for function in ast.walk(tree):
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(function):
                if isinstance(node, ast.Compare):
                    sides = [node.left, *node.comparators]
                    if any(map(names_the_command, sides)) and any(map(literal, sides)):
                        found.append(function.name)
    return found


def test_the_cli_dispatches_on_the_command_once():
    """Each command lays out its own rows; only answer reads the name, for verify's exit code."""
    assert _command_dispatches(_trees()["cli"]) == ["answer"]
    render = (
        "def _render(args):\n"
        "    command = args.command\n"
        "    if command in ('kac', 'ip'):\n"
        "        pass\n"
    )
    assert _command_dispatches(ast.parse(render)) == ["_render"]
    assert _command_dispatches(ast.parse('def f(args):\n    return "x" != args.command')) == ["f"]
