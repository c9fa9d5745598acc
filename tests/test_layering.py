"""The package's layering: modules import in pipeline order, and only a few read arrows.

Both checks parse the source with ast, so docstrings and comments do not
count.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qgk"

#: The pipeline order.  A module imports at load time only modules before
#: it; kac loads _burnside (and numpy) inside a function.
ORDER = [
    "quiver", "qpoly", "series", "roots", "kac", "_burnside", "gkm", "cuspidal", "nakajima", "cli",
]

#: Outside quiver.py, the modules that may read Quiver.arrows: the Burnside
#: census counts representations of the oriented quiver, Cartan data are
#: built from the arrows, and verify reverses them.
READS_ARROWS = {"roots", "_burnside", "cli"}


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


def test_only_the_census_cartan_data_and_cli_read_arrows():
    trees = _trees()
    for module, tree in trees.items():
        if module == "quiver":
            continue
        names = _names(tree)
        assert module in READS_ARROWS or ".arrows" not in names, f"{module} reads .arrows"
        forms = names & {"euler_form", "sym_form", ".euler_form", ".sym_form"}
        assert not forms or module == "__init__", f"{module} uses {sorted(forms)}"
