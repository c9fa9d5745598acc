"""Quiver root systems, Kac polynomials, GKM algebras, and cuspidal inversions.

Each exported name loads its submodule on first access (PEP 562), so
``import qgk`` loads no pipeline module and a cache hit of ``python -m qgk``
loads only qgk._request and qgk.quiver.
"""

import importlib

__version__ = "0.1.0"

#: Submodule -> the names the package exports from it.
_EXPORTS = {
    "cuspidal": (
        "CuspidalError", "CuspidalTable", "absolutely_cuspidal", "absolutely_cuspidal_from_kac",
        "cuspidal_from_abs", "invert_character", "ip_general", "ip_table",
    ),
    "gkm": (
        "GkmDimTable", "GkmError", "WeightFunction", "gkm_dims", "lowest_weight_extract",
        "uea_character",
    ),
    "kac": ("KacTable", "brute_force_counts", "hua_kac", "oracle_kac_full"),
    "nakajima": ("Block", "LowestWeightDecomposition", "framed_character", "lw_decompose"),
    "qpoly": ("QPoly", "QPolyError", "parse_qpoly"),
    "quiver": ("FLAVOURS", "FRAMING_VERTEX", "CountingError", "Quiver", "QuiverError", "frame"),
    "roots": (
        "HYPERBOLIC", "ISOTROPIC", "REAL", "BudgetError", "CartanDatum", "RootError",
        "canonical_decomposition", "phi_plus", "positive_roots",
    ),
    "series": (
        "GradedSeries", "PlethMode", "SeriesError", "pleth_exp", "pleth_log", "series_mul",
        "sym_power_coeff",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value
