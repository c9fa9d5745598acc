"""Per-layer tracing of ``qgk`` from outside the package.

``Tracer.install`` replaces the public functions and methods named in
``TIMED`` with wrappers that keep spans (name, start, end, parent, job) in
memory, and the hot leaves named in ``AGGREGATED`` and ``COUNTED`` with
wrappers that keep only aggregates.  A function is replaced in every
``qgk`` namespace that bound its name (``from .kac import hua_kac`` in
``cuspidal``, ``nakajima``, ``cli`` and the package itself), and a method
on its class, so calls between modules are seen too.

A layer's self time is its spans' duration minus the time covered by the
traced calls made inside them.  Untraced helpers count towards the self
time of the traced caller.
"""

from __future__ import annotations

import importlib
import sys
import time

#: Metric prefix -> (module, attribute) or (module, class, method).  Each
#: gets a span per call and ``.calls`` / ``.self_s`` metrics.
TIMED = {
    "series.pleth_exp": ("qgk.series", "pleth_exp"),
    "series.pleth_log": ("qgk.series", "pleth_log"),
    "series.series_mul": ("qgk.series", "series_mul"),
    "series.sym_power_coeff": ("qgk.series", "sym_power_coeff"),
    "roots.phi_plus": ("qgk.roots", "phi_plus"),
    "roots.canonical_decomposition": ("qgk.roots", "canonical_decomposition"),
    "kac.hua_kac": ("qgk.kac", "hua_kac"),
    "kac.oracle_kac_full": ("qgk.kac", "oracle_kac_full"),
    "burnside.brute_force_counts": ("qgk._burnside", "brute_force_counts"),
    "gkm.add_generators": ("qgk.gkm", "GkmEngine", "add_generators"),
    "gkm.dims_at": ("qgk.gkm", "GkmEngine", "dims_at"),
    "gkm.gkm_dims": ("qgk.gkm", "gkm_dims"),
    "gkm.lowest_weight_extract": ("qgk.gkm", "lowest_weight_extract"),
    "cuspidal.absolutely_cuspidal": ("qgk.cuspidal", "absolutely_cuspidal"),
    "cuspidal.invert_character": ("qgk.cuspidal", "invert_character"),
    "cuspidal.cuspidal_from_abs": ("qgk.cuspidal", "cuspidal_from_abs"),
    "cuspidal.ip_table": ("qgk.cuspidal", "ip_table"),
    "nakajima.lw_decompose": ("qgk.nakajima", "lw_decompose"),
    "nakajima.framed_character": ("qgk.nakajima", "framed_character"),
    "cli.run": ("qgk.cli", "run"),
}

#: Hot QPoly arithmetic: ``.calls`` / ``.self_s`` aggregates, no spans.  A
#: call made inside another call of the same group (``a - b`` runs ``-b``
#: and ``a + (-b)``) is not counted again.
AGGREGATED = {
    "qpoly.mul": ("__mul__", "__rmul__"),
    "qpoly.add": ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__"),
    "qpoly.divexact": ("divexact",),
}

#: Calls counted without timing: their time stays with the caller.
COUNTED = {"roots.form.calls": ("qgk.roots", "CartanDatum", "form")}

#: Counters that are not calls: letters registered with a GKM engine, and
#: CLI cache reads that found or missed an entry.
EXTRA_COUNTS = ("gkm.letters", "cli.cache.hits", "cli.cache.misses")

#: ``.total_s`` (inclusive time, recursion counted once) is reported for these.
WITH_TOTAL = ("kac.hua_kac",)

HARNESS_METRICS = ("trace.wall_s", "trace.overhead_s")


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    out = []
    for name in list(TIMED) + list(AGGREGATED):
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
        if name in WITH_TOTAL:
            out.append((f"{name}.total_s", "s"))
    out += [(name, "count") for name in list(COUNTED) + list(EXTRA_COUNTS)]
    out += [(name, "s") for name in HARNESS_METRICS]
    return out


class Tracer:
    def __init__(self):
        self.job = ""
        self.spans: list[tuple[int, str, float, float, int, str]] = []
        self.stack: list[list] = []  # [name, span id, child seconds]
        self.aggregates: dict[str, list] = {}  # name -> [calls, self_s, total_s]
        self.counts: dict[str, int] = {name: 0 for name in list(COUNTED) + list(EXTRA_COUNTS)}
        self._next_id = 0

    # -- wrappers ------------------------------------------------------------------

    def _timed(self, name: str, fn, keep_span: bool):
        stack = self.stack
        spans = self.spans
        aggregate = self.aggregates.setdefault(name, [0, 0.0, 0.0])
        clock = time.perf_counter
        with_total = name in WITH_TOTAL

        def wrapper(*args, **kwargs):
            if not keep_span and stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            parent = stack[-1][1] if stack else -1
            frame = [name, self._next_id, 0.0]
            self._next_id += 1
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                aggregate[0] += 1
                aggregate[1] += elapsed - frame[2]
                if with_total and all(f[0] != name for f in stack):
                    aggregate[2] += elapsed
                if stack:
                    stack[-1][2] += elapsed
                if keep_span:
                    spans.append((frame[1], name, start, end, parent, self.job))

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ----------------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function and method of the loaded ``qgk`` package."""
        import qgk.cli  # noqa: F401 - the package does not import its CLI

        from qgk.qpoly import QPoly

        self._count_results()
        replaced: dict[int, object] = {}
        for name, target in TIMED.items():
            self._patch(target, lambda fn, name=name: self._timed(name, fn, True), replaced)
        for name, target in COUNTED.items():
            self._patch(target, lambda fn, name=name: self._counted(name, fn), replaced)
        for name, methods in AGGREGATED.items():
            for method in methods:
                setattr(QPoly, method, self._timed(name, getattr(QPoly, method), False))
        modules = [m for key, m in sys.modules.items() if key == "qgk" or key.startswith("qgk.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)

    @staticmethod
    def _patch(target, make_wrapper, replaced: dict[int, object]) -> None:
        """Wrap a method on its class now; queue a function for every namespace."""
        original = _lookup(target)
        wrapper = make_wrapper(original)
        if len(target) == 3:
            setattr(getattr(importlib.import_module(target[0]), target[1]), target[2], wrapper)
        else:
            replaced[id(original)] = wrapper

    def _count_results(self) -> None:
        """Count letters registered and cache entries found or missed."""
        from qgk import cli
        from qgk.gkm import GkmEngine

        counts = self.counts
        add_generators = GkmEngine.add_generators
        cache_read = cli._cache_read

        def counted_add_generators(engine, *args, **kwargs):
            letters = add_generators(engine, *args, **kwargs)
            counts["gkm.letters"] += len(letters)
            return letters

        def counted_cache_read(path):
            payload = cache_read(path)
            counts["cli.cache.hits" if payload is not None else "cli.cache.misses"] += 1
            return payload

        GkmEngine.add_generators = counted_add_generators
        cli._cache_read = counted_cache_read

    # -- results ---------------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name in list(TIMED) + list(AGGREGATED):
            calls, self_s, total_s = self.aggregates.get(name, (0, 0.0, 0.0))
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
            if name in WITH_TOTAL:
                out[f"{name}.total_s"] = total_s
        out.update(self.counts)
        return out

    def span_records(self) -> list[dict]:
        return [
            {"id": i, "name": n, "start": s, "end": e, "parent": p, "job": j}
            for i, n, s, e, p, j in self.spans
        ]


def _lookup(target):
    obj = importlib.import_module(target[0])
    for attr in target[1:]:
        obj = getattr(obj, attr)
    return obj
