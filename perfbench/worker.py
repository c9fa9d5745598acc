"""One pass over a workload's job list, in a fresh process.

Usage: ``python3 worker.py SPEC.json``.  The harness writes the spec and
reads one JSON line from this process's standard output: when the timed
pass started and ended (``time.perf_counter``, a clock that every process
on Linux reads alike), peak RSS, one verdict per job and, when traced, the
per-layer metrics.

Library jobs call ``qgk`` in this process.  CLI jobs run ``python -m qgk``
in a child process each, or, for the traced run and its untraced twin,
call ``qgk.cli.run(argv)`` here so that the wrappers see every layer.
Outputs are checked after the timed section.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from fractions import Fraction

import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))


def main(spec_path: str) -> None:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "references.json"), encoding="utf-8") as fh:
        references = json.load(fh)
    workload = spec["workload"]
    in_process = spec["cli_in_process"] or not wl.is_cli(workload)
    tracer = None
    if in_process:
        import qgk
        import qgk.cli  # noqa: F401 - loaded before tracing so every namespace is patched

        quivers = {}
        for name, path in spec["quivers"].items():
            with open(path, encoding="utf-8") as fh:
                quivers[name] = qgk.Quiver.from_json(fh.read())
        if spec["traced"]:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
    if spec["empty_cache"]:
        shutil.rmtree(spec["cache_dir"], ignore_errors=True)
        os.makedirs(spec["cache_dir"])

    outputs = []
    start = time.perf_counter()
    if wl.is_cli(workload):
        run = _run_cli_here if in_process else _run_cli_child
        for name, template in wl.cli_jobs(workload):
            argv = wl.expand_argv(template, spec["quivers"], spec["orders"])
            if tracer is not None:
                tracer.job = name
            outputs.append((name, template, run(argv + ["--cache-dir", spec["cache_dir"]])))
    else:
        for job in wl.LIBRARY_JOBS[workload]:
            if tracer is not None:
                tracer.job = job[0]
            outputs.append((job[0], job, _run_library(job, quivers)))
    end = time.perf_counter()

    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    result = {
        "start": start,
        "end": end,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "jobs": [_verdict(name, job, out, spec["orders"], references) for name, job, out in outputs],
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        with open(spec["spans_out"], "w", encoding="utf-8") as fh:
            json.dump(tracer.span_records(), fh)
    print(json.dumps(result))


# -- running jobs ----------------------------------------------------------------------


def _run_cli_child(argv: list[str]) -> dict:
    proc = subprocess.run([sys.executable, "-m", "qgk", *argv], capture_output=True, text=True)
    return {"code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr[-500:]}


def _run_cli_here(argv: list[str]) -> dict:
    from qgk import cli

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
    except Exception as exc:  # noqa: BLE001 - a crash is a failed job, not a failed harness
        return {"error": f"{type(exc).__name__}: {exc}"}
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()[-500:]}


def _run_library(job: tuple, quivers: dict) -> dict:
    import qgk

    _, function, quiver_name, bound = job
    quiver = quivers[quiver_name]
    try:
        if function == "gkm_dims_unit_weights":
            rank = len(quiver.vertices)
            units = {tuple(int(i == k) for i in range(rank)): qgk.QPoly.one() for k in range(rank)}
            value = qgk.gkm_dims(
                qgk.CartanDatum.from_quiver(quiver), qgk.WeightFunction(quiver, units), bound
            )
        else:
            value = getattr(qgk, function)(quiver, bound)
    except Exception as exc:  # noqa: BLE001 - a crash is a failed job, not a failed harness
        return {"error": f"{type(exc).__name__}: {exc}"}
    return {"value": value}


# -- checking outputs --------------------------------------------------------------------


def _verdict(name: str, job, out: dict, orders: dict, references: dict) -> dict:
    verdict = {"name": name, "ok": False, "digest": None}
    if "error" in out:
        verdict["detail"] = out["error"]
        return verdict
    if isinstance(job, tuple):
        order = orders[job[2]]
        text = _library_text(out["value"])
        problem = _closed_form_problem(job, out["value"], order)
    else:
        order = orders[wl.job_quiver(job)]
        if job[0] == "verify":
            verdict["ok"] = out["code"] == 0
            verdict["detail"] = f"exit {out['code']}"
            return verdict
        if out["code"] != 0:
            verdict["detail"] = f"exit {out['code']}: {out['stderr'].strip()}"
            return verdict
        text = wl.json_payload_text(out["stdout"]) if "json" in job else out["stdout"]
        problem = None
    verdict["digest"] = wl.digest(wl.canonical_text(text, order))
    if problem is None and verdict["digest"] != references.get(name):
        problem = "output differs from the reference"
    verdict["ok"] = problem is None
    verdict["detail"] = problem or "ok"
    return verdict


def _library_text(value) -> str:
    if hasattr(value, "dims"):
        rows = [(d, f"{j}\t{n}") for d, block in value.dims.items() for j, n in block.items()]
    else:
        rows = value.items()
    return "".join(f"{','.join(map(str, d))}\t{v}\n" for d, v in rows)


def _closed_form_problem(job: tuple, value, order: list[int]) -> str | None:
    """Check closed forms known independently of the code under test."""
    _, _, quiver_name, bound = job
    one = [(2, Fraction(1))]  # the polynomial q, as (half-exponent, coefficient) pairs
    if quiver_name == "jordan":
        if {d: list(p.items()) for d, p in value.table.items()} != {(n,): one for n in range(1, bound + 1)}:
            return "Jordan A_n is not q for every n"
    elif quiver_name == "two_loop":
        for d, p in value.table.items():
            top = max(k for k, _ in p.items())
            if top != 2 * (1 + d[0] ** 2) or dict(p.items())[top] != 1:
                return f"two-loop C^abs_{d[0]} is not monic of degree {1 + d[0] ** 2}"
        if len(value.table) != bound:
            return "two-loop C^abs is missing a degree"
    elif quiver_name == "affine_d4":
        dims = {tuple(wl.unpermute_vector(list(d), order)): b for d, b in value.dims.items()}
        if dims != _affine_d4_dims(bound):
            return "affine D4 n+ dimensions differ from the root multiplicities"
    return None


def _affine_d4_dims(bound: int) -> dict:
    """n+ of affine D4: dim 1 on real roots, rank(D4) = 4 at delta, 0 elsewhere.

    Real roots are the d >= 0 with Tits form 1; there are 24 with |d| <= 6.
    """
    edges = wl.BASE_QUIVERS["affine_d4"]["arrows"]
    delta = (2, 1, 1, 1, 1)
    out = {}
    for d in itertools.product(range(bound + 1), repeat=5):
        tits = sum(x * x for x in d) - sum(d[int(s)] * d[int(t)] for s, t in edges)
        if 0 < sum(d) <= bound and tits == 1:
            out[d] = {0: 1}
    if sum(delta) <= bound:
        out[delta] = {0: 4}
    return out


if __name__ == "__main__":
    main(sys.argv[1])
