"""Benchmark harness for the qgk pipeline, end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload hua-tables --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs the workload once untraced and once traced, in process, and reports
the per-layer metrics.  Both print a human-readable summary and, as the
last line of standard output, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Every pass runs in a fresh child process (``worker.py``), one at a time, so
module-level state does not leak between passes or workloads.  The seed
relabels every input quiver (see ``workloads.py``) and seeds the children's
string hashing.  Timed intervals are corrected for the speed of the CPU
they ran on (see ``Metronome``).  Standard library only; ``qgk`` is loaded
from ``src/`` of the checkout.  Workloads, metrics and the known defect are
described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from fractions import Fraction

import tracing
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Spans of traced runs are written here, one file per workload and seed.
TRACE_DIR = os.path.join(ROOT, ".perfbench-out")
#: Whole-run budget: the harness gives up rather than run past it.
RUN_BUDGET_S = 170
#: Fresh interpreters timed for ``setup_s`` (after one untimed warm-up).
SETUP_SAMPLES = 7
#: Timed intervals are rescaled to the CPU speed at which one metronome tick
#: takes this long.
REFERENCE_TICK_S = 0.0005
#: Pause between metronome ticks.
TICK_PERIOD_S = 0.05
#: End-to-end metrics and their units, as named in BENCHMARK.json.
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "success_rate": "fraction"}

PROBE = """
import sys
import qgk
{extra}
for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as fh:
        qgk.Quiver.from_json(fh.read())
"""


class HarnessError(RuntimeError):
    pass


class Metronome:
    """Samples the speed of the CPU that runs the passes, from a harness thread.

    The host shares its cores with other tenants: the same pass can take
    twice as long a minute later, and medians over a run do not remove
    that drift.  Every ``TICK_PERIOD_S`` this thread times a fixed
    Fraction-and-dict loop, the kind of work ``qgk`` does, on the CPU the
    passes are pinned to.  A tick is timed by the thread's CPU time, so a
    tick that waits for the pass's process does not read as a slow CPU.
    ``speed_factor`` rescales times measured in a stretch of the run to the
    speed at which a tick takes ``REFERENCE_TICK_S``.  The ticks cost about 1%
    of the CPU and run in the harness, which imports nothing from ``qgk``.
    """

    def __init__(self):
        self.ticks: list[tuple[float, float]] = []  # (end, duration)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "Metronome":
        self._thread.start()
        while not self.ticks:
            time.sleep(TICK_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(TICK_PERIOD_S):
            cpu = time.thread_time()
            acc: dict[int, Fraction] = {}
            for i in range(100):
                acc[i % 17] = acc.get(i % 17, Fraction(0)) + Fraction(i, 7)
            self.ticks.append((time.perf_counter(), time.thread_time() - cpu))

    def speed_factor(self, start: float, end: float) -> float:
        """Reference tick over the mean tick between ``start`` and ``end``."""
        during = [d for t, d in self.ticks if start - TICK_PERIOD_S <= t <= end + TICK_PERIOD_S]
        return REFERENCE_TICK_S / statistics.mean(during)


class Run:
    """One benchmark run: generated inputs, child environment and deadline."""

    def __init__(self, workload: str, seed: int, work: str):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.paths: dict[str, str] = {}
        self.orders: dict[str, list[int]] = {}
        for name in wl.workload_quivers(workload):
            quiver, order = wl.relabel(name, seed)
            path = os.path.join(work, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(quiver, fh)
            self.paths[name] = path
            self.orders[name] = order
        env = dict(os.environ)
        env.pop("QGK_CACHE_DIR", None)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
        env["PYTHONHASHSEED"] = str(seed % 2**32)
        self.env = env
        self._specs = 0

    def _child(self, argv: list[str]) -> tuple[int, str, str]:
        """Run a child in its own session; kill the session if the run's budget ends."""
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise HarnessError(f"run exceeded its {RUN_BUDGET_S} s budget")
        proc = subprocess.Popen(argv, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=left)
        except subprocess.TimeoutExpired:
            raise HarnessError(f"run exceeded its {RUN_BUDGET_S} s budget") from None
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
        return proc.returncode, out, err

    def setup_intervals(self) -> list[tuple[float, float]]:
        """Lifetimes of fresh interpreters that import qgk and load the quivers."""
        extra = "import qgk.cli" if wl.is_cli(self.workload) else ""
        argv = [sys.executable, "-c", PROBE.format(extra=extra), *self.paths.values()]
        intervals = []
        for i in range(SETUP_SAMPLES + 1):
            start = time.perf_counter()
            code, _, err = self._child(argv)
            end = time.perf_counter()
            if code != 0:
                raise HarnessError(f"setup probe failed: {err.strip()[-500:]}")
            if i:
                intervals.append((start, end))
        return intervals

    def worker(self, *, cli_in_process: bool = False, traced: bool = False) -> dict:
        """Run one pass in a fresh child and return its result.

        Library workloads always run in the child; CLI workloads start one
        ``python -m qgk`` per call unless ``cli_in_process``.  Every pass but
        a cli-warm one starts from an empty cache directory.
        """
        self._specs += 1
        spec = {
            "workload": self.workload,
            "cli_in_process": cli_in_process,
            "traced": traced,
            "empty_cache": self.workload != "cli-warm",
            "quivers": self.paths,
            "orders": self.orders,
            "cache_dir": os.path.join(self.work, "cache"),
            "spans_out": os.path.join(TRACE_DIR, f"spans-{self.workload}-seed{self.seed}.json"),
        }
        spec_path = os.path.join(self.work, f"spec-{self._specs}.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        code, out, err = self._child([sys.executable, os.path.join(HERE, "worker.py"), spec_path])
        if code != 0:
            raise HarnessError(f"worker failed: {err.strip()[-2000:]}")
        return json.loads(out.strip().splitlines()[-1])

    def fill_cache(self) -> None:
        """cli-warm reads the cache that the cacheable cli-cold calls write."""
        if self.workload == "cli-warm":
            self.worker()


def measure(run: Run, seconds: int) -> tuple[dict, list[dict]]:
    with Metronome() as metronome:
        setup = run.setup_intervals()
        run.fill_cache()
        passes = []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            passes.append(run.worker())
            last = time.perf_counter() - t0
            if time.perf_counter() - start + last > seconds:
                break
    jobs = [j for p in passes for j in p["jobs"]]
    raw = {
        "wall_s": [p["end"] - p["start"] for p in passes],
        "setup_s": [end - start for start, end in setup],
    }
    # A pass is long enough to be corrected by the ticks during it; a probe
    # is not, so the probes share the ticks of the whole set-up phase.
    walls = [(p["end"] - p["start"]) * metronome.speed_factor(p["start"], p["end"]) for p in passes]
    setup_factor = metronome.speed_factor(setup[0][0], setup[-1][1])
    setups = [t * setup_factor for t in raw["setup_s"]]
    rss = [p["peak_rss_mb"] for p in passes]
    ok = sum(j["ok"] for j in jobs)
    values = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss),
        "success_rate": ok / len(jobs),
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    print(f"# {run.workload} seed {run.seed}: {len(passes)} passes, {len(jobs)} jobs, "
          f"median metronome tick {statistics.median(d for _, d in metronome.ticks) * 1e6:.0f} us "
          f"(reference {REFERENCE_TICK_S * 1e6:.0f} us)")
    for name, samples in (("wall_s", walls), ("setup_s", setups), ("peak_rss_mb", rss)):
        print(f"#   {name:12} median {statistics.median(samples):.4f}  "
              f"min {min(samples):.4f}  max {max(samples):.4f}  n={len(samples)}")
        if name in raw:
            print(f"#   {'':12} uncorrected median {statistics.median(raw[name]):.4f}")
    print(f"#   error_rate   {(len(jobs) - ok) / len(jobs):.4f}  ({len(jobs) - ok}/{len(jobs)} jobs failed)")
    return metrics, jobs


def measure_layers(run: Run) -> tuple[dict, list[dict]]:
    os.makedirs(TRACE_DIR, exist_ok=True)
    run.fill_cache()
    plain = run.worker(cli_in_process=True)
    traced = run.worker(cli_in_process=True, traced=True)
    units = dict(tracing.metric_names())
    values = dict(traced["layers"])
    traced_wall, plain_wall = traced["end"] - traced["start"], plain["end"] - plain["start"]
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - plain_wall
    print(f"# {run.workload} seed {run.seed}: traced pass {traced_wall:.3f} s, "
          f"untraced in-process pass {plain_wall:.3f} s")
    for name, value in values.items():
        if value:
            print(f"#   {name:40} {value:.6g} {units[name]}")
    metrics = {name: (values[name], unit) for name, unit in units.items()}
    return metrics, plain["jobs"] + traced["jobs"]


def result_line(metrics: dict, jobs: list[dict]) -> str:
    failed = [j for j in jobs if not j["ok"]]
    for job in failed:
        known = " (known defect)" if job["name"] in wl.KNOWN_DEFECTS else ""
        print(f"# FAILED {job['name']}: {job['detail']}{known}")
    return json.dumps({
        "correct": all(j["name"] in wl.KNOWN_DEFECTS for j in failed),
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    })


def write_references(seed: int) -> None:
    """Record the digest of every job's canonical output at the current commit."""
    digests = {}
    for workload in ("hua-tables", "gkm-engine", "cli-cold"):
        work = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
        try:
            for job in Run(workload, seed, work).worker()["jobs"]:
                if job["digest"] is not None:
                    digests[job["name"]] = job["digest"]
        finally:
            shutil.rmtree(work, ignore_errors=True)
    with open(os.path.join(HERE, "references.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(digests.items())), fh, indent=1)
        fh.write("\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-references", action="store_true",
                        help="record reference digests of every job's output and exit")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "qgk", "__init__.py")):
        print(f"error: no qgk package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.write_references:
        write_references(args.seed)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    # One CPU for the harness, its children and the metronome, so that the
    # metronome samples the speed of the CPU the passes run on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    work = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        run = Run(args.workload, args.seed, work)
        metrics, jobs = measure_layers(run) if args.trace else measure(run, args.seconds)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(result_line(metrics, jobs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
