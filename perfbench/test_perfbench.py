"""Self-tests of the benchmark harness.

Run from the root of the repository with ``python3 -m pytest perfbench -q``.
The repeatability test runs every workload traced twice and takes a few
minutes.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


def _benchmark_json() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_names_every_metric():
    bench = _benchmark_json()
    assert [w["name"] for w in bench["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == tracing.metric_names()


def test_relabelling_is_undone_by_canonical_text():
    text = "# block 1,0,2\tmultiplicity 1\tweight -1,0,3\n1,0,2\t0,0,1\tq\n0,1,0\t1\n0,0,1\t2,1,0:1 0,0,1:2\n"
    rng = random.Random(7)
    expected = wl.canonical_text(text, [0, 1, 2])
    for _ in range(6):
        order = [0, 1, 2]
        rng.shuffle(order)
        permuted = wl._VECTOR.sub(
            lambda m: ",".join(map(str, wl.permute_vector([int(x) for x in m.group(0).split(",")], order))),
            text,
        )
        assert wl.canonical_text(permuted, order) == expected


def test_affine_d4_closed_form_has_24_real_roots():
    import worker

    dims = worker._affine_d4_dims(6)
    assert sum(1 for block in dims.values() if block == {0: 1}) == 24
    assert dims[(2, 1, 1, 1, 1)] == {0: 4}


def _traced(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "1"],
        capture_output=True, text=True, cwd=run.ROOT, timeout=300, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_counters_repeat_for_one_seed(workload):
    first, second = _traced(workload, 5), _traced(workload, 5)
    counters = [n for n, unit in tracing.metric_names() if unit == "count"]
    assert {n: first[n] for n in counters} == {n: second[n] for n in counters}
    if workload == "cli-warm":
        assert first["cli.cache.hits"] == 10
        assert first["cli.cache.misses"] == 0
        assert first["kac.hua_kac.calls"] == 0
