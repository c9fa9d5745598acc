"""Release gate: end-to-end checks on the reference quivers.

Each check prints a single PASS/FAIL line and enforces a wall-clock
budget.  Run with `pytest -v -s tests/test_acceptance.py` to see the
lines as they appear.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager, redirect_stdout
from pathlib import Path

import test_gkm
import test_roots
import test_series
from reference import in_sigma, series_inv, weyl_word_pairs

from qgk import (
    CartanDatum,
    GradedSeries,
    PlethMode,
    QPoly,
    Quiver,
    WeightFunction,
    absolutely_cuspidal,
    absolutely_cuspidal_from_kac,
    canonical_decomposition,
    frame,
    framed_character,
    gkm_dims,
    hua_kac,
    ip_general,
    lw_decompose,
    oracle_kac_full,
    pleth_exp,
    series_mul,
)
from qgk.cli import run
from qgk.series import vectors_up_to

Q = QPoly.q_power
ONE = QPoly.one()

JORDAN = Quiver(["0"], [("0", "0")])
A2 = Quiver(["0", "1"], [("0", "1")])
KRON = Quiver(["0", "1"], [("0", "1"), ("0", "1")])
G2 = Quiver(["0"], [("0", "0"), ("0", "0")])


@contextmanager
def gate(label: str, budget: float | None = None):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"FAIL {label}")
        raise
    elapsed = time.monotonic() - started
    if budget is not None and elapsed >= budget:
        print(f"FAIL {label}: {elapsed:.2f}s over the {budget:.0f}s budget")
        raise AssertionError(f"{label} took {elapsed:.2f}s, budget {budget:.0f}s")
    note = "" if budget is None else f" < {budget:.0f}s"
    print(f"PASS {label} ({elapsed:.2f}s{note})")


ROOT = Path(__file__).resolve().parent.parent


def _python_env() -> dict[str, str]:
    """os.environ with this checkout's src first on PYTHONPATH, for a child python."""
    src = str(ROOT / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def test_jordan_kac_line():
    with gate("Jordan A_n = q up to 6, oracle agreement up to 3", 5.0):
        table = hua_kac(JORDAN, 6)
        for n in range(1, 7):
            assert table.polynomial((n,)) == Q(1)
        oracle = oracle_kac_full(JORDAN, 3)
        for n in range(1, 4):
            assert oracle.polynomial((n,)) == table.polynomial((n,))


def test_hua_tables_are_fast():
    with gate("hua_kac Kronecker N=9 and Jordan N=16", 2):
        kronecker = hua_kac(KRON, 9)
        jordan = hua_kac(JORDAN, 16)
    for n in range(1, 5):
        assert kronecker.polynomial((n, n)) == Q(1) + ONE
    for n in range(1, 17):
        assert jordan.polynomial((n,)) == Q(1)


#: SHA-256 of the "d<TAB>A_d" lines of KacTable.items().  The first three
#: were recorded from the unpacked Hua sum (one sparse product per
#: multipartition), the rest from the packed sum that walked the arrow list
#: for its exponent.  Those cover parallel arrows, opposite arrows, a loop
#: off and on the innermost vertex, three vertices and a framing vertex.
KAC_DIGESTS = {
    "kronecker-16": "293fc5ba0ef4d1ec18d713d99a502e2a9caedc5422e54166b5794addc3446543",
    "jordan-24": "fb20d9d362a61d83448ff486a32f6e0c307a8fbd23855c8304eedd58545b7566",
    "affine_d4-7": "e627f78aae5e66831e17a19b7cbcf9d2e81d2d7c23b2fb40d82e4fe4abc171fb",
    "kronecker_opposite-12": "a9828089ef27cf9e5a9816aa9dd359abc028426242b7ac7a148676243c73eb42",
    "kronecker3-8": "f521d854711dc855f4d4900a5cd3e874692de88ab22b360b3ea3faca44a2dd4e",
    "loop_plus_leg-8": "5db92b110b88df04e259640128db27b40b56f8e6e51f6d2b0dc9dd2deb27e87d",
    "leg_plus_loop-8": "9c693bf2a162fb726d1fccca512fbebac8855d2d3a0ae96b2052cf37aa6c2e89",
    "wild3-6": "4be94e2fc0630e134fcc767510b187eb6ab7e3511b61837db7164249220d6d0f",
    "framed_kronecker-7": "bd89616e4e17002bc1974449b5e76b2d3cd00ceb0bf3b6617c60ed49c8224fb7",
}


def _kac_digest(table) -> str:
    text = "".join(f"{','.join(map(str, d))}\t{p}\n" for d, p in table.items())
    return hashlib.sha256(text.encode()).hexdigest()


def test_hua_tables_at_scale():
    with gate("hua_kac Kronecker N=16", 1.0):
        kronecker = hua_kac(KRON, 16)
    with gate("hua_kac Jordan N=24", 1.0):
        jordan = hua_kac(JORDAN, 24)
    wild3 = Quiver(["0", "1", "2"], [("0", "1"), ("0", "1"), ("1", "2"), ("1", "2"), ("0", "2")])
    digests = {
        "kronecker-16": kronecker,
        "jordan-24": jordan,
        "affine_d4-7": hua_kac(test_roots.AFFINE_D4, 7),
        "kronecker_opposite-12": hua_kac(Quiver(["0", "1"], [("0", "1"), ("1", "0")]), 12),
        "kronecker3-8": hua_kac(Quiver(["0", "1"], [("0", "1")] * 3), 8),
        "loop_plus_leg-8": hua_kac(test_gkm.LOOP_PLUS_LEG, 8),
        "leg_plus_loop-8": hua_kac(test_gkm.LEG_PLUS_LOOP, 8),
        "wild3-6": hua_kac(wild3, 6),
        "framed_kronecker-7": hua_kac(frame(KRON, (1, 0)), 7),
    }
    assert {name: _kac_digest(table) for name, table in digests.items()} == KAC_DIGESTS
    assert all(jordan.polynomial((n,)) == Q(1) for n in range(1, 25))
    cusp = absolutely_cuspidal_from_kac(kronecker)
    assert cusp.table == {(1, 0): ONE, (0, 1): ONE, **{(k, k): Q(1) for k in range(1, 9)}}


def test_gkm_characters_are_fast():
    kac = hua_kac(KRON, 12)
    d4 = Quiver(["0", "1", "2", "3", "4"], [("1", "0"), ("2", "0"), ("3", "0"), ("4", "0")])
    cartan = CartanDatum.from_quiver(d4)
    units = {tuple(int(i == k) for i in range(5)): ONE for k in range(5)}
    with gate("C^abs Kronecker N=12 and affine D4 gkm_dims N=7", 2):
        cusp = absolutely_cuspidal_from_kac(kac)
        dims = gkm_dims(cartan, WeightFunction(d4, units), 7).dims
    assert cusp.table == {(1, 0): ONE, (0, 1): ONE, **{(k, k): Q(1) for k in range(1, 7)}}
    delta = (2, 1, 1, 1, 1)
    assert dims.pop(delta) == {0: 4}
    assert len(dims) == 29  # 24 real roots with |d| <= 6, and delta + 1_i
    assert all(block == {0: 1} and sum(d) in range(1, 8) for d, block in dims.items())
    assert all(cartan.form(d, d) == 2 for d in dims)


def test_wide_weight_span_stays_sparse():
    cartan = CartanDatum.from_quiver(KRON)
    wide = ONE + Q(1_000_000)
    with gate("gkm_dims Kronecker N=6 with 1 + q^1000000 at (1,1)", 2):
        plain = gkm_dims(cartan, WeightFunction(KRON, {(1, 0): ONE, (0, 1): ONE, (1, 1): wide}), 6)
        # real letters at q: no common exponent step compresses the span
        shifted = {(1, 0): Q(1), (0, 1): Q(1), (1, 1): wide}
        shifted = gkm_dims(cartan, WeightFunction(KRON, shifted), 6)
    assert plain.dims == {
        (0, 1): {0: 1}, (1, 0): {0: 1}, (1, 1): {0: 2, 2_000_000: 1},
        **{d: {0: 1} for d in [(1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3)]},
    }
    assert shifted.dims == {
        (0, 1): {2: 1}, (1, 0): {2: 1}, (1, 1): {0: 1, 4: 1, 2_000_000: 1},
        (1, 2): {6: 1}, (2, 1): {6: 1}, (2, 2): {8: 1},
        (2, 3): {10: 1}, (3, 2): {10: 1}, (3, 3): {12: 1},
    }


def test_wide_arrowless_quiver_is_fast():
    """Each unit is a real simple root orthogonal to every other one, so C^abs is 1 at each."""
    rank = 240
    wide = Quiver([str(i) for i in range(rank)], [])
    with gate(f"C^abs on {rank} arrowless vertices at bound 1", 2):
        cusp = absolutely_cuspidal(wide, 1)
    assert cusp.table == {tuple(int(i == k) for i in range(rank)): ONE for k in range(rank)}


def test_oracle_reaches_kronecker_5():
    with gate("oracle Kronecker N=5 agrees with Hua", 3):
        oracle = oracle_kac_full(KRON, 5)
        hua = hua_kac(KRON, 5)
    assert {d: p for d, p in oracle.table.items() if not p.is_zero()} == hua.table


def test_kronecker_isotropic_cuspidal():
    with gate("Kronecker A_(1,1) vs oracle, C^abs on the isotropic ray", 30.0):
        table = hua_kac(KRON, 6)
        assert table.polynomial((1, 1)) == oracle_kac_full(KRON, 2).polynomial((1, 1))
        cusp = absolutely_cuspidal(KRON, 6)
        for l in range(1, 4):
            assert cusp.polynomial((l, l)) == Q(1)


def test_a2_relation_sentinel():
    with gate("A2 inversion stops at the units; bracket square vanishes", 10.0):
        cusp = absolutely_cuspidal(A2, 4)
        assert dict(cusp.items()) == {(1, 0): ONE, (0, 1): ONE}
        for d in vectors_up_to(2, 4):
            if any(d) and d not in ((1, 0), (0, 1)):
                assert cusp.polynomial(d).is_zero()
        weights = WeightFunction(A2, dict(cusp.table))
        dims = gkm_dims(CartanDatum.from_quiver(A2), weights, 4)
        assert not dims.dims.get((2, 1)) and not dims.dims.get((1, 2))
        assert {d: b for d, b in dims.dims.items() if b} == {
            (1, 0): {0: 1},
            (0, 1): {0: 1},
            (1, 1): {0: 1},
        }


def test_loop_quiver_dual_route_inversion():
    with gate("2-loop quiver: denominator route and series inversion agree", 60.0):
        cusp = absolutely_cuspidal(G2, 5)
        kac = hua_kac(G2, 5)
        uea = pleth_exp(kac.to_series(), PlethMode.QZ)
        generators = GradedSeries.one(1, 5) - series_inv(uea)
        for d in range(1, 6):
            poly = cusp.polynomial((d,))
            assert poly == generators.coeff((d,))
            assert poly.is_monic()
            assert poly.degree_q() == 1 + d * d
            for half, coeff in poly.items():
                assert half % 2 == 0 and coeff.denominator == 1 and coeff > 0


def test_framed_jordan_partition_block():
    with gate("framed Jordan: one block carrying the partition series", 60.0):
        dec = lw_decompose(JORDAN, (1,), 6)
        assert [b.vector for b in dec.blocks] == [(0,)]
        block = dec.blocks[0]
        assert block.multiplicity == ONE
        expected = GradedSeries.one(1, 6)
        for k in range(1, 7):
            factor = GradedSeries(1, 6, {(0,): ONE, (k,): QPoly.zero() - Q(-1)})
            expected = series_mul(expected, factor)
        expected = series_inv(expected)
        assert block.character.items() == expected.items()
        total = framed_character(JORDAN, (1,), 6)
        for n in range(7):
            assert dec.total.coeff((n,)) == total.coeff((n,))
            assert block.multiplicity * block.character.coeff((n,)) == total.coeff((n,))


#: The demo framings with the number of blocks each prints at --bound 4.
FRAMED_BLOCKS = {
    ("a2", "1,0"): 1, ("a2", "1,1"): 2, ("a2", "2,1"): 3,
    ("jordan", "1"): 1, ("jordan", "2"): 5,
    ("kronecker", "1,0"): 1, ("kronecker", "1,1"): 3, ("kronecker", "0,2"): 5,
    ("two_loop", "1"): 4, ("two_loop", "2"): 5,
}


def test_nakajima_decomp_on_every_demo_framing():
    demos = Path(__file__).parent.parent / "demos" / "quivers"
    with gate(f"nakajima-decomp --bound 4 prints blocks on {len(FRAMED_BLOCKS)} framings", 1.0):
        for (name, framing), blocks in FRAMED_BLOCKS.items():
            out = io.StringIO()
            with redirect_stdout(out):
                argv = ["nakajima-decomp", str(demos / f"{name}.json"), "--framing", framing]
                code = run([*argv, "--bound", "4"])
            assert code == 0, (name, framing)
            assert out.getvalue().count("# block ") == blocks, (name, framing)


def test_weyl_invariance():
    with gate("Kac tables constant along Weyl orbits (words up to length 3)", 10.0):
        for quiver in (A2, KRON):
            table = hua_kac(quiver, 4)
            series = table.to_series()
            checked = 0
            for d, image in weyl_word_pairs(table.cartan, 4):
                assert series.coeff(image) == series.coeff(d)
                checked += 1
            assert checked


def test_canonical_refinement_and_ip_reduction():
    with gate("canonical decomposition refines all splittings; IP agrees", 30.0):
        test_roots.test_every_sigma_decomposition_refines_the_canonical_one(
            A2, KRON, G2
        )
        d4, loop_leg = test_roots.AFFINE_D4, test_roots.LOOP_PLUS_LEG
        cases = ((A2, 5), (KRON, 5), (G2, 5), (d4, 6), (loop_leg, 7))
        for quiver, bound in cases:
            cartan = CartanDatum.from_quiver(quiver)
            cusp = absolutely_cuspidal(quiver, bound)
            rank = len(quiver.vertices)
            for d in vectors_up_to(rank, bound):
                if not any(d):
                    continue
                if in_sigma(cartan, d):
                    assert canonical_decomposition(quiver, d) == [(d, 1)]
                    shifted = cusp.polynomial(d).substitute_power(-2)
                    assert ip_general(quiver, d) == shifted


def test_nilpotent_jordan():
    with gate("nilpotent Jordan counts are 1 and invert to 1", 60.0):
        nil = oracle_kac_full(JORDAN, 3, "nilpotent")
        for n in range(1, 4):
            assert nil.polynomial((n,)) == ONE
        cusp = absolutely_cuspidal(JORDAN, 3, "nilpotent")
        for n in range(1, 4):
            assert cusp.polynomial((n,)) == ONE


def test_verify_passes_on_every_demo_quiver():
    demos = sorted((Path(__file__).parent.parent / "demos" / "quivers").glob("*.json"))
    with gate(f"qgk verify exits 0 on all {len(demos)} demo quivers at the default bound", 15.0):
        assert demos
        for path in demos:
            out = io.StringIO()
            with redirect_stdout(out):
                code = run(["verify", str(path)])
            assert code == 0, f"{path.name}:\n{out.getvalue()}"


def _path(n: int) -> tuple[list[str], list[list[str]]]:
    return [str(i) for i in range(n)], [[str(i), str(i + 1)] for i in range(n - 1)]


#: Quivers with many loop-free vertices.  While the weyl row applied every
#: word of up to three reflections to every vector, verify --bound 2 took
#: 48 s on the 20-vertex path and over 120 s on the 30-vertex one.
LONG_QUIVERS = {
    "20-vertex path": _path(20),
    "30-vertex path": _path(30),
    "30-leaf star": (["c", *map(str, range(30))], [[str(i), "c"] for i in range(30)]),
    "30-cycle": ([str(i) for i in range(30)], [[str(i), str((i + 1) % 30)] for i in range(30)]),
}


def test_verify_on_long_quivers(tmp_path):
    for name, (vertices, arrows) in LONG_QUIVERS.items():
        path = tmp_path / f"{name.replace(' ', '_')}.json"
        path.write_text(json.dumps({"vertices": vertices, "arrows": arrows}))
        argv = [sys.executable, "-m", "qgk", "verify", str(path), "--bound", "2"]
        with gate(f"qgk verify --bound 2 on the {name}", 2):
            proc = subprocess.run(
                argv, capture_output=True, text=True, env=_python_env(), timeout=2
            )
        assert proc.returncode == 0, f"{name}:\n{proc.stdout}{proc.stderr}"
        statuses = {row.split("\t")[1]: row.split("\t")[0] for row in proc.stdout.splitlines()}
        assert "FAIL" not in statuses.values(), proc.stdout
        assert statuses["weyl-invariance"] == "PASS", proc.stdout


#: SHA-256 of each demo's standard output, recorded while the Hua sum still
#: walked the arrow list.  The demos print exact values only, so any change
#: in what the pipeline computes or prints changes a digest.
DEMO_DIGESTS = {
    "cuspidal_and_ip.py": "6dc0a98387d83bd8227a3318ec3c819e16d75b67ed5a87b0137a086d2af647ce",
    "framed_blocks.py": "5385ab7dab56358a9de1a84871e4fc17e608119bf75a81dda38ed8440a3c1578",
    "kac_walkthrough.py": "7371ef822fb61ea5d78390e9af6552e94f6ba6a95463ba07194b0bd5043e30a2",
}


def test_demos_print_what_they_printed():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_DIGESTS)
    with gate(f"the {len(DEMO_DIGESTS)} demos print their recorded output", 15.0):
        for name, digest in DEMO_DIGESTS.items():
            proc = subprocess.run(
                [sys.executable, str(ROOT / "demos" / name)], capture_output=True, env=_python_env()
            )
            assert proc.returncode == 0, proc.stderr.decode()
            assert hashlib.sha256(proc.stdout).hexdigest() == digest, name


def test_randomised_property_suites():
    with gate("randomised suites: Exp/Log, additivity, ordering"):
        test_series.test_exp_log_inverse_both_modes()
        test_series.test_exp_additivity_both_modes()
        test_gkm.test_engine_dims_do_not_depend_on_registration_order()
