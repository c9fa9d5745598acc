from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
import test_roots
from reference import weyl_word_pairs

import qgk._burnside
import qgk._request
import qgk.cli
import qgk.cuspidal
import qgk.nakajima
import qgk.roots
from qgk import CartanDatum, GkmError, GradedSeries, Quiver, hua_kac, lw_decompose
from qgk.cli import run
from qgk.series import vectors_up_to


@pytest.fixture
def qfile(tmp_path):
    def write(name, vertices, arrows):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"vertices": vertices, "arrows": arrows}))
        return str(path)

    return write


@pytest.fixture
def jordan_file(qfile):
    return qfile("jordan", ["0"], [["0", "0"]])


@pytest.fixture
def a2_file(qfile):
    return qfile("a2", ["0", "1"], [["0", "1"]])


@pytest.fixture
def kron_file(qfile):
    return qfile("kron", ["0", "1"], [["0", "1"], ["0", "1"]])


def _out(capsys):
    captured = capsys.readouterr()
    return captured.out


def test_kac_tsv_golden(jordan_file, capsys):
    assert run(["kac", jordan_file, "--bound", "4", "--method", "hua"]) == 0
    assert _out(capsys) == "1\tq\n2\tq\n3\tq\n4\tq\n"


def test_kac_oracle_method(a2_file, capsys):
    assert run(["kac", a2_file, "--bound", "2", "--method", "oracle"]) == 0
    lines = _out(capsys).splitlines()
    assert "1,1\t1" in lines
    assert "1,0\t1" in lines


def test_cuspidal_tsv_golden(kron_file, capsys):
    assert run(["cuspidal", kron_file, "--bound", "4"]) == 0
    assert _out(capsys) == (
        "# C^abs\n"
        "0,1\t1\n"
        "1,0\t1\n"
        "1,1\tq\n"
        "2,2\tq\n"
        "# C\n"
        "0,1\t1\n"
        "1,0\t1\n"
        "1,1\tq\n"
        "2,2\t1/2*q + 1/2*q^2\n"
    )


def test_roots_tsv(kron_file, capsys):
    assert run(["roots", kron_file, "--bound", "4"]) == 0
    lines = _out(capsys).splitlines()
    assert "1,1\tisotropic\tsigma\t1,1\t1" in lines
    assert "2,2\tisotropic\tphi\t1,1\t2" in lines
    assert "1,0\treal\tsigma\t1,0\t1" in lines


def test_ip_single_dim_and_header(kron_file, capsys):
    assert run(["ip", kron_file, "--dim", "1,1"]) == 0
    lines = _out(capsys).splitlines()
    assert lines[0].startswith("# IP convention: coefficients of v^j")
    assert lines[1] == "1,1\tq^-2"
    assert len(lines) == 2


def test_ip_full_table(kron_file, capsys):
    assert run(["ip", kron_file, "--bound", "2"]) == 0
    lines = _out(capsys).splitlines()
    assert "1,1\tq^-2" in lines
    assert "2,0\t1" in lines


def test_canonical_decomp_single(a2_file, kron_file, qfile, capsys):
    assert run(["canonical-decomp", a2_file, "--dim", "2,1"]) == 0
    assert _out(capsys) == "2,1\t0,1:1 1,0:2\n"
    assert run(["canonical-decomp", kron_file, "--dim", "40,40"]) == 0
    assert _out(capsys) == "40,40\t1,1:40\n"
    # the imaginary root delta of affine D4 lies in Sigma: it is its own decomposition
    d4_file = qfile("d4", ["0", "1", "2", "3", "4"], [[v, "0"] for v in "1234"])
    assert run(["canonical-decomp", d4_file, "--dim", "2,1,1,1,1"]) == 0
    assert _out(capsys) == "2,1,1,1,1\t2,1,1,1,1:1\n"
    # the A10 path: 3^10 pairs under d, though 184,756 vectors have |e| <= 10
    names = [str(v) for v in range(10)]
    a10_file = qfile("a10", names, [[s, t] for s, t in zip(names, names[1:])])
    assert run(["canonical-decomp", a10_file, "--dim", ",".join("1" * 10)]) == 0
    units = [",".join("1" if j == i else "0" for j in range(10)) for i in reversed(range(10))]
    assert _out(capsys) == ",".join("1" * 10) + "\t" + " ".join(f"{u}:1" for u in units) + "\n"


def test_json_format_matches_tsv_data(jordan_file, capsys):
    assert run(["kac", jordan_file, "--bound", "3", "--format", "json"]) == 0
    payload = json.loads(_out(capsys))
    assert payload["rows"] == [["1", "q"], ["2", "q"], ["3", "q"]]


def test_gkm_dims_from_kac(a2_file, capsys):
    assert run(["gkm-dims", a2_file, "--from-kac", "--bound", "3"]) == 0
    assert _out(capsys) == "0,1\t0\t1\n1,0\t0\t1\n1,1\t0\t1\n"


def test_gkm_dims_weights_file(kron_file, tmp_path, capsys):
    weights = tmp_path / "weights.json"
    table = {"1,0": {"0": "1"}, "0,1": {"0": "1"}}
    for entries in (table, {**table, "1,1": {}}):  # a zero weight is no generator
        weights.write_text(json.dumps({"weights": entries}))
        assert run(["gkm-dims", kron_file, "--weights", str(weights), "--bound", "3"]) == 0
        assert _out(capsys) == (
            "0,1\t0\t1\n1,0\t0\t1\n1,1\t0\t1\n1,2\t0\t1\n2,1\t0\t1\n"
        )


def test_gkm_dims_weight_file_validation(kron_file, tmp_path, capsys):
    bad_texts = [
        "not json",
        json.dumps({"weights": {"1,0": {"1": "1"}}}),  # odd half-degree
        json.dumps({"weights": {"1,0": {"0": "-1"}}}),  # negative
        json.dumps({"weights": "nope"}),
        json.dumps({"weights": {"9,9,9": {"0": "1"}}}),  # wrong rank
        json.dumps({"weights": {"1,0": {"0": "2"}}}),  # real root, multiplicity 2
        json.dumps({"weights": {"2,0": {"0": "1"}}}),  # (m,m) = 8
        json.dumps({"weights": {"1,0": {"0": "1"}, "2,1": {"0": "1"}}}),  # pair positively
        json.dumps({"weights": {"0,0": {"0": "1"}}}),  # zero root
        json.dumps({"weights": {"1,0": 5}}),  # not an object
        json.dumps({"weights": {"1,0": {"0": "x"}}}),  # not a coefficient
    ]
    # last two: not UTF-8, and nested deeper than json recurses
    for text in [t.encode() for t in bad_texts] + [b"\xff\xfe{}", b"[" * 200_000]:
        path = tmp_path / "w.json"
        path.write_bytes(text)
        assert run(["gkm-dims", kron_file, "--weights", str(path)]) == 1


def test_gkm_dims_weight_file_enters_the_cache_key_by_its_text(
    kron_file, tmp_path, monkeypatch, capsys
):
    cache, weights = tmp_path / "cache", tmp_path / "weights.json"
    table = {"1,0": {"0": "1"}, "0,1": {"0": "1"}}
    weights.write_text(json.dumps({"weights": table}))
    argv = ["gkm-dims", kron_file, "--weights", str(weights), "--bound", "3"]
    argv += ["--cache-dir", str(cache)]
    assert run(argv) == 0
    cold = _out(capsys)
    # the same text, written again, is a hit: nothing is computed
    weights.write_text(json.dumps({"weights": table}))
    real = qgk.cli.gkm_dims
    monkeypatch.setattr(qgk.cli, "gkm_dims", None)
    assert run(argv) == 0
    assert _out(capsys) == cold
    monkeypatch.setattr(qgk.cli, "gkm_dims", real)
    table["1,1"] = {"2": "1"}
    weights.write_text(json.dumps({"weights": table}))
    assert run(argv) == 0
    assert _out(capsys) != cold
    assert len(list(cache.glob("qgk-gkm-dims-*.txt"))) == 2


def test_gkm_dims_requires_one_source(a2_file):
    assert run(["gkm-dims", a2_file]) == 1
    assert run(["gkm-dims", a2_file, "--from-kac", "--weights", "x.json"]) == 1


def test_nakajima_tsv(a2_file, capsys):
    assert run(["nakajima-decomp", a2_file, "--framing", "1,0", "--bound", "2"]) == 0
    assert _out(capsys) == (
        "# block 0,0\tmultiplicity 1\tweight -1,0\n"
        "0,0\t0,0\t1\n"
        "0,0\t1,0\t1\n"
        "0,0\t1,1\t1\n"
    )


def test_nakajima_tsv_rows_follow_the_json_order(qfile, capsys):
    """Block characters print in (|d|, lex) order, also past one-digit entries."""
    loop_and_point = qfile("loop_and_point", ["0", "1"], [["0", "0"]])
    argv = ["nakajima-decomp", loop_and_point, "--framing", "1,1", "--bound", "10"]
    assert run([*argv, "--format", "json"]) == 0
    blocks = json.loads(_out(capsys))["blocks"]
    assert run(argv) == 0
    rows = [line.split("\t") for line in _out(capsys).splitlines() if not line.startswith("#")]
    for block in blocks:
        keys = list(block["character"])
        vectors = [tuple(map(int, e.split(","))) for e in keys]
        assert vectors == sorted(vectors, key=lambda t: (sum(t), t))
        assert [e for d, e, _ in rows if d == block["d"]] == keys
    assert "10,0" in blocks[0]["character"]


@pytest.mark.parametrize(
    "vertices, arrows",
    [
        (["0", "1"], [["0", "1"], ["0", "1"]]),
        (["0", "1", "2", "3", "4"], [["1", "0"], ["2", "0"], ["3", "0"], ["4", "0"]]),
    ],
    ids=["kronecker", "affine-d4"],
)
def test_ip_single_dim_is_the_row_of_the_full_table(qfile, capsys, vertices, arrows):
    path = qfile("quiver", vertices, arrows)
    assert run(["ip", path, "--bound", "4"]) == 0
    rows = _out(capsys).splitlines()[1:]
    assert len(rows) == sum(1 for d in vectors_up_to(len(vertices), 4) if any(d))
    for row in rows:
        assert run(["ip", path, "--dim", row.split("\t")[0]]) == 0
        assert _out(capsys).splitlines()[1:] == [row]


def test_nakajima_requires_framing(a2_file):
    assert run(["nakajima-decomp", a2_file]) == 1


def test_exit_codes_for_bad_input(jordan_file, a2_file, tmp_path, capsys):
    not_utf8 = tmp_path / "bad.json"
    not_utf8.write_bytes(b"\xff\xfe{}")
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 200_000)  # json recurses once per bracket
    assert run(["kac", "/nonexistent/q.json"]) == 1
    assert run(["kac", str(not_utf8)]) == 1
    capsys.readouterr()
    assert run(["kac", str(nested)]) == 1
    assert capsys.readouterr().err.startswith("error: invalid JSON")
    assert run(["kac", jordan_file, "--bound", "0"]) == 1
    assert run(["kac", jordan_file, "--flavour", "nilpotent"]) == 1  # hua is plain-only
    assert run(["ip", a2_file, "--dim", "0,0"]) == 1
    assert run(["ip", a2_file, "--dim", "1,borken"]) == 1
    assert run(["canonical-decomp", a2_file, "--dim", "0,0"]) == 1
    # options are offered only to the commands that read them
    assert run(["nakajima-decomp", a2_file, "--framing", "1,0", "--flavour", "nilpotent"]) == 1
    assert run(["verify", jordan_file, "--flavour", "nilpotent"]) == 1
    assert run(["ip", jordan_file, "--flavour", "nilpotent"]) == 1
    assert run(["gkm-dims", jordan_file, "--from-kac", "--flavour", "nilpotent"]) == 1
    # one --dim is answered in place of every d up to --bound, never beside it
    assert run(["ip", a2_file, "--dim", "1,1", "--bound", "2"]) == 1
    assert run(["canonical-decomp", a2_file, "--dim", "1,1", "--bound", "2"]) == 1


def test_bad_dimension_vectors_exit_one(a2_file, jordan_file, capsys):
    length = "error: dimension sequence length differs from vertex count\n"
    negative = "error: negative entry in a dimension vector\n"
    cases = [
        (["ip", a2_file, "--dim", "1,2,3"], length),
        (["ip", a2_file, "--dim", "1,-1"], negative),
        (["canonical-decomp", a2_file, "--dim", "1"], length),
        (["nakajima-decomp", jordan_file, "--framing", "-1"], negative),
    ]
    for argv, stderr in cases:
        assert run(argv) == 1
        assert capsys.readouterr().err == stderr, argv


def test_wide_quiver_at_bound_one(qfile, capsys):
    """1,000 vertices, more than the interpreter's default recursion limit."""
    wide = qfile("wide", [str(v) for v in range(1000)], [])
    assert run(["kac", wide, "--bound", "1"]) == 0
    rows = _out(capsys).splitlines()
    units = [["0"] * k + ["1"] + ["0"] * (999 - k) for k in reversed(range(1000))]
    assert rows == [",".join(unit) + "\t1" for unit in units]


def test_comparable_blocks_decompose(jordan_file, capsys):
    assert run(["nakajima-decomp", jordan_file, "--framing", "2", "--bound", "3"]) == 0
    headers = [line for line in _out(capsys).splitlines() if line.startswith("#")]
    assert headers == [
        "# block 0\tmultiplicity 1\tweight -2",
        "# block 1\tmultiplicity q^-2\tweight -2",
        "# block 2\tmultiplicity q^-4 + q^-2\tweight -2",
        "# block 3\tmultiplicity q^-6 + q^-4 + q^-2\tweight -2",
    ]


def test_a_shifted_start_is_a_violated_invariant(a2, a2_file, monkeypatch, capsys):
    """The blocks and F are computed apart, so a wrong lowest weight is caught."""
    real = qgk.nakajima.lowest_weight_extract

    def shifted(cartan, start, simple, envelope):
        # (0,0,2) pairs to -2 with the first unit vector, where (0,0,1) pairs to -1
        return real(cartan, start[:-1] + (2,), simple, envelope)

    monkeypatch.setattr(qgk.nakajima, "lowest_weight_extract", shifted)
    with pytest.raises(GkmError, match="the blocks do not rebuild F at 2,0: 1 != 0"):
        lw_decompose(a2, (1, 0), 3)
    assert run(["nakajima-decomp", a2_file, "--framing", "1,0", "--bound", "3"]) == 2
    assert capsys.readouterr().err == (
        "invariant violated: the blocks do not rebuild F at 2,0: 1 != 0\n"
    )


def test_a_negative_block_coefficient_is_a_violated_invariant(a2, a2_file, monkeypatch, capsys):
    real = qgk.nakajima.lowest_weight_extract

    def negated(cartan, start, simple, envelope):
        framed = real(cartan, start, simple, envelope)
        return GradedSeries(framed.rank, framed.bound, {c: -p for c, p in framed.items()})

    monkeypatch.setattr(qgk.nakajima, "lowest_weight_extract", negated)
    message = "chL_0,0 has a negative or fractional coefficient at 0,0: -1"
    with pytest.raises(GkmError, match=re.escape(message)):
        lw_decompose(a2, (1, 0), 3)
    assert run(["nakajima-decomp", a2_file, "--framing", "1,0", "--bound", "3"]) == 2
    assert capsys.readouterr().err == f"invariant violated: {message}\n"


def test_budget_error_is_invalid_input(jordan_file, kron_file, qfile, capsys):
    assert run(["kac", jordan_file, "--method", "oracle", "--bound", "6"]) == 1
    cycle_file = qfile("cycle", ["0", "1", "2"], [["0", "1"], ["1", "2"], ["2", "0"]])
    start = time.perf_counter()
    for command in ("kac", "cuspidal", "verify"):  # Hua's sum would not finish
        assert run([command, jordan_file, "--bound", "100000000"]) == 1
    # the Sigma split tables would visit millions of pairs; the last two
    # inputs pass the vector budget
    assert run(["canonical-decomp", kron_file, "--dim", "60,60"]) == 1
    assert run(["canonical-decomp", jordan_file, "--bound", "9999"]) == 1
    assert run(["canonical-decomp", cycle_file, "--bound", "36"]) == 1
    assert time.perf_counter() - start < 5
    err = capsys.readouterr().err
    assert "runs over at least" in err
    budget = "pairs b <= a in the Sigma split table (budget 1000000)"
    assert f"the box under 60,60 needs 3575881 {budget}" in err
    assert f"|d| <= 9999 in rank 1 needs 50005000 {budget}" in err
    assert f"|d| <= 36 in rank 3 needs 5245786 {budget}" in err


def test_vector_budget_is_invalid_input(jordan_file, tmp_path, capsys):
    weights = tmp_path / "weights.json"
    weights.write_text(json.dumps({"weights": {"1": {"2": "1"}}}))
    huge = ["--bound", "100000000"]
    commands = [
        ["roots", jordan_file, *huge],
        ["canonical-decomp", jordan_file, *huge],
        ["canonical-decomp", jordan_file, "--dim", "100000000"],
        ["gkm-dims", jordan_file, "--weights", str(weights), *huge],
    ]
    start = time.perf_counter()
    for argv in commands:  # each would build every vector up to the bound
        assert run(argv) == 1
    assert time.perf_counter() - start < 5
    expected = "error: |d| <= 100000000 in rank 1 spans 100000001 dimension vectors (budget 10000)"
    # --dim builds only the box under d, so the split table's budget refuses it
    box = (
        "error: the box under 100000000 needs 5000000150000001 pairs b <= a "
        "in the Sigma split table (budget 1000000)"
    )
    assert capsys.readouterr().err.splitlines() == [expected, expected, box, expected]


def test_help_and_parse_errors():
    assert run(["--help"]) == 0
    assert run(["kac", "--help"]) == 0
    assert run([]) == 1
    assert run(["no-such-command", "x.json"]) == 1


def test_verify_passes(a2_file, capsys):
    assert run(["verify", a2_file, "--bound", "3"]) == 0
    lines = _out(capsys).splitlines()
    assert len(lines) == 8
    assert sum(line.startswith("PASS\t") for line in lines) == 7
    assert (
        "VACUOUS\torientation-independence\t"
        "hua_kac reads only the Cartan matrix, which arrow reversal keeps"
    ) in lines
    names = {line.split("\t")[1] for line in lines}
    assert "hua-vs-oracle" in names
    assert "gkm-presentation" in names
    assert (
        "PASS\tgkm-presentation\tpresented algebra and denominator identity agree on "
        "9 blocks with |d| <= 3"
    ) in lines


def test_verify_budget_refusal_is_invalid_input(qfile, monkeypatch, capsys):
    # a table that a budget refuses is refused input, not a failed check
    a3_file = qfile("a3", ["0", "1", "2"], [["0", "1"], ["1", "2"]])
    monkeypatch.setattr(qgk.roots, "VECTOR_BUDGET", 5)
    assert run(["verify", a3_file, "--bound", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: |d| <= 2 in rank 3 spans 10 dimension vectors (budget 5)\n"


def test_verify_presentation_check_catches_wrong_dims(a2_file, monkeypatch, capsys):
    real = qgk.cli.gkm_dims

    def off_by_one(cartan, weights, bound):
        table = real(cartan, weights, bound)
        table.dims[(1, 1)][0] += 1
        return table

    monkeypatch.setattr(qgk.cli, "gkm_dims", off_by_one)
    assert run(["verify", a2_file, "--bound", "3"]) == 2
    failed = [line for line in _out(capsys).splitlines() if line.startswith("FAIL")]
    assert failed == [
        "FAIL\tgkm-presentation\tdims of C^abs differ at 1,1; compared 9 blocks with |d| <= 3"
    ]


def test_verify_weyl_row_names_the_edge_where_a_differs(a2_file, monkeypatch, capsys):
    real = qgk.cli.hua_kac

    def bent(quiver, bound):
        table = real(quiver, bound)
        table.table[(1, 1)] = table.table[(1, 1)] * 2  # A is 1 at (0,1) and (1,0)
        return table

    monkeypatch.setattr(qgk.cli, "hua_kac", bent)
    assert run(["verify", a2_file, "--bound", "3"]) == 2
    rows = _verify_rows(capsys)
    assert rows["weyl-invariance"] == [
        "FAIL", "weyl-invariance", "A differs across s_0: 1,1 vs 0,1"
    ]
    assert rows["hua-vs-oracle"] == ["FAIL", "hua-vs-oracle", "mismatch at 1,1"]
    # library errors that land in a row name vectors as the rows do
    assert not [row for row in rows.values() if "(1, 1)" in "\t".join(row)]


def _components(edges):
    """Union-find over the edges' ends; returns the find function."""
    parent = {}

    def find(d):
        parent.setdefault(d, d)
        while parent[d] != d:
            parent[d] = d = parent[parent[d]]
        return d

    for _, d, image in edges:
        parent[find(d)] = find(image)
    return find


PATH5 = Quiver(list("01234"), [(str(i), str(i + 1)) for i in range(4)])
CYCLE3 = Quiver(list("012"), [("0", "1"), ("1", "2"), ("2", "0")])
A2 = Quiver(["0", "1"], [("0", "1")])
KRONECKER = Quiver(["0", "1"], [("0", "1"), ("0", "1")])


@pytest.mark.parametrize(
    "quiver, bounds",
    [
        (A2, range(2, 7)),
        (KRONECKER, range(1, 9)),
        (PATH5, [3]),
        (test_roots.AFFINE_D4, [4]),
        (CYCLE3, [5]),
    ],
    ids=["a2", "kronecker", "path5", "affine_d4", "cycle3"],
)
def test_weyl_edges_join_every_pair_the_words_compared(quiver, bounds):
    cartan = CartanDatum.from_quiver(quiver)
    for bound in bounds:
        vectors = [d for d in vectors_up_to(cartan.rank, bound) if any(d)]
        edges = list(qgk.cli._reflection_edges(cartan, vectors))
        # each edge d -- s_i d with both ends in the table comes exactly once
        found = [(i, frozenset((d, image))) for i, d, image in edges]
        inside = set()
        for d in vectors:
            for i in cartan.loop_free:
                image = cartan.reflect(i, d)
                if image != d and min(image) >= 0 and sum(image) <= bound:
                    inside.add((i, frozenset((d, image))))
        assert len(found) == len(set(found)) and set(found) == inside
        # A constant along the edges is constant on every pair a word of
        # length <= 3 reaches, wherever A is nonzero
        series = hua_kac(quiver, bound).to_series()
        find = _components(edges)
        for d, image in weyl_word_pairs(cartan, bound):
            if series.coeff(d) or series.coeff(image):
                assert find(d) == find(image), (bound, d, image)


def test_verify_presentation_check_stops_at_the_oracle_budget(kron_file, monkeypatch, capsys):
    import qgk._presented

    monkeypatch.setattr(qgk._presented, "PRESENTED_BUDGET", 100)
    assert run(["verify", kron_file, "--bound", "6"]) == 0
    status, _, detail = _verify_rows(capsys)["gkm-presentation"]
    assert status == "PASS"
    assert detail == (
        "presented algebra and denominator identity agree on 20 blocks with |d| <= 5; "
        "the relation ideal passed PRESENTED_BUDGET (100) at |d| = 6"
    )
    monkeypatch.setattr(qgk._presented, "PRESENTED_BUDGET", 0)
    assert run(["verify", kron_file, "--bound", "6"]) == 0
    status, _, detail = _verify_rows(capsys)["gkm-presentation"]
    assert status == "VACUOUS"
    assert detail.endswith(
        "0 blocks with |d| <= 0; the relation ideal passed PRESENTED_BUDGET (0) at |d| = 1"
    )


def test_verify_computes_the_kac_table_once(kron_file, monkeypatch, capsys):
    calls = []
    real = qgk.cli.hua_kac

    def counting(quiver, bound):
        calls.append(quiver)
        return real(quiver, bound)

    for module in (qgk.cli, qgk.cuspidal):
        monkeypatch.setattr(module, "hua_kac", counting)
    assert run(["verify", kron_file, "--bound", "4"]) == 0
    capsys.readouterr()
    assert len(calls) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["roots"],
        ["kac"],
        ["kac", "--method", "oracle", "--bound", "2"],
        ["cuspidal"],
        ["ip"],
        ["ip", "--dim", "2,2"],
        ["canonical-decomp"],
        ["gkm-dims", "--from-kac"],
        ["gkm-dims", "--weights", "{weights}"],
        ["nakajima-decomp", "--framing", "1,0"],
        ["verify"],
    ],
    ids=" ".join,
)
def test_each_command_builds_the_cartan_datum_once(argv, kron_file, tmp_path, monkeypatch, capsys):
    weights = tmp_path / "weights.json"
    weights.write_text(json.dumps({"weights": {"1,0": {"0": "1"}, "0,1": {"0": "1"}}}))
    builds = []
    real = qgk.CartanDatum.__init__

    def counting(self, matrix):
        builds.append(matrix)
        real(self, matrix)

    monkeypatch.setattr(qgk.CartanDatum, "__init__", counting)
    argv = [arg.format(weights=weights) for arg in argv]
    assert run([argv[0], kron_file, *argv[1:]]) == 0
    capsys.readouterr()
    assert len(builds) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["cuspidal"],
        ["ip"],
        ["ip", "--dim", "2,2"],
        ["gkm-dims", "--from-kac"],
        ["nakajima-decomp", "--framing", "1,0"],
        ["verify"],
    ],
    ids=" ".join,
)
def test_each_cuspidal_table_reads_phi_plus_once(argv, kron_file, monkeypatch, capsys):
    calls = []
    real = qgk.cuspidal.phi_plus

    def counting(cartan, bound):
        calls.append(bound)
        return real(cartan, bound)

    monkeypatch.setattr(qgk.cuspidal, "phi_plus", counting)
    assert run([argv[0], kron_file, *argv[1:]]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def _verify_rows(capsys) -> dict[str, list[str]]:
    return {line.split("\t")[1]: line.split("\t") for line in _out(capsys).splitlines()}


def test_verify_statuses(jordan_file, a2_file, kron_file, qfile, monkeypatch, capsys):
    # Jordan has no loop-free vertex: Weyl invariance covers nothing
    assert run(["verify", jordan_file, "--bound", "3"]) == 0
    rows = _verify_rows(capsys)
    assert rows["weyl-invariance"][0] == "VACUOUS"
    assert rows["hua-vs-oracle"][0] == "PASS"
    # nor does it where no reflection edge lies inside the bound; at A2
    # --bound 1, (1,0) and (0,1) meet only through (1,1)
    cases = ((a2_file, 1, 0), (kron_file, 1, 0), (kron_file, 2, 0), (kron_file, 6, 6))
    for path, bound, edges in cases:
        assert run(["verify", path, "--bound", str(bound)]) == 0
        assert _verify_rows(capsys)["weyl-invariance"] == [
            "PASS" if edges else "VACUOUS",
            "weyl-invariance",
            f"compared A across {edges} reflection edges with |d| <= {bound}",
        ]
    # A_(3) of the two-loop quiver needs 11 field sizes; |d| <= 2 is still checked
    two_loop = qfile("two_loop", ["0"], [["0", "0"], ["0", "0"]])
    assert run(["verify", two_loop]) == 0
    status, _, detail = _verify_rows(capsys)["hua-vs-oracle"]
    assert status == "PASS"
    assert detail == (
        "agree on 2 vectors with |d| <= 3; "
        "skipped 3 (need 11 field sizes for degree 10, have 10)"
    )
    # A_(1) of the ten-loop quiver has degree 10: no stage is checked
    ten_loops = [["0", "0"]] * 10
    assert run(["verify", qfile("ten_loop", ["0"], ten_loops), "--bound", "1"]) == 0
    assert _verify_rows(capsys)["hua-vs-oracle"][0] == "VACUOUS"
    # (1,1) has degree 9 but the oracle reaches it through the skipped (1,0)
    loop_and_point = qfile("ten_loop_and_point", ["0", "1"], ten_loops)
    assert run(["verify", loop_and_point, "--bound", "2"]) == 0
    detail = _verify_rows(capsys)["hua-vs-oracle"][2]
    assert "skipped 1,0 (need 11 field sizes for degree 10, have 10)" in detail
    assert "skipped 1,1 (need A at 1,0 first)" in detail
    # A_(3) over F_3 would enumerate 3^9 matrices; (1) and (2) are still checked
    monkeypatch.setattr(qgk._burnside, "ENUM_BUDGET", 10_000)
    monkeypatch.setattr(qgk._burnside, "_TYPE_CACHE", {})
    assert run(["verify", jordan_file, "--bound", "3"]) == 0
    status, _, detail = _verify_rows(capsys)["hua-vs-oracle"]
    assert status == "PASS"
    assert detail == (
        "agree on 2 vectors with |d| <= 3; "
        "skipped 3 (enumerating 3^9 matrices exceeds the budget of 10000)"
    )


def test_too_few_fields_is_invalid_input(qfile, capsys):
    # A_(1) of the ten-loop quiver has degree 10, one more than the fields can fix
    ten_loop = qfile("ten_loop", ["0"], [["0", "0"]] * 10)
    assert run(["kac", ten_loop, "--method", "oracle", "--bound", "1"]) == 1
    assert capsys.readouterr().err == "error: need 11 field sizes for degree 10, have 10\n"
    assert run(["cuspidal", ten_loop, "--flavour", "nilpotent", "--bound", "1"]) == 1
    assert capsys.readouterr().err == "error: need 11 field sizes for degree 10, have 10\n"


@st.composite
def cli_cases(draw):
    """(vertices, arrows, bound, dim, framing): rank <= 4 and <= 7 arrows, loops and
    parallel arrows included, at bounds small enough for every command."""
    rank = draw(st.sampled_from([4, 3, 2, 1]))
    vertices = [str(v) for v in range(rank)]
    arrow = st.lists(st.sampled_from(vertices), min_size=2, max_size=2)
    arrows = draw(st.lists(arrow, min_size=1, max_size=7))
    top = {1: 6, 2: 4, 3: 3, 4: 2}[rank]
    bound = top - draw(st.integers(0, top // 2))
    dim = draw(st.lists(st.integers(0, 3), min_size=rank, max_size=rank).filter(any))
    framing = draw(st.lists(st.integers(0, 2), min_size=rank, max_size=rank).filter(any))
    return vertices, arrows, bound, dim, framing


@settings(
    max_examples=20,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(cli_cases())
def test_random_quivers_through_every_command(case):
    # every command answers (0) or refuses with a budget (1): no invariant
    # fails, no traceback, no verify row FAILs, and no call runs away
    vertices, arrows, bound, dim, framing = case
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "quiver.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"vertices": vertices, "arrows": arrows}, f)
        commands = [
            ["verify"],
            ["cuspidal"],
            ["ip", "--dim", ",".join(map(str, dim))],
            ["gkm-dims", "--from-kac"],
            ["nakajima-decomp", "--framing", ",".join(map(str, framing))],
            ["canonical-decomp", "--dim", ",".join(map(str, dim))],
            ["kac", "--method", "oracle"],
        ]
        for command in commands:
            # --dim answers one vector and takes no --bound
            span = [] if "--dim" in command else ["--bound", str(bound)]
            argv = [command[0], path, *span, *command[1:]]
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(argv)
            assert time.perf_counter() - start < 5, argv
            assert code in (0, 1), (argv, err.getvalue())
            assert "Traceback" not in out.getvalue() + err.getvalue(), argv
            if command[0] == "verify":
                assert not re.search(r"^FAIL", out.getvalue(), re.M), out.getvalue()


def test_verify_json_statuses(a2_file, capsys):
    assert run(["verify", a2_file, "--bound", "2", "--format", "json"]) == 0
    results = json.loads(_out(capsys))["results"]
    assert {r["status"] for r in results} == {"pass", "vacuous"}
    assert set(results[0]) == {"property", "status", "detail"}


def test_cache_cold_and_warm_agree(kron_file, tmp_path, capsys):
    cache = tmp_path / "cache"
    argv = ["cuspidal", kron_file, "--bound", "3", "--cache-dir", str(cache)]
    assert run(argv) == 0
    cold = _out(capsys)
    entries = list(cache.glob("qgk-*.txt"))
    assert len(entries) == 1
    entry = entries[0].read_bytes()
    assert run(argv) == 0
    assert _out(capsys) == cold
    # a corrupt cache entry is ignored and rebuilt
    entries[0].write_text("{ not json")
    assert run(argv) == 0
    assert _out(capsys) == cold
    assert entries[0].read_bytes() == entry


def test_the_environment_names_no_cache_directory(kron_file, tmp_path, monkeypatch, capsys):
    # only --cache-dir names a cache; QGK_CACHE_DIR once did, and won over it
    cache = tmp_path / "cache"
    monkeypatch.setenv("QGK_CACHE_DIR", str(cache))
    assert run(["kac", kron_file, "--bound", "2"]) == 0
    assert _out(capsys) == "0,1\t1\n1,0\t1\n1,1\t1 + q\n"
    assert not cache.exists()


@pytest.mark.parametrize(
    "entry", [b'{"x": 1}', b'{"cabs": 1, "c": []}', b"[]", b"null", b'"\xff"']
)
def test_misshapen_cache_entry_is_rebuilt(kron_file, tmp_path, capsys, entry):
    cache = tmp_path / "cache"
    argv = ["cuspidal", kron_file, "--bound", "3", "--cache-dir", str(cache)]
    assert run(argv) == 0
    cold = _out(capsys)
    (path,) = cache.glob("qgk-*.txt")
    good = path.read_bytes()
    path.write_bytes(entry)
    assert run(argv) == 0
    assert _out(capsys) == cold
    assert path.read_bytes() == good


@pytest.mark.parametrize(
    "entry",
    [b'{"rows": [1]}', b'{"rows": [["1"]]}', pytest.param(b"[" * 200_000, id="nested-200000")],
)
def test_misshapen_cache_rows_are_rebuilt(jordan_file, tmp_path, capsys, entry):
    cache = tmp_path / "cache"
    argv = ["kac", jordan_file, "--bound", "3", "--cache-dir", str(cache)]
    assert run(argv) == 0
    cold = _out(capsys)
    assert cold == "1\tq\n2\tq\n3\tq\n"
    (path,) = cache.glob("qgk-*.txt")
    good = path.read_bytes()
    path.write_bytes(entry)
    assert run(argv) == 0
    assert _out(capsys) == cold
    assert path.read_bytes() == good


@pytest.mark.parametrize(
    "character", [{"x": 1}, {"1,0": 1}, {"1": "1"}, {"1,x": "1"}, {"²,0": "1"}]
)
def test_misshapen_cached_character_is_rebuilt(a2_file, tmp_path, capsys, character):
    cache = tmp_path / "cache"
    argv = ["nakajima-decomp", a2_file, "--framing", "1,0", "--bound", "2"]
    argv += ["--cache-dir", str(cache)]
    assert run(argv) == 0
    cold = _out(capsys)
    (path,) = cache.glob("qgk-*.txt")
    good = path.read_text()
    # the first block's character rows, d tab e tab value, give way to the bad ones
    rows = "".join(f"0,0\t{e}\t{p}\n" for e, p in character.items())
    path.write_text(good.replace("0,0\t0,0\t1\n0,0\t1,0\t1\n0,0\t1,1\t1\n", rows))
    assert path.read_text() != good
    assert run(argv) == 0
    assert _out(capsys) == cold
    assert path.read_text() == good


def test_missing_weight_file_with_cache_is_invalid_input(a2_file, tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    argv = ["gkm-dims", a2_file, "--weights", missing, "--cache-dir", str(tmp_path)]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read weight file")
    assert "Traceback" not in err


def test_unwritable_cache_still_prints_the_table(kron_file, tmp_path, capsys):
    blocker = tmp_path / "a-regular-file"
    blocker.write_text("")
    assert run(["kac", kron_file, "--bound", "2", "--cache-dir", str(blocker)]) == 0
    assert _out(capsys) == "0,1\t1\n1,0\t1\n1,1\t1 + q\n"
    assert blocker.read_text() == ""


def test_cache_keys_separate_commands_and_bounds(kron_file, tmp_path, capsys):
    cache = tmp_path / "cache"
    assert run(["kac", kron_file, "--bound", "2", "--cache-dir", str(cache)]) == 0
    assert run(["kac", kron_file, "--bound", "3", "--cache-dir", str(cache)]) == 0
    assert run(["roots", kron_file, "--bound", "2", "--cache-dir", str(cache)]) == 0
    capsys.readouterr()
    assert len(list(cache.glob("qgk-*.txt"))) == 3


def test_edited_cache_entry_is_rebuilt(jordan_file, tmp_path, capsys):
    cache = tmp_path / "cache"
    argv = ["kac", jordan_file, "--bound", "3", "--cache-dir", str(cache)]
    assert run(argv) == 0
    cold = _out(capsys)
    (path,) = cache.glob("qgk-*.txt")
    good = path.read_text()
    last = good.rindex("q")  # A_(3) = q becomes 2*q
    path.write_text(good[:last] + "2*q" + good[last + 1 :])
    assert run(argv) == 0
    assert _out(capsys) == cold
    assert path.read_text() == good


def test_cache_entry_of_another_request_is_not_served(kron_file, tmp_path, capsys):
    cache = tmp_path / "cache"
    argv = ["kac", kron_file, "--cache-dir", str(cache), "--bound"]
    assert run([*argv, "2"]) == 0
    (bound2,) = cache.glob("qgk-*.txt")
    capsys.readouterr()
    assert run([*argv, "3"]) == 0
    cold = _out(capsys)
    (bound3,) = set(cache.glob("qgk-*.txt")) - {bound2}
    good = bound3.read_bytes()
    bound3.write_bytes(bound2.read_bytes())
    assert run([*argv, "3"]) == 0
    assert _out(capsys) == cold
    assert bound3.read_bytes() == good


def test_cache_keys_cover_every_option(kron_file, tmp_path, capsys):
    cache = tmp_path / "cache"
    argvs = [
        ["ip", kron_file, "--dim", "1,1"],
        ["ip", kron_file, "--dim", "1,1", "--format", "json"],
        ["ip", kron_file, "--dim", "1,0"],
        ["kac", kron_file, "--method", "oracle", "--bound", "2"],
        ["kac", kron_file, "--bound", "2"],
    ]
    for argv in argvs:
        assert run([*argv, "--cache-dir", str(cache)]) == 0
    capsys.readouterr()
    assert len(list(cache.glob("qgk-*.txt"))) == 5


def test_each_command_offers_only_the_options_it_reads():
    """The options and mutually exclusive groups of every subcommand; a new one needs an edit."""
    common = {"--bound", "--format", "--cache-dir"}
    span = [{"--bound", "--dim"}]
    expected = {
        "roots": (common, []),
        "kac": (common | {"--flavour", "--method"}, []),
        "cuspidal": (common | {"--flavour"}, []),
        "ip": (common | {"--dim"}, span),
        "canonical-decomp": (common | {"--dim"}, span),
        "gkm-dims": (common | {"--from-kac", "--weights"}, [{"--from-kac", "--weights"}]),
        "nakajima-decomp": (common | {"--framing"}, []),
        "verify": (common, []),
    }
    parser = qgk._request._build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(commands.choices) == list(expected)
    for name, command in commands.choices.items():
        options = {o for a in command._actions for o in a.option_strings} - {"-h", "--help"}
        groups = [
            {o for a in group._group_actions for o in a.option_strings}
            for group in command._mutually_exclusive_groups
        ]
        assert (options, groups) == expected[name], name


def test_every_command_has_a_handler():
    assert tuple(qgk.cli._HANDLERS) == qgk._request.COMMANDS


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qgk.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "qgk" in proc.stdout


_STARTUP_PROBE = """
import contextlib, io, sys
import qgk, qgk.cli

quiver, cache = sys.argv[1:]
seen = []

def loaded():
    modules = ("dataclasses", "inspect", "qgk.nakajima", "qgk._presented", "_hashlib")
    seen.append(tuple(m in sys.modules for m in modules))

def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert qgk.cli.run([*argv, quiver, "--bound", "2"]) == 0
    loaded()
    return out.getvalue()

loaded()
cold = run("kac", "--cache-dir", cache)
warm = run("kac", "--cache-dir", cache)
oracle = run("kac", "--method", "oracle")
run("cuspidal", "--flavour", "nilpotent")
run("verify")
print(seen, repr(cold), warm == cold, oracle == cold)
"""


def _src_env() -> dict[str, str]:
    """The environment with this checkout's src first on PYTHONPATH, for child interpreters."""
    src = os.path.dirname(os.path.dirname(qgk.cli.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def test_startup_and_hua_path_load_only_what_they_use(jordan_file, tmp_path):
    cache = tmp_path / "cache"
    proc = subprocess.run(
        [sys.executable, "-c", _STARTUP_PROBE, jordan_file, str(cache)],
        capture_output=True,
        text=True,
        env=_src_env(),
    )
    assert proc.returncode == 0, proc.stderr
    # (dataclasses, inspect, the framed blocks, the relation engine, OpenSSL)
    # loaded after import, a Hua run, a cache hit, the Burnside oracle, a
    # nilpotent census and verify: only verify loads the relation engine, and
    # none of them loads the others.
    clean, engine = "(False, False, False, False, False)", "(False, False, False, True, False)"
    assert proc.stdout == (
        f"[{clean}, {clean}, {clean}, {clean}, {clean}, {engine}] "
        "'1\\tq\\n2\\tq\\n' True True\n"
    )
    assert len(list(cache.glob("qgk-kac-*.txt"))) == 1


def _python_m_qgk(*argv: str, options: tuple[str, ...] = ()) -> subprocess.CompletedProcess:
    """python [options] -m qgk argv in a child interpreter; output as bytes."""
    command = [sys.executable, *options, "-m", "qgk", *argv]
    return subprocess.run(command, capture_output=True, env=_src_env())


def _imported(proc: subprocess.CompletedProcess) -> set[str]:
    """The modules a python -X importtime child loaded."""
    assert proc.returncode == 0, proc.stderr
    # -X importtime writes one "import time: self | cumulative | name" line per module
    return {line.rsplit(b"|", 1)[1].strip().decode() for line in proc.stderr.splitlines()}


def _ours(loaded: set[str]) -> set[str]:
    return {name for name in loaded if name == "qgk" or name.startswith("qgk.")}


def test_a_miss_loads_only_the_modules_its_command_uses(kron_file, tmp_path):
    pipeline = {
        "qgk", "qgk._request", "qgk.quiver", "qgk.cli", "qgk.qpoly", "qgk.series", "qgk.roots",
        "qgk.kac", "qgk.gkm", "qgk.cuspidal",
    }
    cache = ["--cache-dir", str(tmp_path / "cache")]
    for argv, extra in (
        (["kac", kron_file, "--bound", "2"], set()),
        (["nakajima-decomp", kron_file, "--bound", "2", "--framing", "1,0"], {"qgk.nakajima"}),
    ):
        loaded = _imported(_python_m_qgk(*argv, *cache, options=("-X", "importtime")))
        assert _ours(loaded) == pipeline | extra, argv[0]
        assert not loaded & {"dataclasses", "inspect"}, argv[0]


def test_a_cache_hit_loads_only_the_request_module(kron_file, tmp_path):
    argv = ["cuspidal", kron_file, "--bound", "3", "--cache-dir", str(tmp_path / "cache")]
    cold = _python_m_qgk(*argv)
    assert cold.returncode == 0, cold.stderr
    assert cold.stdout.startswith(b"# C^abs\n")
    (entry,) = (tmp_path / "cache").glob("qgk-*.txt")
    good = entry.read_bytes()
    warm = _python_m_qgk(*argv, options=("-X", "importtime"))
    assert warm.returncode == 0, warm.stderr
    assert warm.stdout == cold.stdout
    assert _ours(_imported(warm)) == {"qgk", "qgk._request", "qgk.quiver"}
    # a corrupt entry is a miss: the pipeline runs and the entry is rebuilt
    entry.write_bytes(good.replace(b"q", b"2*q", 1))
    rebuilt = _python_m_qgk(*argv)
    assert rebuilt.returncode == 0, rebuilt.stderr
    assert rebuilt.stdout == cold.stdout
    assert entry.read_bytes() == good


def test_usage_and_help_print_once():
    usage = _python_m_qgk("kac")
    assert usage.returncode == 1
    assert usage.stdout == b""
    assert usage.stderr.count(b"usage: qgk kac") == 1
    assert usage.stderr.count(b"error: the following arguments are required: quiver") == 1
    helped = _python_m_qgk("--help")
    assert helped.returncode == 0
    assert helped.stderr == b""
    assert helped.stdout.count(b"usage: qgk") == 1
