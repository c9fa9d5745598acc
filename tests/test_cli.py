from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

import qgk.cli
import qgk.cuspidal
from qgk.cli import run
from qgk.series import vectors_up_to


@pytest.fixture(autouse=True)
def _no_ambient_cache(monkeypatch):
    monkeypatch.delenv("QGK_CACHE_DIR", raising=False)


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
    weights.write_text(json.dumps({"weights": {"1,0": {"0": "1"}, "0,1": {"0": "1"}}}))
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
    ]
    # last two: not UTF-8, and nested deeper than json recurses
    for text in [t.encode() for t in bad_texts] + [b"\xff\xfe{}", b"[" * 200_000]:
        path = tmp_path / "w.json"
        path.write_bytes(text)
        assert run(["gkm-dims", kron_file, "--weights", str(path)]) == 1


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
    assert run(["kac", jordan_file, "--fields", "1,2"]) == 1
    assert run(["kac", jordan_file, "--fields", "2,2"]) == 1
    assert run(["kac", jordan_file, "--fields", "x"]) == 1
    assert run(["kac", jordan_file, "--method", "oracle", "--fields", "6,10"]) == 1
    assert run(["verify", jordan_file, "--fields", "2,3,12"]) == 1
    assert run(["kac", jordan_file, "--flavour", "nilpotent"]) == 1  # hua is plain-only
    assert run(["ip", a2_file, "--dim", "0,0"]) == 1
    assert run(["ip", a2_file, "--dim", "1,borken"]) == 1
    assert run(["canonical-decomp", a2_file, "--dim", "0,0"]) == 1
    # options are offered only to the commands that read them
    assert run(["nakajima-decomp", a2_file, "--framing", "1,0", "--flavour", "nilpotent"]) == 1
    assert run(["verify", jordan_file, "--flavour", "nilpotent"]) == 1
    assert run(["roots", jordan_file, "--fields", "2,3"]) == 1


def test_wide_quiver_at_bound_one(qfile, capsys):
    """1,000 vertices, more than the interpreter's default recursion limit."""
    wide = qfile("wide", [str(v) for v in range(1000)], [])
    assert run(["kac", wide, "--bound", "1"]) == 0
    rows = _out(capsys).splitlines()
    units = [["0"] * k + ["1"] + ["0"] * (999 - k) for k in reversed(range(1000))]
    assert rows == [",".join(unit) + "\t1" for unit in units]


def test_ambiguous_decomposition_is_invalid_input(jordan_file):
    assert run(["nakajima-decomp", jordan_file, "--framing", "2", "--bound", "3"]) == 1


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
    assert f"the box under (60, 60) needs 3575881 {budget}" in err
    assert f"|d| <= 9999 in rank 1 needs 50005000 {budget}" in err
    assert f"|d| <= 36 in rank 3 needs 5245786 {budget}" in err


def test_vector_budget_is_invalid_input(jordan_file, tmp_path, capsys):
    weights = tmp_path / "weights.json"
    weights.write_text(json.dumps({"weights": {"1": {"2": "1"}}}))
    commands = [
        ["roots", jordan_file],
        ["canonical-decomp", jordan_file],
        ["canonical-decomp", jordan_file, "--dim", "100000000"],
        ["gkm-dims", jordan_file, "--weights", str(weights)],
    ]
    start = time.perf_counter()
    for argv in commands:  # each would build every vector up to the bound
        assert run([*argv, "--bound", "100000000"]) == 1
    assert time.perf_counter() - start < 5
    expected = "error: |d| <= 100000000 in rank 1 spans 100000001 dimension vectors (budget 10000)"
    # --dim builds only the box under d, so the split table's budget refuses it
    box = (
        "error: the box under (100000000,) needs 5000000150000001 pairs b <= a "
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
    assert len(lines) == 9
    assert all(line.startswith("PASS\t") for line in lines)
    names = {line.split("\t")[1] for line in lines}
    assert "hua-vs-oracle" in names
    assert "gkm-presentation" in names
    assert (
        "PASS\tgkm-presentation\tpresented algebra and denominator identity agree on "
        "9 blocks with |d| <= 3"
    ) in lines


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


def test_verify_presentation_check_stops_at_the_oracle_budget(kron_file, monkeypatch, capsys):
    import qgk._presented

    monkeypatch.setattr(qgk._presented, "PRESENTED_BUDGET", 100)
    assert run(["verify", kron_file, "--bound", "6"]) == 0
    status, _, detail = _verify_rows(capsys)["gkm-presentation"]
    assert status == "PASS"
    assert detail == (
        "presented algebra and denominator identity agree on 9 blocks with |d| <= 3; "
        "the relation ideal passed PRESENTED_BUDGET (100) at |d| = 4"
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
    assert len(calls) == 2  # the quiver and its arrow reversal
    assert calls[0].arrows != calls[1].arrows


def _verify_rows(capsys) -> dict[str, list[str]]:
    return {line.split("\t")[1]: line.split("\t") for line in _out(capsys).splitlines()}


def test_verify_statuses(jordan_file, qfile, capsys):
    # Jordan has no loop-free vertex: Weyl invariance covers nothing
    assert run(["verify", jordan_file, "--bound", "3"]) == 0
    rows = _verify_rows(capsys)
    assert rows["weyl-invariance"][0] == "VACUOUS"
    assert rows["hua-vs-oracle"][0] == "PASS"
    # A_(3) of the two-loop quiver needs 11 field sizes; |d| <= 2 is still checked
    two_loop = qfile("two_loop", ["0"], [["0", "0"], ["0", "0"]])
    assert run(["verify", two_loop]) == 0
    status, _, detail = _verify_rows(capsys)["hua-vs-oracle"]
    assert status == "PASS"
    assert detail == (
        "agree on 2 vectors with |d| <= 3; "
        "skipped 3 (need 11 field sizes for degree 10, have 7)"
    )
    assert run(["verify", two_loop, "--fields", "2"]) == 0
    assert _verify_rows(capsys)["hua-vs-oracle"][0] == "VACUOUS"
    # (1,1) is cheap but the oracle reaches it through the skipped (1,0)
    loop_and_point = qfile("loop_and_point", ["0", "1"], [["0", "0"]])
    assert run(["verify", loop_and_point, "--bound", "2", "--fields", "2"]) == 0
    detail = _verify_rows(capsys)["hua-vs-oracle"][2]
    assert "skipped 1,0 (need 2 field sizes for degree 1, have 1)" in detail
    assert "skipped 1,1 (need A at 1,0 first)" in detail
    # A_(3) over F_13 would enumerate 13^9 matrices; (1) and (2) are still checked
    assert run(["verify", jordan_file, "--bound", "3", "--fields", "13,16"]) == 0
    status, _, detail = _verify_rows(capsys)["hua-vs-oracle"]
    assert status == "PASS"
    assert detail == (
        "agree on 2 vectors with |d| <= 3; "
        "skipped 3 (enumerating 13^9 matrices exceeds the budget of 8000000)"
    )


def test_too_few_fields_is_invalid_input(kron_file, jordan_file, capsys):
    assert run(["kac", kron_file, "--method", "oracle", "--fields", "2", "--bound", "2"]) == 1
    assert capsys.readouterr().err == "error: need 2 field sizes for degree 1, have 1\n"
    assert run(["cuspidal", jordan_file, "--flavour", "nilpotent", "--fields", "2"]) == 1
    assert capsys.readouterr().err == "error: need 2 field sizes for degree 1, have 1\n"


def test_verify_json_statuses(a2_file, capsys):
    assert run(["verify", a2_file, "--bound", "2", "--format", "json"]) == 0
    results = json.loads(_out(capsys))["results"]
    assert {r["status"] for r in results} == {"pass"}
    assert set(results[0]) == {"property", "status", "detail"}


def test_cache_cold_and_warm_agree(kron_file, tmp_path, monkeypatch, capsys):
    cache = tmp_path / "cache"
    monkeypatch.setenv("QGK_CACHE_DIR", str(cache))
    assert run(["cuspidal", kron_file, "--bound", "3"]) == 0
    cold = _out(capsys)
    entries = list(cache.glob("qgk-*.json"))
    assert len(entries) == 1
    assert run(["cuspidal", kron_file, "--bound", "3"]) == 0
    assert _out(capsys) == cold
    # a corrupt cache entry is ignored and rebuilt
    entries[0].write_text("{ not json")
    assert run(["cuspidal", kron_file, "--bound", "3"]) == 0
    assert _out(capsys) == cold
    assert json.loads(entries[0].read_text())["cabs"]


@pytest.mark.parametrize(
    "entry", [b'{"x": 1}', b'{"cabs": 1, "c": []}', b"[]", b"null", b'"\xff"']
)
def test_misshapen_cache_entry_is_rebuilt(kron_file, tmp_path, capsys, entry):
    cache = tmp_path / "cache"
    argv = ["cuspidal", kron_file, "--bound", "3", "--cache-dir", str(cache)]
    assert run(argv) == 0
    cold = _out(capsys)
    (path,) = cache.glob("qgk-*.json")
    path.write_bytes(entry)
    assert run(argv) == 0
    assert _out(capsys) == cold
    assert set(json.loads(path.read_text())) == {"cabs", "c"}


@pytest.mark.parametrize(
    "entry",
    [b'{"rows": [1]}', b'{"rows": [["1"]]}', pytest.param(b"[" * 200_000, id="nested-200000")],
)
def test_misshapen_cache_rows_are_rebuilt(jordan_file, tmp_path, capsys, entry):
    cache = tmp_path / "cache"
    argv = ["kac", jordan_file, "--bound", "3", "--cache-dir", str(cache)]
    assert run(argv) == 0
    cold = _out(capsys)
    (path,) = cache.glob("qgk-*.json")
    path.write_bytes(entry)
    assert run(argv) == 0
    assert _out(capsys) == cold
    assert json.loads(path.read_text())["rows"] == [["1", "q"], ["2", "q"], ["3", "q"]]


@pytest.mark.parametrize(
    "character", [{"x": 1}, {"1,0": 1}, {"1": "1"}, {"1,x": "1"}, {"²,0": "1"}]
)
def test_misshapen_cached_character_is_rebuilt(a2_file, tmp_path, capsys, character):
    cache = tmp_path / "cache"
    argv = ["nakajima-decomp", a2_file, "--framing", "1,0", "--bound", "2"]
    argv += ["--cache-dir", str(cache)]
    assert run(argv) == 0
    cold = _out(capsys)
    (path,) = cache.glob("qgk-*.json")
    good = path.read_text()
    payload = json.loads(good)
    payload["blocks"][0]["character"] = character
    path.write_text(json.dumps(payload))
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


def test_unwritable_cache_still_prints_the_table(kron_file, tmp_path, monkeypatch, capsys):
    blocker = tmp_path / "a-regular-file"
    blocker.write_text("")
    assert run(["kac", kron_file, "--bound", "2", "--cache-dir", str(blocker)]) == 0
    table = _out(capsys)
    monkeypatch.setenv("QGK_CACHE_DIR", str(blocker))
    assert run(["kac", kron_file, "--bound", "2"]) == 0
    assert _out(capsys) == table == "0,1\t1\n1,0\t1\n1,1\t1 + q\n"
    assert blocker.read_text() == ""


def test_cache_keys_separate_commands_and_bounds(kron_file, tmp_path, capsys):
    cache = tmp_path / "cache"
    assert run(["kac", kron_file, "--bound", "2", "--cache-dir", str(cache)]) == 0
    assert run(["kac", kron_file, "--bound", "3", "--cache-dir", str(cache)]) == 0
    assert run(["roots", kron_file, "--bound", "2", "--cache-dir", str(cache)]) == 0
    capsys.readouterr()
    assert len(list(cache.glob("qgk-*.json"))) == 3


def test_cache_keys_cover_every_option_but_format(kron_file, tmp_path, capsys):
    cache = tmp_path / "cache"
    argvs = [
        ["ip", kron_file, "--dim", "1,1"],
        ["ip", kron_file, "--dim", "1,1", "--format", "json"],
        ["ip", kron_file, "--dim", "1,0"],
        ["ip", kron_file, "--dim", "1,1", "--fields", "2,3"],
        ["kac", kron_file, "--method", "oracle", "--bound", "2"],
        ["kac", kron_file, "--bound", "2"],
    ]
    for argv in argvs:
        assert run([*argv, "--cache-dir", str(cache)]) == 0
    capsys.readouterr()
    assert len(list(cache.glob("qgk-*.json"))) == 5


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
    seen.append(("numpy" in sys.modules, "qgk._presented" in sys.modules))

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
run("verify")
print(seen, repr(cold), warm == cold, oracle == cold)
"""


def test_startup_and_hua_path_do_not_load_numpy(jordan_file, tmp_path):
    src = os.path.dirname(os.path.dirname(qgk.cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    cache = tmp_path / "cache"
    proc = subprocess.run(
        [sys.executable, "-c", _STARTUP_PROBE, jordan_file, str(cache)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    # (numpy, the relation engine) loaded after import, a Hua run, a cache hit,
    # the Burnside oracle and verify: only the oracles' callers load them.
    assert proc.stdout == (
        "[(False, False), (False, False), (False, False), (True, False), (True, True)] "
        "'1\\tq\\n2\\tq\\n' True True\n"
    )
    assert len(list(cache.glob("qgk-kac-*.json"))) == 1
