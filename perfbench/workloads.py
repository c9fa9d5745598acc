"""Workload definitions, seeded relabelling and output canonicalisation.

Shared by the harness (``run.py``) and the per-pass child (``worker.py``).
Imports nothing from ``qgk``, so the harness can generate inputs and check
CLI output without loading the package under test.

Relabelling.  For every input quiver the seed picks a vertex permutation
and reverses a random subset of arrows.  Kac polynomials, C^abs, IP data,
GKM dimensions and framed blocks depend only on the symmetrised Euler
form, so every output equals the unrelabelled one after dimension vectors
are mapped back to the original vertex order.  Inputs change with the
seed while the cost of each job and its reference digest stay put.
"""

from __future__ import annotations

import hashlib
import json
import random
import re

#: Base quivers, in their original vertex order.  Vertex 0 of ``affine_d4``
#: is the centre; 1..4 are the leaves.
BASE_QUIVERS = {
    "kronecker": {"vertices": ["0", "1"], "arrows": [["0", "1"], ["0", "1"]]},
    "jordan": {"vertices": ["0"], "arrows": [["0", "0"]]},
    "two_loop": {"vertices": ["0"], "arrows": [["0", "0"], ["0", "0"]]},
    "cycle3": {"vertices": ["0", "1", "2"], "arrows": [["0", "1"], ["1", "2"], ["2", "0"]]},
    "affine_d4": {
        "vertices": ["0", "1", "2", "3", "4"],
        "arrows": [["1", "0"], ["2", "0"], ["3", "0"], ["4", "0"]],
    },
}

#: Library jobs: (name, function, quiver, bound).
LIBRARY_JOBS = {
    "hua-tables": [
        ("hua_kac-kronecker-9", "hua_kac", "kronecker", 9),
        ("hua_kac-cycle3-6", "hua_kac", "cycle3", 6),
        ("hua_kac-jordan-12", "hua_kac", "jordan", 12),
    ],
    "gkm-engine": [
        ("absolutely_cuspidal-two_loop-7", "absolutely_cuspidal", "two_loop", 7),
        ("gkm_dims-affine_d4-6", "gkm_dims_unit_weights", "affine_d4", 6),
    ],
}

#: CLI jobs: (name, argv).  ``{<quiver>}`` stands for a quiver file, and
#: ``{framing:...}`` for a framing vector in original vertex order, permuted
#: with the quiver.  cli-warm runs every job but ``verify``, which never uses
#: the cache.
CLI_JOBS = [
    ("verify-kronecker-6", ["verify", "{kronecker}", "--bound", "6"]),
    ("verify-jordan-6", ["verify", "{jordan}", "--bound", "6"]),
    ("verify-two_loop-4", ["verify", "{two_loop}", "--bound", "4"]),
    ("kac-kronecker-8", ["kac", "{kronecker}", "--bound", "8"]),
    ("cuspidal-two_loop-6", ["cuspidal", "{two_loop}", "--bound", "6"]),
    ("ip-kronecker-6", ["ip", "{kronecker}", "--bound", "6"]),
    ("gkm-dims-two_loop-6", ["gkm-dims", "{two_loop}", "--from-kac", "--bound", "6"]),
    ("nakajima-jordan-6", ["nakajima-decomp", "{jordan}", "--bound", "6", "--framing", "{framing:1}"]),
    ("nakajima-kronecker-4", ["nakajima-decomp", "{kronecker}", "--bound", "4", "--framing", "{framing:1,0}"]),
    ("roots-kronecker-10", ["roots", "{kronecker}", "--bound", "10"]),
    ("canonical-kronecker-10", ["canonical-decomp", "{kronecker}", "--bound", "10"]),
    ("kac-oracle-kronecker-4", ["kac", "{kronecker}", "--method", "oracle", "--bound", "4"]),
    ("cuspidal-nilpotent-jordan-3", ["cuspidal", "{jordan}", "--flavour", "nilpotent", "--format", "json", "--bound", "3"]),
]

#: ``verify two_loop --bound 4`` exits 2 at the commit that introduced this
#: benchmark: its hua-vs-oracle check needs 11 field sizes and the CLI offers
#: at most 7.  The job stays in ``cli-cold`` and counts as failed, so the
#: defect stays visible; it does not make the run incorrect.
KNOWN_DEFECTS = {"verify-two_loop-4"}

WORKLOADS = ("hua-tables", "gkm-engine", "cli-cold", "cli-warm")


def is_cli(workload: str) -> bool:
    return workload.startswith("cli-")


def cli_jobs(workload: str) -> list[tuple[str, list[str]]]:
    if workload == "cli-cold":
        return list(CLI_JOBS)
    return [(name, argv) for name, argv in CLI_JOBS if argv[0] != "verify"]


def workload_quivers(workload: str) -> list[str]:
    if is_cli(workload):
        names = {job_quiver(argv) for _, argv in cli_jobs(workload)}
    else:
        names = {job[2] for job in LIBRARY_JOBS[workload]}
    return sorted(names)


# -- seeded relabelling ------------------------------------------------------------


def relabel(name: str, seed: int) -> tuple[dict, list[int]]:
    """The quiver ``name`` relabelled by ``seed``, and its vertex order.

    ``order[k]`` is the original index of the vertex at position k.
    """
    base = BASE_QUIVERS[name]
    rng = random.Random(f"{seed}:{name}")
    order = list(range(len(base["vertices"])))
    rng.shuffle(order)
    arrows = [[t, s] if rng.random() < 0.5 else [s, t] for s, t in base["arrows"]]
    return {"vertices": [base["vertices"][i] for i in order], "arrows": arrows}, order


def permute_vector(values: list[int], order: list[int]) -> list[int]:
    """Original vertex order -> relabelled order."""
    return [values[i] for i in order]


def unpermute_vector(values: list[int], order: list[int]) -> list[int]:
    """Relabelled vertex order -> original order."""
    out = [0] * len(order)
    for k, i in enumerate(order):
        out[i] = values[k]
    return out


def expand_argv(argv: list[str], paths: dict[str, str], orders: dict[str, list[int]]) -> list[str]:
    quiver = job_quiver(argv)
    out = []
    for a in argv:
        if a.startswith("{framing:"):
            framing = [int(x) for x in a[len("{framing:"):-1].split(",")]
            out.append(",".join(map(str, permute_vector(framing, orders[quiver]))))
        elif a[1:-1] in paths:
            out.append(paths[a[1:-1]])
        else:
            out.append(a)
    return out


def job_quiver(argv: list[str]) -> str:
    return next(a[1:-1] for a in argv if a[1:-1] in BASE_QUIVERS)


# -- canonical output ----------------------------------------------------------------

_VECTOR = re.compile(r"-?\d+(?:,-?\d+)+")


def canonical_text(text: str, order: list[int]) -> str:
    """Output text with dimension vectors in original vertex order, rows sorted.

    Every comma-separated integer list with as many entries as the quiver
    has vertices is a dimension or weight vector.  Lines are grouped under
    the ``#`` header before them; rows are sorted within a group and groups
    by header, so the result does not depend on the relabelling.
    """

    def fix(match: re.Match) -> str:
        values = [int(x) for x in match.group(0).split(",")]
        if len(values) != len(order):
            return match.group(0)
        return ",".join(map(str, unpermute_vector(values, order)))

    groups: list[list[str]] = [[""]]
    for line in text.splitlines():
        line = _VECTOR.sub(fix, line)
        if line.startswith("#"):
            groups.append([line])
        elif line:
            groups[-1].append("\t".join(_sort_parts(f) for f in line.split("\t")))
    blocks = sorted(g[0] + "\n" + "\n".join(sorted(g[1:])) for g in groups if len(g) > 1)
    return "\n".join(blocks) + "\n"


def _sort_parts(field: str) -> str:
    """Sort the space-separated ``vector:multiplicity`` parts of a decomposition."""
    parts = field.split(" ")
    if len(parts) > 1 and all(":" in p for p in parts):
        return " ".join(sorted(parts))
    return field


def json_payload_text(text: str) -> str:
    """A ``--format json`` payload as header-and-row lines."""
    payload = json.loads(text)
    lines = []
    for key in sorted(payload):
        lines.append(f"# {key}")
        for row in payload[key]:
            lines.append("\t".join(map(str, row)) if isinstance(row, list) else json.dumps(row, sort_keys=True))
    return "\n".join(lines) + "\n"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()
