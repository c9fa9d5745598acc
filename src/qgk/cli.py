r"""
Command-line front end.

Every command reads a quiver from a JSON file ({"vertices": [...],
"arrows": [[s, t], ...]}), computes one table, and prints it sorted by
(|d|, lex) either as TSV (dimension vector, tab, value columns) or as a
JSON document.  Both formats carry the same data.  Parsing, option
checks and the on-disk cache live in _request, which answers a cache hit
without this module; run, and python -m qgk on a miss, compute here.

Exit codes: 0 success, 1 invalid input or exceeded size budgets, 2 a
violated internal invariant (positivity, integrality, reconstruction),
reported with the offending dimension vector.
"""

from __future__ import annotations

import functools
import json
import sys

from ._request import InputError, _cache_read, _cache_write, serve
from .cuspidal import (
    CuspidalError,
    CuspidalTable,
    absolutely_cuspidal,
    absolutely_cuspidal_from_kac,
    cuspidal_from_abs,
    ip_general,
    ip_table,
)
from .gkm import (
    GkmError,
    WeightFunction,
    _SimpleRoots,
    gkm_dims,
)
from .kac import (
    KacTable,
    _OraclePeel,
    check_hua_budget,
    hua_kac,
    oracle_kac_full,
)
from .qpoly import QPoly, QPolyError
from .quiver import CountingError, Quiver, QuiverError
from .roots import (
    BudgetError,
    CartanDatum,
    RootError,
    check_split_budget,
    check_vector_budget,
    phi_plus,
    positive_roots,
)
from .series import PlethMode, SeriesError, _csv, degree_lex, pleth_exp, pleth_log, vectors_up_to

IP_CONVENTION = (
    "coefficients of v^j count IH^j classes, shifted so a smooth n-dimensional "
    "component contributes v^-n; the printed variable q stands for v"
)


def _parse_dim(quiver: Quiver, text: str) -> tuple[int, ...]:
    parts = text.split(",")
    try:
        values = [int(p) for p in parts]
    except ValueError:
        raise InputError(f"bad dimension vector {text!r}") from None
    return quiver.vector(values)


def _poly_rows(items) -> list[list[str]]:
    return [[_csv(d), str(p)] for d, p in items]


def _reflection_edges(cartan: CartanDatum, vectors):
    """(i, d, s_i d) at each loop-free i with 0 < (d, 1_i) <= d_i: each edge once, from above."""
    for d in vectors:
        row = cartan.row(d)
        for i in cartan.loop_free:
            if 0 < row[i] <= d[i]:
                yield i, d, d[:i] + (d[i] - row[i],) + d[i + 1 :]


# -- command payloads -------------------------------------------------------------


def _cmd_roots(quiver: Quiver, args) -> dict:
    rows = []
    for entry in phi_plus(CartanDatum.from_quiver(quiver), args.bound):
        rows.append(
            {
                "d": _csv(entry.vector),
                "class": entry.classification,
                "sigma": entry.multiplier == 1,
                "primitive": _csv(entry.primitive),
                "multiplier": entry.multiplier,
            }
        )
    return {"rows": rows}


def _cmd_kac(quiver: Quiver, args) -> dict:
    if args.method == "hua":
        if args.flavour != "plain":
            raise InputError("nilpotent flavours are oracle-only; use --method oracle")
        table = hua_kac(quiver, args.bound)
    else:
        table = oracle_kac_full(quiver, args.bound, args.flavour)
    return {"rows": _poly_rows(table.items())}


def _cmd_cuspidal(quiver: Quiver, args) -> dict:
    table = absolutely_cuspidal(quiver, args.bound, args.flavour)
    derived = cuspidal_from_abs(table)
    return {"cabs": _poly_rows(table.items()), "c": _poly_rows(derived.items())}


def _cmd_ip(quiver: Quiver, args) -> dict:
    if args.dim is not None:
        d = _parse_dim(quiver, args.dim)
        if not any(d):
            raise InputError("--dim must be nonzero")
        rows = _poly_rows([(d, ip_general(quiver, d))])
    else:
        rows = _poly_rows(ip_table(quiver, args.bound).items())
    return {"convention": IP_CONVENTION, "rows": rows}


def _cmd_canonical(quiver: Quiver, args) -> dict:
    rank = len(quiver.vertices)
    if args.dim is not None:
        d = _parse_dim(quiver, args.dim)
        if not any(d):
            raise InputError("--dim must be nonzero")
        vectors = [d]
    else:
        check_vector_budget(rank, args.bound)
        check_split_budget(rank, args.bound)
        vectors = [d for d in vectors_up_to(rank, args.bound) if any(d)]
    cartan = CartanDatum.from_quiver(quiver)
    rows = []
    for d in vectors:
        decomposition = cartan.canonical_decomposition(d)
        rows.append([_csv(d), " ".join(f"{_csv(p)}:{m}" for p, m in decomposition)])
    return {"rows": rows}


def _load_weights(quiver: Quiver, path: str) -> WeightFunction:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or too deep
        raise InputError(f"cannot read weight file: {exc}") from None
    if not isinstance(data, dict) or not isinstance(data.get("weights"), dict):
        raise InputError('weight file must be {"weights": {"d,e": {half: coeff}}}')
    table = {}
    for key, encoded in data["weights"].items():
        d = _parse_dim(quiver, key)
        if not isinstance(encoded, dict):
            raise InputError(f"bad weight entry at {key!r}")
        try:
            poly = QPoly.from_json_dict(encoded)
        except QPolyError as exc:
            raise InputError(f"bad weight polynomial at {key!r}: {exc}") from None
        bad = not poly.has_integer_coefficients() or not poly.has_nonnegative_coefficients()
        if bad or any(half % 2 for half, _ in poly.items()):
            raise InputError(
                f"weight at {key!r} must have nonnegative integer coefficients "
                "in even half-degrees"
            )
        table[d] = poly
    return WeightFunction(quiver, table)


def _cmd_gkm_dims(quiver: Quiver, args) -> dict:
    if args.from_kac:
        table = absolutely_cuspidal(quiver, args.bound)
        cartan, weights = table.cartan, WeightFunction(quiver, table.table)
    else:
        cartan, weights = CartanDatum.from_quiver(quiver), _load_weights(quiver, args.weights)
        # gkm_dims's own generator checks, run first so a bad file is an input error
        roots = _SimpleRoots(cartan)
        try:
            for root, poly in weights.items():
                if sum(root) <= args.bound:
                    roots.admit(root, poly)
        except GkmError as exc:
            raise InputError(f"bad weight file: {exc}") from None
    dims = gkm_dims(cartan, weights, args.bound)
    rows = []
    for d in sorted(dims.dims, key=degree_lex):
        for j in sorted(dims.dims[d]):
            rows.append([_csv(d), str(j), str(dims.dims[d][j])])
    return {"rows": rows}


def _cmd_nakajima(quiver: Quiver, args) -> dict:
    from .nakajima import lw_decompose

    framing = _parse_dim(quiver, args.framing)
    decomposition = lw_decompose(quiver, framing, args.bound)
    blocks = []
    for block in decomposition.blocks:
        character = {_csv(e): str(p) for e, p in block.character.items()}
        blocks.append(
            {
                "d": _csv(block.vector),
                "multiplicity": str(block.multiplicity),
                "weight": list(block.weight),
                "character": character,
            }
        )
    return {"blocks": blocks}


def _cmd_verify(quiver: Quiver, args) -> dict:
    """Run the checks; each row's status is pass, fail or vacuous (covered nothing).

    Shared tables are computed once, when a check first needs them, so an
    exception lands in that check's row; a BudgetError refuses the run, and
    a bound past the Hua budget is refused before any check runs.
    """
    check_hua_budget(len(quiver.vertices), args.bound)
    results = []

    def check(name: str, thunk) -> None:
        try:
            status, detail = thunk()
        except BudgetError:  # a refused table is refused input, as in every command
            raise
        except Exception as exc:  # noqa: BLE001 - verification must report, not crash
            status, detail = "fail", f"{type(exc).__name__}: {exc}"
        results.append({"property": name, "status": status, "detail": detail})

    bound = args.bound
    rank = len(quiver.vertices)
    vectors = [d for d in vectors_up_to(rank, bound) if any(d)]

    @functools.cache
    def kac() -> KacTable:
        return hua_kac(quiver, bound)

    @functools.cache
    def cabs() -> CuspidalTable:
        return absolutely_cuspidal_from_kac(kac())

    def hua_vs_oracle():
        horizon = min(bound, 3 if rank == 1 else 2)
        peel = _OraclePeel(quiver, kac().cartan, "plain")
        skipped: dict[tuple[int, ...], str] = {}
        for d in (d for d in vectors if sum(d) <= horizon):
            try:
                peel.add(d)
            except BudgetError as exc:
                skipped[d] = str(exc)
        oracle = peel.known
        hua = kac().to_series()
        bad = [d for d, p in oracle.items() if hua.coeff(d) != p]
        notes = "".join(f"; skipped {_csv(d)} ({why})" for d, why in skipped.items())
        if bad:
            return "fail", f"mismatch at {_csv(bad[0])}{notes}"
        status = "pass" if oracle else "vacuous"
        return status, f"agree on {len(oracle)} vectors with |d| <= {horizon}{notes}"

    def orientation():
        return "vacuous", "hua_kac reads only the Cartan matrix, which arrow reversal keeps"

    def weyl():
        table, edges = kac().to_series(), list(_reflection_edges(kac().cartan, vectors))
        for i, d, e in edges:
            if table.coeff(d) != table.coeff(e):
                return "fail", f"A differs across s_{quiver.vertices[i]}: {_csv(d)} vs {_csv(e)}"
        status = "pass" if edges else "vacuous"
        return status, f"compared A across {len(edges)} reflection edges with |d| <= {bound}"

    def kac_support():
        roots = set(positive_roots(kac().cartan, bound))
        same = set(kac().table) == roots
        return ("pass" if same else "fail"), "A_d nonzero exactly on positive roots"

    def cuspidal_shape():
        cabs()
        return "pass", "support, degree, monicity, positivity asserted"

    def gkm_presentation():
        from ._presented import PRESENTED_BUDGET, presented_dims

        weights = WeightFunction(quiver, cabs().table)
        presented = presented_dims(cabs().cartan, weights, bound)
        denominator = gkm_dims(cabs().cartan, weights, bound).dims
        compared = [d for d in vectors if sum(d) <= presented.bound]
        bad = [d for d in compared if presented.dims.get(d, {}) != denominator.get(d, {})]
        horizon = f"{len(compared)} blocks with |d| <= {presented.bound}"
        if presented.bound < bound:
            horizon += (
                f"; the relation ideal passed PRESENTED_BUDGET ({PRESENTED_BUDGET}) "
                f"at |d| = {presented.bound + 1}"
            )
        if bad:
            return "fail", f"dims of C^abs differ at {_csv(bad[0])}; compared {horizon}"
        status = "pass" if compared else "vacuous"
        return status, f"presented algebra and denominator identity agree on {horizon}"

    def exp_log():
        series = kac().to_series()
        for mode in (PlethMode.Z_ONLY, PlethMode.QZ):
            back = pleth_log(pleth_exp(series, mode), mode)
            if any(back.coeff(d) != series.coeff(d) for d in vectors):
                return "fail", f"Exp/Log roundtrip failed in {mode.name}"
        return "pass", "Log(Exp(A)) = A in both modes"

    def c_integer_valued():
        cuspidal_from_abs(cabs())
        return "pass", "C tables integer valued (exact: values at q = 0..deg are integers)"

    check("hua-vs-oracle", hua_vs_oracle)
    check("orientation-independence", orientation)
    check("weyl-invariance", weyl)
    check("kac-support-is-positive-roots", kac_support)
    check("cuspidal-shape", cuspidal_shape)
    check("gkm-presentation", gkm_presentation)
    check("exp-log-roundtrip", exp_log)
    check("cuspidal-integer-valued", c_integer_valued)
    return {"results": results}


# -- rendering --------------------------------------------------------------------


def _render(args, payload: dict) -> str:
    if args.format == "json":
        return json.dumps(payload, indent=1) + "\n"
    lines: list[str] = []
    command = args.command
    if command == "roots":
        for row in payload["rows"]:
            member = "sigma" if row["sigma"] else "phi"
            lines.append(
                "\t".join(
                    [row["d"], row["class"], member, row["primitive"], str(row["multiplier"])]
                )
            )
    elif command in ("kac", "canonical-decomp", "gkm-dims"):
        lines += ["\t".join(row) for row in payload["rows"]]
    elif command == "cuspidal":
        lines.append("# C^abs")
        lines += ["\t".join(row) for row in payload["cabs"]]
        lines.append("# C")
        lines += ["\t".join(row) for row in payload["c"]]
    elif command == "ip":
        lines.append(f"# IP convention: {payload['convention']}")
        lines += ["\t".join(row) for row in payload["rows"]]
    elif command == "nakajima-decomp":
        for block in payload["blocks"]:
            weight = ",".join(str(n) for n in block["weight"])
            lines.append(
                f"# block {block['d']}\tmultiplicity {block['multiplicity']}\tweight {weight}"
            )
            for e, p in block["character"].items():
                lines.append("\t".join([block["d"], e, p]))
    else:
        for row in payload["results"]:
            lines.append("\t".join([row["status"].upper(), row["property"], row["detail"]]))
    return "".join(line + "\n" for line in lines)


# -- entry point ------------------------------------------------------------------


_HANDLERS = {
    "roots": _cmd_roots,
    "kac": _cmd_kac,
    "cuspidal": _cmd_cuspidal,
    "ip": _cmd_ip,
    "canonical-decomp": _cmd_canonical,
    "gkm-dims": _cmd_gkm_dims,
    "nakajima-decomp": _cmd_nakajima,
    "verify": _cmd_verify,
}


def run(argv: list[str] | None = None) -> int:
    """Answer a command line in this process; returns the exit code."""
    return serve(argv, answer, _cache_read)


def answer(args, quiver: Quiver, entry: tuple[str, str] | None) -> int:
    """Compute and print what the cache did not hold, and store it at entry (path, key)."""
    try:
        payload = _HANDLERS[args.command](quiver, args)
        text = _render(args, payload)
        if entry is not None:
            _cache_write(entry[0], f"{entry[1]}\n{text}")
        sys.stdout.write(text)
        if args.command == "verify" and any(r["status"] == "fail" for r in payload["results"]):
            return 2
        return 0
    except (InputError, QuiverError, BudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (
        CuspidalError,
        GkmError,
        CountingError,
        QPolyError,
        RootError,
        SeriesError,
    ) as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(run())
