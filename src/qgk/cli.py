r"""
Command-line front end.

Every command reads a quiver from a JSON file ({"vertices": [...],
"arrows": [[s, t], ...]}), computes one table, and prints it sorted by
(|d|, lex) either as TSV (dimension vector, tab, value columns) or as a
JSON document.  Both formats carry the same data; the JSON form is also
what the on-disk cache stores, keyed by (schema version, quiver hash,
parsed options), written atomically.

Exit codes: 0 success, 1 invalid input or exceeded size budgets, 2 a
violated internal invariant (positivity, integrality, reconstruction),
reported with the offending dimension vector.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import itertools
import json
import os
import sys
import tempfile

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
    AmbiguousDecompositionError,
    GkmError,
    WeightFunction,
    _SimpleRoots,
    gkm_dims,
    uea_character,
)
from .kac import (
    DEFAULT_FIELDS,
    FLAVOURS,
    CountingError,
    KacTable,
    _OraclePeel,
    _prime_power,
    check_hua_budget,
    hua_kac,
    oracle_kac_full,
)
from .nakajima import lw_decompose
from .qpoly import QPoly, QPolyError
from .quiver import DimVector, Quiver, QuiverError
from .roots import (
    BudgetError,
    CartanDatum,
    RootError,
    check_split_budget,
    check_vector_budget,
    phi_plus,
    positive_roots,
)
from .series import PlethMode, SeriesError, degree_lex, pleth_exp, pleth_log, vectors_up_to

#: Part of every cache key; raise it when a command's output changes.
CACHE_SCHEMA = 2

IP_CONVENTION = (
    "coefficients of v^j count IH^j classes, shifted so a smooth n-dimensional "
    "component contributes v^-n; the printed variable q stands for v"
)


class InputError(ValueError):
    pass


# -- plumbing ---------------------------------------------------------------------


def _load_quiver(path: str) -> Quiver:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read quiver file: {exc}") from None
    return Quiver.from_json(text)


def _parse_dim(quiver: Quiver, text: str) -> DimVector:
    parts = text.split(",")
    try:
        values = [int(p) for p in parts]
    except ValueError:
        raise InputError(f"bad dimension vector {text!r}") from None
    return DimVector(quiver, values)


def _parse_fields(text: str) -> tuple[int, ...]:
    try:
        fields = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise InputError(f"bad prime-power list {text!r}") from None
    if len(set(fields)) != len(fields) or any(v < 2 or v > 16 for v in fields):
        raise InputError("prime powers must be distinct and between 2 and 16")
    for v in fields:
        try:
            _prime_power(v)
        except CountingError as exc:
            raise InputError(f"bad --fields: {exc}") from None
    return fields


def _csv(d: tuple[int, ...]) -> str:
    return ",".join(str(n) for n in d)


def _poly_rows(items) -> list[list[str]]:
    return [[_csv(d), str(p)] for d, p in items]


def _quiver_hash(quiver: Quiver) -> str:
    blob = json.dumps(quiver.to_json_dict(), separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# -- cache ------------------------------------------------------------------------


def _cache_dir(cli_value: str | None) -> str | None:
    return os.environ.get("QGK_CACHE_DIR") or cli_value


def _cache_path(directory: str, quiver: Quiver, args) -> str:
    """The entry's file, named qgk-<command>-<key>.json; the command fixes its shape.

    The key covers every parsed option but the quiver's path, the output
    format and the cache directory, with a weight file replaced by the
    hash of its contents.
    """
    options = {k: v for k, v in vars(args).items() if k not in ("quiver", "format", "cache_dir")}
    if options.get("weights"):
        try:
            with open(options["weights"], "rb") as fh:
                options["weights"] = hashlib.sha256(fh.read()).hexdigest()
        except OSError as exc:
            raise InputError(f"cannot read weight file: {exc}") from None
    blob = json.dumps([CACHE_SCHEMA, _quiver_hash(quiver), options], sort_keys=True)
    key = hashlib.sha256(blob.encode()).hexdigest()
    return os.path.join(directory, f"qgk-{args.command}-{key}.json")


_BLOCK = {"d": str, "multiplicity": str, "weight": list, "character": dict}


def _is_block(row) -> bool:
    """A nakajima-decomp block whose d and character keys have the quiver's rank.

    The weight has one entry per vertex, so its length is that rank.
    """
    if not _row_fits(row, _BLOCK):
        return False
    vectors = [v.split(",") for v in (row["d"], *row["character"])]
    return all(isinstance(p, str) for p in row["character"].values()) and all(
        len(v) == len(row["weight"]) and all(n.isascii() and n.isdigit() for n in v)
        for v in vectors
    )


#: Each cacheable command's payload: top-level key -> `str` for a string,
#: else the shape of each row of a list: the width of a list of strings,
#: a dict of key -> value type, or a predicate on the row.
_PAYLOAD_SHAPES = {
    "roots": {
        "rows": {"d": str, "class": str, "sigma": bool, "primitive": str, "multiplier": int}
    },
    "kac": {"rows": 2},
    "cuspidal": {"cabs": 2, "c": 2},
    "ip": {"convention": str, "rows": 2},
    "canonical-decomp": {"rows": 2},
    "gkm-dims": {"rows": 3},
    "nakajima-decomp": {"blocks": _is_block},
}


def _row_fits(row, shape) -> bool:
    if isinstance(shape, int):
        return isinstance(row, list) and len(row) == shape and all(isinstance(x, str) for x in row)
    if isinstance(shape, dict):
        return (
            isinstance(row, dict)
            and row.keys() == shape.keys()
            and all(isinstance(row[key], kind) for key, kind in shape.items())
        )
    return shape(row)


def _fits(value, shape) -> bool:
    if shape is str:
        return isinstance(value, str)
    return isinstance(value, list) and all(_row_fits(row, shape) for row in value)


def _cache_read(path: str) -> dict | None:
    """The cached payload, or None when it is missing, unreadable or misshapen.

    The expected shape, down to each row, is that of the command in the
    file name.
    """
    command = os.path.basename(path).removeprefix("qgk-").rpartition("-")[0]
    shape = _PAYLOAD_SHAPES.get(command)
    if shape is None:
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError, RecursionError):  # bad UTF-8 or JSON, or nested too deep
        return None
    if not isinstance(payload, dict) or payload.keys() != shape.keys():
        return None
    return payload if all(_fits(payload[key], rows) for key, rows in shape.items()) else None


def _cache_write(path: str, payload: dict) -> None:
    """Store the payload atomically; a cache that cannot be written is skipped."""
    temp = None
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, temp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
        os.replace(temp, path)
    except OSError:
        if temp is not None:
            with contextlib.suppress(OSError):
                os.unlink(temp)


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
        table = oracle_kac_full(quiver, args.bound, args.flavour, args.fields)
    return {"rows": _poly_rows(table.items())}


def _cmd_cuspidal(quiver: Quiver, args) -> dict:
    table = absolutely_cuspidal(quiver, args.bound, args.flavour, args.fields)
    derived = cuspidal_from_abs(table)
    return {"cabs": _poly_rows(table.items()), "c": _poly_rows(derived.items())}


def _cmd_ip(quiver: Quiver, args) -> dict:
    if args.dim is not None:
        d = _parse_dim(quiver, args.dim)
        if d.is_zero():
            raise InputError("--dim must be nonzero")
        rows = _poly_rows([(d.as_tuple(), ip_general(quiver, d, args.flavour, args.fields))])
    else:
        rows = _poly_rows(ip_table(quiver, args.bound, args.flavour, args.fields).items())
    return {"convention": IP_CONVENTION, "rows": rows}


def _cmd_canonical(quiver: Quiver, args) -> dict:
    rank = len(quiver.vertices)
    if args.dim is not None:
        d = _parse_dim(quiver, args.dim)
        if d.is_zero():
            raise InputError("--dim must be nonzero")
        vectors = [d.as_tuple()]
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
    except (OSError, ValueError, RecursionError) as exc:  # as in _cache_read
        raise InputError(f"cannot read weight file: {exc}") from None
    if not isinstance(data, dict) or not isinstance(data.get("weights"), dict):
        raise InputError('weight file must be {"weights": {"d,e": {half: coeff}}}')
    table = {}
    for key, encoded in data["weights"].items():
        d = _parse_dim(quiver, key).as_tuple()
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
    if args.from_kac == (args.weights is not None):
        raise InputError("exactly one of --from-kac and --weights is required")
    cartan = CartanDatum.from_quiver(quiver)
    if args.from_kac:
        table = absolutely_cuspidal(quiver, args.bound, args.flavour, args.fields)
        weights = WeightFunction(quiver, dict(table.table))
    else:
        weights = _load_weights(quiver, args.weights)
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
    if args.framing is None:
        raise InputError("nakajima-decomp requires --framing")
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
    exception lands in that check's row.  A bound past the Hua budget is
    refused before any check runs.
    """
    check_hua_budget(quiver, args.bound)
    results = []

    def check(name: str, thunk) -> None:
        try:
            status, detail = thunk()
        except Exception as exc:  # noqa: BLE001 - verification must report, not crash
            status, detail = "fail", f"{type(exc).__name__}: {exc}"
        results.append({"property": name, "status": status, "detail": detail})

    bound = args.bound
    rank = len(quiver.vertices)
    cartan = CartanDatum.from_quiver(quiver)
    vectors = [d for d in vectors_up_to(rank, bound) if any(d)]

    @functools.cache
    def kac() -> KacTable:
        return hua_kac(quiver, bound)

    @functools.cache
    def cabs() -> CuspidalTable:
        return absolutely_cuspidal_from_kac(kac())

    def hua_vs_oracle():
        horizon = min(bound, 3 if rank == 1 else 2)
        peel = _OraclePeel(quiver, "plain", args.fields)
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
            return "fail", f"mismatch at {bad[:1]}{notes}"
        status = "pass" if oracle else "vacuous"
        return status, f"agree on {len(oracle)} vectors with |d| <= {horizon}{notes}"

    def orientation():
        flipped = Quiver(list(quiver.vertices), [(t, s) for s, t in quiver.arrows])
        same = kac().table == hua_kac(flipped, bound).table
        return ("pass" if same else "fail"), "A-table invariant under arrow reversal"

    def weyl():
        table = kac().to_series()
        free = cartan._loop_free
        seen = 0
        for d in vectors:
            for length in range(1, 4):
                for word in itertools.product(free, repeat=length):
                    image = d
                    for i in word:
                        image = cartan.reflect(i, image)
                    if any(n < 0 for n in image) or sum(image) > bound:
                        continue
                    seen += 1
                    if table.coeff(d) != table.coeff(image):
                        word = tuple(quiver.vertices[i] for i in word)
                        return "fail", f"A differs along {word} at {d}"
        return ("pass" if seen else "vacuous"), f"checked {seen} reflected pairs"

    def kac_support():
        roots = {r.as_tuple() for r in positive_roots(quiver, bound)}
        same = set(kac().table) == roots
        return ("pass" if same else "fail"), "A_d nonzero exactly on positive roots"

    def cuspidal_shape():
        cabs()
        return "pass", "support, degree, monicity, positivity asserted"

    def gkm_presentation():
        from ._presented import PRESENTED_BUDGET, presented_dims

        weights = WeightFunction(quiver, dict(cabs().table))
        presented = presented_dims(cartan, weights, bound)
        denominator = gkm_dims(cartan, weights, bound).dims
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

    def uea_positive():
        env = uea_character(kac().to_series())
        for d in vectors:
            p = env.coeff(d)
            if not p.is_nonnegative_integer_polynomial():
                return "fail", f"bad enveloping coefficient at {d}"
        return "pass", "enveloping character has nonnegative integer coefficients"

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
    check("uea-positivity", uea_positive)
    check("exp-log-roundtrip", exp_log)
    check("cuspidal-integer-valued", c_integer_valued)
    return {"results": results}


# -- rendering --------------------------------------------------------------------


def _render_json(payload: dict) -> str:
    return json.dumps(payload, indent=1) + "\n"


def _render_tsv(command: str, payload: dict) -> str:
    lines: list[str] = []
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
    elif command == "verify":
        for row in payload["results"]:
            lines.append("\t".join([row["status"].upper(), row["property"], row["detail"]]))
    else:
        raise InputError(f"unknown command {command!r}")
    return "".join(line + "\n" for line in lines)


# -- entry point ------------------------------------------------------------------


#: The commands that read --flavour; these and verify read --fields.
_FLAVOURED = ("kac", "cuspidal", "ip", "gkm-dims")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgk",
        description="Quiver root systems, Kac polynomials, cuspidal inversions, "
        "GKM dimensions, and framed character decompositions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("quiver", help="path to a quiver JSON file")
        p.add_argument("--bound", type=int, default=4, help="total-degree bound N")
        if name in _FLAVOURED:
            p.add_argument("--flavour", choices=FLAVOURS, default="plain")
        if name in _FLAVOURED or name == "verify":
            p.add_argument(
                "--fields",
                type=str,
                default=",".join(str(v) for v in DEFAULT_FIELDS),
                help="comma-separated prime powers for counting oracles",
            )
        p.add_argument("--format", choices=("tsv", "json"), default="tsv")
        p.add_argument("--cache-dir", default=None)
        if name == "kac":
            p.add_argument("--method", choices=("hua", "oracle"), default="hua")
        if name in ("ip", "canonical-decomp"):
            p.add_argument("--dim", default=None, help="single dimension vector d1,d2,...")
        if name == "gkm-dims":
            p.add_argument("--from-kac", action="store_true")
            p.add_argument("--weights", default=None, help="weight-function JSON file")
        if name == "nakajima-decomp":
            p.add_argument("--framing", default=None, help="framing vector f1,f2,...")
    return parser


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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        if args.bound < 1:
            raise InputError("--bound must be >= 1")
        if "fields" in args:
            args.fields = _parse_fields(args.fields)
        quiver = _load_quiver(args.quiver)

        payload = None
        cache_file = None
        directory = _cache_dir(args.cache_dir)
        if directory is not None and args.command != "verify":
            cache_file = _cache_path(directory, quiver, args)
            payload = _cache_read(cache_file)
        if payload is None:
            payload = _HANDLERS[args.command](quiver, args)
            if cache_file is not None:
                _cache_write(cache_file, payload)

        text = _render_json(payload) if args.format == "json" else _render_tsv(args.command, payload)
        sys.stdout.write(text)
        if args.command == "verify" and any(r["status"] == "fail" for r in payload["results"]):
            return 2
        return 0
    except (InputError, QuiverError, BudgetError, AmbiguousDecompositionError) as exc:
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


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
