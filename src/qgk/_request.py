r"""
A CLI request up to its cache entry: the parser, option checks and the quiver.

python -m qgk and qgk.cli.run both start in serve, which parses argv once.
A cache hit is answered from this module and quiver alone; a miss goes on
to qgk.cli.answer, which computes.  The on-disk cache stores the exact text
a command printed under its request (schema version, quiver, every parsed
option), behind a checksum, written atomically; an entry is served only
when both match, and never parsed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import tempfile
import zlib

from .quiver import FLAVOURS, Quiver, QuiverError

#: Part of every cache key; raise it when a command's output changes.
CACHE_SCHEMA = 3

#: The subcommands, in the order --help lists them; qgk.cli has a handler for each.
COMMANDS = (
    "roots", "kac", "cuspidal", "ip", "canonical-decomp", "gkm-dims", "nakajima-decomp", "verify",
)

#: The commands that read --flavour, and those that answer one --dim in place of --bound.
_FLAVOURED, _SPANNED = ("kac", "cuspidal"), ("ip", "canonical-decomp")


class InputError(ValueError):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgk",
        description="Quiver root systems, Kac polynomials, cuspidal inversions, "
        "GKM dimensions, and framed character decompositions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("quiver", help="path to a quiver JSON file")
        span = p.add_mutually_exclusive_group() if name in _SPANNED else p
        span.add_argument("--bound", type=int, default=4, help="total-degree bound N")
        if name in _SPANNED:
            span.add_argument("--dim", default=None, help="single dimension vector d1,d2,...")
        if name in _FLAVOURED:
            p.add_argument("--flavour", choices=FLAVOURS, default="plain")
        p.add_argument("--format", choices=("tsv", "json"), default="tsv")
        p.add_argument("--cache-dir", default=None)
        if name == "kac":
            p.add_argument("--method", choices=("hua", "oracle"), default="hua")
        if name == "gkm-dims":
            source = p.add_mutually_exclusive_group(required=True)
            source.add_argument("--from-kac", action="store_true")
            source.add_argument("--weights", default=None, help="weight-function JSON file")
        if name == "nakajima-decomp":
            p.add_argument("--framing", required=True, help="framing vector f1,f2,...")
    return parser


def _load_quiver(path: str) -> Quiver:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read quiver file: {exc}") from None
    return Quiver.from_json(text)


# -- cache ------------------------------------------------------------------------


def _cache_key(quiver: Quiver, args) -> str:
    """The request as one line: schema, quiver and every parsed option.

    Only the quiver's path and the cache directory are left out; a weight
    file enters by its text.
    """
    options = {k: v for k, v in vars(args).items() if k not in ("quiver", "cache_dir")}
    if options.get("weights"):
        try:
            with open(options["weights"], "r", encoding="utf-8") as fh:
                options["weights"] = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read weight file: {exc}") from None
    return json.dumps([CACHE_SCHEMA, quiver.to_json_dict(), options], sort_keys=True)


def _cache_read(path: str) -> str | None:
    """The text after the entry's checksum line; None if missing, unreadable or damaged."""
    try:
        with open(path, "rb") as fh:
            crc, _, rest = fh.read().partition(b"\n")
        if crc == b"%08x" % zlib.crc32(rest):
            return rest.decode("utf-8")
    except (OSError, UnicodeDecodeError):
        pass
    return None


def _cache_write(path: str, text: str) -> None:
    """Store the text atomically under its checksum; a cache that cannot be written is skipped."""
    body = text.encode("utf-8")
    temp = None
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, temp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        with os.fdopen(fd, "wb") as fh:
            fh.write(b"%08x\n" % zlib.crc32(body) + body)
        os.replace(temp, path)
    except OSError:
        if temp is not None:
            with contextlib.suppress(OSError):
                os.unlink(temp)


# -- entry ------------------------------------------------------------------------


def serve(argv: list[str] | None, miss, read=_cache_read) -> int:
    """Print argv's cache entry, else return miss(args, quiver, entry); the exit code.

    entry is the (path, key) of the request's cache entry, or None.
    qgk.cli.run passes its answer and its own _cache_read, so a wrapper set
    on qgk.cli._cache_read sees every read.
    """
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        if args.bound < 1:
            raise InputError("--bound must be >= 1")
        quiver = _load_quiver(args.quiver)
        entry = None
        if args.cache_dir is not None and args.command != "verify":
            key = _cache_key(quiver, args)
            name = f"qgk-{args.command}-{zlib.crc32(key.encode()):08x}.txt"
            entry = (os.path.join(args.cache_dir, name), key)
    except (InputError, QuiverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if entry is not None:
        stored, _, text = (read(entry[0]) or "").partition("\n")
        if stored == entry[1]:
            sys.stdout.write(text)
            return 0
    return miss(args, quiver, entry)
