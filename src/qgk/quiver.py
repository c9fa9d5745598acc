r"""
Quivers, dimension vectors and framing.

A quiver is a finite directed graph in which loops and parallel arrows
are allowed.  Vertices are opaque strings; their input order is the
canonical order used for every matrix layout and every sorted output in
this package.  Arrows are stored as an explicit sequence of
(source, target) pairs, so parallel arrows and loops need no special
casing.  The pipeline reads a quiver through its Cartan matrix, which
roots.CartanDatum.from_quiver builds from the arrows once per run; the
series know only a rank and the tables carry that CartanDatum.  A Quiver
stays where vertex names are printed or arrows are read: frame, the
Burnside census, WeightFunction and the CLI.

EXAMPLES::

    >>> jordan = Quiver(["0"], [("0", "0")])
    >>> jordan.arrows
    (('0', '0'),)
    >>> a2 = Quiver(["0", "1"], [("0", "1")])
    >>> a2.vector([1, 0])
    (1, 0)

The framed quiver adds a new vertex ``$`` with ``f_i`` arrows from it to
each vertex ``i``::

    >>> framed = frame(a2, (1, 0))
    >>> framed.vertices, framed.arrows
    (('0', '1', '$'), (('0', '1'), ('$', '0')))
"""

from __future__ import annotations

import json
from typing import Iterable

#: Name of the framing vertex added by :func:`frame`.  Chosen so it cannot
#: collide silently with a user vertex called "inf" or similar; frame()
#: still checks for collisions.
FRAMING_VERTEX = "$"


class QuiverError(ValueError):
    """Malformed quiver data or mismatched quiver/vector combinations."""


# -- counting vocabulary ----------------------------------------------------------
# Here rather than in kac, so that the CLI's request parser (_request) checks
# --flavour without loading the pipeline.

FLAVOURS = ("plain", "nilpotent", "one_nilpotent")


class CountingError(RuntimeError):
    pass


class Quiver:
    """A finite directed graph with loops and parallel arrows allowed.

    ``vertices`` is an ordered sequence of distinct identifiers; ``arrows``
    is a sequence of (source, target) pairs, where repeats encode parallel
    arrows and (i, i) encodes a loop at i.
    """

    __slots__ = ("vertices", "arrows")

    def __init__(self, vertices: Iterable[str], arrows: Iterable[tuple[str, str]] = ()):
        self.vertices: tuple[str, ...] = tuple(str(v) for v in vertices)
        known = set(self.vertices)
        if len(known) != len(self.vertices):
            raise QuiverError("duplicate vertex identifiers")
        if not self.vertices:
            raise QuiverError("a quiver needs at least one vertex")
        arrow_list = []
        for a in arrows:
            s, t = a
            s, t = str(s), str(t)
            if s not in known or t not in known:
                raise QuiverError(f"arrow ({s!r}, {t!r}) uses an unknown vertex")
            arrow_list.append((s, t))
        self.arrows: tuple[tuple[str, str], ...] = tuple(arrow_list)

    # -- dimension vectors ---------------------------------------------

    def vector(self, values: Iterable[int]) -> tuple[int, ...]:
        """A dimension vector: nonnegative integers, one per vertex, in vertex order."""
        d = tuple(int(n) for n in values)
        if len(d) != len(self.vertices):
            raise QuiverError("dimension sequence length differs from vertex count")
        if any(n < 0 for n in d):
            raise QuiverError("negative entry in a dimension vector")
        return d

    # -- equality and hashing --------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Quiver)
            and self.vertices == other.vertices
            and sorted(self.arrows) == sorted(other.arrows)
        )

    def __hash__(self) -> int:
        return hash((self.vertices, tuple(sorted(self.arrows))))

    def __repr__(self) -> str:
        return f"Quiver({list(self.vertices)!r}, {list(self.arrows)!r})"

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"vertices": list(self.vertices), "arrows": [list(a) for a in self.arrows]}

    @classmethod
    def from_json_dict(cls, data: object) -> "Quiver":
        """Parse the on-disk schema {"vertices": [...], "arrows": [[s,t],...]}.

        Unknown keys are rejected so that typos fail loudly.
        """
        if not isinstance(data, dict):
            raise QuiverError("quiver JSON must be an object")
        extra = set(data) - {"vertices", "arrows"}
        if extra:
            raise QuiverError(f"unknown keys in quiver JSON: {sorted(extra)}")
        if "vertices" not in data:
            raise QuiverError("quiver JSON lacks 'vertices'")
        vertices = data["vertices"]
        arrows = data.get("arrows", [])
        if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
            raise QuiverError("'vertices' must be a list of strings")
        if not isinstance(arrows, list):
            raise QuiverError("'arrows' must be a list of [source, target] pairs")
        pairs = []
        for a in arrows:
            if not isinstance(a, list) or len(a) != 2 or not all(isinstance(x, str) for x in a):
                raise QuiverError(f"bad arrow entry {a!r}")
            pairs.append((a[0], a[1]))
        return cls(vertices, pairs)

    @classmethod
    def from_json(cls, text: str) -> "Quiver":
        try:
            data = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
            raise QuiverError(f"invalid JSON: {exc}") from None
        return cls.from_json_dict(data)


def frame(quiver: Quiver, f: Iterable[int]) -> Quiver:
    """The framed quiver Q_f: a new vertex with f_i arrows onto each i.

    The framing vertex is appended after the original vertices, so a pair
    (d, m) embeds as the framed dimension vector (d_1, ..., d_r, m).
    """
    f = quiver.vector(f)
    if FRAMING_VERTEX in quiver.vertices:
        raise QuiverError(f"vertex name {FRAMING_VERTEX!r} is reserved for framing")
    vertices = list(quiver.vertices) + [FRAMING_VERTEX]
    arrows = list(quiver.arrows)
    for v, n in zip(quiver.vertices, f):
        arrows.extend((FRAMING_VERTEX, v) for _ in range(n))
    return Quiver(vertices, arrows)
