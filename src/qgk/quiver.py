r"""
Quivers, dimension vectors and the Euler form.

A quiver is a finite directed graph in which loops and parallel arrows
are allowed.  Vertices are opaque strings; their input order is the
canonical order used for every matrix layout and every sorted output in
this package.  Arrows are stored as an explicit sequence of
(source, target) pairs, so parallel arrows and loops need no special
casing; arrow counts are read off it on demand.  The pipeline reads a
quiver through its Cartan matrix (roots.CartanDatum); only the Burnside
census reads the arrows themselves.

EXAMPLES::

    >>> jordan = Quiver(["0"], [("0", "0")])
    >>> jordan.loops_at("0")
    1
    >>> a2 = Quiver(["0", "1"], [("0", "1")])
    >>> d = DimVector(a2, {"0": 1, "1": 0})
    >>> e = DimVector(a2, {"0": 0, "1": 1})
    >>> euler_form(a2, d, e)
    -1
    >>> sym_form(a2, d, e)
    -1

The doubled quiver adds a reversed arrow for each arrow, the tripled
quiver additionally adds one loop per vertex, and the framed quiver
adds a new vertex ``$`` with ``f_i`` arrows from it to each vertex
``i``::

    >>> len(double(a2).arrows), len(triple(a2).arrows)
    (2, 4)
    >>> frame(a2, DimVector(a2, {"0": 1})).vertices
    ('0', '1', '$')
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator, Mapping

#: Name of the framing vertex added by :func:`frame`.  Chosen so it cannot
#: collide silently with a user vertex called "inf" or similar; frame()
#: still checks for collisions.
FRAMING_VERTEX = "$"


class QuiverError(ValueError):
    """Malformed quiver data or mismatched quiver/vector combinations."""


class Quiver:
    """A finite directed graph with loops and parallel arrows allowed.

    ``vertices`` is an ordered sequence of distinct identifiers; ``arrows``
    is a sequence of (source, target) pairs, where repeats encode parallel
    arrows and (i, i) encodes a loop at i.
    """

    __slots__ = ("vertices", "arrows", "_index")

    def __init__(self, vertices: Iterable[str], arrows: Iterable[tuple[str, str]] = ()):
        self.vertices: tuple[str, ...] = tuple(str(v) for v in vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise QuiverError("duplicate vertex identifiers")
        if not self.vertices:
            raise QuiverError("a quiver needs at least one vertex")
        self._index = {v: k for k, v in enumerate(self.vertices)}
        arrow_list = []
        for a in arrows:
            s, t = a
            s, t = str(s), str(t)
            if s not in self._index or t not in self._index:
                raise QuiverError(f"arrow ({s!r}, {t!r}) uses an unknown vertex")
            arrow_list.append((s, t))
        self.arrows: tuple[tuple[str, str], ...] = tuple(arrow_list)

    # -- basic accessors -------------------------------------------------

    def vertex_index(self, v: str) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise QuiverError(f"unknown vertex {v!r}") from None

    def loops_at(self, v: str) -> int:
        """Number g_v of loops at the vertex v."""
        return self.arrow_count(v, v)

    def arrow_count(self, s: str, t: str) -> int:
        """Number of arrows from s to t."""
        self.vertex_index(s)
        self.vertex_index(t)
        return self.arrows.count((s, t))

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


class DimVector(Mapping[str, int]):
    """A dimension vector over a named quiver.

    Entries are integers indexed by the quiver's vertices; missing vertices
    are zero.  Dimension vectors proper are nonnegative; lattice-valued
    vectors (Weyl reflections may leave the positive orthant) are created
    with ``allow_negative=True``.
    """

    __slots__ = ("quiver", "_values")

    def __init__(
        self,
        quiver: Quiver,
        values: Mapping[str, int] | Iterable[int] | None = None,
        *,
        allow_negative: bool = False,
    ):
        self.quiver = quiver
        vals: dict[str, int]
        if values is None:
            vals = {}
        elif isinstance(values, Mapping):
            unknown = set(values) - set(quiver.vertices)
            if unknown:
                raise QuiverError(f"dimension vector names unknown vertices {sorted(unknown)}")
            vals = {v: int(n) for v, n in values.items()}
        else:
            seq = [int(n) for n in values]
            if len(seq) != len(quiver.vertices):
                raise QuiverError("dimension sequence length differs from vertex count")
            vals = dict(zip(quiver.vertices, seq))
        if not allow_negative and any(n < 0 for n in vals.values()):
            raise QuiverError("negative entry in a dimension vector")
        self._values = {v: vals.get(v, 0) for v in quiver.vertices}

    @classmethod
    def unit(cls, quiver: Quiver, v: str) -> "DimVector":
        quiver.vertex_index(v)
        return cls(quiver, {v: 1})

    @classmethod
    def zero(cls, quiver: Quiver) -> "DimVector":
        return cls(quiver, {})

    # -- Mapping interface -------------------------------------------------

    def __getitem__(self, v: str) -> int:
        return self._values[v]

    def __iter__(self) -> Iterator[str]:
        return iter(self.quiver.vertices)

    def __len__(self) -> int:
        return len(self.quiver.vertices)

    # -- structure ----------------------------------------------------------

    def as_tuple(self) -> tuple[int, ...]:
        return tuple(self._values[v] for v in self.quiver.vertices)

    @property
    def total(self) -> int:
        """The total dimension |d|."""
        return sum(self._values.values())

    @property
    def support(self) -> frozenset[str]:
        return frozenset(v for v, n in self._values.items() if n != 0)

    def is_zero(self) -> bool:
        return all(n == 0 for n in self._values.values())

    def is_effective(self) -> bool:
        return all(n >= 0 for n in self._values.values())

    # -- arithmetic ----------------------------------------------------------

    def _check_same(self, other: "DimVector") -> None:
        if not isinstance(other, DimVector):
            raise TypeError(f"expected DimVector, got {type(other).__name__}")
        if other.quiver != self.quiver:
            raise QuiverError("dimension vectors over different quivers")

    def __add__(self, other: "DimVector") -> "DimVector":
        self._check_same(other)
        vals = {v: self._values[v] + other._values[v] for v in self.quiver.vertices}
        return DimVector(self.quiver, vals, allow_negative=True)

    def __sub__(self, other: "DimVector") -> "DimVector":
        self._check_same(other)
        vals = {v: self._values[v] - other._values[v] for v in self.quiver.vertices}
        return DimVector(self.quiver, vals, allow_negative=True)

    def __mul__(self, n: int) -> "DimVector":
        return DimVector(
            self.quiver, {v: n * k for v, k in self._values.items()}, allow_negative=True
        )

    __rmul__ = __mul__

    def __neg__(self) -> "DimVector":
        return self * (-1)

    def __le__(self, other: "DimVector") -> bool:
        self._check_same(other)
        return all(self._values[v] <= other._values[v] for v in self.quiver.vertices)

    def __lt__(self, other: "DimVector") -> bool:
        return self <= other and self != other

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DimVector):
            return NotImplemented
        return self.quiver == other.quiver and self._values == other._values

    def __hash__(self) -> int:
        return hash(self.as_tuple())

    def __repr__(self) -> str:
        return f"DimVector({self.as_tuple()})"


# -- bilinear forms ----------------------------------------------------------


def euler_form(quiver: Quiver, d: DimVector, e: DimVector) -> int:
    """The Euler form chi_Q(d, e) = sum_i d_i e_i - sum_{a: s->t} d_s e_t."""
    if d.quiver != quiver or e.quiver != quiver:
        raise QuiverError("euler_form arguments over a different quiver")
    total = sum(d[v] * e[v] for v in quiver.vertices)
    for s, t in quiver.arrows:
        total -= d[s] * e[t]
    return total


def sym_form(quiver: Quiver, d: DimVector, e: DimVector) -> int:
    """The symmetrised Euler form (d, e)_Q = chi_Q(d,e) + chi_Q(e,d)."""
    return euler_form(quiver, d, e) + euler_form(quiver, e, d)


# -- derived quivers ----------------------------------------------------------


def double(quiver: Quiver) -> Quiver:
    """The doubled quiver: one reversed arrow a* for each arrow a."""
    arrows = list(quiver.arrows) + [(t, s) for s, t in quiver.arrows]
    return Quiver(quiver.vertices, arrows)


def triple(quiver: Quiver) -> Quiver:
    """The tripled quiver: the double plus one loop at each vertex."""
    doubled = double(quiver)
    arrows = list(doubled.arrows) + [(v, v) for v in quiver.vertices]
    return Quiver(quiver.vertices, arrows)


def frame(quiver: Quiver, f: DimVector) -> Quiver:
    """The framed quiver Q_f: a new vertex with f_i arrows onto each i.

    The framing vertex is appended after the original vertices, so a pair
    (d, m) embeds as the framed dimension vector (d_1, ..., d_r, m).
    """
    if f.quiver != quiver:
        raise QuiverError("framing vector over a different quiver")
    if not f.is_effective():
        raise QuiverError("framing vector must be nonnegative")
    if FRAMING_VERTEX in quiver.vertices:
        raise QuiverError(f"vertex name {FRAMING_VERTEX!r} is reserved for framing")
    vertices = list(quiver.vertices) + [FRAMING_VERTEX]
    arrows = list(quiver.arrows)
    for v in quiver.vertices:
        arrows.extend((FRAMING_VERTEX, v) for _ in range(f[v]))
    return Quiver(vertices, arrows)


def framed_vector(framed: Quiver, d: DimVector, m: int) -> DimVector:
    """Embed (d, m) as a dimension vector of the framed quiver."""
    if framed.vertices[-1] != FRAMING_VERTEX:
        raise QuiverError("not a framed quiver")
    vals = {v: d[v] for v in d.quiver.vertices}
    vals[FRAMING_VERTEX] = m
    return DimVector(framed, vals, allow_negative=True)


def unframed_part(framed_d: DimVector, base: Quiver) -> tuple[DimVector, int]:
    """Split a framed dimension vector into (gauge part over base, framing)."""
    vals = {v: framed_d[v] for v in base.vertices}
    return DimVector(base, vals, allow_negative=True), framed_d[FRAMING_VERTEX]
