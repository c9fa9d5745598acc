r"""
Quivers, dimension vectors and framing.

A quiver is a finite directed graph in which loops and parallel arrows
are allowed.  Vertices are opaque strings; their input order is the
canonical order used for every matrix layout and every sorted output in
this package.  Arrows are stored as an explicit sequence of
(source, target) pairs, so parallel arrows and loops need no special
casing.  The pipeline reads a quiver through its Cartan matrix, which
roots.CartanDatum.from_quiver builds from the arrows; otherwise only the
Burnside census and verify's arrow flip read them.

EXAMPLES::

    >>> jordan = Quiver(["0"], [("0", "0")])
    >>> jordan.arrows
    (('0', '0'),)
    >>> a2 = Quiver(["0", "1"], [("0", "1")])
    >>> d = DimVector(a2, {"0": 1, "1": 0})
    >>> e = DimVector(a2, {"0": 0, "1": 1})
    >>> (d + e).as_tuple(), (d + e).total
    ((1, 1), 2)

The framed quiver adds a new vertex ``$`` with ``f_i`` arrows from it to
each vertex ``i``::

    >>> framed = frame(a2, d)
    >>> framed.vertices, framed.arrows
    (('0', '1', '$'), (('0', '1'), ('$', '0')))
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
