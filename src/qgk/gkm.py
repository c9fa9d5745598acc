r"""
Generalised Kac-Moody (Borcherds) algebras from simple-root multiplicities.

The positive half n^+ is generated by a graded alphabet: for each simple
root m (a dimension vector) and each cohomological degree j there are
letters e_{m,j,l}, l = 1..mult, with mult read off the weight function as
the coefficient of q^{j/2}.  The defining relations are

  * ad(e_m)^{1 - a_{mn}}(e_{n,j,l}) = 0   for m real ((m,m) = 2), n != m,
  * [e_{m,j,l}, e_{n,j',l'}] = 0          whenever (m,n) = 0, including
                                          distinct letters at one
                                          isotropic root,

with a_{mn} the symmetrised form on the root lattice.  No other pairs of
generators are related.  All cohomological degrees must be even; there
are no super signs anywhere.

There are two routes to the graded dimensions of n^+.

The pipeline reads them off Borcherds' denominator identity (Borcherds,
Generalized Kac-Moody algebras, J. Algebra 115 (1988); Kac,
Infinite-dimensional Lie algebras, 11.13):

    Exp_{q,z}(-ch n^+) = sum_{w in W} sum_S eps(w) (-1)^{|S|} q^{deg S} z^{w*s(S)}.

W is generated by the reflections in the real simple roots, S runs over
sets of pairwise orthogonal imaginary letters with root sum s(S), and
w*b = rho - w(rho - b), so that s_i*b = b + (1 - (b, a_i)) a_i; a real
letter at half-degree h adds k*h to the q-degree of a step by k*a_i.  A
hyperbolic root gives S at most one letter; an isotropic root gives any
k of its letters, which sum to (-1)^k Lambda^k of its weight.  No two
simple roots pair positively, so S is orthogonal to a new root r exactly
when (s(S), r) = 0: the right side keeps one weight per root sum, not one
per clique.  gkm_dims takes ch n^+ = -Log_{q,z} of the right side, and
cuspidal.invert_character solves the identity for the multiplicities.
Begun at l instead of 0 (S orthogonal to l, w* acting on l + s(S)), the
sum times Exp_{q,z}(ch n^+) is the character of the irreducible module of
lowest weight l (the Borcherds-Kac character formula), which
lowest_weight_extract returns.  All three stop past GKM_BUDGET clique-sum
extensions and Weyl group elements.

GkmEngine, the presented-algebra oracle that closes the relation ideal,
lives in _presented; verify and the tests load it on first use.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .qpoly import QPoly
from .roots import CartanDatum, _refuse, check_vector_budget
from .series import (
    GradedSeries,
    PlethMode,
    _csv,
    degree_lex,
    pleth_exp,
    pleth_log,
    series_mul,
)

if TYPE_CHECKING:  # a weight function names its quiver; nothing here reads it
    from .quiver import Quiver

#: The most clique-sum extensions and Weyl group elements one denominator may enumerate.
GKM_BUDGET = 200_000


class GkmError(ValueError):
    pass


class WeightFunction:
    """Simple-root multiplicities: root -> polynomial in q^{1/2}."""

    def __init__(self, quiver: Quiver, table: dict[tuple[int, ...], QPoly]):
        self.quiver, self.table = quiver, table

    def items(self) -> list[tuple[tuple[int, ...], QPoly]]:
        return [(r, self.table[r]) for r in sorted(self.table, key=degree_lex)]


class GkmDimTable:
    """dim n_{d,j} for |d| <= bound, keyed d -> {half degree j: dim}."""

    def __init__(
        self, cartan: CartanDatum, bound: int, dims: dict[tuple[int, ...], dict[int, int]]
    ):
        self.cartan, self.bound, self.dims = cartan, bound, dims


class _SimpleRoots:
    """The simple roots registered so far, checked as they arrive.

    Each keeps its norm and its CartanDatum.row, so a new root pairs with
    them over its own support.  ``horizon`` is the largest total degree
    already read off; a root below it arrives too late to be seen there.
    """

    __slots__ = ("cartan", "norms", "rows", "horizon")

    def __init__(self, cartan: CartanDatum):
        self.cartan = cartan
        self.norms: dict[tuple[int, ...], int] = {}
        self.rows: dict[tuple[int, ...], tuple[int, ...]] = {}
        self.horizon = 0

    def admit(self, root: tuple[int, ...], multiplicity: QPoly) -> dict | None:
        """Check root and multiplicity, then register the root.

        Returns the pairing of root with every registered root, itself
        included, or None when the multiplicity is zero.
        """
        if len(root) != self.cartan.rank:
            raise GkmError("root has the wrong rank")
        if not any(root) or any(x < 0 for x in root):
            raise GkmError("simple roots must be nonzero and nonnegative")
        if multiplicity.is_zero():
            return None
        if sum(root) < self.horizon:
            raise GkmError("generators must arrive in nondecreasing degree order")
        row, support = self.cartan.row(root), [(j, n) for j, n in enumerate(root) if n]
        diag = sum(row[j] * n for j, n in support)
        if diag > 2:
            raise GkmError(f"(m,m) = {diag} > 2 is not a valid simple root")
        if not multiplicity.has_integral_exponents():
            raise GkmError("odd cohomological degrees are not supported")
        if not (
            multiplicity.has_integer_coefficients() and multiplicity.has_nonnegative_coefficients()
        ):
            raise GkmError(f"multiplicity {multiplicity} is not a nonnegative integer")
        if diag == 2 and (multiplicity.eval_at(1) > 1 or root in self.norms):
            raise GkmError("a real simple root must have multiplicity one")
        pairings = {r: sum(x[j] * n for j, n in support) for r, x in self.rows.items() if r != root}
        for r, pairing in pairings.items():
            if pairing > 0:
                raise GkmError(
                    f"simple roots {_csv(r)} and {_csv(root)} pair positively ({pairing})"
                )
        pairings[root] = self.norms[root] = diag
        self.rows[root] = row
        return pairings


# -- the denominator identity ------------------------------------------------------


class _Denominator:
    """The right side of the denominator identity for the simple roots added so far.

    Cliques (sets S) are summed by start + s(S), start zero unless given.
    No two simple roots pair positively, start among them, so (start +
    s(S), r) is zero exactly when start and all of S are orthogonal to r:
    cliques with one sum extend alike, and one dot product per sum with
    r's kept row decides it.  Each add carries the sums it changed along
    their Weyl orbits, or every sum when it brings a real root, so the
    right side is complete between calls.
    """

    def __init__(self, cartan: CartanDatum, bound: int, start: tuple[int, ...] | None = None):
        if bound < 1:
            raise GkmError("bound must be >= 1")
        self.cartan = cartan
        self.bound = bound
        self.roots = _SimpleRoots(cartan)
        #: (root, half degree, row of pairings, |root|) per real simple root
        self._reals: list[tuple[tuple[int, ...], int, tuple[int, ...], int]] = []
        #: start + s(S) -> (-1)^{|S|} q^{deg S} summed over the cliques S with that sum
        self._sums: dict[tuple[int, ...], QPoly] = {start or (0,) * cartan.rank: QPoly.one()}
        self._terms: dict[tuple[int, ...], QPoly] = dict(self._sums)
        self.enumerated = 0

    def add(self, roots: dict) -> None:
        """Register simple roots, root -> multiplicity; each root arrives once."""
        grown: dict[tuple[int, ...], QPoly] = {}
        real = False
        for root, multiplicity in roots.items():
            root = tuple(root)
            pairings = self.roots.admit(root, multiplicity)
            if pairings is None:
                continue
            norm, row = pairings[root], self.roots.rows[root]
            if norm == 2:
                ((half, _),) = multiplicity.items()
                self._reals.append((root, half, row, sum(root)))
                real = True
                continue
            # Lambda^k of an n-dimensional space is zero for k > n
            most = 1 if norm < 0 else min(self.bound // sum(root), int(multiplicity.eval_at(1)))
            wedges = pleth_exp(GradedSeries(1, most, {(1,): -multiplicity}), PlethMode.QZ)
            for s, weight in list(self._sums.items()):
                if sum(a * b for a, b in zip(s, row)):
                    continue
                for k in range(1, most + 1):
                    t = tuple(x + k * y for x, y in zip(s, root))
                    if sum(t) > self.bound:
                        break
                    self._count()
                    term = weight * wedges.coeff((k,))  # (-1)^k Lambda^k
                    for sums in (self._sums, grown):
                        sums[t] = sums[t] + term if t in sums else term
        if real:
            self._terms, grown = {}, self._sums
        for source, weight in grown.items():
            if not weight.is_zero():
                self._orbit(source, weight)

    def coeff(self, d) -> QPoly:
        """The right side at d."""
        return self._terms.get(tuple(d), QPoly.zero())

    def series(self) -> GradedSeries:
        return GradedSeries(self.cartan.rank, self.bound, self._terms)

    def _count(self) -> None:
        self.enumerated += 1
        if self.enumerated > GKM_BUDGET:
            what = f"the denominator identity up to |d| = {self.bound} stopped after"
            _refuse(f"{what} {self.enumerated} cliques and Weyl group elements", GKM_BUDGET)

    def _orbit(self, source: tuple[int, ...], weight: QPoly) -> None:
        """Add sum_w eps(w) weight q^{shift} z^{w*source}, one length at a time.

        rho - source is regular dominant, so the orbit is free: a step by
        k = 1 - (b, a_i) > 0 lengthens w, and w is keyed by how many times
        each real root was added, which distinct w never share.  As k >= 1,
        a real root larger than the room left under the bound is not paired.
        """
        terms = self._terms
        layer = {(0,) * len(self._reals): source}
        while layer:
            following = {}
            for steps, beta in layer.items():
                self._count()
                shift = sum(c * half for c, (_, half, _, _) in zip(steps, self._reals))
                term = weight * QPoly.half_power(shift) if shift else weight
                terms[beta] = terms[beta] + term if beta in terms else term
                room = self.bound - sum(beta)
                support = [(j, b) for j, b in enumerate(beta) if b]
                for i, (alpha, _, row, size) in enumerate(self._reals):
                    k = 1 - sum(row[j] * b for j, b in support) if size <= room else 0
                    if k <= 0 or k * size > room:
                        continue
                    image = tuple(b + k * a for b, a in zip(beta, alpha))
                    following[steps[:i] + (steps[i] + k,) + steps[i + 1 :]] = image
            layer = following
            weight = -weight


# -- module-level characters -------------------------------------------------------


def gkm_dims(cartan: CartanDatum, weights: WeightFunction, bound: int) -> GkmDimTable:
    """Graded dimensions of n^+ presented by the weight function.

    ch n^+ = -Log_{q,z} of the denominator identity's right side; a
    negative or non-integer dimension raises GkmError.
    """
    check_vector_budget(cartan.rank, bound)
    denominator = _Denominator(cartan, bound)
    denominator.add({root: poly for root, poly in weights.items() if sum(root) <= bound})
    character = pleth_log(denominator.series(), PlethMode.QZ)
    dims: dict[tuple[int, ...], dict[int, int]] = {}
    for d, poly in character.items():
        dims[d] = block = {}
        for j, coeff in poly.items():
            if coeff.denominator != 1 or coeff > 0:
                raise GkmError(
                    f"dimension {-coeff} at block {_csv(d)}, degree {j} "
                    "is not a nonnegative integer"
                )
            block[j] = -int(coeff)
    return GkmDimTable(cartan, bound, dims)


def uea_character(chL: GradedSeries) -> GradedSeries:
    """Character of the enveloping algebra: Exp_{q,z}(chL)."""
    return pleth_exp(chL, PlethMode.QZ)


# -- lowest-weight characters ------------------------------------------------------


def lowest_weight_extract(
    cartan: CartanDatum,
    start: tuple[int, ...],
    simple: dict[tuple[int, ...], QPoly],
    envelope: GradedSeries,
) -> GradedSeries:
    """z^{-start} ch L(start), truncated at envelope.bound - |start|.

    L(start) is the irreducible module of lowest weight start over the n^+
    with simple roots simple and Exp_{q,z}(ch n^+) = envelope; start pairs
    nonpositively with each simple root.  ch L(start) = envelope D_start,
    D_start the denominator identity's right side begun at start, whose
    real roots act by s_i*b = b + (1 - (b, a_i)) a_i.
    """
    bound = envelope.bound
    denominator = _Denominator(cartan, bound, start)
    denominator.add({r: m for r, m in simple.items() if sum(r) + sum(start) <= bound})
    terms = series_mul(envelope, denominator.series()).items()
    shifted = {tuple(x - y for x, y in zip(e, start)): poly for e, poly in terms}
    return GradedSeries(cartan.rank, bound - sum(start), shifted)


# perfbench/tracing.py imports and wraps qgk.gkm.GkmEngine by that path.  This
# hook resolves that one name from _presented on first use, so importing gkm
# still loads no oracle; it goes when ROADMAP item 1 or 3 rewrites the tracer.
def __getattr__(name: str):
    if name == "GkmEngine":
        from ._presented import GkmEngine

        return GkmEngine
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
