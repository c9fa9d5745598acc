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
k of its letters, which sum to (-1)^k Lambda^k of its weight.  gkm_dims
takes ch n^+ = -Log_{q,z} of the right side, and cuspidal.invert_character
solves the identity for the multiplicities.  Both enumerate at most
GKM_BUDGET cliques and Weyl group elements.

GkmEngine, the presented-algebra oracle that closes the relation ideal,
lives in _presented; verify and the tests load it on first use.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .qpoly import QPoly
from .quiver import Quiver
from .roots import BudgetError, CartanDatum, check_vector_budget
from .series import (
    GradedSeries,
    PlethMode,
    _LINE,
    degree_lex,
    pleth_exp,
    pleth_log,
    vectors_of_total,
)

#: The most cliques and Weyl group elements one denominator may enumerate.
GKM_BUDGET = 200_000


class GkmError(ValueError):
    pass


@dataclass
class WeightFunction:
    """Simple-root multiplicities: root -> polynomial in q^{1/2}."""

    quiver: Quiver
    table: dict[tuple[int, ...], QPoly] = field(default_factory=dict)

    def items(self) -> list[tuple[tuple[int, ...], QPoly]]:
        return [(r, self.table[r]) for r in sorted(self.table, key=degree_lex)]


@dataclass
class GkmDimTable:
    """dim n_{d,j} for |d| <= bound, keyed d -> {half degree j: dim}."""

    quiver: Quiver
    bound: int
    dims: dict[tuple[int, ...], dict[int, int]] = field(default_factory=dict)

    def character(self, d) -> QPoly:
        return QPoly(self.dims.get(tuple(d), {}))


class _SimpleRoots:
    """The simple roots registered so far, checked as they arrive.

    ``horizon`` is the largest total degree already read off; a root below
    it arrives too late to be seen there.
    """

    __slots__ = ("cartan", "norms", "horizon")

    def __init__(self, cartan: CartanDatum):
        self.cartan = cartan
        self.norms: dict[tuple[int, ...], int] = {}
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
        diag = self.cartan.form(root, root)
        if diag > 2:
            raise GkmError(f"(m,m) = {diag} > 2 is not a valid simple root")
        if not multiplicity.has_integral_exponents():
            raise GkmError("odd cohomological degrees are not supported")
        if not (
            multiplicity.has_integer_coefficients() and multiplicity.has_nonnegative_coefficients()
        ):
            raise GkmError(f"multiplicity {multiplicity} is not a nonnegative integer")
        if diag == 2:
            if multiplicity.eval_at(1) > 1 or root in self.norms:
                raise GkmError("a real simple root must have multiplicity one")
        pairings = {r: self.cartan.form(r, root) for r in self.norms if r != root}
        for r, pairing in pairings.items():
            if pairing > 0:
                raise GkmError(f"simple roots {r} and {root} pair positively ({pairing})")
        pairings[root] = diag
        self.norms[root] = diag
        return pairings


# -- the denominator identity ------------------------------------------------------


class _Denominator:
    """The right side of the denominator identity, one simple root at a time.

    Cliques (sets S) are summed by their root sum s(S); each sum is carried
    along its Weyl orbit once, when the right side is next read.  A real
    root that arrives after that sends every sum round its orbit again;
    in an inversion the real simple roots are loop-free unit vectors, so
    that happens only in degree 1.
    """

    def __init__(self, cartan: CartanDatum, bound: int):
        if bound < 1:
            raise GkmError("bound must be >= 1")
        self.cartan = cartan
        self.bound = bound
        self.roots = _SimpleRoots(cartan)
        zero = (0,) * cartan.rank
        #: (root, half degree, row of the form) per real simple root
        self._reals: list[tuple[tuple[int, ...], int, tuple[int, ...]]] = []
        #: (imaginary roots, s(S), (-1)^{|S|} q^{deg S} summed over letters)
        self._cliques: list[tuple[tuple[tuple[int, ...], ...], tuple[int, ...], QPoly]] = [
            ((), zero, QPoly.one())
        ]
        self._sums: dict[tuple[int, ...], QPoly] = {zero: QPoly.one()}
        self._pending: dict[tuple[int, ...], QPoly] = dict(self._sums)
        self._terms: dict[tuple[int, ...], QPoly] = {}
        self.enumerated = 0

    def add(self, root, multiplicity: QPoly) -> None:
        """Register the letters at one simple root; each root arrives once."""
        root = tuple(root)
        pairings = self.roots.admit(root, multiplicity)
        if pairings is None:
            return
        norm = pairings[root]
        if norm == 2:
            ((half, _),) = multiplicity.items()
            row = tuple(sum(a * x for a, x in zip(root, line)) for line in self.cartan.matrix)
            self._reals.append((root, half, row))
            self._pending, self._terms = dict(self._sums), {}
            return
        most = 1 if norm < 0 else self.bound // sum(root)
        wedges = pleth_exp(GradedSeries(_LINE, most, {(1,): -multiplicity}), PlethMode.QZ)
        grown = []
        for members, s, weight in self._cliques:
            if any(pairings[m] for m in members):
                continue
            for k in range(1, most + 1):
                t = tuple(x + k * y for x, y in zip(s, root))
                if sum(t) > self.bound:
                    break
                self._count()
                term = weight * wedges.coeff((k,))  # (-1)^k Lambda^k
                grown.append((members + (root,), t, term))
                for sums in (self._sums, self._pending):
                    sums[t] = sums[t] + term if t in sums else term
        self._cliques += grown

    def coeff(self, d) -> QPoly:
        """The right side at d; roots of smaller total may not follow."""
        self._expand()
        self.roots.horizon = max(self.roots.horizon, sum(d))
        return self._terms.get(tuple(d), QPoly.zero())

    def series(self, quiver: Quiver) -> GradedSeries:
        self._expand()
        self.roots.horizon = self.bound
        return GradedSeries(quiver, self.bound, self._terms)

    def _count(self) -> None:
        self.enumerated += 1
        if self.enumerated > GKM_BUDGET:
            raise BudgetError(
                f"the denominator identity up to |d| = {self.bound} stopped after "
                f"{self.enumerated} cliques and Weyl group elements (budget {GKM_BUDGET})"
            )

    def _expand(self) -> None:
        pending, self._pending = self._pending, {}
        for source, weight in pending.items():
            if not weight.is_zero():
                self._orbit(source, weight)

    def _orbit(self, source: tuple[int, ...], weight: QPoly) -> None:
        """Add sum_w eps(w) weight q^{shift} z^{w*source}, one length at a time.

        rho - source is regular dominant, so the orbit is free: a step by
        k = 1 - (b, a_i) > 0 lengthens w, and w is keyed by how many times
        each real root was added, which distinct w never share.
        """
        terms = self._terms
        layer = {(0,) * len(self._reals): source}
        while layer:
            following = {}
            for steps, beta in layer.items():
                self._count()
                shift = sum(c * half for c, (_, half, _) in zip(steps, self._reals))
                term = weight * QPoly.half_power(shift) if shift else weight
                terms[beta] = terms[beta] + term if beta in terms else term
                for i, (alpha, _, row) in enumerate(self._reals):
                    k = 1 - sum(b * r for b, r in zip(beta, row))
                    if k <= 0 or sum(beta) + k * sum(alpha) > self.bound:
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
    for root, poly in weights.items():
        if sum(root) <= bound:
            denominator.add(root, poly)
    character = pleth_log(denominator.series(weights.quiver), PlethMode.QZ)
    dims: dict[tuple[int, ...], dict[int, int]] = {}
    for d, poly in character.items():
        block = {}
        for j, coeff in poly.items():
            if coeff.denominator != 1 or coeff > 0:
                raise GkmError(
                    f"dimension {-coeff} at block {d}, degree {j} is not a nonnegative integer"
                )
            block[j] = -int(coeff)
        dims[d] = block
    return GkmDimTable(weights.quiver, bound, dims)


def gkm_character(table: GkmDimTable) -> GradedSeries:
    """sum over blocks of dim n_{d,j} q^{j/2} z^d."""
    terms = {d: table.character(d) for d in table.dims}
    return GradedSeries(table.quiver, table.bound, terms)


def uea_character(chL: GradedSeries) -> GradedSeries:
    """Character of the enveloping algebra: Exp_{q,z}(chL)."""
    return pleth_exp(chL, PlethMode.QZ)


# -- lowest weight extraction -------------------------------------------------------


class AmbiguousDecompositionError(GkmError):
    """Raised when block characters cannot be recovered one equation at a time."""


def lowest_weight_extract(
    framed: GradedSeries,
    multiplicities: dict[tuple[int, ...], QPoly],
) -> dict[tuple[int, ...], GradedSeries]:
    """Solve F = sum_d V_d z^d chL_d for the block characters chL_d, |e| <= F's bound.

    Each chL_d is pinned to constant term 1 and truncated at N - |d|, N
    the bound of F.  Equations are scanned in (|e|, lex) order; the
    unknown chL_d(e - d) appears in the single equation e = d + (e - d),
    so every equation must contain at most one unknown.  An equation with
    none is compared with F, and one with one unknown is solved for it by
    exact division, so the result satisfies F = sum_d V_d z^d chL_d at
    every |e| <= N.  Systems with two or more comparable blocks are
    genuinely underdetermined and raise AmbiguousDecompositionError.
    """
    quiver = framed.quiver
    rank = len(quiver.vertices)
    blocks = sorted((d for d, v in multiplicities.items() if not v.is_zero()), key=degree_lex)
    chl: dict[tuple[int, ...], dict[tuple[int, ...], QPoly]] = {
        d: {tuple([0] * rank): QPoly.one()} for d in blocks
    }
    bound = framed.bound
    for total in range(0, bound + 1):
        for e in vectors_of_total(rank, total):
            knowns = QPoly.zero()
            unknowns: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
            for d in blocks:
                c = tuple(x - y for x, y in zip(e, d))
                if any(x < 0 for x in c):
                    continue
                if c in chl[d]:
                    knowns = knowns + multiplicities[d] * chl[d][c]
                else:
                    unknowns.append((d, c))
            lhs = framed.coeff(e)
            if len(unknowns) > 1:
                raise AmbiguousDecompositionError(
                    f"equation at {e} involves {len(unknowns)} unknown block terms"
                )
            if not unknowns:
                if lhs != knowns:
                    raise GkmError(f"inconsistent decomposition at {e}: {lhs} != {knowns}")
                continue
            d, c = unknowns[0]
            chl[d][c] = (lhs - knowns).divexact(multiplicities[d])
    return {
        d: GradedSeries(quiver, bound - sum(d), terms) for d, terms in chl.items()
    }


# perfbench/tracing.py imports and wraps qgk.gkm.GkmEngine by that path.  This
# hook resolves that one name from _presented on first use, so importing gkm
# still loads no oracle; it goes when ROADMAP item 1 or 3 rewrites the tracer.
def __getattr__(name: str):
    if name == "GkmEngine":
        from ._presented import GkmEngine

        return GkmEngine
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
