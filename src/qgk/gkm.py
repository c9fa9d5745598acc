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

The presented-algebra oracle, GkmEngine, closes the relation ideal
degree by degree inside the tensor algebra: dim = (free Lie algebra
dimension) - (rank of the ideal), with free dimensions from the Lyndon
necklace count over letter classes, ideal blocks I_d = R_d + sum_g [g,
I_{d - deg g}] under rho([x,y]) = rho(x) rho(y) - rho(y) rho(x), and ranks
by exact fraction-free elimination per letter content.  Its cost grows
super-polynomially in the bound; verify's gkm-presentation check and the
tests compare it with the denominator route.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial, gcd
from typing import NamedTuple

from .kac import BudgetError, check_vector_budget
from .qpoly import QPoly
from .quiver import Quiver
from .roots import CartanDatum
from .series import (
    GradedSeries,
    PlethMode,
    _LINE,
    _moebius,
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
        for half, coeff in multiplicity.items():
            if half % 2:
                raise GkmError("odd cohomological degrees are not supported")
            if coeff.denominator != 1 or coeff <= 0:
                raise GkmError(f"multiplicity {multiplicity} is not a nonnegative integer")
        if diag == 2:
            total_mult = sum(int(c) for _, c in multiplicity.items())
            if total_mult > 1 or root in self.norms:
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


# -- presented-algebra oracle ---------------------------------------------------------


class Letter(NamedTuple):
    """One generator; tuple order is the alphabet order (|m|, m, j, l)."""

    total: int
    root: tuple[int, ...]
    half_degree: int
    index: int


Tensor = dict[tuple[Letter, ...], int]


def _tensor_bracket(a: Tensor, b: Tensor) -> Tensor:
    out: Tensor = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            c = ca * cb
            key = wa + wb
            out[key] = out.get(key, 0) + c
            key = wb + wa
            out[key] = out.get(key, 0) - c
    return {w: c for w, c in out.items() if c}


class _Echelon:
    """Spanning rows of one letter-content block, exact integers.

    Each row is scaled to coprime integer coefficients with a positive
    coefficient at its lead, its minimal word, and no two rows share a
    lead.  Rows are not back-substituted, so a row may still contain
    another row's lead; reduction terminates all the same, because each
    step removes the current minimal word and adds only larger ones.
    Elimination is fraction-free, so spans and ranks are those over Q.
    """

    __slots__ = ("pivots",)

    def __init__(self):
        self.pivots: dict[tuple[Letter, ...], Tensor] = {}

    def reduce(self, row: Tensor) -> Tensor:
        row = dict(row)
        while row:
            lead = min(row)
            pivot = self.pivots.get(lead)
            if pivot is None:
                return row
            g = gcd(row[lead], pivot[lead])
            scale, c = pivot[lead] // g, row[lead] // g
            if scale != 1:
                row = {w: scale * v for w, v in row.items()}
            for w, v in pivot.items():
                nv = row.get(w, 0) - c * v
                if nv:
                    row[w] = nv
                else:
                    del row[w]
        return row

    def insert(self, row: Tensor) -> bool:
        row = self.reduce(row)
        if not row:
            return False
        lead = min(row)
        g = gcd(*row.values())
        if row[lead] < 0:
            g = -g
        self.pivots[lead] = {w: v // g for w, v in row.items()} if g != 1 else row
        return True

    @property
    def rank(self) -> int:
        return len(self.pivots)


class GkmEngine:
    """Incremental dimension bookkeeping for one presented algebra.

    Generators must be registered in nondecreasing |root| order before
    querying any block of that total degree; queried blocks only see the
    generators registered so far.
    """

    def __init__(self, cartan: CartanDatum, bound: int):
        if bound < 1:
            raise GkmError("bound must be >= 1")
        self.cartan = cartan
        self.bound = bound
        self.letters: list[Letter] = []
        self._class_sizes: dict[tuple[tuple[int, ...], int], int] = {}
        self._root_letters: dict[tuple[int, ...], list[Letter]] = {}
        self._roots = _SimpleRoots(cartan)
        self._relations: dict[tuple[int, ...], list[Tensor]] = {}
        self._ideal_cache: dict[tuple[int, ...], dict[tuple[Letter, ...], _Echelon]] = {}
        self._dims_cache: dict[tuple[int, ...], dict[int, int]] = {}

    # -- registration -------------------------------------------------------

    def add_generators(self, root, multiplicity: QPoly) -> list[Letter]:
        root = tuple(root)
        pairings = self._roots.admit(root, multiplicity)
        if pairings is None:
            return []
        new_letters: list[Letter] = []
        for half, coeff in multiplicity.items():
            base = self._class_sizes.get((root, half), 0)
            for l in range(base + 1, base + int(coeff) + 1):
                new_letters.append(Letter(sum(root), root, half, l))
            self._class_sizes[(root, half)] = base + int(coeff)
        old_at_root = self._root_letters.setdefault(root, [])
        for r, pairing in pairings.items():
            # lazy: most class pairs never look at their letters
            if r == root:
                pairs = (
                    (a, b)
                    for j, b in enumerate(new_letters)
                    for a in old_at_root + new_letters[:j]
                )
            else:
                pairs = ((a, b) for a in self._root_letters[r] for b in new_letters)
            self._relate_classes(r, root, pairing, pairs)
        old_at_root.extend(new_letters)
        self.letters.extend(new_letters)
        self.letters.sort()
        self._dims_cache.pop(root, None)
        return new_letters

    def _relate_classes(self, r, m, pairing: int, pairs) -> None:
        """Relations between the letters of roots r and m, whose pairing is given."""
        if pairing == 0:
            if sum(r) + sum(m) > self.bound:
                return
            for a, b in pairs:
                self._add_relation(_tensor_bracket({(a,): 1}, {(b,): 1}))
            return
        norms = self._roots.norms
        if pairing > 0 or (norms[r] != 2 and norms[m] != 2):
            return
        power = 1 - pairing
        for a, b in pairs:
            for actor, target in ((a, b), (b, a)):
                if norms[actor.root] != 2:
                    continue
                if power * actor.total + target.total > self.bound:
                    continue
                rel: Tensor = {(target,): 1}
                actor_tensor: Tensor = {(actor,): 1}
                for _ in range(power):
                    rel = _tensor_bracket(actor_tensor, rel)
                self._add_relation(rel)

    def _add_relation(self, rel: Tensor) -> None:
        if not rel:
            return
        word = next(iter(rel))
        degree = tuple(sum(x) for x in zip(*(l.root for l in word)))
        if sum(degree) > self.bound:
            return
        self._relations.setdefault(degree, []).append(rel)

    # -- dimensions ----------------------------------------------------------

    def dims_at(self, d) -> dict[int, int]:
        d = tuple(d)
        if sum(d) > self.bound:
            raise GkmError(f"block {d} is beyond the bound {self.bound}")
        if not any(d) or any(x < 0 for x in d):
            raise GkmError("blocks are indexed by nonzero nonnegative vectors")
        cached = self._dims_cache.get(d)
        if cached is not None:
            return dict(cached)
        self._roots.horizon = max(self._roots.horizon, sum(d))
        dims: dict[int, int] = {}
        for gamma in self._class_contents(d):
            free = _weighted_lyndon_count(gamma, self._class_sizes)
            if free:
                j = sum(half * count for (_, half), count in gamma)
                dims[j] = dims.get(j, 0) + free
        for content, echelon in self._ideal_at(d).items():
            j = sum(l.half_degree for l in content)
            dims[j] = dims.get(j, 0) - echelon.rank
        for j, dim in dims.items():
            if dim < 0:
                raise GkmError(f"negative dimension at block {d}, degree {j}")
        dims = {j: dim for j, dim in dims.items() if dim}
        self._dims_cache[d] = dims
        return dict(dims)

    def _class_contents(self, d: tuple[int, ...]):
        """Multisets of letter classes with roots summing to d."""
        classes = sorted(self._class_sizes)
        rank = len(d)

        def rec(idx: int, remaining: tuple[int, ...], chosen):
            if not any(remaining):
                yield tuple(chosen)
                return
            if idx == len(classes):
                return
            root, _ = classes[idx]
            cap = min(
                (remaining[k] // root[k]) for k in range(rank) if root[k]
            )
            for count in range(cap + 1):
                rest = tuple(remaining[k] - count * root[k] for k in range(rank))
                if any(x < 0 for x in rest):
                    break
                if count:
                    chosen.append((classes[idx], count))
                    yield from rec(idx + 1, rest, chosen)
                    chosen.pop()
                else:
                    yield from rec(idx + 1, rest, chosen)

        yield from rec(0, d, [])

    def _ideal_at(self, d: tuple[int, ...]):
        cached = self._ideal_cache.get(d)
        if cached is not None:
            return cached
        blocks: dict[tuple[Letter, ...], _Echelon] = {}

        def insert(row: Tensor):
            if not row:
                return
            content = tuple(sorted(next(iter(row))))
            blocks.setdefault(content, _Echelon()).insert(row)

        for rel in self._relations.get(d, ()):
            insert(rel)
        for g in self.letters:
            prev = tuple(x - y for x, y in zip(d, g.root))
            if any(x < 0 for x in prev) or not any(prev):
                continue
            g_tensor: Tensor = {(g,): 1}
            for echelon in self._ideal_at(prev).values():
                for row in echelon.pivots.values():
                    insert(_tensor_bracket(g_tensor, row))
        self._ideal_cache[d] = blocks
        return blocks


def _weighted_lyndon_count(
    gamma: tuple[tuple[tuple[tuple[int, ...], int], int], ...],
    class_sizes: dict[tuple[tuple[int, ...], int], int],
) -> int:
    """Lyndon words with class content gamma, letters weighted by class size.

    (1/n) sum_{k | gcd} mu(k) (n/k)! / prod (c/k)! * prod size^{c/k}.
    """
    counts = [count for _, count in gamma]
    n = sum(counts)
    g = 0
    for c in counts:
        g = gcd(g, c)
    total = 0
    for k in range(1, g + 1):
        if g % k:
            continue
        mu = _moebius(k)
        if mu == 0:
            continue
        words = factorial(n // k)
        for (cls, count) in gamma:
            words //= factorial(count // k)
            words *= class_sizes[cls] ** (count // k)
        total += mu * words
    if total % n:
        raise GkmError("necklace count is not an integer")
    return total // n


def presented_dims(cartan: CartanDatum, weights: WeightFunction, bound: int) -> GkmDimTable:
    """The table gkm_dims gives, computed in the presented algebra instead."""
    engine = GkmEngine(cartan, bound)
    for root, poly in weights.items():
        if sum(root) <= bound:
            engine.add_generators(root, poly)
    dims: dict[tuple[int, ...], dict[int, int]] = {}
    for total in range(1, bound + 1):
        for d in vectors_of_total(cartan.rank, total):
            block = engine.dims_at(d)
            if block:
                dims[d] = block
    return GkmDimTable(weights.quiver, bound, dims)
