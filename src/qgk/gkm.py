r"""
Generalised Kac-Moody algebras presented by generators and relations.

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

Relations are set up per pair of root classes: each pairing (m, n) is
computed once, and letters are only paired up when the pairing is zero
or one root is real.  Every other class pair is relation-free and costs
nothing, however many letters it holds.

Dimensions of the graded pieces are computed as (free Lie algebra
dimension) - (rank of the relation ideal).  Free dimensions come from
the Lyndon necklace count aggregated over letter classes; the ideal is
closed degree by degree (I_d = R_d + sum_g [g, I_{d - deg g}]) inside
the tensor algebra, where Lie elements embed via rho([x,y]) =
rho(x) rho(y) - rho(y) rho(x), and ranks are taken per letter content by
exact fraction-free elimination over the integers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial, gcd
from typing import NamedTuple

from .qpoly import QPoly
from .quiver import Quiver
from .roots import CartanDatum
from .series import (
    GradedSeries,
    PlethMode,
    _moebius,
    pleth_exp,
    pleth_log,
    series_inv,
    vectors_of_total,
)

class GkmError(ValueError):
    pass


class Letter(NamedTuple):
    """One generator; tuple order is the alphabet order (|m|, m, j, l)."""

    total: int
    root: tuple[int, ...]
    half_degree: int
    index: int


Tensor = dict[tuple[Letter, ...], int]


@dataclass
class WeightFunction:
    """Simple-root multiplicities: root -> polynomial in q^{1/2}."""

    quiver: Quiver
    table: dict[tuple[int, ...], QPoly] = field(default_factory=dict)

    def poly(self, root: tuple[int, ...]) -> QPoly:
        return self.table.get(tuple(root), QPoly.zero())

    def items(self) -> list[tuple[tuple[int, ...], QPoly]]:
        return [(r, self.table[r]) for r in sorted(self.table, key=lambda t: (sum(t), t))]


@dataclass
class GkmDimTable:
    """dim n_{d,j} for |d| <= bound, keyed d -> {half degree j: dim}."""

    quiver: Quiver
    bound: int
    dims: dict[tuple[int, ...], dict[int, int]] = field(default_factory=dict)

    def character(self, d) -> QPoly:
        block = self.dims.get(tuple(d), {})
        out = QPoly.zero()
        for j, dim in sorted(block.items()):
            out = out + QPoly.half_power(j, dim)
        return out


# -- tensor algebra helpers ------------------------------------------------------


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


# -- the engine ------------------------------------------------------------------


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
        self._norms: dict[tuple[int, ...], int] = {}
        self._relations: dict[tuple[int, ...], list[Tensor]] = {}
        self._ideal_cache: dict[tuple[int, ...], dict[tuple[Letter, ...], _Echelon]] = {}
        self._dims_cache: dict[tuple[int, ...], dict[int, int]] = {}
        self._max_query = 0

    # -- registration -------------------------------------------------------

    def add_generators(self, root, multiplicity: QPoly) -> list[Letter]:
        root = tuple(root)
        if len(root) != self.cartan.rank:
            raise GkmError("root has the wrong rank")
        if not any(root) or any(x < 0 for x in root):
            raise GkmError("simple roots must be nonzero and nonnegative")
        if multiplicity.is_zero():
            return []
        if sum(root) < self._max_query:
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
            if total_mult > 1 or self._root_letters.get(root):
                raise GkmError("a real simple root must have multiplicity one")
        pairings = {r: self.cartan.form(r, root) for r in self._root_letters if r != root}
        for r, pairing in pairings.items():
            if pairing > 0:
                raise GkmError(f"simple roots {r} and {root} pair positively ({pairing})")
        pairings[root] = diag
        new_letters: list[Letter] = []
        for half, coeff in multiplicity.items():
            base = self._class_sizes.get((root, half), 0)
            for l in range(base + 1, base + int(coeff) + 1):
                new_letters.append(Letter(sum(root), root, half, l))
            self._class_sizes[(root, half)] = base + int(coeff)
        self._norms[root] = diag
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
        if pairing > 0 or (self._norms[r] != 2 and self._norms[m] != 2):
            return
        power = 1 - pairing
        for a, b in pairs:
            for actor, target in ((a, b), (b, a)):
                if self._norms[actor.root] != 2:
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
        self._max_query = max(self._max_query, sum(d))
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

    def character_at(self, d) -> QPoly:
        out = QPoly.zero()
        for j, dim in sorted(self.dims_at(d).items()):
            out = out + QPoly.half_power(j, dim)
        return out

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


# -- module-level characters -------------------------------------------------------


def gkm_dims(cartan: CartanDatum, weights: WeightFunction, bound: int) -> GkmDimTable:
    """Graded dimensions of n^+ presented by the weight function."""
    engine = GkmEngine(cartan, bound)
    for root, poly in weights.items():
        if sum(root) > bound:
            continue
        engine.add_generators(root, poly)
    rank = len(weights.quiver.vertices)
    dims: dict[tuple[int, ...], dict[int, int]] = {}
    for total in range(1, bound + 1):
        for d in vectors_of_total(rank, total):
            block = engine.dims_at(d)
            if block:
                dims[d] = block
    return GkmDimTable(weights.quiver, bound, dims)


def gkm_character(table: GkmDimTable) -> GradedSeries:
    """sum over blocks of dim n_{d,j} q^{j/2} z^d."""
    terms = {d: table.character(d) for d in table.dims}
    return GradedSeries(table.quiver, table.bound, terms)


def uea_character(chL: GradedSeries) -> GradedSeries:
    """Character of the enveloping algebra: Exp_{q,z}(chL)."""
    return pleth_exp(chL, PlethMode.QZ)


def free_lie_character(chV: GradedSeries, bound: int) -> GradedSeries:
    """Character of the free Lie algebra on a graded space V.

    The tensor algebra has character 1/(1 - chV), and the free Lie algebra
    is its plethystic logarithm.
    """
    if bound > chV.bound:
        raise GkmError("bound exceeds the generator series bound")
    chV = chV.truncate(bound) if bound < chV.bound else chV
    if not chV.constant_term().is_zero():
        raise GkmError("generator series must have zero constant term")
    tensor = series_inv(GradedSeries.one(chV.quiver, bound) - chV)
    return pleth_log(tensor, PlethMode.QZ)


# -- lowest weight extraction -------------------------------------------------------


class AmbiguousDecompositionError(GkmError):
    """Raised when block characters cannot be recovered one equation at a time."""


def lowest_weight_extract(
    framed: GradedSeries,
    multiplicities: dict[tuple[int, ...], QPoly],
    bound: int,
) -> dict[tuple[int, ...], GradedSeries]:
    """Solve F = sum_d V_d z^d chL_d for the block characters chL_d.

    Each chL_d is pinned to constant term 1.  Equations are scanned in
    (|e|, lex) order; the unknown chL_d(e - d) appears in the single
    equation e = d + (e - d), so every equation must contain at most one
    unknown, and equations with none are consistency checks.  Systems
    with two or more comparable blocks are genuinely underdetermined and
    raise AmbiguousDecompositionError.
    """
    quiver = framed.quiver
    rank = len(quiver.vertices)
    blocks = sorted(
        (d for d, v in multiplicities.items() if not v.is_zero()),
        key=lambda t: (sum(t), t),
    )
    chl: dict[tuple[int, ...], dict[tuple[int, ...], QPoly]] = {
        d: {tuple([0] * rank): QPoly.one()} for d in blocks
    }
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
