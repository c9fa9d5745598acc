r"""
The presented-algebra oracle: n^+ of a generalised Kac-Moody algebra from
its generators and relations alone.

GkmEngine closes the relation ideal degree by degree inside the tensor
algebra: dim = (free Lie algebra dimension) - (rank of the ideal).  The
free part is Witt's formula ch FreeLie(V) = -Log_{q,z}(1 - ch V), since
ch T(V) = 1/(1 - ch V) by PBW, with Log the series core's pleth_log.
Ideal blocks are I_d = R_d + sum_g [g, I_{d - deg g}] under rho([x,y]) =
rho(x) rho(y) - rho(y) rho(x), and ranks come from exact fraction-free
elimination per letter content.  The generators and relations are those
of gkm's docstring, checked by the same gkm._SimpleRoots.

Its cost grows super-polynomially in the bound.  An engine counts its
work, the tensor terms that reduction touches plus the letters it
registers and the letter pairs it walks, and raises BudgetError past
PRESENTED_BUDGET; presented_dims then returns the totals it completed.
verify's gkm-presentation check and the tests compare it with the
denominator route.  Nothing imports this module at load time: verify
loads it inside that check, as kac.brute_force_counts loads _burnside.
"""

from __future__ import annotations

from collections import Counter
from math import gcd
from typing import NamedTuple

from .gkm import GkmDimTable, GkmError, WeightFunction, _SimpleRoots
from .qpoly import QPoly
from .roots import BudgetError, CartanDatum, _refuse
from .series import GradedSeries, PlethMode, _csv, pleth_log, vectors_of_total

#: The most work one GkmEngine may do: tensor terms touched by reduction,
#: letters registered and letter pairs walked.  A reduction term costs about
#: 3 us on Jordan and Kronecker, and a letter about 0.4 us on two-loop
#: (Python 3.11, Xeon VM), so the engine stops within a few seconds.
PRESENTED_BUDGET = 1_000_000


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
    ``touched`` counts the terms that reduction has scaled or subtracted.
    """

    __slots__ = ("pivots", "touched")

    def __init__(self):
        self.pivots: dict[tuple[Letter, ...], Tensor] = {}
        self.touched = 0

    def reduce(self, row: Tensor) -> Tensor:
        row = dict(row)
        while row:
            lead = min(row)
            pivot = self.pivots.get(lead)
            if pivot is None:
                return row
            g = gcd(row[lead], pivot[lead])
            scale, c = pivot[lead] // g, row[lead] // g
            self.touched += len(pivot)
            if scale != 1:
                self.touched += len(row)
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


class GkmEngine:
    """Incremental dimension bookkeeping for one presented algebra.

    Generators must be registered in nondecreasing |root| order before
    querying any block of that total degree; queried blocks only see the
    generators registered so far.  ``work`` counts reduction terms, letters
    and letter pairs; past PRESENTED_BUDGET the engine raises BudgetError.
    """

    def __init__(self, cartan: CartanDatum, bound: int):
        if bound < 1:
            raise GkmError("bound must be >= 1")
        self.cartan = cartan
        self.bound = bound
        self._root_letters: dict[tuple[int, ...], list[Letter]] = {}
        self._free: GradedSeries | None = None  # rebuilt after letters arrive
        self._roots = _SimpleRoots(cartan)
        self._relations: dict[tuple[int, ...], list[Tensor]] = {}
        self._ideal_cache: dict[tuple[int, ...], dict[tuple[Letter, ...], _Echelon]] = {}
        self.work = 0

    def _spend(self, amount: int) -> None:
        self.work += amount
        if self.work > PRESENTED_BUDGET:
            what = f"the presented algebra up to |d| = {self.bound} stopped after {self.work}"
            _refuse(f"{what} reduction terms, letters and letter pairs", PRESENTED_BUDGET)

    # -- registration -------------------------------------------------------

    def add_generators(self, root, multiplicity: QPoly) -> list[Letter]:
        root = tuple(root)
        pairings = self._roots.admit(root, multiplicity)
        if pairings is None:
            return []
        self._spend(int(multiplicity.eval_at(1)))
        old_at_root = self._root_letters.setdefault(root, [])
        new_letters: list[Letter] = []
        for half, coeff in multiplicity.items():
            base = sum(l.half_degree == half for l in old_at_root)
            for l in range(base + 1, base + int(coeff) + 1):
                new_letters.append(Letter(sum(root), root, half, l))
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
        self._free = None
        return new_letters

    def _relate_classes(self, r, m, pairing: int, pairs) -> None:
        """Relations between the letters of roots r and m, whose pairing is given."""
        if pairing == 0:
            if sum(r) + sum(m) > self.bound:
                return
            for a, b in pairs:
                self._spend(1)
                self._add_relation(_tensor_bracket({(a,): 1}, {(b,): 1}))
            return
        norms = self._roots.norms
        if pairing > 0 or (norms[r] != 2 and norms[m] != 2):
            return
        power = 1 - pairing
        for a, b in pairs:
            self._spend(1)
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
            raise GkmError(f"block {_csv(d)} is beyond the bound {self.bound}")
        if not any(d) or any(x < 0 for x in d):
            raise GkmError("blocks are indexed by nonzero nonnegative vectors")
        self._roots.horizon = max(self._roots.horizon, sum(d))
        if self._free is None:
            self._free = self._free_lie()
        free = self._free.coeff(d)
        if not free.is_nonnegative_integer_polynomial():
            raise GkmError(
                f"free Lie character {free} at block {_csv(d)} is not a nonnegative integer"
            )
        dims = {j: int(dim) for j, dim in free.items()}
        for content, echelon in self._ideal_at(d).items():
            j = sum(l.half_degree for l in content)
            dims[j] = dims.get(j, 0) - len(echelon.pivots)
        for j, dim in dims.items():
            if dim < 0:
                raise GkmError(f"negative dimension at block {_csv(d)}, degree {j}")
        return {j: dim for j, dim in dims.items() if dim}

    def _free_lie(self) -> GradedSeries:
        """-Log(1 - ch V), ch V summing q^{j/2} z^root over the letters."""
        rank = self.cartan.rank
        chV = {
            root: QPoly(Counter(l.half_degree for l in letters))
            for root, letters in self._root_letters.items()
        }
        one = GradedSeries.one(rank, self.bound)
        return -pleth_log(one - GradedSeries(rank, self.bound, chV), PlethMode.QZ)

    def _ideal_at(self, d: tuple[int, ...]):
        cached = self._ideal_cache.get(d)
        if cached is not None:
            return cached
        blocks: dict[tuple[Letter, ...], _Echelon] = {}

        def insert(row: Tensor):
            if not row:
                return
            content = tuple(sorted(next(iter(row))))
            echelon = blocks.setdefault(content, _Echelon())
            touched = echelon.touched
            echelon.insert(row)
            self._spend(echelon.touched - touched)

        for rel in self._relations.get(d, ()):
            insert(rel)
        for root, letters in self._root_letters.items():
            prev = tuple(x - y for x, y in zip(d, root))
            if any(x < 0 for x in prev) or not any(prev):
                continue
            lower = self._ideal_at(prev).values()
            rows = [row for echelon in lower for row in echelon.pivots.values()]
            for g in letters:
                g_tensor: Tensor = {(g,): 1}
                for row in rows:
                    insert(_tensor_bracket(g_tensor, row))
        self._ideal_cache[d] = blocks
        return blocks


def presented_dims(cartan: CartanDatum, weights: WeightFunction, bound: int) -> GkmDimTable:
    """The table gkm_dims gives, computed in the presented algebra instead.

    Generators are registered one total degree at a time, just before the
    blocks of that total are read.  If the engine passes PRESENTED_BUDGET,
    the table stops at the last total it completed, which becomes its bound.
    """
    engine = GkmEngine(cartan, bound)
    pending = [(root, poly) for root, poly in reversed(weights.items()) if sum(root) <= bound]
    dims: dict[tuple[int, ...], dict[int, int]] = {}
    complete = 0
    try:
        for total in range(1, bound + 1):
            while pending and sum(pending[-1][0]) <= total:
                engine.add_generators(*pending.pop())
            for d in vectors_of_total(cartan.rank, total):
                block = engine.dims_at(d)
                if block:
                    dims[d] = block
            complete = total
    except BudgetError:
        dims = {d: block for d, block in dims.items() if sum(d) <= complete}
    return GkmDimTable(cartan, complete, dims)
