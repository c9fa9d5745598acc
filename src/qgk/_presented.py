r"""
The presented-algebra oracle: n^+ of a generalised Kac-Moody algebra from
its generators and relations alone.

GkmEngine closes the relation ideal degree by degree inside the tensor
algebra: dim = (free Lie algebra dimension) - (rank of the ideal), with
free dimensions from the Lyndon necklace count over letter classes, ideal
blocks I_d = R_d + sum_g [g, I_{d - deg g}] under rho([x,y]) = rho(x)
rho(y) - rho(y) rho(x), and ranks by exact fraction-free elimination per
letter content.  The generators and relations are those of gkm's
docstring, checked by the same gkm._SimpleRoots.

Its cost grows super-polynomially in the bound.  An engine counts its
work, the tensor terms that reduction touches plus the letters it
registers and the steps of its class-content enumeration, and raises
BudgetError past PRESENTED_BUDGET; presented_dims then returns the
totals it completed.  verify's gkm-presentation check and the tests
compare it with the denominator route.  Nothing imports this module at
load time: verify loads it inside that check, as kac.brute_force_counts
loads _burnside.
"""

from __future__ import annotations

from math import factorial, gcd
from typing import NamedTuple

from .gkm import GkmDimTable, GkmError, WeightFunction, _SimpleRoots
from .qpoly import QPoly
from .roots import BudgetError, CartanDatum
from .series import _moebius, vectors_of_total

#: The most work one GkmEngine may do: tensor terms touched by reduction,
#: letters registered and steps of the class-content enumeration, summed.
#: A unit costs 2-4 us on Jordan, Kronecker and two-loop (Python 3.11), so
#: the engine stops within a few seconds.
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
    generators registered so far.  ``work`` counts reduction terms,
    letters and class-content steps; past PRESENTED_BUDGET the engine
    raises BudgetError.
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
        self.work = 0

    def _spend(self, amount: int) -> None:
        self.work += amount
        if self.work > PRESENTED_BUDGET:
            raise BudgetError(
                f"the presented algebra up to |d| = {self.bound} passed its budget of "
                f"{PRESENTED_BUDGET} reduction terms, letters and class-content steps"
            )

    # -- registration -------------------------------------------------------

    def add_generators(self, root, multiplicity: QPoly) -> list[Letter]:
        root = tuple(root)
        pairings = self._roots.admit(root, multiplicity)
        if pairings is None:
            return []
        self._spend(int(multiplicity.eval_at(1)))
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
        self._roots.horizon = max(self._roots.horizon, sum(d))
        dims: dict[int, int] = {}
        for gamma in self._class_contents(d):
            free = _weighted_lyndon_count(gamma, self._class_sizes)
            if free:
                j = sum(half * count for (_, half), count in gamma)
                dims[j] = dims.get(j, 0) + free
        for content, echelon in self._ideal_at(d).items():
            j = sum(l.half_degree for l in content)
            dims[j] = dims.get(j, 0) - len(echelon.pivots)
        for j, dim in dims.items():
            if dim < 0:
                raise GkmError(f"negative dimension at block {d}, degree {j}")
        return {j: dim for j, dim in dims.items() if dim}

    def _class_contents(self, d: tuple[int, ...]):
        """Multisets of letter classes with roots summing to d; each step is work."""
        classes = sorted(self._class_sizes)
        rank = len(d)

        def rec(idx: int, remaining: tuple[int, ...], chosen: tuple):
            self._spend(1)
            if not any(remaining):
                yield chosen
                return
            if idx == len(classes):
                return
            root, _ = classes[idx]
            cap = min(remaining[k] // root[k] for k in range(rank) if root[k])
            for count in range(cap + 1):
                rest = tuple(remaining[k] - count * root[k] for k in range(rank))
                taken = chosen + ((classes[idx], count),) if count else chosen
                yield from rec(idx + 1, rest, taken)

        yield from rec(0, d, ())

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
    g = gcd(*counts)
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
    return GkmDimTable(weights.quiver, complete, dims)
