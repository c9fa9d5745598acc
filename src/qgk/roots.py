r"""
Root theory for the symmetrised Euler form of a quiver.

The primitive positive roots Sigma are the nonzero dimension vectors d
with p(d) = 2 - (d,d) >= 0 whose p-value strictly dominates every
nontrivial decomposition: p(d) > sum_j p(d_j) whenever d = sum_j d_j
with all d_j nonzero.  The simple positive roots Phi^+ are Sigma
together with all multiples of its isotropic members, classified as
real ((d,d) = 2), isotropic ((d,d) = 0) or hyperbolic ((d,d) < 0).

The nonnegativity clause in the Sigma test is implemented literally
even though, for quiver Cartan data, it is implied by the strict
dominance clause (unit vectors have p(1_i) = 2 g_i >= 0); the test
suite asserts that redundancy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .kac import BudgetError, check_vector_budget
from .quiver import DimVector, Quiver, QuiverError, sym_form
from .series import vectors_of_total


class RootError(ValueError):
    pass


class CartanDatum:
    """The symmetrised Euler form on a fixed basis, as an integer matrix."""

    __slots__ = ("rank", "matrix", "_sigma_memo", "_best_memo")

    def __init__(self, matrix: list[list[int]]):
        rank = len(matrix)
        if any(len(row) != rank for row in matrix):
            raise RootError("Cartan matrix must be square")
        for i in range(rank):
            for j in range(rank):
                if matrix[i][j] != matrix[j][i]:
                    raise RootError("Cartan matrix must be symmetric")
            if matrix[i][i] % 2 != 0:
                raise RootError("Cartan matrix diagonal must be even")
        self.rank = rank
        self.matrix = tuple(tuple(int(x) for x in row) for row in matrix)
        self._sigma_memo: dict[tuple[int, ...], bool] = {}
        self._best_memo: dict[tuple[int, ...], int] = {}

    @classmethod
    def from_quiver(cls, quiver: Quiver) -> "CartanDatum":
        units = [DimVector.unit(quiver, v) for v in quiver.vertices]
        matrix = [[sym_form(quiver, a, b) for b in units] for a in units]
        return cls(matrix)

    def form(self, d: tuple[int, ...], e: tuple[int, ...]) -> int:
        total = 0
        for i, di in enumerate(d):
            if di == 0:
                continue
            row = self.matrix[i]
            total += di * sum(row[j] * ej for j, ej in enumerate(e) if ej)
        return total

    def p(self, d: tuple[int, ...]) -> int:
        """p(d) = 2 - (d, d)."""
        return 2 - self.form(d, d)

    # -- Sigma membership ---------------------------------------------------

    def _best(self, d: tuple[int, ...]) -> int:
        """max of sum_j p(d_j) over all decompositions of d into nonzero parts."""
        memo = self._best_memo
        cached = memo.get(d)
        if cached is not None:
            return cached
        best = self.p(d)
        for a in itertools.product(*(range(n + 1) for n in d)):
            if not any(a) or a == d:
                continue
            b = tuple(x - y for x, y in zip(d, a))
            # best(a) + best(b) covers all finer splits recursively.
            value = self._best(a) + self._best(b)
            if value > best:
                best = value
        memo[d] = best
        return best

    def sigma_membership_tuple(self, d: tuple[int, ...]) -> bool:
        if not any(d):
            raise RootError("the zero vector is not eligible for Sigma")
        if any(n < 0 for n in d):
            return False
        cached = self._sigma_memo.get(d)
        if cached is not None:
            return cached
        pd = self.p(d)
        result = pd >= 0
        if result:
            split_best = None
            for a in itertools.product(*(range(n + 1) for n in d)):
                if not any(a) or a == d:
                    continue
                b = tuple(x - y for x, y in zip(d, a))
                value = self._best(a) + self._best(b)
                if split_best is None or value > split_best:
                    split_best = value
            if split_best is not None and not pd > split_best:
                result = False
        self._sigma_memo[d] = result
        return result


def sigma_membership(cartan: CartanDatum, d: DimVector) -> bool:
    """Whether d lies in Sigma (a primitive positive root)."""
    if d.is_zero():
        raise RootError("the zero vector is not eligible for Sigma")
    return cartan.sigma_membership_tuple(d.as_tuple())


REAL = "real"
ISOTROPIC = "isotropic"
HYPERBOLIC = "hyperbolic"


@dataclass(frozen=True)
class RootEntry:
    vector: tuple[int, ...]
    classification: str
    p_value: int
    primitive: tuple[int, ...]
    multiplier: int


@dataclass
class RootTables:
    """Sigma and Phi^+ up to a total-degree bound, with classification."""

    cartan: CartanDatum
    bound: int
    sigma: set[tuple[int, ...]] = field(default_factory=set)
    entries: dict[tuple[int, ...], RootEntry] = field(default_factory=dict)

    def phi_list(self) -> list[RootEntry]:
        return [self.entries[k] for k in sorted(self.entries, key=lambda t: (sum(t), t))]

    def in_phi(self, d: tuple[int, ...]) -> bool:
        return tuple(d) in self.entries

    def in_sigma(self, d: tuple[int, ...]) -> bool:
        return tuple(d) in self.sigma


def _classification(form_value: int) -> str:
    if form_value == 2:
        return REAL
    if form_value == 0:
        return ISOTROPIC
    if form_value < 0:
        return HYPERBOLIC
    raise RootError(f"(d,d) = {form_value} > 2 cannot occur for a Sigma member")


def phi_plus(cartan: CartanDatum, bound: int) -> RootTables:
    """All of Sigma and Phi^+ with |d| <= bound, classified."""
    if bound < 1:
        raise RootError("bound must be >= 1")
    check_vector_budget(cartan.rank, bound)
    tables = RootTables(cartan, bound)
    rank = cartan.rank
    for total in range(1, bound + 1):
        for d in vectors_of_total(rank, total):
            if cartan.sigma_membership_tuple(d):
                tables.sigma.add(d)
                cls = _classification(cartan.form(d, d))
                tables.entries[d] = RootEntry(d, cls, cartan.p(d), d, 1)
    for d in sorted(tables.sigma, key=lambda t: (sum(t), t)):
        if tables.entries[d].classification != ISOTROPIC:
            continue
        l = 2
        while l * sum(d) <= bound:
            ld = tuple(l * n for n in d)
            if ld not in tables.entries:
                tables.entries[ld] = RootEntry(ld, ISOTROPIC, cartan.p(ld), d, l)
            l += 1
    return tables


# -- Weyl group and positive roots -----------------------------------------------


def weyl_reflect(quiver: Quiver, i: str, d: DimVector) -> DimVector:
    """The simple reflection s_i(d) = d - (1_i, d) 1_i at a loop-free vertex."""
    if quiver.loops_at(i) != 0:
        raise RootError(f"vertex {i!r} carries a loop; no reflection there")
    unit = DimVector.unit(quiver, i)
    pairing = sym_form(quiver, unit, d)
    vals = {v: d[v] for v in quiver.vertices}
    vals[i] -= pairing
    return DimVector(quiver, vals, allow_negative=True)


def fundamental_cone_membership(quiver: Quiver, d: DimVector) -> bool:
    """Connected support and (d, 1_i) <= 0 at every loop-free vertex."""
    if d.is_zero():
        raise RootError("the zero vector is not in the fundamental cone")
    if not d.is_effective():
        return False
    if not d.support_connected():
        return False
    for v in quiver.vertices:
        if quiver.loops_at(v) == 0:
            if sym_form(quiver, d, DimVector.unit(quiver, v)) > 0:
                return False
    return True


def positive_roots(quiver: Quiver, bound: int) -> list[DimVector]:
    """Positive roots with |d| <= bound: Weyl closure of units and the cone.

    The closure runs inside the box sum|d_i| <= 2 * bound (margin equal to
    the bound); elements leaving the box are dropped.
    """
    if bound < 1:
        raise RootError("bound must be >= 1")
    check_vector_budget(len(quiver.vertices), bound)
    reflect_at = [v for v in quiver.vertices if quiver.loops_at(v) == 0]
    seeds: set[tuple[int, ...]] = set()
    for v in quiver.vertices:
        seeds.add(DimVector.unit(quiver, v).as_tuple())
    rank = len(quiver.vertices)
    for total in range(1, bound + 1):
        for t in vectors_of_total(rank, total):
            d = DimVector(quiver, t)
            if fundamental_cone_membership(quiver, d):
                seeds.add(t)
    box = 2 * bound
    orbit = set(seeds)
    frontier = sorted(seeds)
    while frontier:
        new: set[tuple[int, ...]] = set()
        for t in frontier:
            d = DimVector(quiver, t, allow_negative=True)
            for v in reflect_at:
                r = weyl_reflect(quiver, v, d).as_tuple()
                if r not in orbit and sum(abs(n) for n in r) <= box:
                    new.add(r)
        orbit |= new
        frontier = sorted(new)
    result = set()
    for t in orbit:
        for s in (t, tuple(-n for n in t)):
            if any(s) and all(n >= 0 for n in s) and sum(s) <= bound:
                result.add(s)
    return [DimVector(quiver, t) for t in sorted(result, key=lambda t: (sum(t), t))]


# -- canonical decomposition ---------------------------------------------------

#: Largest sub-multiset size the merge scan considers.  Pairwise merging is
#: not obviously sufficient, so small subsets are scanned as well; the test
#: suite asserts the result does not depend on the scan order.
MERGE_SUBSET_LIMIT = 4
#: The most index combinations of parts the merge passes may scan.  The passes
#: over |d|, |d| - 1, ..., 2 parts scan at most sum_k C(|d| + 1, k + 1) for
#: k = 2..MERGE_SUBSET_LIMIT; |d| = 40 gives 861,328, about 1 s.
MERGE_SCAN_BUDGET = 1_000_000


def canonical_decomposition(
    quiver: Quiver, d: DimVector, *, _shuffle_seed: "int | None" = None
) -> list[tuple[DimVector, int]]:
    """The coarsest decomposition of d into Sigma members.

    Starting from the unit decomposition sum d_i 1_i, repeatedly merges a
    sub-multiset of parts whose sum lies in Sigma, scanning sub-multisets
    by part count ascending and then lexicographically, until no merge
    applies.  Returns (part, multiplicity) pairs sorted by (|d|, lex).

    ``_shuffle_seed`` randomises the candidate scan order; it exists so
    the test suite can assert the result is scan-order independent.
    """
    if d.is_zero():
        raise RootError("cannot decompose the zero vector")
    if not d.is_effective():
        raise QuiverError("canonical decomposition needs a nonnegative vector")
    scan = sum(math.comb(d.total + 1, k + 1) for k in range(2, MERGE_SUBSET_LIMIT + 1))
    if scan > MERGE_SCAN_BUDGET:
        raise BudgetError(
            f"the canonical decomposition of {d.as_tuple()} may scan {scan} "
            f"combinations of parts (budget {MERGE_SCAN_BUDGET})"
        )
    cartan = CartanDatum.from_quiver(quiver)
    parts: list[tuple[int, ...]] = []
    for v in quiver.vertices:
        parts.extend([DimVector.unit(quiver, v).as_tuple()] * d[v])
    while True:
        parts.sort(key=lambda t: (sum(t), t))
        candidates: list[tuple[int, ...]] = []
        seen: set[tuple[tuple[int, ...], ...]] = set()
        for size in range(2, min(MERGE_SUBSET_LIMIT, len(parts)) + 1):
            for idx in itertools.combinations(range(len(parts)), size):
                key = tuple(parts[i] for i in idx)
                if key in seen:
                    continue
                seen.add(key)
                candidates.append(idx)
        if _shuffle_seed is not None:
            import random

            random.Random(_shuffle_seed).shuffle(candidates)
        merged = False
        for idx in candidates:
            total = tuple(sum(parts[i][k] for i in idx) for k in range(len(quiver.vertices)))
            if cartan.sigma_membership_tuple(total):
                parts = [p for k, p in enumerate(parts) if k not in set(idx)]
                parts.append(total)
                merged = True
                break
        if not merged:
            break
    counted: dict[tuple[int, ...], int] = {}
    for p in parts:
        counted[p] = counted.get(p, 0) + 1
    return [
        (DimVector(quiver, t), counted[t])
        for t in sorted(counted, key=lambda t: (sum(t), t))
    ]
