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

CartanDatum fills one table bottom-up: for each d, the best sum of p over
decompositions of d, whether d lies in Sigma, and a proper split attaining
that best.  Sigma membership and the canonical decomposition are both read
off it.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field

from .kac import BudgetError, check_vector_budget
from .quiver import DimVector, Quiver, QuiverError, sym_form
from .series import vectors_of_total


class RootError(ValueError):
    pass


#: The most pairs b <= a the Sigma split table may visit before it is built.
#: The box under d holds prod_i C(d_i + 2, 2) of them and all d with
#: |d| <= N hold C(N + 2 rank, 2 rank); 1,000,000 pairs take about 0.25 s
#: (Python 3.11, 2-vCPU VM).
SPLIT_BUDGET = 1_000_000


def _refuse_pairs(pairs: int, span: str) -> None:
    if pairs > SPLIT_BUDGET:
        raise BudgetError(
            f"{span} needs {pairs} pairs b <= a in the Sigma split table "
            f"(budget {SPLIT_BUDGET})"
        )


def check_split_budget(rank: int, bound: int) -> None:
    """Raise BudgetError if the split table for every |d| <= bound exceeds SPLIT_BUDGET."""
    _refuse_pairs(math.comb(bound + 2 * rank, 2 * rank), f"|d| <= {bound} in rank {rank}")


class CartanDatum:
    """The symmetrised Euler form on a fixed basis, as an integer matrix."""

    __slots__ = ("rank", "matrix", "_splits")

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
        self._splits: dict[tuple[int, ...], tuple[int, bool, "tuple[int, ...] | None"]] = {}

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

    # -- the Sigma split table ------------------------------------------------

    def _entry(self, d: tuple[int, ...]) -> tuple[int, bool, "tuple[int, ...] | None"]:
        """(best(d), d in Sigma, first proper split a attaining best(d)).

        best(d) is the max of sum_j p(d_j) over all decompositions of d into
        nonzero parts.  d lies in Sigma when p(d) >= 0 and p(d) exceeds
        best(a) + best(d - a) for every proper split a; the split is None
        when d lies in Sigma or has no proper split.
        """
        entry = self._splits.get(d)
        if entry is None:
            self._fill(d)
            entry = self._splits[d]
        return entry

    def _fill(self, d: tuple[int, ...]) -> None:
        """Fill the table over the box under d, without recursion.

        Lexicographic order puts every b <= a before a, and the sub-vectors
        of a in that order, reversed, are their complements a - b, so one
        pass over the box visits each pair b <= a once.
        """
        _refuse_pairs(math.prod(math.comb(n + 2, 2) for n in d), f"the box under {d}")
        table = self._splits
        box = itertools.product(*(range(n + 1) for n in d))
        for a in [a for a in box if a not in table][1:]:  # the zero vector comes first
            pa = self.p(a)
            subs = list(itertools.product(*(range(n + 1) for n in a)))[1:-1]
            if not subs:
                table[a] = (pa, pa >= 0, None)
                continue
            bests = [table[b][0] for b in subs]
            sums = list(map(operator.add, bests, reversed(bests)))
            split_best = max(sums)
            if pa >= 0 and pa > split_best:
                table[a] = (pa, True, None)
            else:
                table[a] = (max(pa, split_best), False, subs[sums.index(split_best)])

    def sigma_membership_tuple(self, d: tuple[int, ...]) -> bool:
        if not any(d):
            raise RootError("the zero vector is not eligible for Sigma")
        if any(n < 0 for n in d) or self.p(d) < 0:
            return False
        return self._entry(d)[1]

    def canonical_decomposition(self, d: tuple[int, ...]) -> list[tuple[tuple[int, ...], int]]:
        """The coarsest decomposition of a nonzero d >= 0 into Sigma members.

        Read off the split table: d itself if d lies in Sigma, otherwise the
        decompositions of its recorded split a and of d - a.  Returns
        (part, multiplicity) pairs sorted by (|d|, lex).
        """
        counted: dict[tuple[int, ...], int] = {}
        stack = [d]
        while stack:
            a = stack.pop()
            _, sigma, split = self._entry(a)
            if sigma:
                counted[a] = counted.get(a, 0) + 1
            else:
                stack.append(split)
                stack.append(tuple(x - y for x, y in zip(a, split)))
        return sorted(counted.items(), key=lambda item: (sum(item[0]), item[0]))


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
    check_split_budget(cartan.rank, bound)
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


def canonical_decomposition(quiver: Quiver, d: DimVector) -> list[tuple[DimVector, int]]:
    """The canonical decomposition of d: its coarsest decomposition into Sigma.

    Of all decompositions d = sum_j d_j into Sigma members, exactly one
    attains the maximum of sum_j p(d_j), and every other one refines it
    (Crawley-Boevey, *Decomposition of Marsden-Weinstein reductions for
    representations of quivers*, Compositio Math. 130 (2002), Thm 1.1).
    CartanDatum.canonical_decomposition reads it off the Sigma split table
    exactly.  Returns (part, multiplicity) pairs sorted by (|d|, lex).
    """
    if d.is_zero():
        raise RootError("cannot decompose the zero vector")
    if not d.is_effective():
        raise QuiverError("canonical decomposition needs a nonnegative vector")
    parts = CartanDatum.from_quiver(quiver).canonical_decomposition(d.as_tuple())
    return [(DimVector(quiver, t), m) for t, m in parts]
