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

CartanDatum answers every root question over tuples and its matrix.  Its
row(d), the pairings (d, 1_i) in vertex order, is the one pairing routine;
only Hua's exponents in kac read the matrix as well.  CartanDatum fills one
table bottom-up: for each d, the best sum of p over decompositions of d,
whether d lies in Sigma, and a proper split attaining that best.  Sigma
membership, Phi^+ membership and the canonical decomposition are read off
it.  Positive roots are decided by Kac's descent: reflect at loop-free
vertices while that lowers |d|, and look at where the walk stops (Kac,
*Infinite root systems, representations of graphs and invariant theory*,
Invent. Math. 56 (1980)).

The budgets of the tables over dimension vectors live here too:
VECTOR_BUDGET for the vectors with |d| <= N, SPLIT_BUDGET for the pairs of
the Sigma split table.  So does _refuse, the one refusal of every cap in qgk:
each caller tests its own count, and "<what> (budget N)" names the count.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import NamedTuple, NoReturn

from .quiver import Quiver
from .series import _csv, degree_lex, vectors_up_to


class RootError(ValueError):
    pass


class BudgetError(RuntimeError):
    """The requested computation exceeds its size budget."""


def _refuse(what: str, budget: int) -> NoReturn:
    raise BudgetError(f"{what} (budget {budget})")


#: The most dimension vectors (|d| <= N, zero included) a table may range
#: over.  The largest test or benchmark table, affine D4 N=7, has 792.
VECTOR_BUDGET = 10_000


def check_vector_budget(rank: int, bound: int) -> None:
    """Raise BudgetError if the C(N + rank, rank) vectors with |d| <= N exceed VECTOR_BUDGET."""
    count = math.comb(bound + rank, rank)
    if count > VECTOR_BUDGET:
        _refuse(f"|d| <= {bound} in rank {rank} spans {count} dimension vectors", VECTOR_BUDGET)


#: The most pairs b <= a the Sigma split table may visit before it is built.
#: The box under d holds prod_i C(d_i + 2, 2) of them and all d with
#: |d| <= N hold C(N + 2 rank, 2 rank); 1,000,000 pairs take about 0.25 s
#: (Python 3.11, 2-vCPU VM).
SPLIT_BUDGET = 1_000_000


def _refuse_pairs(pairs: int, span: str) -> None:
    if pairs > SPLIT_BUDGET:
        _refuse(f"{span} needs {pairs} pairs b <= a in the Sigma split table", SPLIT_BUDGET)


def check_split_budget(rank: int, bound: int) -> None:
    """Raise BudgetError if the split table for every |d| <= bound exceeds SPLIT_BUDGET."""
    _refuse_pairs(math.comb(bound + 2 * rank, 2 * rank), f"|d| <= {bound} in rank {rank}")


REAL = "real"
ISOTROPIC = "isotropic"
HYPERBOLIC = "hyperbolic"


class RootEntry(NamedTuple):
    vector: tuple[int, ...]
    classification: str
    p_value: int
    primitive: tuple[int, ...]
    multiplier: int


def _classification(form_value: int) -> str:
    if form_value == 2:
        return REAL
    if form_value == 0:
        return ISOTROPIC
    if form_value < 0:
        return HYPERBOLIC
    raise RootError(f"(d,d) = {form_value} > 2 cannot occur for a Sigma member")


class CartanDatum:
    """The symmetrised Euler form on a fixed basis, as an integer matrix."""

    __slots__ = ("rank", "matrix", "loop_free", "_splits")

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
        # (1_i, 1_i) = 2 - 2 g_i, so the vertices without loops are those at 2
        self.loop_free = tuple(i for i in range(rank) if self.matrix[i][i] == 2)
        self._splits: dict[tuple[int, ...], tuple[int, bool, "tuple[int, ...] | None"]] = {}

    @classmethod
    def from_quiver(cls, quiver: Quiver) -> "CartanDatum":
        """(1_i, 1_j) = 2 delta_ij - a_ij - a_ji, read off the arrow counts a_ij."""
        index = {v: i for i, v in enumerate(quiver.vertices)}
        matrix = [[2 * (i == j) for j in range(len(index))] for i in range(len(index))]
        for s, t in quiver.arrows:  # a loop counts on both sides of the diagonal
            matrix[index[s]][index[t]] -= 1
            matrix[index[t]][index[s]] -= 1
        return cls(matrix)

    def row(self, d: tuple[int, ...]) -> tuple[int, ...]:
        """((d, 1_i))_i in vertex order, summed over the matrix rows of supp(d)."""
        scaled = [[n * x for x in self.matrix[i]] for i, n in enumerate(d) if n]
        return tuple(map(sum, zip(*scaled))) if scaled else (0,) * self.rank

    def form(self, d: tuple[int, ...], e: tuple[int, ...]) -> int:
        """(d, e): row(d) dotted with e over supp(e)."""
        row = self.row(d)
        return sum(row[j] * n for j, n in enumerate(e) if n)

    def p(self, d: tuple[int, ...]) -> int:
        """p(d) = 2 - (d, d)."""
        return 2 - self.form(d, d)

    # -- the Weyl group and positive roots -----------------------------------

    def reflect(self, i: int, d: tuple[int, ...]) -> tuple[int, ...]:
        """s_i(d) = d - (d, 1_i) 1_i; a vertex with a loop has no reflection."""
        if self.matrix[i][i] != 2:
            raise RootError(f"vertex {i} has a loop, so there is no reflection s_{i}")
        return d[:i] + (d[i] - self.row(d)[i],) + d[i + 1 :]

    def _support_connected(self, d: tuple[int, ...]) -> bool:
        """Whether supp(d) is nonempty and connected through arrows in either direction."""
        support = {i for i, n in enumerate(d) if n}
        if not support:
            return False
        frontier = [support.pop()]
        while frontier:
            row = self.matrix[frontier.pop()]
            joined = {j for j in support if row[j]}
            support -= joined
            frontier += joined
        return not support

    def is_positive_root(self, d: tuple[int, ...]) -> bool:
        """Whether a nonzero d >= 0 is a positive root, by Kac's descent.

        While some loop-free i has k = (d, 1_i) > 0, d becomes s_i(d) =
        d - k 1_i, which lowers |d|.  s_i permutes the positive roots other
        than 1_i, so each step keeps d a root or a non-root.  The walk stops
        in the fundamental set (connected support, every such k <= 0), whose
        members are roots; at k > d_i, where s_i(d) would leave the positive
        cone, so d is a root only if d = 1_i; or at a disconnected support,
        which no root has.
        """
        while self._support_connected(d):
            row = self.row(d)
            for i in self.loop_free:
                if (k := row[i]) > 0:
                    break
            else:
                return True
            if k > d[i]:
                return sum(d) == 1
            d = d[:i] + (d[i] - k,) + d[i + 1 :]
        return False

    def root(self, d: tuple[int, ...]) -> RootEntry | None:
        """The Phi^+ entry of a nonzero d, or None when d lies outside Phi^+.

        d lies in Phi^+ when d lies in Sigma, or when d = l m with l > 1 and
        m = d / gcd(d) an isotropic member of Sigma.  An isotropic Sigma
        member is indivisible, so m is the only candidate, and l m is
        isotropic too: only d with gcd(d) > 1 and p(d) = 2 are tested.
        """
        if not any(d):
            raise RootError("the zero vector is not a root")
        if any(n < 0 for n in d) or (pd := self.p(d)) < 0:
            return None
        if self._entry(d)[1]:
            return RootEntry(d, _classification(2 - pd), pd, d, 1)
        l = math.gcd(*d)
        if l == 1 or pd != 2 or not self._entry(m := tuple(n // l for n in d))[1]:
            return None
        return RootEntry(d, ISOTROPIC, 2, m, l)

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
        _refuse_pairs(math.prod(math.comb(n + 2, 2) for n in d), f"the box under {_csv(d)}")
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
        return [(part, counted[part]) for part in sorted(counted, key=degree_lex)]


def phi_plus(cartan: CartanDatum, bound: int) -> list[RootEntry]:
    """The entries of Phi^+ with |d| <= bound, classified, in (|d|, lex) order."""
    if bound < 1:
        raise RootError("bound must be >= 1")
    check_vector_budget(cartan.rank, bound)
    check_split_budget(cartan.rank, bound)
    entries = (cartan.root(d) for d in vectors_up_to(cartan.rank, bound) if any(d))
    return [entry for entry in entries if entry is not None]


# -- positive roots ------------------------------------------------------------


def positive_roots(cartan: CartanDatum, bound: int) -> list[tuple[int, ...]]:
    """Positive roots with |d| <= bound, in (|d|, lex) order, by Kac's descent."""
    if bound < 1:
        raise RootError("bound must be >= 1")
    check_vector_budget(cartan.rank, bound)
    return [d for d in vectors_up_to(cartan.rank, bound) if any(d) and cartan.is_positive_root(d)]


# -- canonical decomposition ---------------------------------------------------


def canonical_decomposition(
    quiver: Quiver, d: tuple[int, ...]
) -> list[tuple[tuple[int, ...], int]]:
    """The canonical decomposition of d: its coarsest decomposition into Sigma.

    Of all decompositions d = sum_j d_j into Sigma members, exactly one
    attains the maximum of sum_j p(d_j), and every other one refines it
    (Crawley-Boevey, *Decomposition of Marsden-Weinstein reductions for
    representations of quivers*, Compositio Math. 130 (2002), Thm 1.1).
    CartanDatum.canonical_decomposition reads it off the Sigma split table
    exactly.  Returns (part, multiplicity) pairs sorted by (|d|, lex).
    """
    d = quiver.vector(d)
    if not any(d):
        raise RootError("cannot decompose the zero vector")
    return CartanDatum.from_quiver(quiver).canonical_decomposition(d)
