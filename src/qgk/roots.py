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

CartanDatum answers every root question over tuples and its matrix.  It
fills one table bottom-up: for each d, the best sum of p over
decompositions of d, whether d lies in Sigma, and a proper split attaining
that best.  Sigma membership, Phi^+ membership and the canonical
decomposition are read off it.  Positive roots are decided by Kac's
descent: reflect at loop-free vertices while that lowers |d|, and look at
where the walk stops (Kac, *Infinite root systems, representations of
graphs and invariant theory*, Invent. Math. 56 (1980)).
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

from .kac import BudgetError, check_vector_budget
from .quiver import DimVector, Quiver, QuiverError, sym_form
from .series import degree_lex, vectors_up_to


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

    __slots__ = ("rank", "matrix", "_loop_free", "_splits")

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
        self._loop_free = tuple(i for i in range(rank) if self.matrix[i][i] == 2)
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

    # -- the Weyl group and positive roots -----------------------------------

    def _unit_pairing(self, i: int, d: tuple[int, ...]) -> int:
        """(d, 1_i)."""
        return sum(map(operator.mul, self.matrix[i], d))

    def reflect(self, i: int, d: tuple[int, ...]) -> tuple[int, ...]:
        """s_i(d) = d - (d, 1_i) 1_i, for a loop-free vertex i."""
        return d[:i] + (d[i] - self._unit_pairing(i, d),) + d[i + 1 :]

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

    def in_fundamental_cone(self, d: tuple[int, ...]) -> bool:
        """Connected support and (d, 1_i) <= 0 at every loop-free vertex i."""
        return self._support_connected(d) and all(
            self._unit_pairing(i, d) <= 0 for i in self._loop_free
        )

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
            for i in self._loop_free:
                k = self._unit_pairing(i, d)
                if k > 0:
                    break
            else:
                return True
            if k > d[i]:
                return sum(d) == 1
            d = self.reflect(i, d)
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


def sigma_membership(cartan: CartanDatum, d: DimVector) -> bool:
    """Whether d lies in Sigma: Sigma is Phi^+ at multiplier 1."""
    if d.is_zero():
        raise RootError("the zero vector is not eligible for Sigma")
    entry = cartan.root(d.as_tuple())
    return entry is not None and entry.multiplier == 1


def phi_plus(cartan: CartanDatum, bound: int) -> list[RootEntry]:
    """The entries of Phi^+ with |d| <= bound, classified, in (|d|, lex) order."""
    if bound < 1:
        raise RootError("bound must be >= 1")
    check_vector_budget(cartan.rank, bound)
    check_split_budget(cartan.rank, bound)
    entries = (cartan.root(d) for d in vectors_up_to(cartan.rank, bound) if any(d))
    return [entry for entry in entries if entry is not None]


# -- Weyl group and positive roots -----------------------------------------------


def weyl_reflect(quiver: Quiver, i: str, d: DimVector) -> DimVector:
    """The simple reflection s_i(d) = d - (1_i, d) 1_i at a loop-free vertex."""
    if quiver.loops_at(i) != 0:
        raise RootError(f"vertex {i!r} carries a loop; no reflection there")
    image = CartanDatum.from_quiver(quiver).reflect(quiver.vertex_index(i), d.as_tuple())
    return DimVector(quiver, image, allow_negative=True)


def fundamental_cone_membership(quiver: Quiver, d: DimVector) -> bool:
    """Connected support and (d, 1_i) <= 0 at every loop-free vertex."""
    if d.is_zero():
        raise RootError("the zero vector is not in the fundamental cone")
    return d.is_effective() and CartanDatum.from_quiver(quiver).in_fundamental_cone(d.as_tuple())


def positive_roots(quiver: Quiver, bound: int) -> list[DimVector]:
    """Positive roots with |d| <= bound, in (|d|, lex) order, by Kac's descent."""
    if bound < 1:
        raise RootError("bound must be >= 1")
    rank = len(quiver.vertices)
    check_vector_budget(rank, bound)
    cartan = CartanDatum.from_quiver(quiver)
    roots = (d for d in vectors_up_to(rank, bound) if any(d) and cartan.is_positive_root(d))
    return [DimVector(quiver, d) for d in roots]


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
