r"""
Kac polynomials A_d(q): counts of absolutely indecomposable representations.

Two independent routes are provided.

hua_kac evaluates Hua's multipartition sum.  Writing <lam, mu> for the
pairing sum_i lam'_i mu'_i of conjugate parts, the sum over multipartitions
pi = (pi_v) is

    sum_pi  q^{sum_a <pi_{s(a)}, pi_{t(a)}> - sum_v <pi_v, pi_v>}
            / prod_v prod_k prod_{j=1}^{m_k(pi_v)} (1 - q^{-j})  *  z^{|pi|}
        = Exp_{q,z}( sum_d A_d(q) / (q - 1) * z^d ),

so A_d = (q-1) * [Log_{q,z} of the sum]_d.  The normalisation is pinned by
the one-loop quiver at d = 1: the degree-1 coefficient of the sum is
q/(q-1) = A_1/(q-1) with A_1 = q, while reading the sum as the class count
itself would make A_1 non-polynomial.

The coefficient at z^d of the sum, of its products and of their Adams
images has denominator dividing D_d = prod_v (x;x)_{d_v}, x = q^{-1}.  So
the sum goes into series' Exp/Log core as integer numerators in x over D_d,
the core's Log runs with that q-factorial kernel, and each A_d takes one
exact division by |d| D_d at the end.  Before summing, hua_kac counts the
multipartitions and raises BudgetError past HUA_BUDGET.  check_vector_budget
does the same, against VECTOR_BUDGET, for the root tables and GKM
dimensions, which range over every d with |d| <= N.

oracle_kac never touches Hua's formula: it recovers A_d from brute-force
isomorphism-class counts M_e(q) over small finite fields (Burnside census
in _burnside) through the staged relation

    sum_d M_d z^d = Exp_{q,z}( sum_d A_d z^d ),

peeling one dimension vector at a time and interpolating A_e from its
values at deg + 1 field sizes, with deg = 1 - chi(e, e).  Fewer field
sizes than that is a BudgetError, as is a census past _burnside's
budgets: both are limits of the input, not failed invariants, and
verify skips such an e, and every e above it, by name.  The coefficient
of the Exp at e, less its A_e term, involves only A at vectors below e,
so _OraclePeel runs one Exp per total degree rather than one per stage.
The census over F_q runs only over the vertices that an acting arrow
touches (see _burnside), so a d such as (4, 0) on the Kronecker quiver
counts 1 without enumerating a matrix.

_burnside is the only module that imports numpy, and nothing imports it
at load time: brute_force_counts loads it on first call.  The exceptions,
FLAVOURS and _prime_power live here so that the CLI, and _burnside itself,
use them without that import.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from .qpoly import QPoly, _add_to, _mul
from .quiver import DimVector, Quiver, euler_form
from .series import (
    GradedSeries,
    PlethMode,
    _pleth_log_levels,
    _ratio,
    degree_lex,
    pleth_exp,
    vectors_of_total,
    vectors_up_to,
)

__all__ = [
    "DEFAULT_FIELDS",
    "FLAVOURS",
    "HUA_BUDGET",
    "VECTOR_BUDGET",
    "BudgetError",
    "CountingError",
    "KacTable",
    "brute_force_counts",
    "check_hua_budget",
    "check_vector_budget",
    "hua_kac",
    "oracle_kac",
    "oracle_kac_full",
    "oracle_kac_table",
    "partitions",
]

FLAVOURS = ("plain", "nilpotent", "one_nilpotent")
DEFAULT_FIELDS = (2, 3, 4, 5, 7, 8, 9)
#: The most multipartitions hua_kac sums over.  Jordan N=28 (18,459 of them)
#: takes about 7 s on a shared 2-vCPU VM, and the time grows faster than
#: the count; the largest benchmark case, affine D4 N=6, has 2,051.
HUA_BUDGET = 50_000
#: The most dimension vectors (|d| <= N, zero included) a table may range
#: over.  The largest test or benchmark table, affine D4 N=7, has 792.
VECTOR_BUDGET = 10_000


class BudgetError(RuntimeError):
    """The requested computation exceeds its size budget."""


class CountingError(RuntimeError):
    pass


def _prime_power(q: int) -> tuple[int, int]:
    """(p, k) with q = p^k; raises CountingError unless q is a prime power."""
    if q < 2:
        raise CountingError(f"{q} is not a prime power")
    p = 2
    while p * p <= q:
        if q % p == 0:
            break
        p += 1
    else:
        return q, 1
    k = 0
    m = q
    while m % p == 0:
        m //= p
        k += 1
    if m != 1:
        raise CountingError(f"{q} is not a prime power")
    return p, k


# -- partitions -------------------------------------------------------------------

_PARTITION_CACHE: dict[int, list[tuple[int, ...]]] = {0: [()]}


def partitions(n: int) -> list[tuple[int, ...]]:
    """All partitions of n as descending tuples."""
    if n < 0:
        raise ValueError("partitions of negative integers do not exist")
    if n not in _PARTITION_CACHE:
        _PARTITION_CACHE[n] = [
            (head,) + tail
            for head in range(n, 0, -1)
            for tail in partitions(n - head)
            if not tail or tail[0] <= head
        ]
    return _PARTITION_CACHE[n]


_PARTITION_COUNTS = [1]


def _partition_count(n: int) -> int:
    """p(n), by Euler's pentagonal number recurrence."""
    counts = _PARTITION_COUNTS
    while len(counts) <= n:
        m, k, total = len(counts), 1, 0
        while k * (3 * k - 1) // 2 <= m:
            sign = 1 if k % 2 else -1
            total += sign * counts[m - k * (3 * k - 1) // 2]
            if k * (3 * k + 1) // 2 <= m:
                total += sign * counts[m - k * (3 * k + 1) // 2]
            k += 1
        counts.append(total)
    return counts[n]


@functools.cache
def conjugate_partition(lam: tuple[int, ...]) -> tuple[int, ...]:
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= k) for k in range(1, lam[0] + 1))


def partition_pairing(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """<lam, mu> = sum_i lam'_i mu'_i."""
    lc = conjugate_partition(lam)
    mc = conjugate_partition(mu)
    return sum(a * b for a, b in zip(lc, mc))


# -- the Kac table ----------------------------------------------------------------


def _degree_bound(quiver: Quiver, d: tuple[int, ...]) -> int:
    """1 - chi(d, d), the degree bound of the plain A_d."""
    dv = DimVector(quiver, d)
    return 1 - euler_form(quiver, dv, dv)


@dataclass
class KacTable:
    """A_d for all stored dimension vectors, validated on construction.

    Every entry must be a polynomial in q (integral exponents) with
    nonnegative integer coefficients; for the plain flavour the degree is
    also checked against 1 - chi(d, d).
    """

    quiver: Quiver
    bound: int
    flavour: str
    table: dict[tuple[int, ...], QPoly] = field(default_factory=dict)

    def __post_init__(self):
        if self.flavour not in FLAVOURS:
            raise CountingError(f"unknown flavour {self.flavour!r}")
        for d, poly in self.table.items():
            if poly.is_zero():
                continue
            if not poly.is_nonnegative_integer_polynomial():
                raise CountingError(f"A_{d} is not a nonnegative integer polynomial in q: {poly}")
            if self.flavour == "plain":
                bound = _degree_bound(self.quiver, d)
                if poly.degree_q() > bound:
                    raise CountingError(f"A_{d} exceeds degree bound {bound}: {poly}")

    def polynomial(self, d) -> QPoly:
        key = d.as_tuple() if isinstance(d, DimVector) else tuple(d)
        if key not in self.table:
            raise KeyError(f"no Kac polynomial stored for {key}")
        return self.table[key]

    def items(self) -> list[tuple[tuple[int, ...], QPoly]]:
        return [(d, self.table[d]) for d in sorted(self.table, key=degree_lex)]

    def to_series(self) -> GradedSeries:
        return GradedSeries(
            self.quiver, self.bound, {d: p for d, p in self.table.items() if sum(d) <= self.bound}
        )


# -- Hua's formula ----------------------------------------------------------------

@functools.cache
def _vertex_numerator(lam: tuple[int, ...]) -> dict:
    """lam's Hua denominator prod_k (x;x)_{m_k(lam)} cleared by (x;x)_{|lam|}."""
    mults = Counter(lam).values()
    return _ratio({0: 1}, range(1, sum(lam) + 1), [j for m in mults for j in range(1, m + 1)])


def _hua_numerators(quiver: Quiver, bound: int) -> list:
    """Levels of N_d = D_d * [z^d] of Hua's sum for |d| <= bound, as series levels."""
    index = {v: i for i, v in enumerate(quiver.vertices)}
    arrows = [(index[s], index[t]) for s, t in quiver.arrows]
    levels = [(1, {(0,) * len(index): {0: 1}})]
    for total in range(1, bound + 1):
        level = {}
        for d in vectors_of_total(len(index), total):
            acc: dict[int, int] = {}
            for pi in itertools.product(*(partitions(n) for n in d)):
                exponent = sum(partition_pairing(pi[s], pi[t]) for s, t in arrows)
                exponent -= sum(partition_pairing(lam, lam) for lam in pi)
                product = functools.reduce(_mul, map(_vertex_numerator, pi))
                _add_to(acc, {k - exponent: c for k, c in product.items()}, 1)
            level[d] = acc
        levels.append((1, level))
    return levels


def check_vector_budget(rank: int, bound: int) -> None:
    """Raise BudgetError if the C(N + rank, rank) vectors with |d| <= N exceed VECTOR_BUDGET."""
    count = math.comb(bound + rank, rank)
    if count > VECTOR_BUDGET:
        raise BudgetError(
            f"|d| <= {bound} in rank {rank} spans {count} dimension vectors "
            f"(budget {VECTOR_BUDGET})"
        )


def check_hua_budget(quiver: Quiver, bound: int) -> None:
    """Raise BudgetError if Hua's sum up to |d| <= bound exceeds HUA_BUDGET.

    The sum runs over sum_{0<|d|<=bound} prod_v p(d_v) multipartitions; the
    tally stops as soon as it passes the budget, so a huge bound costs
    no more than the budget.
    """
    tally = 0
    for total in range(1, bound + 1):
        for d in vectors_of_total(len(quiver.vertices), total):
            tally += math.prod(map(_partition_count, d))
            if tally > HUA_BUDGET:
                raise BudgetError(
                    f"Hua's sum up to |d| = {bound} runs over at least {tally} "
                    f"multipartitions (budget {HUA_BUDGET})"
                )


def hua_kac(quiver: Quiver, bound: int) -> KacTable:
    """Kac polynomials A_d for all 0 < |d| <= bound via Hua's sum.

    A_d = (q - 1) * [Log_{q,z} of the sum]_d; see the module docstring for
    why the factor is q - 1.  Raises BudgetError past HUA_BUDGET.
    """
    if bound < 1:
        raise CountingError("bound must be >= 1")
    check_hua_budget(quiver, bound)
    levels = _pleth_log_levels(_hua_numerators(quiver, bound), stretch=True, qfactorial=True)
    table: dict[tuple[int, ...], QPoly] = {}
    for total, (den, level) in enumerate(levels):
        for d in sorted(level):
            # q - 1 = (1 - x) / x, and one exact division by D_d
            num = _ratio(level[d], [1], [j for a in d for j in range(1, a + 1)])
            table[d] = QPoly._of({2 * (1 - k): c for k, c in num.items()}, den * total)
    return KacTable(quiver, bound, "plain", table)


# -- the counting oracle ----------------------------------------------------------


def brute_force_counts(quiver: Quiver, d: DimVector, q: int, flavour: str = "plain") -> int:
    """Number of isomorphism classes of F_q-representations of dimension d.

    flavour selects the counted class: "plain" counts all representations,
    "nilpotent" those where every length-|d| path acts by zero, and
    "one_nilpotent" those where each loop arrow acts nilpotently.  The
    census runs in _burnside, which is loaded (with numpy) on first use.
    """
    from . import _burnside

    return _burnside.brute_force_counts(quiver, d, q, flavour)


def _lagrange(points: list[tuple[int, Fraction]]) -> QPoly:
    """sum_i y_i prod_{j != i} (q - x_j) / (x_i - x_j), through every (x_i, y_i)."""
    result = QPoly.zero()
    for i, (xi, yi) in enumerate(points):
        term = QPoly.constant(yi)
        for j, (xj, _) in enumerate(points):
            if j != i:
                term = term * (QPoly.q_power(1) - xj) * Fraction(1, xi - xj)
        result = result + term
    return result


class _OraclePeel:
    """Peels A_e off the class-count series, one stage e at a time.

    A stage e needs A at every nonzero vector strictly below it.  [Exp A]_e
    without its A_e term involves only A at those vectors, all of total
    < |e|, so one Exp of the stages known before a run of stages of one
    total serves the whole run; a stage of another total takes a new Exp.
    """

    def __init__(self, quiver: Quiver, flavour: str, fields: tuple[int, ...]):
        if flavour not in FLAVOURS:
            raise CountingError(f"unknown flavour {flavour!r}")
        self.quiver, self.flavour, self.fields = quiver, flavour, fields
        self.known: dict[tuple[int, ...], QPoly] = {}
        self._exp = GradedSeries.zero(quiver, 0)

    def add(self, e: tuple[int, ...]) -> None:
        """Store A_e, from its census over the first max(1, 2 - chi(e, e)) field sizes.

        Too few field sizes, a stage below e not yet added, or a census past
        its budget raise BudgetError and leave the peel as it was: later
        stages not above e can still be added.
        """
        ev = DimVector(self.quiver, e)
        degree_bound = _degree_bound(self.quiver, e)
        samples = max(1, degree_bound + 1)
        if samples > len(self.fields):
            raise BudgetError(
                f"need {samples} field sizes for degree {degree_bound}, have {len(self.fields)}"
            )
        below = sorted(itertools.product(*(range(n + 1) for n in e)), key=degree_lex)[1:-1]
        missing = next((b for b in below if b not in self.known), None)
        if missing is not None:
            raise BudgetError(f"need A at {','.join(map(str, missing))} first")
        if self._exp.bound != ev.total:
            known = GradedSeries(self.quiver, ev.total, self.known)
            self._exp = pleth_exp(known, PlethMode.QZ)
        base = self._exp.coeff(e)
        points = []
        for v in self.fields[:samples]:
            m_count = brute_force_counts(self.quiver, ev, v, self.flavour)
            points.append((v, Fraction(m_count) - base.eval_at(v)))
        poly = _lagrange(points)
        if degree_bound < 0 and not poly.is_zero():
            raise CountingError(f"A_{e} should vanish (degree bound {degree_bound}): {poly}")
        self.known[e] = poly


def _oracle_table(quiver: Quiver, stages, bound: int, flavour: str, fields) -> KacTable:
    """The KacTable of A at the nonzero stages, peeled in (|d|, lex) order."""
    peel = _OraclePeel(quiver, flavour, fields)
    for e in stages:
        if any(e):
            peel.add(e)
    return KacTable(quiver, bound, flavour, peel.known)


def oracle_kac_table(
    quiver: Quiver,
    d: DimVector,
    flavour: str = "plain",
    fields: tuple[int, ...] = DEFAULT_FIELDS,
) -> KacTable:
    """A_e for every 0 < e <= d (componentwise), from brute-force counts."""
    if d.is_zero() or not d.is_effective():
        raise CountingError("dimension vector must be nonzero and nonnegative")
    box = itertools.product(*(range(n + 1) for n in d.as_tuple()))
    return _oracle_table(quiver, sorted(box, key=degree_lex), d.total, flavour, fields)


def oracle_kac_full(
    quiver: Quiver,
    bound: int,
    flavour: str = "plain",
    fields: tuple[int, ...] = DEFAULT_FIELDS,
) -> KacTable:
    """A_e for every 0 < |e| <= bound, from brute-force counts."""
    if bound < 1:
        raise CountingError("bound must be >= 1")
    stages = vectors_up_to(len(quiver.vertices), bound)
    return _oracle_table(quiver, stages, bound, flavour, fields)


def oracle_kac(
    quiver: Quiver,
    d: DimVector,
    flavour: str = "plain",
    fields: tuple[int, ...] = DEFAULT_FIELDS,
) -> QPoly:
    """The Kac polynomial A_d recovered from finite-field class counts."""
    return oracle_kac_table(quiver, d, flavour, fields).polynomial(d)
