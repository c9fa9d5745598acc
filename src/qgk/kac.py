r"""
Kac polynomials A_d(q): counts of absolutely indecomposable representations.

Two independent routes are provided.

hua_kac evaluates Hua's multipartition sum.  Writing <lam, mu> for the
pairing sum_i lam'_i mu'_i of conjugate parts and (pi, pi) for
sum_ij m_ij <pi_i, pi_j> in the Cartan matrix m of the quiver (CartanDatum),
the sum over multipartitions pi = (pi_v) is

    sum_pi  q^{-(pi, pi)/2}
            / prod_v prod_k prod_{j=1}^{m_k(pi_v)} (1 - q^{-j})  *  z^{|pi|}
        = Exp_{q,z}( sum_d A_d(q) / (q - 1) * z^d ),

so A_d = (q-1) * [Log_{q,z} of the sum]_d.  The exponent is sum_a <pi_{s(a)},
pi_{t(a)}> - sum_v <pi_v, pi_v>, read off m, so no orientation enters.  The
normalisation is pinned by the one-loop quiver at d = 1: the degree-1
coefficient of the sum is q/(q-1) = A_1/(q-1) with A_1 = q, while reading
the sum as the class count itself would make A_1 non-polynomial.

The coefficient at z^d of the sum and of its products has denominator
dividing D_d = prod_v (x;x)_{d_v}, x = q^{-1}, so series' q-factorial Log
takes the sum as integer numerators in x over D_d.  It gives |d| (1 - x^g)
Log_d, g = gcd(d), so as q - 1 = (1 - x)/x, A_d takes one exact division by
|d| [g]_x = |d| (1 - x^g)/(1 - x), by |d| alone when g = 1.

The numerator N_d = D_d [z^d] of the sum is the sum over multipartitions
pi of x^{-e(pi)} prod_v N(pi_v), with e(pi) the exponent above and
N(lam) = (x;x)_{|lam|} / prod_k (x;x)_{m_k(lam)}.  It is summed at x = 2^w
on packed integers (Kronecker substitution, qpoly._pack): N(lam) is one
exact integer division (a remainder raises SeriesError), the vertex with
the most partitions is summed innermost by shifts and additions alone, and
each tuple of the other vertices' partitions costs one product.  As
N(lam) = [l; m]_x prod_{j=l+1}^{|lam|} (1 - x^j) with l = l(lam), its l1
norm is at most l!/prod_k m_k! 2^(|lam| - l); summed over lam |- n, that is
sum_l C(n-1, l-1) 2^(n-l) = 3^(n-1).  So every coefficient of N_d is below
prod_{d_v > 0} 3^(d_v - 1) < 2^(w-2), which fixes w, and N_d is unpacked once.

The sum runs over lam' in place of lam: both range over the partitions of
|lam|, and m_k(lam) = lam'_k - lam'_{k+1}.  N(lam) depends on lam only
through |lam| and the multiplicities, and w only through |d| - |supp d|, so
one hua_kac call divides once per (w, |lam|, multiplicities), with the
largest (x;x)_{m_k} cancelled against (x;x)_{|lam|} first, and every d reads
lam', <lam, lam> and m(lam) from one table per |lam|, built once per process
by one recursion over heads and tails.

Before summing, hua_kac tallies the multipartitions, the lengths of the
shape tables the sum reads, and refuses past HUA_BUDGET, as roots'
check_vector_budget does for the tables over every d with |d| <= N.

oracle_kac_full never touches Hua's formula: it recovers A_d from
brute-force isomorphism-class counts M_e(q) over small finite fields
(Burnside census in _burnside) through the staged relation

    sum_d M_d z^d = Exp_{q,z}( sum_d A_d z^d ),

peeling one dimension vector at a time and interpolating A_e from its
values at the first deg + 1 sizes in FIELDS, with deg = 1 - chi(e, e).
FIELDS lists every field size the census admits, so a degree past 9 is a
BudgetError, as is a census past _burnside's budgets: both are limits of
the input, not failed invariants, and verify skips such an e, and every
e above it, by name.  The coefficient of the Exp at e, less its A_e
term, involves only A at vectors below e, so _OraclePeel runs one Exp
per total degree rather than one per stage.
The census over F_q runs only over the vertices that an acting arrow
touches (see _burnside), so a d such as (4, 0) on the Kronecker quiver
counts 1 without enumerating a matrix.

Nothing imports _burnside at load time: brute_force_counts loads it on
first call.  CountingError and FLAVOURS live in quiver, so that the CLI's
request parser, this module and _burnside share them without loading the
pipeline.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from .qpoly import QPoly, _unpack
from .quiver import FLAVOURS, CountingError, Quiver
from .roots import BudgetError, CartanDatum, _refuse
from .series import (
    GradedSeries,
    PlethMode,
    SeriesError,
    _csv,
    _qfactorial_log_levels,
    _ratio,
    degree_lex,
    pleth_exp,
    vectors_of_total,
    vectors_up_to,
)

#: The most multipartitions hua_kac sums over.  In a fresh process on a shared
#: 2-vCPU VM, Jordan N=28 (18,459 of them) takes about 0.25 s, and Jordan N=32
#: (43,819), the largest Jordan bound inside the budget, 0.45-0.65 s: the time
#: grows faster than the count.  The largest benchmark case, affine D4 N=6, has 2,051.
HUA_BUDGET = 50_000


# -- partitions -------------------------------------------------------------------

_SHAPES = [[((), 0, ())]]


def _shapes(n: int) -> list[tuple[tuple[int, ...], int, tuple[int, ...]]]:
    """(lam', <lam, lam>, m(lam)) for every lam |- n, by lam'_1 ascending.

    As lam runs over the partitions of n, so does lam', so no partition is
    conjugated.  <lam, lam> = sum_k lam'_k^2, and m(lam) sorts lam's
    multiplicities m_k(lam) = lam'_k - lam'_{k+1} > 0.  Each lam' is a head
    before a tail of n - head with parts <= head, which the tail's list holds
    first; the head adds head - tail[0] to the tail's multiplicities when that
    is nonzero.
    """
    while len(_SHAPES) <= n:
        out = []
        for head in range(1, len(_SHAPES) + 1):
            for tail, square, m in _SHAPES[len(_SHAPES) - head]:
                first = tail[0] if tail else 0
                if first > head:
                    break
                if first < head:
                    m = tuple(sorted(m + (head - first,)))
                out.append(((head,) + tail, square + head * head, m))
        _SHAPES.append(out)
    return _SHAPES[n]


# -- the Kac table ----------------------------------------------------------------


class KacTable:
    """A_d for all stored dimension vectors, validated on construction.

    Every entry must be a polynomial in q (integral exponents) with
    nonnegative integer coefficients; for the plain flavour a nonzero A_d
    must also be monic of degree 1 - chi(d, d) = p(d)/2 (Kac, 1983).
    """

    def __init__(
        self, cartan: CartanDatum, bound: int, flavour: str, table: dict[tuple[int, ...], QPoly]
    ):
        if flavour not in FLAVOURS:
            raise CountingError(f"unknown flavour {flavour!r}")
        for d, poly in table.items():
            if poly.is_zero():
                continue
            if not poly.is_nonnegative_integer_polynomial():
                raise CountingError(
                    f"A_{_csv(d)} is not a nonnegative integer polynomial in q: {poly}"
                )
            if flavour == "plain":
                degree = cartan.p(d) // 2
                if poly.degree_q() != degree or not poly.is_monic():
                    raise CountingError(f"A_{_csv(d)} is not monic of degree {degree}: {poly}")
        self.cartan, self.bound, self.flavour, self.table = cartan, bound, flavour, table

    def polynomial(self, d) -> QPoly:
        key = tuple(d)
        if key not in self.table:
            raise KeyError(f"no Kac polynomial stored for {_csv(key)}")
        return self.table[key]

    def items(self) -> list[tuple[tuple[int, ...], QPoly]]:
        return [(d, self.table[d]) for d in sorted(self.table, key=degree_lex)]

    def to_series(self) -> GradedSeries:
        return GradedSeries(self.cartan.rank, self.bound, self.table)  # drops |d| > bound


# -- Hua's formula ----------------------------------------------------------------

def _hua_numerator(d: tuple[int, ...], matrix: tuple[tuple[int, ...], ...], vertex) -> dict:
    """N_d = D_d [z^d] of Hua's sum, summed at x = 2^w (see the module docstring).

    vertex(w, n) gives (N(lam), lam', <lam, lam>) at x = 2^w for every lam |- n.
    """
    support = [v for v, n in enumerate(d) if n]
    # every coefficient of N_d is below prod_{d_v > 0} 3^(d_v - 1) < 2^(w-2)
    w = (3 ** (sum(d) - len(support))).bit_length() + 2
    # -(pi, pi)/2 on supp(d); the vertex with the largest d_v, so the most
    # partitions, is summed innermost, by shifts alone
    last = max(support, key=d.__getitem__)
    others = [v for v in support if v != last]
    diagonal = [-matrix[v][v] // 2 for v in others]
    pairs = [(a, b, -matrix[v][u]) for a, v in enumerate(others) for b, u in enumerate(others[:a])]
    pairs = [pair for pair in pairs if pair[2]]
    crossing = [(a, -matrix[last][v]) for a, v in enumerate(others) if matrix[last][v]]
    half = matrix[last][last] // 2
    inner = [(numerator, conj, half * square) for numerator, conj, square in vertex(w, d[last])]
    sums: dict[int, int] = {}  # the packed terms by their lowest exponent
    for outer in itertools.product(*(vertex(w, d[v]) for v in others)):
        exponent = sum(weight * square for weight, (_, _, square) in zip(diagonal, outer))
        for a, b, weight in pairs:
            exponent += weight * sum(map(operator.mul, outer[a][1], outer[b][1]))
        column = [0] * d[last]  # the crossing terms add sum_i column_i lam'_i
        for a, weight in crossing:
            for i, c in enumerate(outer[a][1][: d[last]]):
                column[i] += weight * c
        shifts = [
            square - exponent - sum(map(operator.mul, column, conj)) for _, conj, square in inner
        ]
        lo, term = min(shifts), 0
        for (numerator, _, _), k in zip(inner, shifts):
            term += numerator << w * (k - lo)
        sums[lo] = sums.get(lo, 0) + term * math.prod(numerator for numerator, _, _ in outer)
    lo, total = min(sums), 0
    for k, v in sums.items():
        total += v << w * (k - lo)
    return _unpack(lo, total, w)


def _hua_numerators(matrix: tuple[tuple[int, ...], ...], bound: int) -> list:
    """{d: N_d} with N_d = D_d * [z^d] of Hua's sum, for each total |d| <= bound."""
    stored: dict[tuple[int, int], list] = {}  # (w, n) -> vertex(w, n)

    def vertex(w: int, n: int) -> list:
        """(N(lam), lam', <lam, lam>) at x = 2^w for every lam |- n."""
        if (w, n) not in stored:
            q_factorial, tail = [1] * (n + 1), [1] * (n + 1)  # (x;x)_j and (x;x)_n / (x;x)_j
            for j in range(1, n + 1):
                q_factorial[j] = q_factorial[j - 1] - (q_factorial[j - 1] << w * j)
            for j in range(n, 0, -1):
                tail[j - 1] = tail[j] - (tail[j] << w * j)
            shared: dict[tuple[int, ...], int] = {}  # N(lam) by m(lam)
            for _, _, m in _shapes(n):
                if m not in shared:
                    # m is sorted, so (x;x)_{m[-1]} cancels against (x;x)_n without a division
                    below = math.prod(map(q_factorial.__getitem__, m[:-1]))
                    shared[m], rest = divmod(tail[m[-1]], below)
                    if rest:
                        raise SeriesError(f"inexact vertex numerator at n = {n}, m = {m}")
            stored[w, n] = [(shared[m], conj, square) for conj, square, m in _shapes(n)]
        return stored[w, n]

    levels = [{(0,) * len(matrix): {0: 1}}]
    for total in range(1, bound + 1):
        vectors = vectors_of_total(len(matrix), total)
        levels.append({d: _hua_numerator(d, matrix, vertex) for d in vectors})
    return levels


def check_hua_budget(rank: int, bound: int) -> None:
    """Raise BudgetError if Hua's sum up to |d| <= bound exceeds HUA_BUDGET.

    Each 0 < |d| <= bound adds prod_{v in supp d} len(_shapes(d_v)), the
    multipartitions _hua_numerator sums over; the tally stops once past the
    budget, so a huge bound costs no more than the budget.
    """
    tally = 0
    for total in range(1, bound + 1):
        for d in vectors_of_total(rank, total):
            tally += math.prod(len(_shapes(n)) for n in d if n)
            if tally > HUA_BUDGET:
                what = f"Hua's sum up to |d| = {bound} runs over at least {tally} multipartitions"
                _refuse(what, HUA_BUDGET)


def hua_kac(quiver: Quiver, bound: int) -> KacTable:
    """Kac polynomials A_d for all 0 < |d| <= bound via Hua's sum.

    A_d = (q - 1) * [Log_{q,z} of the sum]_d; see the module docstring for
    why the factor is q - 1.  Raises BudgetError past HUA_BUDGET.
    """
    if bound < 1:
        raise CountingError("bound must be >= 1")
    cartan = CartanDatum.from_quiver(quiver)
    check_hua_budget(cartan.rank, bound)
    levels = _qfactorial_log_levels(_hua_numerators(cartan.matrix, bound))
    table: dict[tuple[int, ...], QPoly] = {}
    for total, (_, level) in enumerate(levels):
        for d in sorted(level):
            # the level is |d| (1 - x^g) Log_d and A_d = (1 - x) Log_d / x
            g = math.gcd(*d)
            num = _ratio(level[d], [1], [g]) if g > 1 else level[d]
            table[d] = QPoly._of({2 * (1 - k): c for k, c in num.items()}, total)
    return KacTable(cartan, bound, "plain", table)


# -- the counting oracle ----------------------------------------------------------


def brute_force_counts(quiver: Quiver, d: tuple[int, ...], q: int, flavour: str = "plain") -> int:
    """Number of isomorphism classes of F_q-representations of dimension d.

    flavour selects the counted class: "plain" counts all representations,
    "nilpotent" those where every length-|d| path acts by zero, and
    "one_nilpotent" those where each loop arrow acts nilpotently, over
    F_q with q <= MAX_FIELD.  The census runs in _burnside, which is
    loaded on first use.
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


#: Every prime power q <= _burnside.MAX_FIELD, smallest first: the field sizes
#: the census can sample.
FIELDS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)


class _OraclePeel:
    """Peels A_e off the class-count series, one stage e at a time.

    A stage e needs A at every nonzero vector strictly below it.  [Exp A]_e
    without its A_e term involves only A at those vectors, all of total
    < |e|, so one Exp of the stages known before a run of stages of one
    total serves the whole run; a stage of another total takes a new Exp.
    """

    def __init__(self, quiver: Quiver, cartan: CartanDatum, flavour: str):
        if flavour not in FLAVOURS:
            raise CountingError(f"unknown flavour {flavour!r}")
        self.quiver, self.cartan, self.flavour = quiver, cartan, flavour
        self.known: dict[tuple[int, ...], QPoly] = {}
        self._exp = GradedSeries(cartan.rank, 0)

    def add(self, e: tuple[int, ...]) -> None:
        """Store A_e, from its census over the first max(1, 2 - chi(e, e)) of FIELDS.

        The census samples them largest first.  Every census budget grows with
        q, so a stage that a budget refuses is refused at its largest field,
        before a smaller one is counted.  Too few field sizes, a stage below e
        not yet added, or a census past its budget raise BudgetError and leave
        the peel as it was: later stages not above e can still be added.
        """
        degree_bound = self.cartan.p(e) // 2
        samples = max(1, degree_bound + 1)
        if samples > len(FIELDS):
            raise BudgetError(
                f"need {samples} field sizes for degree {degree_bound}, have {len(FIELDS)}"
            )
        below = sorted(itertools.product(*(range(n + 1) for n in e)), key=degree_lex)[1:-1]
        missing = next((b for b in below if b not in self.known), None)
        if missing is not None:
            raise BudgetError(f"need A at {_csv(missing)} first")
        if self._exp.bound != sum(e):
            known = GradedSeries(self.cartan.rank, sum(e), self.known)
            self._exp = pleth_exp(known, PlethMode.QZ)
        base = self._exp.coeff(e)
        points = []
        for v in reversed(FIELDS[:samples]):
            m_count = brute_force_counts(self.quiver, e, v, self.flavour)
            points.append((v, Fraction(m_count) - base.eval_at(v)))
        poly = _lagrange(points)
        if degree_bound < 0 and not poly.is_zero():
            raise CountingError(f"A_{_csv(e)} should vanish (degree bound {degree_bound}): {poly}")
        self.known[e] = poly


def oracle_kac_full(quiver: Quiver, bound: int, flavour: str = "plain") -> KacTable:
    """A_e for every 0 < |e| <= bound, from brute-force counts, peeled in (|d|, lex) order."""
    if bound < 1:
        raise CountingError("bound must be >= 1")
    cartan = CartanDatum.from_quiver(quiver)
    peel = _OraclePeel(quiver, cartan, flavour)
    for e in vectors_up_to(cartan.rank, bound):
        if any(e):
            peel.add(e)
    return KacTable(cartan, bound, flavour, peel.known)
