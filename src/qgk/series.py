r"""
Truncated multigraded power series with plethystic Exp and Log.

A :class:`GradedSeries` is a finitely supported map from dimension
vectors d of one rank with |d| <= N to :class:`~qgk.qpoly.QPoly`
coefficients; the bound N is the truncation order by *total* degree.
A series knows its lattice only by that rank, so this module reads no
quiver, and a one-variable series is simply one of rank 1.  The plethystic
exponential comes in the two flavours used throughout:

* ``PlethMode.Z_ONLY`` -- the Adams operation psi_n substitutes
  z^d -> z^{nd} only;
* ``PlethMode.QZ`` -- psi_n additionally substitutes q -> q^n.

Exp(f) = exp(sum_{n>=1} psi_n(f)/n) and Log is its exact inverse.  One
core runs both degree by degree: the coefficients of each total degree
are sparse integer polynomials in t = q^{1/2} over one integer
denominator per degree, which starts as the lcm of the input's
denominators.  Exp, Log and series_mul multiply sparsely, so exponent
size costs nothing.  A QPoly is itself integer numerators over one
denominator, and the core multiplies and adds with its _mul and _add_to,
so a series goes in and comes out by rescaling, not coefficient by
coefficient.

hua_kac's Log, _qfactorial_log_levels, is its own: integer numerators in
x = q^{-1} over D_d = prod_v (x;x)_{d_v}, on a q-factorial kernel.  Every
operand there is dense, so the kernel packs each term into one integer, its
value at x = 2^w (Kronecker substitution, qpoly._pack), and each pair of
terms costs a few big-integer products.  w covers the l1 norm of every
result, rounded up to a whole step of _WIDTH_STEP bits.  Each level h_s is
packed once per step it is read at, its start term s h_s included, and each
Lambda_s comes back packed at its kernel's width.  Each Lambda_e takes one
exact division by D_e / (1 - x^g), g = gcd(e), before the Moebius sum.
"""

from __future__ import annotations

import enum
import math
import operator
from typing import Iterator, Mapping

from .qpoly import QPoly, _add_to, _mul, _pack, _unpack


class SeriesError(ValueError):
    pass


class PlethMode(enum.Enum):
    Z_ONLY = "z"
    QZ = "qz"


def vectors_of_total(rank: int, total: int) -> Iterator[tuple[int, ...]]:
    """All rank-tuples of nonnegative integers with the given sum, lex order.

    The successor of c, with c_k its last nonzero entry, adds 1 to c_{k-1}
    and moves c_k - 1 to the last place: no recursion, at any rank.
    """
    c = [0] * (rank - 1) + [total]
    k = rank - 1
    yield tuple(c)
    while k > 0 and c[k]:
        c[k - 1] += 1
        c[k], c[-1] = 0, c[k] - 1
        k = rank - 1 if c[-1] else k - 1
        yield tuple(c)


def vectors_up_to(rank: int, bound: int) -> Iterator[tuple[int, ...]]:
    """All rank-tuples with sum <= bound, sorted by (total, lex)."""
    for total in range(bound + 1):
        yield from vectors_of_total(rank, total)


def degree_lex(d: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """The sort key of the package's vector order: total degree |d|, then lex."""
    return sum(d), d


def _csv(d: tuple[int, ...]) -> str:
    """d as tables and messages print it: 1,1."""
    return ",".join(str(n) for n in d)


class GradedSeries:
    """A power series over the rank-r dimension lattice, truncated at |d| <= N."""

    __slots__ = ("rank", "bound", "_terms")

    def __init__(
        self,
        rank: int,
        bound: int,
        terms: Mapping[tuple[int, ...], QPoly] | None = None,
    ):
        if bound < 0:
            raise SeriesError("truncation bound must be >= 0")
        self.rank = rank
        self.bound = bound
        clean: dict[tuple[int, ...], QPoly] = {}
        if terms:
            for key, poly in terms.items():
                key = tuple(int(n) for n in key)
                if len(key) != rank or any(n < 0 for n in key):
                    raise SeriesError(f"bad series key {_csv(key)}")
                if sum(key) <= bound and not poly.is_zero():
                    clean[key] = poly
        self._terms = clean

    # -- constructors --------------------------------------------------------

    @classmethod
    def one(cls, rank: int, bound: int) -> "GradedSeries":
        return cls(rank, bound, {(0,) * rank: QPoly.one()})

    # -- accessors --------------------------------------------------------------

    def coeff(self, d: tuple[int, ...]) -> QPoly:
        return self._terms.get(tuple(d), QPoly.zero())

    def constant_term(self) -> QPoly:
        return self.coeff((0,) * self.rank)

    def items(self) -> list[tuple[tuple[int, ...], QPoly]]:
        return [(d, self._terms[d]) for d in sorted(self._terms, key=degree_lex)]

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedSeries):
            return NotImplemented
        return (self.rank, self.bound, self._terms) == (other.rank, other.bound, other._terms)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}: {p}" for k, p in self.items()[:6])
        suffix = ", ..." if len(self._terms) > 6 else ""
        return f"GradedSeries(N={self.bound}, {{{inner}{suffix}}})"

    def _check_compatible(self, other: "GradedSeries") -> None:
        if self.rank != other.rank:
            raise SeriesError("series of different ranks")
        if self.bound != other.bound:
            raise SeriesError("series with different truncation bounds")

    # -- linear structure ----------------------------------------------------------

    def __add__(self, other: "GradedSeries") -> "GradedSeries":
        self._check_compatible(other)
        out = dict(self._terms)
        for k, p in other._terms.items():
            out[k] = out.get(k, QPoly.zero()) + p
        return GradedSeries(self.rank, self.bound, out)  # drops zero terms

    def __neg__(self) -> "GradedSeries":
        return GradedSeries(self.rank, self.bound, {k: -p for k, p in self._terms.items()})

    def __sub__(self, other: "GradedSeries") -> "GradedSeries":
        return self + (-other)


def series_mul(f: GradedSeries, g: GradedSeries) -> GradedSeries:
    """Truncated product."""
    f._check_compatible(g)
    a, b = _levels(f, g)
    pairs = ([(a[s], b[t - s]) for s in range(t + 1)] for t in range(f.bound + 1))
    return _series(f, [_convolve(p) for p in pairs])


def _moebius(n: int) -> int:
    result, m = 1, n
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1
    if m > 1:
        result = -result
    return result


# -- the Exp/Log core -------------------------------------------------------------
#
# A level is (den, {d: numerator}) for the d of one total degree; a numerator is
# a sparse {exponent of t: int} standing for numerator / den.  QZ's psi_n sends
# t to t^n.


def _ratio(c: dict, top=(), bottom=()) -> dict:
    """c * prod_{j in top} (1 - t^j) / prod_{j in bottom} (1 - t^j), computed densely.

    Raises SeriesError unless the division is exact.
    """
    low = min(c, default=0)
    size = max(c, default=0) - low + 1  # dense[size:] is zero
    dense = [0] * (size + sum(top))
    for k, v in c.items():
        dense[k - low] = v
    for j in top:
        size += j
        for i in range(size - 1, j - 1, -1):
            dense[i] -= dense[i - j]
    for j in bottom:
        for i in range(j, size):
            dense[i] += dense[i - j]
        size = max(size - j, 0)
        if any(dense[size:]):
            raise SeriesError(f"inexact division by 1 - t^{j}")
    return {k: v for k, v in enumerate(dense[:size], low) if v}


def _settle(level: dict, den: int) -> tuple[int, dict]:
    """(den, level) without zero terms, den cancelled against their content."""
    level = {d: kept for d, poly in level.items() if (kept := {k: c for k, c in poly.items() if c})}
    g = math.gcd(den, *(c for poly in level.values() for c in poly.values())) if den > 1 else 1
    if g > 1:
        level = {d: {k: c // g for k, c in poly.items()} for d, poly in level.items()}
    return den // g, level


def _convolve(pairs, sign=1, start=(1, {}), scale=1, divisor=1) -> tuple:
    """The settled level scale * start + sign * sum_{(a, b) in pairs} a_e b_{d-e}, over divisor."""
    den = math.lcm(start[0], *(a[0] * b[0] for a, b in pairs))
    scale *= den // start[0]
    acc = {d: {k: scale * c for k, c in poly.items()} for d, poly in start[1].items()}
    for (a_den, a), (b_den, b) in pairs:
        factor = sign * (den // (a_den * b_den))
        for e, p in a.items():
            for f, r in b.items():
                _add_to(acc.setdefault(tuple(map(operator.add, e, f)), {}), _mul(p, r), factor)
    return _settle(acc, divisor * den)


def _l1(poly: dict) -> int:
    return sum(map(abs, poly.values()))


#: The q-factorial Log's packing widths are whole multiples of this many bits,
#: so that each operand is packed once per step it is read at, not once per level.
_WIDTH_STEP = 16


class _Packed:
    """A level of the q-factorial Log, packed at x = 2^w once per width w it is read at.

    size is its total degree, l1 its terms' largest l1 norm and lo their lowest exponent.
    A level that _kernel_convolve returns holds its packing at the kernel's width.
    """

    def __init__(self, terms: dict):
        self.terms, self.size, self._at = terms, sum(next(iter(terms), ())), {}
        self.l1 = max(map(_l1, terms.values()), default=0)
        self.lo = min(map(min, terms.values()), default=0)

    def at(self, w: int) -> list:
        """(e, lowest exponent, value at x = 2^w) for every term e, as _pack gives them."""
        if w not in self._at:
            self._at[w] = [(e, *_pack(p, w)) for e, p in self.terms.items()]
        return self._at[w]


def _kernel_bound(pairs, scale: int, start: _Packed) -> int:
    """|scale| l1(start) + sum l1(a) l1(b) C(|a| + |b|, |a|) over the pairs (a, b).

    [n choose k]_t = D_n / (D_k D_{n-k}) has nonnegative coefficients summing
    to C(n, k), and sum_{|e| = s, e <= d} prod_v C(d_v, e_v) = C(|d|, s)
    (Vandermonde), so this bounds the l1 norm of every coefficient of
    _kernel_convolve's result.
    """
    top = abs(scale) * start.l1
    for a, b in pairs:
        top += a.l1 * b.l1 * math.comb(a.size + b.size, a.size)
    return top


def _kernel_convolve(pairs, scale: int, start: _Packed) -> _Packed:
    """The level scale start_d - sum_{(a, b) in pairs} a_e b_f prod_v [d_v choose e_v]_t.

    d runs over e + f.  Everything is summed at t = 2^w, with w _kernel_bound's
    bit length plus 2 rounded up to a whole _WIDTH_STEP, so every coefficient
    unpacks exactly.  The result is a _Packed level that already holds its
    packing at w.
    """
    pairs = [(a, b) for a, b in pairs if a.terms and b.terms]
    w = -(-(_kernel_bound(pairs, scale, start).bit_length() + 2) // _WIDTH_STEP) * _WIDTH_STEP
    lo = min([start.lo] + [a.lo + b.lo for a, b in pairs])
    size = max((a.size + b.size for a, b in pairs), default=0)  # the largest |d| a pair reaches
    gauss = [[1]]  # gauss[n][k] = [n choose k]_t at t = 2^w, by the q-Pascal rule
    for n in range(1, size + 1):
        row = gauss[-1] + [0]
        gauss.append([1] + [row[k - 1] + (row[k] << w * k) for k in range(1, n + 1)])
    total = {d: scale * v << w * (d_lo - lo) for d, d_lo, v in start.at(w)}
    for a, b in pairs:
        a = a.at(w)
        for f, f_lo, r in b.at(w):
            for e, e_lo, p in a:
                d = tuple(map(operator.add, e, f))
                v = p * r
                for n, k in zip(d, e):
                    if 0 < k < n:
                        v *= gauss[n][k]
                total[d] = total.get(d, 0) - (v << w * (e_lo + f_lo - lo))
    out = _Packed({d: _unpack(lo, v, w) for d, v in total.items() if v})
    out._at[w] = [(d, min(p), total[d] >> w * (min(p) - lo)) for d, p in out.terms.items()]
    return out


def _adams_sum(levels: list, stretch: bool, weight) -> list:
    """out_d = sum_{n | d} weight(n, |d|/n) psi_n(in_{d/n}), level by level."""
    out = [(1, {})]
    for total in range(1, len(levels)):
        parts = [(n, total // n) for n in range(1, total + 1) if not total % n]
        parts = [(n, size, w) for n, size in parts if (w := weight(n, size))]
        den = math.lcm(*(levels[size][0] for _, size, _ in parts))
        acc: dict = {}
        for n, size, w in parts:
            sub_den, level = levels[size]
            for e, poly in level.items():
                d = tuple(n * a for a in e)
                if stretch and n > 1:
                    poly = {n * k: c for k, c in poly.items()}
                _add_to(acc.setdefault(d, {}), poly, w * (den // sub_den))
        out.append(_settle(acc, den))
    return out


def _pleth_exp_levels(levels: list, rank: int, stretch: bool) -> list:
    """Exp of levels 1..N: |d| E_d = sum_{0<e<=d} P_e E_{d-e} with P_e = |e| [sum_n psi_n/n]_e."""
    euler = _adams_sum(levels, stretch, lambda n, size: size)
    exp = [(1, {(0,) * rank: {0: 1}})]
    for total in range(1, len(levels)):
        pairs = [(euler[s], exp[total - s]) for s in range(1, total + 1)]
        exp.append(_convolve(pairs, divisor=total))
    return exp


def _pleth_log_levels(levels: list, stretch: bool) -> list:
    """|d| times Log at d of 1 + levels 1..N, level by level.

    The Euler form Lambda_d = |d| log_d solves Lambda_d = |d| h_d - sum_{0<e<d}
    Lambda_e h_{d-e}, and |d| Log_d = sum_{n | d} mu(n) psi_n(Lambda_{d/n}).
    """
    lam = [(1, {})]  # Lambda_0 is never read
    for total in range(1, len(levels)):
        pairs = [(lam[s], levels[total - s]) for s in range(1, total)]
        lam.append(_convolve(pairs, -1, levels[total], total))
    return _adams_sum(lam, stretch, lambda n, size: _moebius(n))


def _qfactorial_log_levels(numerators: list) -> list:
    """|d| (1 - x^g) Log_d, g = gcd(d), of sum_d N_d z^d / D_d, with numerators[s] = {d: N_d}.

    The kernel solves D_d Lambda_d = |d| N_d - sum_{0<e<d} D_e Lambda_e N_{d-e} [d choose e]_x
    for the Euler form Lambda_d = sum_{n | d} (|d|/n) psi_n(Log_{d/n}).  Each (1 - x) Log is
    a Laurent polynomial and each such n divides g, so Lambda_d (1 - x^g) is one, and its
    psi_n carries 1 - x^{gcd(nd)}: the Moebius sum of these needs nothing more.
    """
    h, lam, log = [_Packed(level) for level in numerators], [None], [(1, {})]
    for t in range(1, len(numerators)):
        lam.append(_kernel_convolve([(lam[s], h[t - s]) for s in range(1, t)], t, h[t]))
        quotients = {}
        for e, poly in lam[-1].terms.items():
            factors = [j for a in e for j in range(1, a + 1)]
            factors.remove(math.gcd(*e))  # D_e / (1 - x^g)
            quotients[e] = _ratio(poly, (), factors)
        log.append((1, quotients))
    return _adams_sum(log, True, lambda n, size: _moebius(n))


def _levels(*series: GradedSeries) -> list:
    """Each series as levels over t = q^{1/2}, with one den for all terms."""
    den = math.lcm(*(p._den for f in series for p in f._terms.values()))
    out = []
    for f in series:
        levels: list = [(den, {}) for _ in range(f.bound + 1)]
        for d, p in f._terms.items():
            levels[sum(d)][1][d] = {k: c * (den // p._den) for k, c in p._num.items()}
        out.append(levels)
    return out


def _series(f: GradedSeries, levels: list, euler: bool = False) -> GradedSeries:
    """The series of levels over t = q^{1/2}; euler divides level |d| by |d|."""
    terms = {}
    for total, (den, level) in enumerate(levels):
        scale = den * total if euler else den
        for d in sorted(level):
            terms[d] = QPoly._of(level[d], scale)
    return GradedSeries(f.rank, f.bound, terms)


def pleth_exp(f: GradedSeries, mode: PlethMode) -> GradedSeries:
    """Plethystic exponential Exp(f) = exp(sum_n psi_n(f)/n)."""
    if not f.constant_term().is_zero():
        raise SeriesError("pleth_exp needs zero constant term")
    (levels,) = _levels(f)
    exp = _pleth_exp_levels(levels, f.rank, mode is PlethMode.QZ)
    return _series(f, exp)


def pleth_log(g: GradedSeries, mode: PlethMode) -> GradedSeries:
    """Plethystic logarithm, the exact inverse of :func:`pleth_exp`."""
    if not g.constant_term().is_one():
        raise SeriesError("pleth_log needs constant term 1")
    (levels,) = _levels(g)
    return _series(g, _pleth_log_levels(levels, mode is PlethMode.QZ), euler=True)


def sym_power_coeff(p: QPoly, m: int) -> QPoly:
    """Coefficient of u^m in Exp_{t,u}(p(t) * u).

    This is the character of the m-th symmetric power of a graded vector
    space with character p.
    """
    if m < 0:
        raise SeriesError("symmetric power index must be >= 0")
    return pleth_exp(GradedSeries(1, m, {(1,): p}), PlethMode.QZ).coeff((m,))
