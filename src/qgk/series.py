r"""
Truncated multigraded power series with plethystic Exp and Log.

A :class:`GradedSeries` is a finitely supported map from dimension
vectors d with |d| <= N to :class:`~qgk.qpoly.QPoly` coefficients; the
bound N is the truncation order by *total* degree.  The plethystic
exponential comes in the two flavours used throughout:

* ``PlethMode.Z_ONLY`` -- the Adams operation psi_n substitutes
  z^d -> z^{nd} only;
* ``PlethMode.QZ`` -- psi_n additionally substitutes q -> q^n.

Exp(f) = exp(sum_{n>=1} psi_n(f)/n) and Log is its exact inverse.  One
core runs both degree by degree: the coefficients of each total degree
are sparse integer polynomials in t = q^{1/2} over one integer
denominator per degree, which starts as the lcm of the input's
denominators.  The product is sparse, so exponent size costs nothing.
A QPoly is itself integer numerators over one denominator, and the core
multiplies and adds with its _mul and _add_to, so a series goes in and
comes out by rescaling, not coefficient by coefficient.  hua_kac runs the same Log
over numerators in x = q^{-1} with its q-factorial kernel.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
from collections import Counter
from fractions import Fraction
from typing import Iterator, Mapping

from .qpoly import QPoly, _add_to, _mul
from .quiver import DimVector, Quiver, QuiverError


class SeriesError(ValueError):
    pass


class PlethMode(enum.Enum):
    Z_ONLY = "z"
    QZ = "qz"


def vectors_of_total(rank: int, total: int) -> Iterator[tuple[int, ...]]:
    """All rank-tuples of nonnegative integers with the given sum, lex order."""
    if rank == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in vectors_of_total(rank - 1, total - head):
            yield (head,) + tail


def vectors_up_to(rank: int, bound: int) -> Iterator[tuple[int, ...]]:
    """All rank-tuples with sum <= bound, sorted by (total, lex)."""
    for total in range(bound + 1):
        yield from vectors_of_total(rank, total)


def degree_lex(d: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """The sort key of the package's vector order: total degree |d|, then lex."""
    return sum(d), d


class GradedSeries:
    """A power series over a quiver's dimension lattice, truncated at |d| <= N."""

    __slots__ = ("quiver", "bound", "_terms")

    def __init__(
        self,
        quiver: Quiver,
        bound: int,
        terms: Mapping[tuple[int, ...], QPoly] | None = None,
    ):
        if bound < 0:
            raise SeriesError("truncation bound must be >= 0")
        self.quiver = quiver
        self.bound = bound
        clean: dict[tuple[int, ...], QPoly] = {}
        if terms:
            rank = len(quiver.vertices)
            for key, poly in terms.items():
                key = tuple(int(n) for n in key)
                if len(key) != rank or any(n < 0 for n in key):
                    raise SeriesError(f"bad series key {key}")
                if sum(key) <= bound and not poly.is_zero():
                    clean[key] = poly
        self._terms = clean

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, quiver: Quiver, bound: int) -> "GradedSeries":
        return cls(quiver, bound)

    @classmethod
    def one(cls, quiver: Quiver, bound: int) -> "GradedSeries":
        rank = len(quiver.vertices)
        return cls(quiver, bound, {(0,) * rank: QPoly.one()})

    # -- accessors --------------------------------------------------------------

    def coeff(self, d: "DimVector | tuple[int, ...]") -> QPoly:
        key = d.as_tuple() if isinstance(d, DimVector) else tuple(d)
        return self._terms.get(key, QPoly.zero())

    def constant_term(self) -> QPoly:
        return self.coeff((0,) * len(self.quiver.vertices))

    def items(self) -> list[tuple[tuple[int, ...], QPoly]]:
        return [(d, self._terms[d]) for d in sorted(self._terms, key=degree_lex)]

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedSeries):
            return NotImplemented
        return (
            self.quiver == other.quiver
            and self.bound == other.bound
            and self._terms == other._terms
        )

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}: {p}" for k, p in self.items()[:6])
        suffix = ", ..." if len(self._terms) > 6 else ""
        return f"GradedSeries(N={self.bound}, {{{inner}{suffix}}})"

    def _check_compatible(self, other: "GradedSeries") -> None:
        if self.quiver != other.quiver:
            raise QuiverError("series over different quivers")
        if self.bound != other.bound:
            raise SeriesError("series with different truncation bounds")

    # -- linear structure ----------------------------------------------------------

    def __add__(self, other: "GradedSeries") -> "GradedSeries":
        self._check_compatible(other)
        out = dict(self._terms)
        for k, p in other._terms.items():
            out[k] = out.get(k, QPoly.zero()) + p
        return GradedSeries(self.quiver, self.bound, out)  # drops zero terms

    def __neg__(self) -> "GradedSeries":
        return GradedSeries(self.quiver, self.bound, {k: -p for k, p in self._terms.items()})

    def __sub__(self, other: "GradedSeries") -> "GradedSeries":
        return self + (-other)

    def scale(self, c: "QPoly | int | Fraction") -> "GradedSeries":
        return GradedSeries(self.quiver, self.bound, {k: p * c for k, p in self._terms.items()})

    def truncate(self, bound: int) -> "GradedSeries":
        if bound > self.bound:
            raise SeriesError("cannot extend a truncated series")
        return GradedSeries(self.quiver, bound, self._terms)


def series_mul(f: GradedSeries, g: GradedSeries) -> GradedSeries:
    """Truncated product."""
    f._check_compatible(g)
    a, b = _levels(f, g)
    pairs = ([(a[s], b[t - s]) for s in range(t + 1)] for t in range(f.bound + 1))
    return _series(f, [_convolve(p) for p in pairs])


def series_inv(f: GradedSeries) -> GradedSeries:
    """Truncated inverse; the constant term must be a unit (a single term).

    With f = u (1 + h), 1/f = u^{-1} g where g_0 = 1 and g_t = -sum_{s>=1} h_s g_{t-s}.
    """
    u = f.constant_term()
    if u.is_zero() or len(u.items()) != 1:
        raise SeriesError("series_inv needs a unit (monomial) constant term")
    (k0, c0), = u.items()
    u_inv = QPoly.half_power(-k0, Fraction(1) / c0)
    (h,) = _levels(f.scale(u_inv))
    g = h[:1]
    for t in range(1, f.bound + 1):
        g.append(_convolve([(h[s], g[t - s]) for s in range(1, t + 1)], -1))
    return _series(f, g).scale(u_inv)


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


def adams(f: GradedSeries, n: int, mode: PlethMode) -> GradedSeries:
    """The Adams operation psi_n: z^d -> z^{nd}, and q -> q^n in QZ mode."""
    if n < 1:
        raise SeriesError("adams needs n >= 1")
    out: dict[tuple[int, ...], QPoly] = {}
    for k, p in f._terms.items():
        key = tuple(n * a for a in k)
        if sum(key) > f.bound:
            continue
        out[key] = p.substitute_power(n) if mode is PlethMode.QZ else p
    return GradedSeries(f.quiver, f.bound, out)


# -- the Exp/Log core -------------------------------------------------------------
#
# A level is (den, {d: numerator}) for the d of one total degree; a numerator is
# a sparse {exponent of t: int} standing for numerator / den, and over D_d =
# prod_v (t;t)_{d_v} too under the q-factorial kernel.  QZ's psi_n sends t to t^n.


def _ratio(c: dict, top=(), bottom=()) -> dict:
    """c * prod_{j in top} (1 - t^j) / prod_{j in bottom} (1 - t^j), computed densely.

    Raises SeriesError unless the division is exact.
    """
    top, bottom = Counter(top), Counter(bottom)
    top, bottom = top - bottom, bottom - top
    low = min(c, default=0)
    size = max(c, default=0) - low + 1  # dense[size:] is zero
    dense = [0] * (size + sum(top.elements()))
    for k, v in c.items():
        dense[k - low] = v
    for j in top.elements():
        size += j
        for i in range(size - 1, j - 1, -1):
            dense[i] -= dense[i - j]
    for j in bottom.elements():
        for i in range(j, size):
            dense[i] += dense[i - j]
        size = max(size - j, 0)
        if any(dense[size:]):
            raise SeriesError(f"inexact division by 1 - t^{j}")
    return {k: v for k, v in enumerate(dense[:size], low) if v}


@functools.cache
def _gauss(n: int, k: int) -> dict:
    """The Gaussian binomial [n choose k] in t."""
    return _ratio({0: 1}, range(1, n + 1), [*range(1, k + 1), *range(1, n - k + 1)])


def _settle(level: dict, den: int) -> tuple[int, dict]:
    """(den, level) without zero terms, den cancelled against their content."""
    level = {d: kept for d, poly in level.items() if (kept := {k: c for k, c in poly.items() if c})}
    g = math.gcd(den, *(c for poly in level.values() for c in poly.values())) if den > 1 else 1
    if g > 1:
        level = {d: {k: c // g for k, c in poly.items()} for d, poly in level.items()}
    return den // g, level


def _convolve(pairs, sign=1, start=(1, {}), divisor=1, qfactorial=False) -> tuple[int, dict]:
    """The settled level start + sign * sum_{(a, b) in pairs} a_e b_{d-e}, over divisor."""
    den = math.lcm(start[0], *(a[0] * b[0] for a, b in pairs))
    acc = {d: {k: c * (den // start[0]) for k, c in poly.items()} for d, poly in start[1].items()}
    for (a_den, a), (b_den, b) in pairs:
        factor = sign * (den // (a_den * b_den))
        for e, p in a.items():
            for f, r in b.items():
                d = tuple(map(operator.add, e, f))
                if qfactorial:  # D_d / (D_e D_{d-e})
                    for n, k in zip(d, e):
                        if 0 < k < n:
                            r = _mul(r, _gauss(n, k))
                _add_to(acc.setdefault(d, {}), _mul(p, r), factor)
    return _settle(acc, divisor * den)


def _adams_sum(levels: list, stretch: bool, weight, qfactorial: bool = False) -> list:
    """out_d = sum_{n | d} weight(n, |d|/n) psi_n(in_{d/n}), level by level.

    The q-factorial kernel multiplies psi_n(in_{d/n}) by D_d / psi_n(D_{d/n})
    = prod_v prod_{j <= d_v, n does not divide j} (1 - t^j), so it needs stretch.
    """
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
                if qfactorial and n > 1:
                    poly = _ratio(poly, [j for a in d for j in range(1, a + 1) if j % n])
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


def _pleth_log_levels(levels: list, stretch: bool, qfactorial: bool = False) -> list:
    """|d| times Log at d of 1 + levels 1..N, level by level.

    The Euler form Lambda_d = |d| log_d solves Lambda_d = |d| h_d - sum_{0<e<d}
    Lambda_e h_{d-e}, and |d| Log_d = sum_{n | d} mu(n) psi_n(Lambda_{d/n}).
    """
    log = [(1, {})]
    for total in range(1, len(levels)):
        den, h = levels[total]
        start = (den, {d: {k: total * c for k, c in poly.items()} for d, poly in h.items()})
        pairs = [(log[s], levels[total - s]) for s in range(1, total)]
        log.append(_convolve(pairs, -1, start, qfactorial=qfactorial))
    return _adams_sum(log, stretch, lambda n, size: _moebius(n), qfactorial)


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
    return GradedSeries(f.quiver, f.bound, terms)


def pleth_exp(f: GradedSeries, mode: PlethMode) -> GradedSeries:
    """Plethystic exponential Exp(f) = exp(sum_n psi_n(f)/n)."""
    if not f.constant_term().is_zero():
        raise SeriesError("pleth_exp needs zero constant term")
    (levels,) = _levels(f)
    exp = _pleth_exp_levels(levels, len(f.quiver.vertices), mode is PlethMode.QZ)
    return _series(f, exp)


def pleth_log(g: GradedSeries, mode: PlethMode) -> GradedSeries:
    """Plethystic logarithm, the exact inverse of :func:`pleth_exp`."""
    if not g.constant_term().is_one():
        raise SeriesError("pleth_log needs constant term 1")
    (levels,) = _levels(g)
    return _series(g, _pleth_log_levels(levels, mode is PlethMode.QZ), euler=True)


_LINE = Quiver(["u"])


def sym_power_coeff(p: QPoly, m: int) -> QPoly:
    """Coefficient of u^m in Exp_{t,u}(p(t) * u).

    This is the character of the m-th symmetric power of a graded vector
    space with character p.
    """
    if m < 0:
        raise SeriesError("symmetric power index must be >= 0")
    return pleth_exp(GradedSeries(_LINE, m, {(1,): p}), PlethMode.QZ).coeff((m,))
