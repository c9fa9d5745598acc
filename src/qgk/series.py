r"""
Truncated multigraded power series with plethystic Exp and Log.

A :class:`GradedSeries` is a finitely supported map from dimension
vectors d with |d| <= N to :class:`~qgk.qpoly.QPoly` coefficients; the
bound N is the truncation order by *total* degree.  The plethystic
exponential comes in the two flavours used throughout:

* ``PlethMode.Z_ONLY`` -- the Adams operation psi_n substitutes
  z^d -> z^{nd} only;
* ``PlethMode.QZ`` -- psi_n additionally substitutes q -> q^n.

Exp(f) = exp(sum_{n>=1} psi_n(f)/n) and Log is its exact inverse.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Iterator, Mapping

from .qpoly import QPoly
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
        return sorted(self._terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

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
            s = out.get(k, QPoly.zero()) + p
            if s.is_zero():
                out.pop(k, None)
            else:
                out[k] = s
        return GradedSeries(self.quiver, self.bound, out)

    def __neg__(self) -> "GradedSeries":
        return GradedSeries(self.quiver, self.bound, {k: -p for k, p in self._terms.items()})

    def __sub__(self, other: "GradedSeries") -> "GradedSeries":
        return self + (-other)

    def scale(self, c: "QPoly | int | Fraction") -> "GradedSeries":
        factor = c if isinstance(c, QPoly) else QPoly.constant(c)
        return GradedSeries(
            self.quiver, self.bound, {k: p * factor for k, p in self._terms.items()}
        )

    def truncate(self, bound: int) -> "GradedSeries":
        if bound > self.bound:
            raise SeriesError("cannot extend a truncated series")
        return GradedSeries(self.quiver, bound, self._terms)

    def drop_constant(self) -> "GradedSeries":
        rank = len(self.quiver.vertices)
        out = dict(self._terms)
        out.pop((0,) * rank, None)
        return GradedSeries(self.quiver, self.bound, out)


def series_mul(f: GradedSeries, g: GradedSeries) -> GradedSeries:
    """Truncated product."""
    f._check_compatible(g)
    bound = f.bound
    out: dict[tuple[int, ...], QPoly] = {}
    for k1, p1 in f._terms.items():
        s1 = sum(k1)
        for k2, p2 in g._terms.items():
            if s1 + sum(k2) > bound:
                continue
            key = tuple(a + b for a, b in zip(k1, k2))
            prod = p1 * p2
            acc = out.get(key)
            acc = prod if acc is None else acc + prod
            if acc.is_zero():
                out.pop(key, None)
            else:
                out[key] = acc
    return GradedSeries(f.quiver, bound, out)


def _by_degree(terms: Mapping[tuple[int, ...], QPoly], bound: int) -> list[dict]:
    levels: list[dict] = [{} for _ in range(bound + 1)]
    for key, poly in terms.items():
        levels[sum(key)][key] = poly
    return levels


def _add_product(out: dict, a: list[dict], b: list[dict], total: int) -> dict:
    """Add the degree-``total`` part of a * b, both bucketed by degree, into out."""
    for size in range(total + 1):
        for e, p in a[size].items():
            for f, r in b[total - size].items():
                key = tuple(x + y for x, y in zip(e, f))
                out[key] = out[key] + p * r if key in out else p * r
    return out


def series_inv(f: GradedSeries) -> GradedSeries:
    """Truncated inverse; the constant term must be a unit (a single term)."""
    u = f.constant_term()
    if u.is_zero() or len(u.items()) != 1:
        raise SeriesError("series_inv needs a unit (monomial) constant term")
    (k0, c0), = u.items()
    u_inv = QPoly.half_power(-k0, Fraction(1) / c0)
    # g_d = -u^{-1} * sum_{0 < e <= d} f_e g_{d-e}, by ascending total degree.
    positive = _by_degree(f.drop_constant()._terms, f.bound)
    inv = _by_degree({(0,) * len(f.quiver.vertices): u_inv}, f.bound)
    for total in range(1, f.bound + 1):
        level = _add_product({}, positive, inv, total)
        inv[total] = {d: -(u_inv * p) for d, p in level.items() if p}
    return GradedSeries(f.quiver, f.bound, {d: p for level in inv for d, p in level.items()})


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


def _exp_truncated(s: GradedSeries) -> GradedSeries:
    """exp(s), degree by degree: |d| E_d = sum_{0<e<=d} |e| s_e E_{d-e}."""
    if not s.constant_term().is_zero():
        raise SeriesError("exp needs zero constant term")
    euler = _by_degree({e: p.scale(sum(e)) for e, p in s._terms.items()}, s.bound)
    exp = _by_degree({(0,) * len(s.quiver.vertices): QPoly.one()}, s.bound)
    for total in range(1, s.bound + 1):
        level = _add_product({}, euler, exp, total)
        exp[total] = {d: p.scale(Fraction(1, total)) for d, p in level.items() if p}
    return GradedSeries(s.quiver, s.bound, {d: p for level in exp for d, p in level.items()})


def _log_truncated(g: GradedSeries) -> GradedSeries:
    """log(g), degree by degree: |d| L_d = |d| h_d - sum_{0<e<d} |e| L_e h_{d-e}, h = g - 1."""
    if not g.constant_term().is_one():
        raise SeriesError("log needs constant term 1")
    minus_h = _by_degree((-g.drop_constant())._terms, g.bound)
    euler: list[dict] = [{} for _ in range(g.bound + 1)]  # |d| L_d
    for total in range(1, g.bound + 1):
        level = {d: p.scale(-total) for d, p in minus_h[total].items()}
        euler[total] = {d: p for d, p in _add_product(level, euler, minus_h, total).items() if p}
    log = {d: p.scale(Fraction(1, sum(d))) for level in euler for d, p in level.items()}
    return GradedSeries(g.quiver, g.bound, log)


def pleth_exp(f: GradedSeries, mode: PlethMode) -> GradedSeries:
    """Plethystic exponential Exp(f) = exp(sum_n psi_n(f)/n)."""
    if not f.constant_term().is_zero():
        raise SeriesError("pleth_exp needs zero constant term")
    total = GradedSeries.zero(f.quiver, f.bound)
    for n in range(1, f.bound + 1):
        pn = adams(f, n, mode)
        if pn.is_zero():
            continue
        total = total + pn.scale(Fraction(1, n))
    return _exp_truncated(total)


def pleth_log(g: GradedSeries, mode: PlethMode) -> GradedSeries:
    """Plethystic logarithm, the exact inverse of :func:`pleth_exp`."""
    if not g.constant_term().is_one():
        raise SeriesError("pleth_log needs constant term 1")
    log = _log_truncated(g)
    result = GradedSeries.zero(g.quiver, g.bound)
    for n in range(1, g.bound + 1):
        mu = _moebius(n)
        if mu == 0:
            continue
        pn = adams(log, n, mode)
        if pn.is_zero():
            continue
        result = result + pn.scale(Fraction(mu, n))
    return result


def sym_power_coeff(p: QPoly, m: int) -> QPoly:
    """Coefficient of u^m in Exp_{t,u}(p(t) * u).

    This is the character of the m-th symmetric power of a graded vector
    space with character p, by Newton: n h_n = sum_{k=1}^n p(t^k) h_{n-k}.
    """
    if m < 0:
        raise SeriesError("symmetric power index must be >= 0")
    return _sym_powers(p, m)[m]


def _sym_powers(p: QPoly, m: int) -> list[QPoly]:
    """The coefficients of u^0, ..., u^m in Exp_{t,u}(p(t) * u)."""
    powers = [p.substitute_power(k) for k in range(1, m + 1)]
    h = [QPoly.one()]
    for n in range(1, m + 1):
        terms = (powers[k - 1] * h[n - k] for k in range(1, n + 1))
        h.append(sum(terms, QPoly.zero()).scale(Fraction(1, n)))
    return h
