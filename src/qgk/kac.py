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
itself would make A_1 non-polynomial.  Coefficients are carried with their
denominators as explicit (1 - q^{-j}) exponent vectors; the final division
must be exact and is asserted.

oracle_kac never touches Hua's formula: it recovers A_d from brute-force
isomorphism-class counts M_e(q) over small finite fields (Burnside census
in _burnside) through the staged relation

    sum_d M_d z^d = Exp_{q,z}( sum_d A_d z^d ),

peeling one dimension vector at a time and interpolating A_e from its
values at deg + 1 field sizes, with deg = 1 - chi(e, e).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from . import _burnside
from ._burnside import BudgetError, CountingError, brute_force_counts
from .qpoly import QPoly
from .quiver import DimVector, Quiver, euler_form
from .series import GradedSeries, PlethMode, _moebius, pleth_exp, vectors_of_total

__all__ = [
    "DEFAULT_FIELDS",
    "FLAVOURS",
    "BudgetError",
    "CountingError",
    "KacTable",
    "MultiPartition",
    "brute_force_counts",
    "hua_kac",
    "oracle_kac",
    "oracle_kac_full",
    "oracle_kac_table",
    "partitions",
]

FLAVOURS = _burnside.FLAVOURS
DEFAULT_FIELDS = (2, 3, 4, 5, 7, 8, 9)


# -- partitions -------------------------------------------------------------------

_PARTITION_CACHE: dict[int, list[tuple[int, ...]]] = {0: [()]}


def partitions(n: int) -> list[tuple[int, ...]]:
    """All partitions of n as descending tuples."""
    if n < 0:
        raise ValueError("partitions of negative integers do not exist")
    if n in _PARTITION_CACHE:
        return _PARTITION_CACHE[n]

    def generate(remaining: int, cap: int):
        if remaining == 0:
            yield ()
            return
        for head in range(min(remaining, cap), 0, -1):
            for tail in generate(remaining - head, head):
                yield (head,) + tail

    result = list(generate(n, n))
    _PARTITION_CACHE[n] = result
    return result


def conjugate_partition(lam: tuple[int, ...]) -> tuple[int, ...]:
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= k) for k in range(1, lam[0] + 1))


def partition_pairing(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """<lam, mu> = sum_i lam'_i mu'_i."""
    lc = conjugate_partition(lam)
    mc = conjugate_partition(mu)
    return sum(a * b for a, b in zip(lc, mc))


@dataclass(frozen=True)
class MultiPartition:
    """One partition per vertex, in vertex order."""

    parts: tuple[tuple[int, ...], ...]


# -- rational coefficients with structured denominators ---------------------------


class _RatQ:
    """num / prod_j (1 - q^{-j})^{e_j} with an exact QPoly numerator."""

    __slots__ = ("num", "den")

    def __init__(self, num: QPoly, den: tuple[tuple[int, int], ...] = ()):
        self.num = num
        self.den = tuple(sorted((j, e) for j, e in den if e)) if not num.is_zero() else ()

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __mul__(self, other: "_RatQ") -> "_RatQ":
        merged: dict[int, int] = dict(self.den)
        for j, e in other.den:
            merged[j] = merged.get(j, 0) + e
        return _RatQ(self.num * other.num, tuple(merged.items()))

    def __add__(self, other: "_RatQ") -> "_RatQ":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        mine = dict(self.den)
        theirs = dict(other.den)
        lcm = {j: max(mine.get(j, 0), theirs.get(j, 0)) for j in set(mine) | set(theirs)}
        a = self.num * _den_poly({j: e - mine.get(j, 0) for j, e in lcm.items()})
        b = other.num * _den_poly({j: e - theirs.get(j, 0) for j, e in lcm.items()})
        return _RatQ(a + b, tuple(lcm.items()))

    def scale(self, c: Fraction) -> "_RatQ":
        return _RatQ(self.num.scale(c), self.den)

    def substitute_power(self, n: int) -> "_RatQ":
        return _RatQ(self.num.substitute_power(n), tuple((j * n, e) for j, e in self.den))

    def to_qpoly(self) -> QPoly:
        return self.num.divexact(_den_poly(dict(self.den)))


def _den_poly(exponents: dict[int, int]) -> QPoly:
    result = QPoly.one()
    for j, e in sorted(exponents.items()):
        if e < 0:
            raise CountingError("negative denominator exponent")
        factor = QPoly.one() - QPoly.q_power(-j)
        for _ in range(e):
            result = result * factor
    return result


# -- the Kac table ----------------------------------------------------------------


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
            if not poly.has_integral_exponents() or poly.min_half < 0:
                raise CountingError(f"A_{d} is not a polynomial in q: {poly}")
            if not poly.has_integer_coefficients() or not poly.has_nonnegative_coefficients():
                raise CountingError(f"A_{d} has bad coefficients: {poly}")
            if self.flavour == "plain":
                dv = DimVector(self.quiver, d)
                bound = 1 - euler_form(self.quiver, dv, dv)
                if poly.degree_q() > bound:
                    raise CountingError(f"A_{d} exceeds degree bound {bound}: {poly}")

    def polynomial(self, d) -> QPoly:
        key = d.as_tuple() if isinstance(d, DimVector) else tuple(d)
        if key not in self.table:
            raise KeyError(f"no Kac polynomial stored for {key}")
        return self.table[key]

    def items(self) -> list[tuple[tuple[int, ...], QPoly]]:
        return [(d, self.table[d]) for d in sorted(self.table, key=lambda t: (sum(t), t))]

    def to_series(self) -> GradedSeries:
        return GradedSeries(
            self.quiver, self.bound, {d: p for d, p in self.table.items() if sum(d) <= self.bound}
        )


# -- Hua's formula ----------------------------------------------------------------


def _hua_term(quiver: Quiver, pi: MultiPartition) -> _RatQ:
    exponent = 0
    by_vertex = dict(zip(quiver.vertices, pi.parts))
    for s, t in quiver.arrows:
        exponent += partition_pairing(by_vertex[s], by_vertex[t])
    den: dict[int, int] = {}
    for lam in pi.parts:
        exponent -= partition_pairing(lam, lam)
        mults: dict[int, int] = {}
        for part in lam:
            mults[part] = mults.get(part, 0) + 1
        for m in mults.values():
            for j in range(1, m + 1):
                den[j] = den.get(j, 0) + 1
    return _RatQ(QPoly.q_power(exponent), tuple(den.items()))


def _hua_raw_series(quiver: Quiver, bound: int) -> dict[tuple[int, ...], _RatQ]:
    """Nonconstant coefficients of Hua's sum; the constant term is 1."""
    rank = len(quiver.vertices)
    raw: dict[tuple[int, ...], _RatQ] = {}
    for total in range(1, bound + 1):
        for d in vectors_of_total(rank, total):
            acc = None
            for combo in itertools.product(*(partitions(n) for n in d)):
                term = _hua_term(quiver, MultiPartition(combo))
                acc = term if acc is None else acc + term
            raw[d] = acc
    return raw


def _ratq_convolve(
    a: dict[tuple[int, ...], _RatQ], b: dict[tuple[int, ...], _RatQ], bound: int
) -> dict[tuple[int, ...], _RatQ]:
    out: dict[tuple[int, ...], _RatQ] = {}
    for da, va in a.items():
        for db, vb in b.items():
            if sum(da) + sum(db) > bound:
                continue
            key = tuple(x + y for x, y in zip(da, db))
            prod = va * vb
            out[key] = out[key] + prod if key in out else prod
    return out


def _ratq_pleth_log(raw: dict[tuple[int, ...], _RatQ], bound: int) -> dict[tuple[int, ...], _RatQ]:
    """Log_{q,z} of 1 + raw, with q |-> q^n inside the Adams operations."""
    ln: dict[tuple[int, ...], _RatQ] = {}
    power = dict(raw)
    sign = Fraction(1)
    for k in range(1, bound + 1):
        if k > 1:
            power = _ratq_convolve(power, raw, bound)
            sign = Fraction((-1) ** (k + 1), k)
        for key, val in power.items():
            scaled = val.scale(sign)
            ln[key] = ln[key] + scaled if key in ln else scaled
    out: dict[tuple[int, ...], _RatQ] = {}
    for n in range(1, bound + 1):
        mu = _moebius(n)
        if mu == 0:
            continue
        for key, val in ln.items():
            if sum(key) * n > bound:
                continue
            stretched = tuple(x * n for x in key)
            term = val.substitute_power(n).scale(Fraction(mu, n))
            out[stretched] = out[stretched] + term if stretched in out else term
    return out


def hua_kac(quiver: Quiver, bound: int) -> KacTable:
    """Kac polynomials A_d for all 0 < |d| <= bound via Hua's sum.

    A_d = (q - 1) * [Log_{q,z} of the sum]_d; see the module docstring for
    why the factor is q - 1.
    """
    if bound < 1:
        raise CountingError("bound must be >= 1")
    logged = _ratq_pleth_log(_hua_raw_series(quiver, bound), bound)
    factor = QPoly.q_power(1) - QPoly.one()
    table: dict[tuple[int, ...], QPoly] = {}
    for d, val in logged.items():
        poly = _RatQ(val.num * factor, val.den).to_qpoly()
        if not poly.is_zero():
            table[d] = poly
    return KacTable(quiver, bound, "plain", table)


# -- the counting oracle ----------------------------------------------------------


def _lagrange(points: list[tuple[int, Fraction]]) -> QPoly:
    coeffs = [Fraction(0)] * len(points)
    for i, (xi, yi) in enumerate(points):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            shifted = [Fraction(0)] + basis
            for k in range(len(basis)):
                shifted[k] -= xj * basis[k]
            basis = shifted
            denom *= xi - xj
        for k in range(len(basis)):
            coeffs[k] += yi * basis[k] / denom
    result = QPoly.zero()
    for k, c in enumerate(coeffs):
        if c:
            result = result + QPoly.q_power(k, c)
    return result


def _oracle_stages(
    quiver: Quiver,
    stages: list[tuple[int, ...]],
    flavour: str,
    fields: tuple[int, ...],
) -> dict[tuple[int, ...], QPoly]:
    """Peel A_e off the class-count series, one stage at a time.

    Stages must be closed downwards (componentwise) and sorted by
    (|e|, lex), so every smaller vector entering the Exp coefficient at e
    is already known.
    """
    known: dict[tuple[int, ...], QPoly] = {}
    for e in stages:
        ev = DimVector(quiver, e)
        degree_bound = 1 - euler_form(quiver, ev, ev)
        samples = max(1, degree_bound + 1)
        if samples > len(fields):
            raise CountingError(
                f"need {samples} field sizes for degree {degree_bound}, have {len(fields)}"
            )
        known_series = GradedSeries(quiver, sum(e), known)
        base = pleth_exp(known_series, PlethMode.QZ).coeff(e)
        points = []
        for v in fields[:samples]:
            m_count = brute_force_counts(quiver, ev, v, flavour)
            points.append((v, Fraction(m_count) - base.eval_at(v)))
        poly = _lagrange(points)
        if degree_bound < 0 and not poly.is_zero():
            raise CountingError(f"A_{e} should vanish (degree bound {degree_bound}): {poly}")
        known[e] = poly
    return known


def oracle_kac_table(
    quiver: Quiver,
    d: DimVector,
    flavour: str = "plain",
    fields: tuple[int, ...] = DEFAULT_FIELDS,
) -> KacTable:
    """A_e for every 0 < e <= d (componentwise), from brute-force counts."""
    if flavour not in FLAVOURS:
        raise CountingError(f"unknown flavour {flavour!r}")
    if d.is_zero() or not d.is_effective():
        raise CountingError("dimension vector must be nonzero and nonnegative")
    target = d.as_tuple()
    stages = [e for e in itertools.product(*(range(n + 1) for n in target)) if any(e)]
    stages.sort(key=lambda t: (sum(t), t))
    known = _oracle_stages(quiver, stages, flavour, fields)
    return KacTable(quiver, sum(target), flavour, known)


def oracle_kac_full(
    quiver: Quiver,
    bound: int,
    flavour: str = "plain",
    fields: tuple[int, ...] = DEFAULT_FIELDS,
) -> KacTable:
    """A_e for every 0 < |e| <= bound, from brute-force counts."""
    if flavour not in FLAVOURS:
        raise CountingError(f"unknown flavour {flavour!r}")
    if bound < 1:
        raise CountingError("bound must be >= 1")
    rank = len(quiver.vertices)
    stages = [e for total in range(1, bound + 1) for e in vectors_of_total(rank, total)]
    known = _oracle_stages(quiver, stages, flavour, fields)
    return KacTable(quiver, bound, flavour, known)


def oracle_kac(
    quiver: Quiver,
    d: DimVector,
    flavour: str = "plain",
    fields: tuple[int, ...] = DEFAULT_FIELDS,
) -> QPoly:
    """The Kac polynomial A_d recovered from finite-field class counts."""
    return oracle_kac_table(quiver, d, flavour, fields).polynomial(d)
