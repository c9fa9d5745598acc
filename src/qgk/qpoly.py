r"""
Exact Laurent polynomials in q^(1/2).

Exponents are stored as *half-exponents*: the integer k stands for
q^(k/2), so integral powers of q have even keys.  Coefficients are exact
rationals; nothing in this module (or its callers) touches floating
point.

    >>> p = QPoly.q_power(-1) + QPoly.constant(2) + QPoly.q_power(1)
    >>> str(p)
    'q^-1 + 2 + q'
    >>> str(p.substitute_power(2))
    'q^-2 + 2 + q^2'
    >>> p.eval_at(2)
    Fraction(9, 2)
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Mapping


class QPolyError(ValueError):
    pass


def _fraction_sqrt(v: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None."""
    if v < 0:
        return None
    num, den = v.numerator, v.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


class QPoly:
    """Sparse exact Laurent polynomial in q^(1/2).

    The internal map sends half-exponent k (an int, meaning q^(k/2)) to a
    nonzero Fraction.  Instances are immutable.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, Fraction | int] | None = None):
        clean: dict[int, Fraction] = {}
        if coeffs:
            for k, c in coeffs.items():
                c = Fraction(c)
                if c != 0:
                    clean[int(k)] = c
        self._coeffs = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "QPoly":
        return cls()

    @classmethod
    def one(cls) -> "QPoly":
        return cls({0: 1})

    @classmethod
    def constant(cls, c: Fraction | int) -> "QPoly":
        return cls({0: Fraction(c)})

    @classmethod
    def q_power(cls, exponent: int, coeff: Fraction | int = 1) -> "QPoly":
        """coeff * q^exponent (an integral power, half-exponent 2*exponent)."""
        return cls({2 * exponent: Fraction(coeff)})

    @classmethod
    def half_power(cls, half_exponent: int, coeff: Fraction | int = 1) -> "QPoly":
        """coeff * q^(half_exponent/2)."""
        return cls({half_exponent: Fraction(coeff)})

    # -- inspection ----------------------------------------------------------

    def items(self):
        return sorted(self._coeffs.items())

    def coefficient(self, half_exponent: int) -> Fraction:
        return self._coeffs.get(half_exponent, Fraction(0))

    def is_zero(self) -> bool:
        return not self._coeffs

    def is_one(self) -> bool:
        return self._coeffs == {0: Fraction(1)}

    @property
    def min_half(self) -> int:
        if not self._coeffs:
            raise QPolyError("zero polynomial has no degree")
        return min(self._coeffs)

    @property
    def max_half(self) -> int:
        if not self._coeffs:
            raise QPolyError("zero polynomial has no degree")
        return max(self._coeffs)

    def degree_q(self) -> Fraction:
        """Degree as a power of q (may be a half-integer or negative)."""
        return Fraction(self.max_half, 2)

    def leading_coefficient(self) -> Fraction:
        return self._coeffs[self.max_half]

    def is_monic(self) -> bool:
        return not self.is_zero() and self.leading_coefficient() == 1

    def has_integral_exponents(self) -> bool:
        return all(k % 2 == 0 for k in self._coeffs)

    def has_integer_coefficients(self) -> bool:
        return all(c.denominator == 1 for c in self._coeffs.values())

    def has_nonnegative_coefficients(self) -> bool:
        return all(c > 0 for c in self._coeffs.values())

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    # -- ring operations -------------------------------------------------------

    def __add__(self, other: "QPoly | int | Fraction") -> "QPoly":
        other = _coerce(other)
        out = dict(self._coeffs)
        for k, c in other._coeffs.items():
            s = out.get(k, Fraction(0)) + c
            if s == 0:
                out.pop(k, None)
            else:
                out[k] = s
        return QPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "QPoly":
        return QPoly({k: -c for k, c in self._coeffs.items()})

    def __sub__(self, other: "QPoly | int | Fraction") -> "QPoly":
        return self + (-_coerce(other))

    def __rsub__(self, other: "QPoly | int | Fraction") -> "QPoly":
        return _coerce(other) + (-self)

    def __mul__(self, other: "QPoly | int | Fraction") -> "QPoly":
        other = _coerce(other)
        out: dict[int, Fraction] = {}
        for k1, c1 in self._coeffs.items():
            for k2, c2 in other._coeffs.items():
                k = k1 + k2
                s = out.get(k, Fraction(0)) + c1 * c2
                if s == 0:
                    out.pop(k, None)
                else:
                    out[k] = s
        return QPoly(out)

    __rmul__ = __mul__

    def scale(self, c: Fraction | int) -> "QPoly":
        c = Fraction(c)
        return QPoly({k: v * c for k, v in self._coeffs.items()})

    def divexact(self, other: "QPoly") -> "QPoly":
        """Exact division in the Laurent ring; raises if the remainder is nonzero."""
        other = _coerce(other)
        if other.is_zero():
            raise QPolyError("division by zero")
        if self.is_zero():
            return QPoly.zero()
        # Shift both to ordinary polynomials in the variable q^(1/2).
        shift = self.min_half - other.min_half
        num = {k - self.min_half: c for k, c in self._coeffs.items()}
        den = {k - other.min_half: c for k, c in other._coeffs.items()}
        dn = max(den)
        lead = den[dn]
        quot: dict[int, Fraction] = {}
        rem = dict(num)
        while rem and max(rem) >= dn:
            top = max(rem)
            factor = rem[top] / lead
            quot[top - dn] = factor
            for k, c in den.items():
                kk = top - dn + k
                s = rem.get(kk, Fraction(0)) - factor * c
                if s == 0:
                    rem.pop(kk, None)
                else:
                    rem[kk] = s
        if rem:
            raise QPolyError("inexact polynomial division")
        return QPoly({k + shift: c for k, c in quot.items()})

    # -- substitutions and evaluation -------------------------------------------

    def substitute_power(self, n: int) -> "QPoly":
        """q -> q^n, i.e. multiply every half-exponent by n (n may be negative)."""
        if n == 0:
            raise QPolyError("substitute_power with n=0 is not invertible")
        return QPoly({k * n: c for k, c in self._coeffs.items()})

    def eval_at(self, v: Fraction | int) -> Fraction:
        """Evaluate at q = v exactly.

        Odd half-exponents require v to have an exact rational square root.
        """
        v = Fraction(v)
        root: Fraction | None = None
        if any(k % 2 for k in self._coeffs):
            root = _fraction_sqrt(v)
            if root is None:
                raise QPolyError(
                    f"evaluation at q={v} needs a square root but {v} has none"
                )
        total = Fraction(0)
        for k, c in self._coeffs.items():
            if k % 2 == 0:
                e = k // 2
                total += c * (v ** e if e >= 0 else Fraction(1) / (v ** (-e)))
            else:
                assert root is not None
                total += c * (root ** k if k >= 0 else Fraction(1) / (root ** (-k)))
        return total

    # -- equality -----------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = QPoly.constant(other)
        if not isinstance(other, QPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    # -- rendering ------------------------------------------------------------------

    @staticmethod
    def _render_power(k: int) -> str:
        if k % 2 == 0:
            e = k // 2
            return "q" if e == 1 else f"q^{e}"
        return f"q^({k}/2)"

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts: list[str] = []
        for k, c in self.items():
            neg = c < 0
            a = -c if neg else c
            if k == 0:
                body = str(a)
            elif a == 1:
                body = self._render_power(k)
            else:
                body = f"{a}*{self._render_power(k)}"
            if not parts:
                parts.append(("-" if neg else "") + body)
            else:
                parts.append(("- " if neg else "+ ") + body)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"QPoly({str(self)!r})"

    def to_json_dict(self) -> dict[str, str]:
        """Map half-exponent (as decimal string) to coefficient string."""
        return {str(k): str(c) for k, c in self.items()}

    @classmethod
    def from_json_dict(cls, data: Mapping[str, str]) -> "QPoly":
        try:
            return cls({int(k): Fraction(str(c)) for k, c in data.items()})
        except (ValueError, ZeroDivisionError) as exc:
            raise QPolyError(f"bad polynomial JSON: {exc}") from None


_TERM_RE = re.compile(
    r"^(?:(?P<coeff>-?\d+(?:/\d+)?)\*)?"
    r"(?:q(?:\^(?:(?P<int>-?\d+)|\((?P<half>-?\d+)/2\)))?)$"
)


def parse_qpoly(text: str) -> QPoly:
    """Parse the rendering produced by str(QPoly).

    Accepts e.g. '0', 'q^-1 + 2 + q', '3/2*q^(1/2) - q^2'.
    """
    s = text.strip()
    if s == "0":
        return QPoly.zero()
    s = s.replace(" - ", " + -")
    total = QPoly.zero()
    for raw in s.split(" + "):
        term = raw.strip()
        sign = 1
        if term.startswith("-"):
            sign = -1
            term = term[1:].strip()
        m = _TERM_RE.match(term)
        if m and "q" in term:
            coeff = Fraction(m.group("coeff")) if m.group("coeff") else Fraction(1)
            if m.group("half") is not None:
                k = int(m.group("half"))
            elif m.group("int") is not None:
                k = 2 * int(m.group("int"))
            else:
                k = 2
            total = total + QPoly.half_power(k, sign * coeff)
        else:
            try:
                total = total + QPoly.constant(sign * Fraction(term))
            except (ValueError, ZeroDivisionError):
                raise QPolyError(f"cannot parse polynomial term {raw!r}") from None
    return total


def _coerce(value: "QPoly | int | Fraction") -> QPoly:
    if isinstance(value, QPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return QPoly.constant(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to QPoly")
