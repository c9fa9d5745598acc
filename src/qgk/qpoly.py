r"""
Exact Laurent polynomials in q^(1/2).

Exponents are stored as *half-exponents*: the integer k stands for
q^(k/2), so integral powers of q have even keys.  Coefficients are exact
rationals, stored as sparse integer numerators over one positive
denominator; nothing in this module (or its callers) touches floating
point.  The numerators' product _mul and sum _add_to are also those of
the Exp/Log core in series, so the package has one coefficient ring;
_pack and _unpack carry a numerator to one integer and back for the dense
products of Hua's sum and its Log.

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


def _mul(a: dict, b: dict) -> dict:
    """The product of two sparse integer polynomials {exponent: int}; zeros may stay."""
    out: dict[int, int] = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return out


def _add_to(acc: dict, poly: dict, factor: int) -> None:
    """acc += factor * poly, in place, over sparse integer polynomials."""
    for k, c in poly.items():
        acc[k] = acc.get(k, 0) + factor * c


def _pack(poly: dict, w: int) -> tuple[int, int]:
    """(lo, v) with poly = x^lo V(x) and v = V(2^w); any integer coefficients.

    This is Kronecker substitution: products and sums of polynomials run
    inside the big-integer code.  Evaluation at 2^w is a ring homomorphism,
    so sums, products and shifts of packed values are exact; w only has to
    cover the coefficients of what _unpack reads back.
    """
    if not poly:
        return 0, 0
    lo = min(poly)
    dense = [0] * (max(poly) - lo + 1)
    for k, c in poly.items():
        dense[k - lo] = c
    shift = w
    while len(dense) > 1:  # pairwise, so each round costs the size of the whole
        if len(dense) % 2:
            dense.append(0)
        dense = [a + (b << shift) for a, b in zip(dense[::2], dense[1::2])]
        shift *= 2
    return lo, dense[0]


def _unpack(lo: int, v: int, w: int) -> dict:
    """The polynomial that _pack sent to (lo, v): signed base-2^w digits of v.

    Exact whenever every coefficient c satisfies |c| < 2^(w-1).
    """
    size = 1
    while abs(v) >> (w * size - 1):
        size *= 2
    digits = [v]
    while size > 1:  # halve each block into its signed low half and the rest
        size //= 2
        shift = w * size
        mask, half = (1 << shift) - 1, 1 << (shift - 1)
        split = []
        for block in digits:
            low = ((block + half) & mask) - half
            split += (low, (block - low) >> shift)
        digits = split
    return {k: c for k, c in enumerate(digits, lo) if c}


class QPoly:
    """Sparse exact Laurent polynomial in q^(1/2).

    Stored as integer numerators keyed by half-exponent k (meaning q^(k/2))
    over one positive denominator coprime to their content, so equal
    polynomials store equal data.  A constant hashes as the Fraction it
    equals.  Instances are immutable.

        >>> QPoly({0: Fraction(2, 4)}) == QPoly.constant(Fraction(1, 2))
        True
        >>> QPoly.one() in {1}, hash(QPoly.zero()) == hash(0)
        (True, True)
    """

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs: Mapping[int, Fraction | int] | None = None):
        fracs = {int(k): Fraction(c) for k, c in (coeffs or {}).items()}
        self._den = math.lcm(*(f.denominator for f in fracs.values()))  # coprime to _num
        self._num = {k: f.numerator * (self._den // f.denominator) for k, f in fracs.items() if f}

    @classmethod
    def _of(cls, num: Mapping[int, int], den: int = 1) -> "QPoly":
        """num / den for a positive den, without zero terms, in lowest terms."""
        g = math.gcd(den, *num.values())
        out = cls.__new__(cls)
        out._num, out._den = {k: c // g for k, c in num.items() if c}, den // g
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "QPoly":
        return cls()

    @classmethod
    def one(cls) -> "QPoly":
        return cls({0: 1})

    @classmethod
    def constant(cls, c: Fraction | int) -> "QPoly":
        return cls({0: c})

    @classmethod
    def q_power(cls, exponent: int, coeff: Fraction | int = 1) -> "QPoly":
        """coeff * q^exponent (an integral power, half-exponent 2*exponent)."""
        return cls({2 * exponent: coeff})

    @classmethod
    def half_power(cls, half_exponent: int, coeff: Fraction | int = 1) -> "QPoly":
        """coeff * q^(half_exponent/2)."""
        return cls({half_exponent: coeff})

    # -- inspection ----------------------------------------------------------

    def items(self) -> list[tuple[int, Fraction]]:
        return [(k, Fraction(c, self._den)) for k, c in sorted(self._num.items())]

    def coefficient(self, half_exponent: int) -> Fraction:
        return Fraction(self._num.get(half_exponent, 0), self._den)

    def is_zero(self) -> bool:
        return not self._num

    def is_one(self) -> bool:
        return self._den == 1 and self._num == {0: 1}

    @property
    def min_half(self) -> int:
        if not self._num:
            raise QPolyError("zero polynomial has no degree")
        return min(self._num)

    @property
    def max_half(self) -> int:
        if not self._num:
            raise QPolyError("zero polynomial has no degree")
        return max(self._num)

    def degree_q(self) -> Fraction:
        """Degree as a power of q (may be a half-integer or negative)."""
        return Fraction(self.max_half, 2)

    def is_monic(self) -> bool:
        return not self.is_zero() and self._num[self.max_half] == self._den

    def has_integral_exponents(self) -> bool:
        return all(k % 2 == 0 for k in self._num)

    def has_integer_coefficients(self) -> bool:
        return self._den == 1

    def has_nonnegative_coefficients(self) -> bool:
        return all(c > 0 for c in self._num.values())

    def is_nonnegative_integer_polynomial(self) -> bool:
        """A polynomial in q with nonnegative integer coefficients; zero is one."""
        return self._den == 1 and all(k >= 0 and k % 2 == 0 and c > 0 for k, c in self._num.items())

    def __bool__(self) -> bool:
        return bool(self._num)

    # -- ring operations -------------------------------------------------------

    def __add__(self, other: "QPoly | int | Fraction") -> "QPoly":
        other = _coerce(other)
        den = math.lcm(self._den, other._den)
        acc = {k: c * (den // self._den) for k, c in self._num.items()}
        _add_to(acc, other._num, den // other._den)
        return QPoly._of(acc, den)

    __radd__ = __add__

    def __neg__(self) -> "QPoly":
        return QPoly._of({k: -c for k, c in self._num.items()}, self._den)

    def __sub__(self, other: "QPoly | int | Fraction") -> "QPoly":
        return self + (-_coerce(other))

    def __rsub__(self, other: "QPoly | int | Fraction") -> "QPoly":
        return _coerce(other) + (-self)

    def __mul__(self, other: "QPoly | int | Fraction") -> "QPoly":
        other = _coerce(other)
        return QPoly._of(_mul(self._num, other._num), self._den * other._den)

    __rmul__ = __mul__

    def divexact(self, other: "QPoly") -> "QPoly":
        """Exact division in the Laurent ring; raises if the remainder is nonzero."""
        other = _coerce(other)
        if other.is_zero():
            raise QPolyError("division by zero")
        # Long division from the top term down to the quotient's lowest, low.
        divisor, rem, quot = other.items(), dict(self.items()), {}
        (bottom, _), (top, lead) = divisor[0], divisor[-1]
        low = min(rem, default=0) - bottom
        while rem and (shift := max(rem) - top) >= low:
            quot[shift] = factor = rem[shift + top] / lead
            for k, c in divisor:
                rem[shift + k] = rem.get(shift + k, 0) - factor * c
                if not rem[shift + k]:
                    del rem[shift + k]
        if rem:
            raise QPolyError("inexact polynomial division")
        return QPoly(quot)

    # -- substitutions and evaluation -------------------------------------------

    def substitute_power(self, n: int) -> "QPoly":
        """q -> q^n, i.e. multiply every half-exponent by n (n may be negative)."""
        if n == 0:
            raise QPolyError("substitute_power with n=0 is not invertible")
        return QPoly._of({k * n: c for k, c in self._num.items()}, self._den)

    def eval_at(self, v: Fraction | int) -> Fraction:
        """Evaluate at q = v exactly, summing integers and dividing once.

        Odd half-exponents require v to have an exact rational square root.
        """
        v = Fraction(v)
        if self.has_integral_exponents():
            root, terms = v, {k // 2: c for k, c in self._num.items()}
        elif (root := _fraction_sqrt(v)) is not None:
            terms = self._num
        else:
            raise QPolyError(f"evaluation at q={v} needs a square root but {v} has none")
        # sum_e c root^e = root^lo / b^(hi - lo) * sum_e c a^(e - lo) b^(hi - e), root = a/b
        a, b = root.numerator, root.denominator
        lo, hi = min(terms, default=0), max(terms, default=0)
        if lo < 0 and not root:
            raise QPolyError(f"{self} has a pole at q = 0")
        total = sum(c * a ** (e - lo) * b ** (hi - e) for e, c in terms.items())
        return root ** lo * Fraction(total, b ** (hi - lo) * self._den)

    # -- equality -----------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = QPoly.constant(other)
        if not isinstance(other, QPoly):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        if self._num.keys() <= {0}:
            return hash(self.coefficient(0))
        return hash((frozenset(self._num.items()), self._den))

    # -- rendering ------------------------------------------------------------------

    @staticmethod
    def _render_power(k: int) -> str:
        if k % 2 == 0:
            e = k // 2
            return "q" if e == 1 else f"q^{e}"
        return f"q^({k}/2)"

    def __str__(self) -> str:
        if not self._num:
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
