from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgk import QPoly, QPolyError, parse_qpoly
from qgk.qpoly import _mul, _pack, _unpack


def qpolys(min_half=-6, max_half=6, max_terms=4):
    coeff = st.fractions(
        min_value=-5, max_value=5, max_denominator=4
    ).filter(lambda f: f != 0)
    return st.dictionaries(
        st.integers(min_value=min_half, max_value=max_half), coeff, max_size=max_terms
    ).map(QPoly)


def test_construction_drops_zeros():
    p = QPoly({2: Fraction(0), 0: 1})
    assert p == QPoly.one()
    assert list(p.items()) == [(0, Fraction(1))]


def test_min_max_degree():
    p = parse_qpoly("q^-1 + 2 + q^2")
    assert p.min_half == -2
    assert p.max_half == 4
    assert p.degree_q() == 2
    assert p.coefficient(p.max_half) == 1
    assert p.is_monic()


def test_substitute_power_examples():
    p = parse_qpoly("q + q^-1")
    assert p.substitute_power(2) == parse_qpoly("q^2 + q^-2")
    assert p.substitute_power(1) == p
    assert p.substitute_power(-1) == p


def test_eval_at_examples():
    assert parse_qpoly("q^2 + q").eval_at(2) == 6
    assert parse_qpoly("q^(1/2)").eval_at(4) == 2
    assert parse_qpoly("q^(1/2)").eval_at(Fraction(9, 4)) == Fraction(3, 2)
    assert parse_qpoly("q^-1 + 1/3*q").eval_at(Fraction(1, 2)) == Fraction(13, 6)
    assert parse_qpoly("q^-2 + q^(-3/2)").eval_at(Fraction(1, 4)) == 24
    with pytest.raises(QPolyError):
        parse_qpoly("q^(1/2)").eval_at(2)
    assert parse_qpoly("q^2 + 3").eval_at(0) == 3
    with pytest.raises(QPolyError, match="pole at q = 0"):
        QPoly.q_power(-1).eval_at(0)
    with pytest.raises(QPolyError, match="pole at q = 0"):
        parse_qpoly("q^(-1/2) + 1").eval_at(0)


def test_divexact():
    p = parse_qpoly("q^2 + 2*q + 1")
    d = parse_qpoly("q + 1")
    assert p.divexact(d) == d
    with pytest.raises(QPolyError):
        parse_qpoly("q^2 + 1").divexact(parse_qpoly("q + 1"))
    with pytest.raises(QPolyError):
        p.divexact(QPoly.zero())


def test_divexact_with_laurent_tails():
    p = parse_qpoly("q^-1 + 2 + q")
    d = parse_qpoly("q^(-1/2) + q^(1/2)")
    assert p.divexact(d) == d


def test_render_grammar():
    assert str(parse_qpoly("q^-1 + 2 + q")) == "q^-1 + 2 + q"
    assert str(QPoly.zero()) == "0"
    assert str(QPoly.half_power(1)) == "q^(1/2)"
    assert str(QPoly.half_power(-3, Fraction(1, 2))) == "1/2*q^(-3/2)"
    assert str(parse_qpoly("-q + 3")) == "3 - q"


def test_flag_methods():
    assert parse_qpoly("1 + q").has_integer_coefficients()
    assert parse_qpoly("1 + q").has_nonnegative_coefficients()
    assert not parse_qpoly("1 - q").has_nonnegative_coefficients()
    assert parse_qpoly("q^2").has_integral_exponents()
    assert not QPoly.half_power(1).has_integral_exponents()
    assert not parse_qpoly("1/2*q").has_integer_coefficients()
    assert QPoly.zero().is_nonnegative_integer_polynomial()
    assert parse_qpoly("1 + q").is_nonnegative_integer_polynomial()
    for text in ("q^-1", "1/2*q", "q^(1/2)", "-q"):
        assert not parse_qpoly(text).is_nonnegative_integer_polynomial(), text


@settings(max_examples=100, derandomize=True)
@given(qpolys(), qpolys(), qpolys())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert a - a == QPoly.zero()
    assert a * QPoly.one() == a
    assert hash(a + b - b) == hash(a)
    for p in (a, a + b, a * b, -c, a * Fraction(2, 3)):
        assert p._den > 0 and math.gcd(p._den, *p._num.values()) == 1


@settings(max_examples=100, derandomize=True)
@given(qpolys(), st.integers(min_value=-3, max_value=3).filter(lambda n: n != 0))
def test_substitute_power_is_multiplicative(p, n):
    assert p.substitute_power(n).substitute_power(1) == p.substitute_power(n)
    q = p * p
    assert q.substitute_power(n) == p.substitute_power(n) * p.substitute_power(n)


@settings(max_examples=100, derandomize=True)
@given(qpolys())
def test_text_and_json_round_trips(p):
    assert parse_qpoly(str(p)) == p
    assert QPoly.from_json_dict({str(k): str(c) for k, c in p.items()}) == p


@settings(max_examples=100, derandomize=True)
@given(qpolys(), qpolys().filter(lambda p: not p.is_zero()))
def test_divexact_inverts_multiplication(a, b):
    assert (a * b).divexact(b) == a


@st.composite
def packable(draw):
    """(poly, w): a sparse Laurent polynomial with every |c| < 2^(w-1), at times exactly 2^(w-1) - 1."""
    w = draw(st.integers(min_value=2, max_value=70))
    top = (1 << (w - 1)) - 1
    coeff = st.one_of(st.sampled_from([top, -top]), st.integers(-top, top)).filter(bool)
    return draw(st.dictionaries(st.integers(-40, 40), coeff, max_size=12)), w


@settings(max_examples=200, derandomize=True)
@given(packable())
def test_unpack_inverts_pack(case):
    poly, w = case
    assert _unpack(*_pack(poly, w), w) == poly


@settings(max_examples=100, derandomize=True)
@given(packable(), packable())
def test_packing_is_a_ring_homomorphism(a, b):
    (a, wa), (b, wb) = a, b
    w = wa + wb + 4  # |c| < 12 * 2^(wa-1) * 2^(wb-1) for every coefficient c of a * b
    (a_lo, a_v), (b_lo, b_v) = _pack(a, w), _pack(b, w)
    product = {k: c for k, c in _mul(a, b).items() if c}
    assert _unpack(a_lo + b_lo, a_v * b_v, w) == product


def test_pack_takes_any_coefficient():
    # packing is evaluation at 2^w, exact for any size and sign
    assert _pack({-2: 5, 0: -(1 << 40)}, 3) == (-2, 5 - (1 << 46))
    assert _pack({}, 8) == (0, 0)
    assert _unpack(0, 0, 8) == {}
    # below the width, the digits carry into each other
    assert _unpack(*_pack({0: 8}, 4), 4) == {0: -8, 1: 1}
