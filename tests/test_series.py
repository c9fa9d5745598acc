from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import adams, series_inv

from qgk import (
    GradedSeries,
    PlethMode,
    QPoly,
    SeriesError,
    parse_qpoly,
    pleth_exp,
    pleth_log,
    series_mul,
    sym_power_coeff,
)
from qgk.qpoly import _add_to, _mul, _pack
from qgk.series import (
    _convolve,
    _kernel_bound,
    _l1,
    _moebius,
    _Packed,
    _ratio,
    _settle,
    vectors_of_total,
)

LINE = 1  # the rank of a one-variable series
PAIR = 2


def small_polys():
    coeff = st.integers(min_value=-3, max_value=3).filter(lambda n: n != 0)
    return st.dictionaries(
        st.integers(min_value=-2, max_value=2), coeff, max_size=3
    ).map(lambda d: QPoly({k: Fraction(v) for k, v in d.items()}))


def zero_constant_series(bound=4):
    keys = st.tuples(st.integers(0, bound), st.integers(0, bound)).filter(
        lambda t: 0 < sum(t) <= bound
    )
    return st.dictionaries(keys, small_polys(), max_size=4).map(
        lambda terms: GradedSeries(PAIR, bound, terms)
    )


def rational_polys():
    """Few terms, half-exponents in -3..3 (odd ones included), coefficients like 1/2 and 2/3."""
    coeff = st.sampled_from([Fraction(n, m) for n in (-5, -2, -1, 1, 2, 3) for m in (1, 2, 3, 4)])
    return st.dictionaries(st.integers(min_value=-3, max_value=3), coeff, max_size=3).map(QPoly)


def rational_series(bound=4):
    keys = st.tuples(st.integers(0, bound), st.integers(0, bound)).filter(
        lambda t: 0 < sum(t) <= bound
    )
    return st.dictionaries(keys, rational_polys(), max_size=4).map(
        lambda terms: GradedSeries(PAIR, bound, terms)
    )


def geometric(bound):
    return GradedSeries(LINE, bound, {(k,): QPoly.one() for k in range(bound + 1)})


def test_vectors_of_total_is_lex_order_at_any_rank():
    for rank in range(1, 5):
        for total in range(7):
            box = itertools.product(range(total + 1), repeat=rank)
            expected = sorted(v for v in box if sum(v) == total)
            assert list(vectors_of_total(rank, total)) == expected
    # one vertex per recursion level once overflowed the interpreter's stack
    units = list(vectors_of_total(2000, 1))
    assert len(units) == 2000
    assert all(u[1999 - k] == 1 and sum(u) == 1 for k, u in enumerate(units))
    head = list(itertools.islice(vectors_of_total(2000, 2), 3))
    assert head == [(0,) * 1999 + (2,), (0,) * 1998 + (1, 1), (0,) * 1998 + (2, 0)]


def test_series_mul_unit_and_geometric():
    one = GradedSeries.one(LINE, 5)
    f = GradedSeries(LINE, 5, {(0,): QPoly.one(), (2,): parse_qpoly("q")})
    assert series_mul(f, one) == f
    one_minus_z = GradedSeries(LINE, 5, {(0,): QPoly.one(), (1,): QPoly.constant(-1)})
    assert series_mul(one_minus_z, geometric(5)) == one


def test_series_of_different_ranks_or_bounds_do_not_combine():
    f = GradedSeries(LINE, 3, {(1,): QPoly.one()})
    for other in (GradedSeries(PAIR, 3, {(1, 0): QPoly.one()}), GradedSeries(LINE, 4)):
        for combine in (operator.add, operator.sub, series_mul):
            with pytest.raises(SeriesError):
                combine(f, other)


def test_series_keys_must_have_the_series_rank():
    for key in ((1, 0), (), (-1,)):
        with pytest.raises(SeriesError, match="bad series key"):
            GradedSeries(LINE, 3, {key: QPoly.one()})


def test_series_inv():
    assert series_inv(GradedSeries.one(LINE, 4)) == GradedSeries.one(LINE, 4)
    one_minus_z = GradedSeries(LINE, 4, {(0,): QPoly.one(), (1,): QPoly.constant(-1)})
    assert series_inv(one_minus_z) == geometric(4)
    with pytest.raises(SeriesError):
        series_inv(GradedSeries(LINE, 4))
    half = GradedSeries(LINE, 2, {(0,): QPoly.constant(Fraction(1, 2))})
    assert series_inv(half).constant_term() == QPoly.constant(2)


def test_pleth_exp_geometric_examples():
    z = GradedSeries(LINE, 5, {(1,): QPoly.one()})
    assert pleth_exp(z, PlethMode.Z_ONLY) == geometric(5)
    qz = GradedSeries(LINE, 5, {(1,): parse_qpoly("q")})
    expected = GradedSeries(
        LINE, 5, {(k,): QPoly.q_power(k) for k in range(6)}
    )
    assert pleth_exp(qz, PlethMode.QZ) == expected


def test_pleth_exp_mode_difference():
    qz = GradedSeries(LINE, 2, {(1,): parse_qpoly("q")})
    z_only = pleth_exp(qz, PlethMode.Z_ONLY)
    assert z_only.coeff((2,)) == parse_qpoly("1/2*q + 1/2*q^2")
    assert pleth_exp(qz, PlethMode.QZ).coeff((2,)) == parse_qpoly("q^2")


def test_exp_requires_zero_constant_and_log_requires_one():
    with pytest.raises(SeriesError):
        pleth_exp(GradedSeries.one(LINE, 3), PlethMode.QZ)
    with pytest.raises(SeriesError):
        pleth_log(GradedSeries(LINE, 3), PlethMode.QZ)


def test_adams_composition():
    f = GradedSeries(LINE, 8, {(1,): parse_qpoly("q + q^-1"), (2,): parse_qpoly("q^2")})
    for mode in (PlethMode.Z_ONLY, PlethMode.QZ):
        for n, m in [(2, 2), (2, 3), (3, 2)]:
            assert adams(adams(f, n, mode), m, mode) == adams(f, n * m, mode)


def test_sym_power_coeff_examples():
    p = parse_qpoly("q")
    assert sym_power_coeff(p, 0) == QPoly.one()
    assert sym_power_coeff(p, 1) == p
    assert sym_power_coeff(p, 2) == parse_qpoly("q^2")
    assert sym_power_coeff(parse_qpoly("q^-2"), 2) == parse_qpoly("q^-4")
    two = QPoly.constant(2)
    assert sym_power_coeff(two, 2) == QPoly.constant(3)


@settings(max_examples=100, derandomize=True)
@given(zero_constant_series())
def test_exp_log_inverse_both_modes(f):
    for mode in (PlethMode.Z_ONLY, PlethMode.QZ):
        g = pleth_exp(f, mode)
        assert pleth_log(g, mode) == f
        assert pleth_exp(pleth_log(g, mode), mode) == g


@settings(max_examples=100, derandomize=True)
@given(zero_constant_series(), zero_constant_series())
def test_exp_additivity_both_modes(f, g):
    for mode in (PlethMode.Z_ONLY, PlethMode.QZ):
        assert pleth_exp(f + g, mode) == series_mul(pleth_exp(f, mode), pleth_exp(g, mode))


@settings(max_examples=100, derandomize=True)
@given(
    st.dictionaries(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=1, max_value=3),
        min_size=1,
        max_size=2,
    )
)
def test_single_term_exp_positivity(coeffs):
    c = QPoly({2 * k: Fraction(v) for k, v in coeffs.items()})
    f = GradedSeries(LINE, 4, {(1,): c})
    g = pleth_exp(f, PlethMode.QZ)
    for _, poly in g.items():
        assert poly.has_integer_coefficients()
        assert poly.has_nonnegative_coefficients()


# -- the reference: Exp/Log over QPoly Fractions, and Newton's identity -------------


def _by_degree(terms, bound):
    levels = [{} for _ in range(bound + 1)]
    for key, poly in terms.items():
        levels[sum(key)][key] = poly
    return levels


def _add_product(out, a, b, total):
    """Add the degree-total part of a * b, both bucketed by degree, into out."""
    for size in range(total + 1):
        for e, p in a[size].items():
            for f, r in b[total - size].items():
                key = tuple(x + y for x, y in zip(e, f))
                out[key] = out[key] + p * r if key in out else p * r
    return out


def _exp_truncated(s):
    """exp(s), degree by degree: |d| E_d = sum_{0<e<=d} |e| s_e E_{d-e}."""
    euler = _by_degree({e: p * sum(e) for e, p in s.items()}, s.bound)
    exp = _by_degree({(0,) * s.rank: QPoly.one()}, s.bound)
    for total in range(1, s.bound + 1):
        level = _add_product({}, euler, exp, total)
        exp[total] = {d: p * Fraction(1, total) for d, p in level.items() if p}
    return GradedSeries(s.rank, s.bound, {d: p for level in exp for d, p in level.items()})


def _log_truncated(g):
    """log(g), degree by degree: |d| L_d = |d| h_d - sum_{0<e<d} |e| L_e h_{d-e}, h = g - 1."""
    minus_h = _by_degree({d: -p for d, p in g.items() if any(d)}, g.bound)
    euler = [{} for _ in range(g.bound + 1)]  # |d| L_d
    for total in range(1, g.bound + 1):
        level = {d: p * -total for d, p in minus_h[total].items()}
        euler[total] = {d: p for d, p in _add_product(level, euler, minus_h, total).items() if p}
    log = {d: p * Fraction(1, sum(d)) for level in euler for d, p in level.items()}
    return GradedSeries(g.rank, g.bound, log)


def _times(f, c):
    return GradedSeries(f.rank, f.bound, {d: p * c for d, p in f.items()})


def reference_pleth_exp(f, mode):
    total = GradedSeries(f.rank, f.bound)
    for n in range(1, f.bound + 1):
        total = total + _times(adams(f, n, mode), Fraction(1, n))
    return _exp_truncated(total)


def reference_pleth_log(g, mode):
    log = _log_truncated(g)
    result = GradedSeries(g.rank, g.bound)
    for n in range(1, g.bound + 1):
        result = result + _times(adams(log, n, mode), Fraction(_moebius(n), n))
    return result


def newton_sym_powers(p, m):
    """[u^0..u^m] Exp_{t,u}(p(t) u) by Newton: n h_n = sum_{k=1}^n p(t^k) h_{n-k}."""
    h = [QPoly.one()]
    for n in range(1, m + 1):
        terms = (p.substitute_power(k) * h[n - k] for k in range(1, n + 1))
        h.append(sum(terms, QPoly.zero()) * Fraction(1, n))
    return h


@settings(max_examples=100, derandomize=True)
@given(rational_series())
def test_exp_log_match_the_fraction_reference(f):
    g = f + GradedSeries.one(PAIR, f.bound)
    for mode in (PlethMode.Z_ONLY, PlethMode.QZ):
        assert pleth_exp(f, mode) == reference_pleth_exp(f, mode)
        assert pleth_log(g, mode) == reference_pleth_log(g, mode)


@settings(max_examples=100, derandomize=True)
@given(rational_polys(), st.integers(min_value=0, max_value=5))
def test_sym_power_coeff_matches_newton(p, m):
    assert sym_power_coeff(p, m) == newton_sym_powers(p, m)[m]


def sparse_kernel_convolve(pairs, sign, start, divisor):
    """_convolve under the q-factorial kernel, one sparse product per pair and Gaussian binomial."""
    den = math.lcm(start[0], *(a[0] * b[0] for a, b in pairs))
    acc = {d: {k: c * (den // start[0]) for k, c in poly.items()} for d, poly in start[1].items()}
    for (a_den, a), (b_den, b) in pairs:
        factor = sign * (den // (a_den * b_den))
        for e, p in a.items():
            for f, r in b.items():
                d = tuple(map(operator.add, e, f))
                for n, k in zip(d, e):  # [n choose k]_t
                    r = _mul(r, _ratio({0: 1}, range(1, n + 1), [*range(1, k + 1), *range(1, n - k + 1)]))
                _add_to(acc.setdefault(d, {}), _mul(p, r), factor)
    return _settle(acc, divisor * den)


@st.composite
def convolution_levels(draw):
    """(pairs, sign, start, divisor) for one level of total t over rank 3, with random numerators."""
    poly = st.dictionaries(
        st.integers(-4, 6), st.integers(-(2**40), 2**40).filter(bool), min_size=1, max_size=5
    )

    def level(total):
        keys = st.sampled_from(list(vectors_of_total(3, total)))
        return draw(st.integers(1, 6)), draw(st.dictionaries(keys, poly, max_size=3))

    total = draw(st.integers(2, 6))
    pairs = [(level(s), level(total - s)) for s in range(1, total)]
    return pairs, draw(st.sampled_from([1, -1])), level(total), draw(st.integers(1, 4))


@settings(max_examples=100, derandomize=True)
@given(convolution_levels())
def test_packed_kernel_convolve_matches_the_sparse_loop(case):
    pairs, sign, start, divisor = case
    kernel_pairs = [((a_den, _Packed(a)), (b_den, _Packed(b))) for (a_den, a), (b_den, b) in pairs]
    kernel_start = (start[0], _Packed(start[1]))
    den, level = _convolve(kernel_pairs, sign, kernel_start, divisor=divisor, qfactorial=True)
    assert (den, level.terms) == sparse_kernel_convolve(pairs, sign, start, divisor)
    # the level comes back packed at the width it was summed at, as _pack packs
    # it, whatever content settling cancelled
    ((w, packing),) = level._at.items()
    assert packing == [(e, *_pack(p, w)) for e, p in level.terms.items()]


@st.composite
def full_levels(draw):
    """(pairs, start) for one level of total t over rank 3, each level full.

    Every vector of a level carries the same polynomial, with positive coefficients.
    """
    poly = st.dictionaries(st.integers(-4, 6), st.integers(1, 2**40), min_size=1, max_size=5)

    def level(total):
        return dict.fromkeys(vectors_of_total(3, total), draw(poly))

    total = draw(st.integers(2, 6))
    return [(level(s), level(total - s)) for s in range(1, total)], level(total)


@settings(max_examples=50, derandomize=True)
@given(full_levels())
def test_kernel_bound_is_the_largest_l1_norm_of_a_result(case):
    # nonnegative operands cancel nothing, and on full levels every d meets each
    # pair C(|d|, s) times (Vandermonde), so the bound is attained at every d
    pairs, start = case
    _, result = sparse_kernel_convolve([((1, a), (1, b)) for a, b in pairs], 1, (1, start), 1)
    bound = _kernel_bound([(1, _Packed(a), _Packed(b)) for a, b in pairs], 1, _Packed(start))
    assert {_l1(poly) for poly in result.values()} == {bound}
