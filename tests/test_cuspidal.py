from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest
from test_gkm import character_at

from qgk import (
    CartanDatum,
    CuspidalError,
    CuspidalTable,
    DimVector,
    GradedSeries,
    QPoly,
    Quiver,
    absolutely_cuspidal,
    absolutely_cuspidal_from_kac,
    cuspidal_from_abs,
    euler_form,
    hua_kac,
    invert_character,
    ip_general,
    ip_polynomial,
    ip_table,
)
from qgk._presented import GkmEngine
from qgk.series import vectors_up_to

Q = QPoly.q_power
ONE = QPoly.one()


def _necklace_polynomial(l: int) -> QPoly:
    """(1/l) sum_{d | l} phi(d) q^{l/d}: counts necklaces, the expected C_l."""
    out = QPoly.zero()
    for d in range(1, l + 1):
        if l % d:
            continue
        phi = sum(1 for k in range(1, d + 1) if gcd(k, d) == 1)
        out = out + Q(l // d, Fraction(phi, l))
    return out


# -- character inversion ---------------------------------------------------------


def test_invert_character_a2(a2):
    cartan = CartanDatum.from_quiver(a2)
    target = GradedSeries(a2, 3, {(1, 0): ONE, (0, 1): ONE, (1, 1): ONE})
    weights = invert_character(cartan, target)
    assert weights.table == {(1, 0): ONE, (0, 1): ONE}


def test_invert_character_kronecker(kronecker):
    cartan = CartanDatum.from_quiver(kronecker)
    target = hua_kac(kronecker, 4).to_series()
    weights = invert_character(cartan, target)
    assert weights.table == {
        (1, 0): ONE,
        (0, 1): ONE,
        (1, 1): Q(1),
        (2, 2): Q(1),
    }


def test_invert_character_rejects_deficit_off_roots(a2):
    cartan = CartanDatum.from_quiver(a2)
    target = GradedSeries(a2, 2, {(1, 0): ONE, (0, 1): ONE, (2, 0): ONE})
    with pytest.raises(CuspidalError):
        invert_character(cartan, target)


def test_invert_character_rejects_bad_deficits(kronecker):
    cartan = CartanDatum.from_quiver(kronecker)
    units = {(1, 0): ONE, (0, 1): ONE}
    # the units already generate [e0, e1] at (1,1); deficit -1 there
    target = GradedSeries(kronecker, 2, {**units, (1, 1): QPoly.zero()})
    with pytest.raises(CuspidalError):
        invert_character(cartan, target)
    target = GradedSeries(kronecker, 2, {**units, (1, 1): ONE + Q(1, Fraction(1, 2))})
    with pytest.raises(CuspidalError):
        invert_character(cartan, target)
    target = GradedSeries(kronecker, 2, {**units, (1, 1): ONE + QPoly.half_power(1)})
    with pytest.raises(CuspidalError):
        invert_character(cartan, target)


def _presented_inversion(cartan, target, bound):
    """Peel target against the character of the presented algebra so far."""
    engine = GkmEngine(cartan, bound)
    weights = {}
    for d in vectors_up_to(cartan.rank, bound):
        if not any(d):
            continue
        deficit = target.coeff(d) - character_at(engine, d)
        if not deficit.is_zero():
            engine.add_generators(d, deficit)
            weights[d] = deficit
    return weights


def _quiver(rank, arrows):
    return Quiver([str(v) for v in range(rank)], [(str(s), str(t)) for s, t in arrows])


INVERSION_QUIVERS = {
    "kronecker": (_quiver(2, [(0, 1), (0, 1)]), 8),
    "jordan": (_quiver(1, [(0, 0)]), 10),
    "two-loop": (_quiver(1, [(0, 0), (0, 0)]), 7),
    "a2": (_quiver(2, [(0, 1)]), 5),
    "3-cycle": (_quiver(3, [(0, 1), (1, 2), (2, 0)]), 6),
    "affine-d4": (_quiver(5, [(1, 0), (2, 0), (3, 0), (4, 0)]), 4),
    "loop-plus-leg": (_quiver(2, [(0, 0), (0, 1)]), 7),
    "three-loop": (_quiver(1, [(0, 0)] * 3), 5),
    "3-arrow-kronecker": (_quiver(2, [(0, 1)] * 3), 7),
    "a3": (_quiver(3, [(0, 1), (1, 2)]), 5),
    "jordan-plus-two-legs": (_quiver(3, [(0, 0), (0, 1), (0, 2)]), 5),
}


@pytest.mark.parametrize("name", INVERSION_QUIVERS)
def test_inversion_matches_the_presented_algebra(name):
    quiver, bound = INVERSION_QUIVERS[name]
    cartan = CartanDatum.from_quiver(quiver)
    target = hua_kac(quiver, bound).to_series()
    weights = invert_character(cartan, target)
    assert weights.table == _presented_inversion(cartan, target, bound)
    assert weights.table


def test_kronecker_cabs_closed_form():
    kronecker = _quiver(2, [(0, 1), (0, 1)])
    table = absolutely_cuspidal_from_kac(hua_kac(kronecker, 12))
    expected = {(1, 0): ONE, (0, 1): ONE, **{(k, k): Q(1) for k in range(1, 7)}}
    assert table.table == expected


# -- absolutely cuspidal tables ----------------------------------------------------


def test_abs_cuspidal_jordan_line(jordan):
    table = absolutely_cuspidal(jordan, 5)
    assert table.absolute
    for l in range(1, 6):
        assert table.polynomial((l,)) == Q(1)


def test_abs_cuspidal_kronecker(kronecker):
    table = absolutely_cuspidal(kronecker, 6)
    assert table.polynomial((1, 0)) == ONE
    assert table.polynomial((0, 1)) == ONE
    for l in (1, 2, 3):
        assert table.polynomial((l, l)) == Q(1)
    # non-simple real roots are bracket-generated: no deficit there
    for real in ((2, 1), (1, 2), (3, 2), (2, 3)):
        assert table.polynomial(real).is_zero()
    assert table.polynomial((2, 0)).is_zero()
    assert table.polynomial((3, 1)).is_zero()


def test_abs_cuspidal_a2_units_only(a2):
    table = absolutely_cuspidal(a2, 4)
    assert dict(table.items()) == {(1, 0): ONE, (0, 1): ONE}


def test_abs_cuspidal_g2_shape(g2loop):
    table = absolutely_cuspidal(g2loop, 4)
    assert table.polynomial((1,)) == Q(2)
    for d in range(1, 5):
        poly = table.polynomial((d,))
        dv = DimVector(g2loop, (d,))
        assert poly.is_monic()
        assert poly.degree_q() == 1 - euler_form(g2loop, dv, dv)
        assert poly.has_nonnegative_coefficients()


def test_abs_cuspidal_nilpotent_jordan(jordan):
    table = absolutely_cuspidal(jordan, 3, "nilpotent")
    for l in (1, 2, 3):
        assert table.polynomial((l,)) == ONE


# -- cuspidal from absolutely cuspidal ----------------------------------------------


def test_cuspidal_jordan_matches_necklace_counts(jordan):
    cusp = cuspidal_from_abs(absolutely_cuspidal(jordan, 5))
    assert not cusp.absolute
    for l in range(1, 6):
        assert cusp.polynomial((l,)) == _necklace_polynomial(l)


def test_cuspidal_kronecker_ray(kronecker):
    cusp = cuspidal_from_abs(absolutely_cuspidal(kronecker, 6))
    for l in (1, 2, 3):
        assert cusp.polynomial((l, l)) == _necklace_polynomial(l)
    assert cusp.polynomial((1, 0)) == ONE
    assert cusp.polynomial((0, 1)) == ONE
    assert cusp.polynomial((2, 1)).is_zero()


def test_cuspidal_hyperbolic_passthrough(g2loop):
    table = absolutely_cuspidal(g2loop, 4)
    cusp = cuspidal_from_abs(table)
    assert cusp.table == table.table


def test_cuspidal_nilpotent_ray_is_constant(jordan):
    cusp = cuspidal_from_abs(absolutely_cuspidal(jordan, 3, "nilpotent"))
    for l in (1, 2, 3):
        assert cusp.polynomial((l,)) == ONE


def test_cuspidal_from_abs_rejects_non_absolute(jordan):
    cusp = cuspidal_from_abs(absolutely_cuspidal(jordan, 2))
    with pytest.raises(CuspidalError):
        cuspidal_from_abs(cusp)


# -- table validation ----------------------------------------------------------------


def test_table_validation(jordan):
    with pytest.raises(CuspidalError):
        CuspidalTable(jordan, 1, "plain", True, {(1,): Q(1) - ONE})
    with pytest.raises(CuspidalError):
        CuspidalTable(jordan, 1, "plain", True, {(1,): QPoly.half_power(1)})
    with pytest.raises(CuspidalError):
        CuspidalTable(jordan, 1, "plain", True, {(1,): Q(1, Fraction(1, 2))})
    # integer valued, not integer coefficients, is what a non-absolute entry needs
    CuspidalTable(jordan, 2, "plain", False, {(2,): Q(2, Fraction(1, 2)) + Q(1, Fraction(1, 2))})
    with pytest.raises(CuspidalError):
        CuspidalTable(jordan, 1, "plain", False, {(1,): Q(1, Fraction(1, 2))})
    with pytest.raises(CuspidalError):
        CuspidalTable(jordan, 1, "plain", False, {(1,): Q(-1) + ONE})


def _falling(shifts, denominator):
    poly = ONE
    for a in shifts:
        poly = poly * (Q(1) - QPoly.constant(a))
    return poly.scale(Fraction(1, denominator))


def test_integer_valued_check_is_exact(jordan):
    # binomial(q, 5) is integer valued everywhere
    CuspidalTable(jordan, 5, "plain", False, {(5,): _falling(range(5), 120)})
    # vanishes at q = 2..6, so it is integral at 2..5, but equals -1/2 at q = 1
    bad = _falling(range(2, 7), 240)
    assert bad.degree_q() == 5
    assert all(bad.eval_at(v).denominator == 1 for v in (2, 3, 4, 5))
    assert bad.eval_at(1) == Fraction(-1, 2)
    with pytest.raises(CuspidalError, match="integer valued"):
        CuspidalTable(jordan, 5, "plain", False, {(5,): bad})


# -- IP polynomials -------------------------------------------------------------------


def test_ip_polynomial_reference_values(jordan, kronecker, g2loop):
    assert ip_polynomial(jordan, (1,)) == Q(-2)
    assert ip_polynomial(kronecker, (1, 1)) == Q(-2)
    assert ip_polynomial(g2loop, (1,)) == Q(-4)
    assert ip_polynomial(kronecker, DimVector(kronecker, (1, 0))) == ONE


def test_ip_polynomial_outside_sigma(jordan, kronecker):
    with pytest.raises(CuspidalError):
        ip_polynomial(jordan, (2,))
    with pytest.raises(CuspidalError):
        ip_polynomial(kronecker, (2, 2))


def test_ip_general_reductions(jordan, a2, kronecker):
    assert ip_general(kronecker, (1, 1)) == ip_polynomial(kronecker, (1, 1))
    assert ip_general(jordan, (2,)) == Q(-4)
    assert ip_general(jordan, (3,)) == Q(-6)
    assert ip_general(a2, (2, 1)) == ONE
    with pytest.raises(CuspidalError):
        ip_general(a2, (0, 0))


def test_ip_table_consistency(kronecker):
    table = ip_table(kronecker, 3)
    assert set(table) == {
        d
        for d in (
            (1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
            (3, 0), (2, 1), (1, 2), (0, 3),
        )
    }
    for d, poly in table.items():
        assert poly == ip_general(kronecker, d)
    assert table[(1, 1)] == Q(-2)
    assert table[(2, 1)] == Q(-2)
    assert table[(2, 0)] == ONE
