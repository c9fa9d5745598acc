from __future__ import annotations

import pytest

from qgk import (
    CountingError,
    DimVector,
    KacTable,
    QPoly,
    Quiver,
    euler_form,
    hua_kac,
    oracle_kac,
    oracle_kac_full,
    positive_roots,
    weyl_reflect,
)

Q = QPoly.q_power
ONE = QPoly.one()


def _tables_equal(a: KacTable, b: KacTable) -> bool:
    keys = set(a.table) | set(b.table)
    zero = QPoly.zero()
    return all(a.table.get(k, zero) == b.table.get(k, zero) for k in keys)


# -- counting oracle first --------------------------------------------------------


def test_oracle_jordan_line(jordan):
    for n in (1, 2, 3):
        assert oracle_kac(jordan, DimVector(jordan, (n,))) == Q(1)


def test_oracle_loop_free_unit(a2):
    assert oracle_kac(a2, DimVector(a2, (1, 0))) == ONE


def test_oracle_kronecker_isotropic(kronecker):
    assert oracle_kac(kronecker, DimVector(kronecker, (1, 1))) == Q(1) + ONE


def test_oracle_g2_low(g2loop):
    # 2 - (d,d) loops force degree 1 - chi = g d^2 + 1 at d = 1
    a1 = oracle_kac(g2loop, DimVector(g2loop, (1,)))
    assert a1.is_monic() and a1.degree_q() == 2
    assert a1.has_nonnegative_coefficients()


def test_oracle_nilpotent_jordan(jordan):
    table = oracle_kac_full(jordan, 3, "nilpotent")
    for n in (1, 2, 3):
        assert table.polynomial((n,)) == ONE


def test_one_nilpotent_matches_plain_without_loops(a2):
    assert _tables_equal(
        oracle_kac_full(a2, 2, "one_nilpotent"), oracle_kac_full(a2, 2)
    )


def test_one_nilpotent_matches_nilpotent_on_jordan(jordan):
    assert _tables_equal(
        oracle_kac_full(jordan, 3, "one_nilpotent"),
        oracle_kac_full(jordan, 3, "nilpotent"),
    )


# -- Hua's formula against the oracle ----------------------------------------------


def test_hua_matches_oracle_in_the_small_box(jordan, a2, kronecker):
    for quiver in (jordan, a2, kronecker):
        assert _tables_equal(hua_kac(quiver, 3), oracle_kac_full(quiver, 3))


def test_hua_matches_oracle_g2_low(g2loop):
    hua = hua_kac(g2loop, 2)
    oracle = oracle_kac_full(g2loop, 2)
    assert _tables_equal(hua, oracle)


def test_hua_reference_values(jordan, kronecker, a2):
    jt = hua_kac(jordan, 5)
    for n in range(1, 6):
        assert jt.polynomial((n,)) == Q(1)
    kt = hua_kac(kronecker, 6)
    for n in (1, 2, 3):
        assert kt.polynomial((n, n)) == Q(1) + ONE
    for real in ((1, 0), (0, 1), (2, 1), (1, 2), (3, 2), (2, 3)):
        assert kt.polynomial(real) == ONE
    at = hua_kac(a2, 4)
    for root in ((1, 0), (0, 1), (1, 1)):
        assert at.polynomial(root) == ONE


def test_hua_support_is_positive_roots(jordan, a2, kronecker, g2loop):
    for quiver, bound in ((jordan, 5), (a2, 4), (kronecker, 6), (g2loop, 4)):
        table = hua_kac(quiver, bound)
        roots = {r.as_tuple() for r in positive_roots(quiver, bound)}
        assert set(table.table) == roots


def test_hua_monic_of_exact_degree(kronecker, g2loop):
    for quiver, bound in ((kronecker, 5), (g2loop, 4)):
        for d, poly in hua_kac(quiver, bound).items():
            dv = DimVector(quiver, d)
            assert poly.is_monic()
            assert poly.degree_q() == 1 - euler_form(quiver, dv, dv)


def test_hua_orientation_independence():
    a2 = Quiver(["0", "1"], [("0", "1")])
    a2_rev = Quiver(["0", "1"], [("1", "0")])
    assert _tables_equal(hua_kac(a2, 3), hua_kac(a2_rev, 3))
    kron = Quiver(["0", "1"], [("0", "1"), ("0", "1")])
    mixed = Quiver(["0", "1"], [("0", "1"), ("1", "0")])
    assert _tables_equal(hua_kac(kron, 4), hua_kac(mixed, 4))


def test_hua_weyl_invariance(a2, kronecker):
    for quiver, bound in ((a2, 4), (kronecker, 4)):
        table = hua_kac(quiver, bound)
        zero = QPoly.zero()
        reflect_at = [v for v in quiver.vertices if quiver.loops_at(v) == 0]
        for d in table.table:
            for v in reflect_at:
                image = weyl_reflect(quiver, v, DimVector(quiver, d))
                t = image.as_tuple()
                if all(n >= 0 for n in t) and any(t) and sum(t) <= bound:
                    assert table.table.get(t, zero) == table.table[d]


def test_hua_normalisation_matches_oracle(jordan, a2, kronecker):
    """The single q - 1 factor in hua_kac reproduces the counting oracle."""
    probes = [
        (jordan, 3, [(1,), (2,), (3,)]),
        (a2, 1, [(1, 0)]),
        (kronecker, 2, [(1, 1)]),
    ]
    for quiver, bound, spots in probes:
        table = hua_kac(quiver, bound).to_series()
        for d in spots:
            assert table.coeff(d) == oracle_kac(quiver, DimVector(quiver, d))


# -- table hygiene ------------------------------------------------------------------


def test_table_rejects_bad_entries(a2):
    with pytest.raises(CountingError):
        KacTable(a2, 1, "plain", {(1, 0): Q(1) - ONE})
    with pytest.raises(CountingError):
        KacTable(a2, 1, "plain", {(1, 0): QPoly.half_power(1)})
    with pytest.raises(CountingError):
        KacTable(a2, 1, "plain", {(1, 0): Q(2)})
    with pytest.raises(CountingError):
        KacTable(a2, 1, "fancy", {})
    # nilpotent flavour has no plain degree bound
    KacTable(a2, 1, "nilpotent", {(1, 0): ONE})


def test_table_lookup(kronecker):
    table = hua_kac(kronecker, 3)
    with pytest.raises(KeyError):
        table.polynomial((2, 0))
    assert table.polynomial(DimVector(kronecker, (1, 1))) == Q(1) + ONE
    series = table.to_series()
    assert series.coeff((2, 0)).is_zero()
    assert series.coeff((1, 1)) == Q(1) + ONE


def test_hua_rejects_bad_bound(jordan):
    with pytest.raises(CountingError):
        hua_kac(jordan, 0)
