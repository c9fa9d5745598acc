from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from qgk import (
    BudgetError,
    CountingError,
    DimVector,
    KacTable,
    QPoly,
    Quiver,
    euler_form,
    frame,
    hua_kac,
    oracle_kac,
    oracle_kac_full,
    positive_roots,
    weyl_reflect,
)
from qgk.kac import (
    HUA_BUDGET,
    _OraclePeel,
    _partition_count,
    check_hua_budget,
    partition_pairing,
    partitions,
)
from qgk.series import SeriesError, _moebius, _ratio, vectors_of_total

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


def test_peel_refuses_a_stage_before_the_stages_below_it(kronecker):
    peel = _OraclePeel(kronecker, "plain", (2, 3))
    with pytest.raises(BudgetError, match="need A at 0,1 first"):
        peel.add((1, 1))
    assert peel.known == {}
    peel.add((0, 1))
    with pytest.raises(BudgetError, match="need A at 1,0 first"):
        peel.add((1, 1))
    peel.add((1, 0))
    peel.add((1, 1))
    assert peel.known[(1, 1)] == Q(1) + ONE


def test_peel_out_of_total_order_matches_hua(kronecker):
    """A stage of smaller total after a larger one still sees every stage below."""
    peel = _OraclePeel(kronecker, "plain", (2, 3))
    for e in ((1, 0), (2, 0), (0, 1), (1, 1)):
        peel.add(e)
    hua = hua_kac(kronecker, 2)
    assert peel.known == {e: hua.table.get(e, QPoly.zero()) for e in peel.known}


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
    """Kac's theorem: A_d is nonzero exactly at the positive roots."""
    names = ["0", "1", "2", "3", "4"]
    affine_d4 = Quiver(names, [(v, "0") for v in names[1:]])
    loop_leg = Quiver(names[:2], [("0", "0"), ("0", "1")])
    jordan_two_legs = Quiver(names[:3], [("0", "0"), ("0", "1"), ("0", "2")])
    a4 = Quiver(names[:4], [("0", "1"), ("1", "2"), ("2", "3")])
    cycle3 = Quiver(names[:3], [("0", "1"), ("1", "2"), ("2", "0")])
    two_jordans = Quiver(names[:2], [("0", "0"), ("1", "1")])
    cases = [(jordan, 5), (a2, 4), (kronecker, 6), (g2loop, 4), (affine_d4, 5)]
    cases += [(loop_leg, 7), (jordan_two_legs, 5), (a4, 5), (cycle3, 5), (two_jordans, 4)]
    for quiver, bound in cases:
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


# -- oracle: Hua's Log by powers of the sum, over explicit denominators ------------------


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
        factor = QPoly.one() - QPoly.q_power(-j)
        for _ in range(e):
            result = result * factor
    return result


def _hua_term(quiver: Quiver, parts: tuple[tuple[int, ...], ...]) -> _RatQ:
    exponent = 0
    by_vertex = dict(zip(quiver.vertices, parts))
    for s, t in quiver.arrows:
        exponent += partition_pairing(by_vertex[s], by_vertex[t])
    den: dict[int, int] = {}
    for lam in parts:
        exponent -= partition_pairing(lam, lam)
        mults: dict[int, int] = {}
        for part in lam:
            mults[part] = mults.get(part, 0) + 1
        for m in mults.values():
            for j in range(1, m + 1):
                den[j] = den.get(j, 0) + 1
    return _RatQ(QPoly.q_power(exponent), tuple(den.items()))


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


def _ratq_hua_kac(quiver: Quiver, bound: int) -> KacTable:
    """(q - 1) Log_{q,z} of Hua's sum from sum_k (-1)^{k+1} raw^k / k."""
    raw: dict[tuple[int, ...], _RatQ] = {}
    for total in range(1, bound + 1):
        for d in vectors_of_total(len(quiver.vertices), total):
            terms = [_hua_term(quiver, combo) for combo in itertools.product(*map(partitions, d))]
            acc = terms[0]
            for term in terms[1:]:
                acc = acc + term
            raw[d] = acc
    ln: dict[tuple[int, ...], _RatQ] = {}
    power = dict(raw)
    for k in range(1, bound + 1):
        if k > 1:
            power = _ratq_convolve(power, raw, bound)
        for key, val in power.items():
            scaled = val.scale(Fraction((-1) ** (k + 1), k))
            ln[key] = ln[key] + scaled if key in ln else scaled
    logged: dict[tuple[int, ...], _RatQ] = {}
    for n in range(1, bound + 1):
        mu = _moebius(n)
        if mu == 0:
            continue
        for key, val in ln.items():
            if sum(key) * n > bound:
                continue
            stretched = tuple(x * n for x in key)
            term = val.substitute_power(n).scale(Fraction(mu, n))
            logged[stretched] = logged[stretched] + term if stretched in logged else term
    factor = _RatQ(Q(1) - ONE)
    table = {d: (val * factor).to_qpoly() for d, val in logged.items()}
    return KacTable(quiver, bound, "plain", {d: p for d, p in table.items() if not p.is_zero()})


KRONECKER = Quiver(["0", "1"], [("0", "1"), ("0", "1")])

DIFFERENTIAL_CASES = [
    (KRONECKER, 7),
    (Quiver(["0", "1", "2"], [("0", "1"), ("1", "2"), ("2", "0")]), 5),
    (Quiver(["0"], [("0", "0")]), 10),
    (Quiver(["0"], [("0", "0"), ("0", "0")]), 6),
    (Quiver(["0", "1"], [("0", "0"), ("0", "1")]), 6),
    (Quiver(["c", "a", "b", "d", "e"], [("a", "c"), ("b", "c"), ("d", "c"), ("e", "c")]), 4),
    (frame(KRONECKER, DimVector(KRONECKER, (1, 2))), 5),
]


@pytest.mark.parametrize(
    "quiver, bound",
    DIFFERENTIAL_CASES,
    ids=["kronecker", "cycle3", "jordan", "two_loop", "loop_plus_leg", "affine_d4", "framed"],
)
def test_hua_matches_explicit_denominator_log(quiver, bound):
    assert hua_kac(quiver, bound).items() == _ratq_hua_kac(quiver, bound).items()


def test_numerator_division_must_be_exact():
    assert _ratio({0: 1, 2: -1}, (), [2]) == {0: 1}
    assert _ratio({0: 1, 1: 1, 2: -1, 3: -1}, (), [2]) == {0: 1, 1: 1}
    with pytest.raises(SeriesError):
        _ratio({0: 1}, (), [1])
    with pytest.raises(SeriesError):
        _ratio({0: 1, 3: -2}, (), [3])


def test_partition_count_matches_enumeration():
    assert [_partition_count(n) for n in range(25)] == [len(partitions(n)) for n in range(25)]
    assert _partition_count(100) == 190_569_292


def test_hua_budget(jordan, kronecker):
    check_hua_budget(jordan, 16)  # 914 multipartitions
    check_hua_budget(kronecker, 9)
    with pytest.raises(BudgetError, match=f"budget {HUA_BUDGET}"):
        hua_kac(jordan, 100_000_000)
    with pytest.raises(BudgetError):
        hua_kac(kronecker, 10**9)


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
