from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import euler_form, partitions
from test_gkm import LEG_PLUS_LOOP

from qgk import (
    BudgetError,
    CartanDatum,
    CountingError,
    KacTable,
    QPoly,
    Quiver,
    WeightFunction,
    frame,
    gkm_dims,
    hua_kac,
    oracle_kac_full,
    positive_roots,
)
from qgk import _burnside, kac, series
from qgk.kac import (
    FIELDS,
    HUA_BUDGET,
    _OraclePeel,
    check_hua_budget,
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
    table = oracle_kac_full(jordan, 3)
    for n in (1, 2, 3):
        assert table.polynomial((n,)) == Q(1)


def test_oracle_loop_free_unit(a2):
    assert oracle_kac_full(a2, 1).polynomial((1, 0)) == ONE


def test_oracle_kronecker_isotropic(kronecker):
    assert oracle_kac_full(kronecker, 2).polynomial((1, 1)) == Q(1) + ONE


def test_oracle_g2_low(g2loop):
    # 2 - (d,d) loops force degree 1 - chi = g d^2 + 1 at d = 1
    a1 = oracle_kac_full(g2loop, 1).polynomial((1,))
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


def test_peel_refuses_a_class_count_where_a_must_vanish(a2, monkeypatch):
    # p(2,0) = -6, so A_(2,0) vanishes and the census must equal [Exp A]_(2,0)
    counts = kac.brute_force_counts

    def one_more_at_2_0(quiver, d, q, flavour):
        return counts(quiver, d, q, flavour) + (d == (2, 0))

    monkeypatch.setattr(kac, "brute_force_counts", one_more_at_2_0)
    with pytest.raises(CountingError, match=r"^A_2,0 should vanish \(degree bound -3\): 1$"):
        oracle_kac_full(a2, 2)


def test_peel_refuses_a_stage_before_the_stages_below_it(kronecker):
    peel = _OraclePeel(kronecker, CartanDatum.from_quiver(kronecker), "plain")
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
    peel = _OraclePeel(kronecker, CartanDatum.from_quiver(kronecker), "plain")
    for e in ((1, 0), (2, 0), (0, 1), (1, 1)):
        peel.add(e)
    hua = hua_kac(kronecker, 2)
    assert peel.known == {e: hua.table.get(e, QPoly.zero()) for e in peel.known}


def test_fields_are_every_size_the_census_admits():
    def prime_divisors(q):
        return {p for p in range(2, q + 1) if q % p == 0 and all(p % r for r in range(2, p))}

    prime_powers = [q for q in range(2, _burnside.MAX_FIELD + 1) if len(prime_divisors(q)) == 1]
    assert FIELDS == tuple(prime_powers)


def _record_fields(monkeypatch) -> dict[tuple[int, ...], list[int]]:
    """The field sizes each stage's census is run at, in order, from now on."""
    sampled: dict[tuple[int, ...], list[int]] = {}
    real = kac.brute_force_counts

    def recording(quiver, d, q, flavour):
        sampled.setdefault(d, []).append(q)
        return real(quiver, d, q, flavour)

    monkeypatch.setattr(kac, "brute_force_counts", recording)
    return sampled


def test_each_stage_samples_the_fields_it_needs_largest_first(kronecker, monkeypatch):
    sampled = _record_fields(monkeypatch)
    oracle_kac_full(kronecker, 2)
    assert sampled[(1, 0)] == [2]
    assert sampled[(1, 1)] == [3, 2]
    three_loop = Quiver(["0"], [("0", "0")] * 3)
    # A_(2) has degree 1 - chi = 1 + 2 * 2^2 = 9, so every field size is sampled
    assert _tables_equal(oracle_kac_full(three_loop, 2), hua_kac(three_loop, 2))
    assert sampled[(2,)] == list(reversed(FIELDS))


def test_a_refused_stage_counts_no_smaller_field(monkeypatch):
    # every census budget grows with q, so the largest field is refused first
    sampled = _record_fields(monkeypatch)
    three_loop = Quiver(["0"], [("0", "0")] * 3)
    with pytest.raises(BudgetError, match="fixed subspace of size 16\\^6"):
        oracle_kac_full(three_loop, 2, "nilpotent")
    assert sampled[(2,)] == [16]


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
        assert set(table.table) == set(positive_roots(CartanDatum.from_quiver(quiver), bound))


def test_hua_monic_of_exact_degree(kronecker, g2loop):
    for quiver, bound in ((kronecker, 5), (g2loop, 4)):
        for d, poly in hua_kac(quiver, bound).items():
            assert poly.is_monic()
            assert poly.degree_q() == 1 - euler_form(quiver, d, d)


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
        cartan = CartanDatum.from_quiver(quiver)
        for d in table.table:
            for i in range(cartan.rank):  # no loops in A2 or Kronecker
                t = cartan.reflect(i, d)
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
        oracle = oracle_kac_full(quiver, bound)
        for d in spots:
            assert table.coeff(d) == oracle.polynomial(d)


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
        return _RatQ(self.num * c, self.den)

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


def conjugate_partition(lam: tuple[int, ...]) -> tuple[int, ...]:
    """lam' with lam'_k = #{i : lam_i >= k}, for lam in descending order."""
    conjugate: list[int] = []
    for i in range(len(lam), 0, -1):  # lam_i >= k exactly for k <= lam_i
        conjugate += [i] * (lam[i - 1] - len(conjugate))
    return tuple(conjugate)


def partition_pairing(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """<lam, mu> = sum_i lam'_i mu'_i."""
    return sum(a * b for a, b in zip(conjugate_partition(lam), conjugate_partition(mu)))


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
    table = {d: p for d, p in table.items() if not p.is_zero()}
    return KacTable(CartanDatum.from_quiver(quiver), bound, "plain", table)


KRONECKER = Quiver(["0", "1"], [("0", "1"), ("0", "1")])
WILD3 = Quiver(["0", "1", "2"], [("0", "1"), ("0", "1"), ("1", "2"), ("1", "2"), ("0", "2")])

DIFFERENTIAL_CASES = [
    (KRONECKER, 7),
    (Quiver(["0", "1", "2"], [("0", "1"), ("1", "2"), ("2", "0")]), 5),
    # Jordan's Log needs 25 bits by |d| = 10, so its packing width steps from
    # 16 to 32 partway through the call and early levels are packed again
    (Quiver(["0"], [("0", "0")]), 10),
    (Quiver(["0"], [("0", "0"), ("0", "0")]), 6),
    (Quiver(["0", "1"], [("0", "0"), ("0", "1")]), 6),
    (Quiver(["c", "a", "b", "d", "e"], [("a", "c"), ("b", "c"), ("d", "c"), ("e", "c")]), 4),
    (frame(KRONECKER, (1, 2)), 5),
    (LEG_PLUS_LOOP, 6),
    (WILD3, 5),
]


@pytest.mark.parametrize(
    "quiver, bound",
    DIFFERENTIAL_CASES,
    ids=[
        "kronecker", "cycle3", "jordan", "two_loop", "loop_plus_leg", "affine_d4", "framed",
        "leg_plus_loop", "wild3",
    ],
)
def test_hua_matches_explicit_denominator_log(quiver, bound):
    assert hua_kac(quiver, bound).items() == _ratq_hua_kac(quiver, bound).items()


@pytest.mark.parametrize(
    "case, widths",
    [(2, {16: 6, 32: 16}), (0, {16: 35})],
    ids=["jordan", "kronecker"],
)
def test_hua_log_packs_each_operand_once_per_width(case, widths, monkeypatch):
    # The Log packs every h_s once per width it is read at, as the start term of
    # level s too, and every Lambda_s comes back from its kernel packed at that
    # kernel's width; one _pack call packs one term.
    # Jordan N=10 sums levels 1-6 at 16 bits and 7-10 at 32 (one term a level):
    # h_1..h_6 at 16 bits, h_1..h_10 at 32, and Lambda_1..Lambda_6 at 32 for
    # levels 7-10, so 6 + 10 + 6 = 22 calls.
    # Kronecker N=7 sums every level at 16 bits: the 2 + 3 + ... + 8 = 35 terms
    # of h_1..h_7 once each, and no Lambda_s again.
    packed: list[int] = []
    real = series._pack
    monkeypatch.setattr(series, "_pack", lambda poly, w: packed.append(w) or real(poly, w))
    hua_kac(*DIFFERENTIAL_CASES[case])
    assert Counter(packed) == widths


@st.composite
def small_quivers(draw):
    """(quiver, bound): rank <= 3, at most 5 arrows, loops and parallel arrows included."""
    rank = draw(st.integers(1, 3))
    vertices = [str(v) for v in range(rank)]
    arrow = st.tuples(st.sampled_from(vertices), st.sampled_from(vertices))
    arrows = draw(st.lists(arrow, max_size=5))
    return Quiver(vertices, arrows), draw(st.integers(1, {1: 8, 2: 5, 3: 4}[rank]))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(small_quivers())
def test_hua_matches_explicit_denominator_log_on_random_quivers(case):
    quiver, bound = case
    assert hua_kac(quiver, bound).items() == _ratq_hua_kac(quiver, bound).items()


def test_numerator_division_must_be_exact(jordan, monkeypatch):
    assert _ratio({0: 1, 2: -1}, (), [2]) == {0: 1}
    assert _ratio({0: 1, 1: 1, 2: -1, 3: -1}, (), [2]) == {0: 1, 1: 1}
    with pytest.raises(SeriesError):
        _ratio({0: 1}, (), [1])
    with pytest.raises(SeriesError):
        _ratio({0: 1, 3: -2}, (), [3])
    # the packed vertex numerator of (1) with multiplicities (1, 1): (x;x)_1 / (x;x)_1^2 = 1 / (1 - x)
    monkeypatch.setattr("qgk.kac._shapes", lambda n: [((1,) * n, n, (1,) * (n + 1))])
    with pytest.raises(SeriesError, match="inexact vertex numerator"):
        hua_kac(jordan, 1)


def test_partition_count_matches_enumeration():
    # each table holds p(n) shapes, the count check_hua_budget tallies
    assert [len(kac._shapes(n)) for n in range(25)] == [len(partitions(n)) for n in range(25)]
    assert len(kac._shapes(32)) == 8_349


def test_shape_table_is_read_off_each_partition():
    # every lam' |- n once, with <lam, lam> = sum_k lam'_k^2 and the sorted
    # multiplicities of the parts of lam = (lam')'
    for n in range(21):
        assert sorted(kac._shapes(n)) == sorted(
            (c, sum(k * k for k in c), tuple(sorted(Counter(conjugate_partition(c)).values())))
            for c in partitions(n)
        )


def test_hua_budget(jordan, kronecker):
    check_hua_budget(1, 16)  # 914 multipartitions
    check_hua_budget(2, 9)
    with pytest.raises(BudgetError, match=f"budget {HUA_BUDGET}"):
        hua_kac(jordan, 100_000_000)
    with pytest.raises(BudgetError):
        hua_kac(kronecker, 10**9)
    # the budget counts the multipartitions of every 0 < |d| <= N: sum_n p(n) on Jordan
    assert HUA_BUDGET == 50_000
    assert sum(len(kac._shapes(n)) for n in range(1, 33)) == 43_819
    check_hua_budget(1, 32)
    with pytest.raises(BudgetError, match=f"at least 53962 multipartitions \\(budget {HUA_BUDGET}\\)"):
        hua_kac(jordan, 33)


# Kac's conjecture (Kac, LNM 996, 1983; proved by Hausel, Invent. Math. 181, 2010):
# on a loop-free quiver A_d(0) is the multiplicity of d as a root of the Kac-Moody
# algebra g(Q).  With weight 1 at each unit and no other simple root, gkm_dims reads
# n+ of g(Q) off the Weyl-Kac denominator, a route independent of Hua's sum.
LOOP_FREE_CASES = {
    "kronecker": (KRONECKER, 10),
    "kronecker3": (Quiver(["0", "1"], [("0", "1")] * 3), 8),
    "a3": (Quiver(["0", "1", "2"], [("0", "1"), ("1", "2")]), 6),
    "affine_d4": (DIFFERENTIAL_CASES[5][0], 7),
    "cycle3": (DIFFERENTIAL_CASES[1][0], 7),
    "wild3": (WILD3, 6),
}


@pytest.mark.parametrize("name", LOOP_FREE_CASES)
def test_constant_term_is_the_root_multiplicity(name):
    quiver, bound = LOOP_FREE_CASES[name]
    rank = len(quiver.vertices)
    units = {tuple(int(i == k) for i in range(rank)): ONE for k in range(rank)}
    dims = gkm_dims(CartanDatum.from_quiver(quiver), WeightFunction(quiver, units), bound).dims
    multiplicity = {d: sum(block.values()) for d, block in dims.items()}
    constant = {d: poly.coefficient(0) for d, poly in hua_kac(quiver, bound).items()}
    assert {d: m for d, m in multiplicity.items() if m} == {d: c for d, c in constant.items() if c}


# -- table hygiene ------------------------------------------------------------------


def test_table_rejects_bad_entries(a2):
    cartan = CartanDatum.from_quiver(a2)
    with pytest.raises(CountingError):
        KacTable(cartan, 1, "plain", {(1, 0): Q(1) - ONE})
    with pytest.raises(CountingError):
        KacTable(cartan, 1, "plain", {(1, 0): QPoly.half_power(1)})
    with pytest.raises(CountingError):
        KacTable(cartan, 1, "plain", {(1, 0): Q(2)})
    # Kac: a nonzero plain A_d is monic of degree exactly p(d)/2
    with pytest.raises(CountingError, match="not monic of degree 0"):
        KacTable(cartan, 2, "plain", {(1, 1): ONE + ONE})
    kronecker = CartanDatum([[2, -2], [-2, 2]])
    with pytest.raises(CountingError, match="not monic of degree 1"):
        KacTable(kronecker, 2, "plain", {(1, 1): ONE})
    KacTable(kronecker, 2, "plain", {(1, 1): Q(1) + ONE, (2, 0): QPoly.zero()})
    with pytest.raises(CountingError):
        KacTable(cartan, 1, "fancy", {})
    # nilpotent flavour has no plain degree bound
    KacTable(cartan, 1, "nilpotent", {(1, 0): ONE})


def test_table_lookup(kronecker):
    table = hua_kac(kronecker, 3)
    with pytest.raises(KeyError):
        table.polynomial((2, 0))
    assert table.polynomial((1, 1)) == Q(1) + ONE
    series = table.to_series()
    assert series.coeff((2, 0)).is_zero()
    assert series.coeff((1, 1)) == Q(1) + ONE


def test_hua_rejects_bad_bound(jordan):
    with pytest.raises(CountingError):
        hua_kac(jordan, 0)
