from __future__ import annotations

import functools
import itertools

import pytest

from qgk import (
    FLAVOURS,
    BudgetError,
    CountingError,
    Quiver,
    brute_force_counts,
    oracle_kac_full,
)
from qgk import _burnside
from qgk._burnside import _commutant_kernel, _poly_mul, get_field, gl_order, hom_dim, matrix_types
from qgk.kac import FIELDS
from qgk.series import _moebius


def test_single_vertex_no_loops_counts_one(a1):
    for q in (2, 3, 4, 5):
        for n in (1, 2, 3):
            assert brute_force_counts(a1, (n,), q) == 1


def test_jordan_counts_similarity_classes(jordan):
    # similarity classes of n x n matrices: n=1 -> q; n=2 -> q^2 + q
    for q in (2, 3, 4, 5):
        assert brute_force_counts(jordan, (1,), q) == q
        assert brute_force_counts(jordan, (2,), q) == q * q + q


def test_jordan_nilpotent_counts_partitions(jordan):
    # nilpotent classes = partitions of n, independent of q
    for q in (2, 3, 5):
        assert brute_force_counts(jordan, (1,), q, "nilpotent") == 1
        assert brute_force_counts(jordan, (2,), q, "nilpotent") == 2
    for q in (2, 3):
        assert brute_force_counts(jordan, (3,), q, "nilpotent") == 3


def test_a2_counts(a2):
    # maps F_q -> F_q up to scaling on both sides: zero or full rank
    for q in (2, 3, 4):
        assert brute_force_counts(a2, (1, 1), q) == 2


def test_kronecker_unit_pair(kronecker):
    # pairs of scalars up to scaling: the projective line plus the zero pair
    for q in (2, 3, 4, 5):
        assert brute_force_counts(kronecker, (1, 1), q) == q + 2


def test_flavour_ordering(jordan, kronecker):
    for quiver, d in ((jordan, (2,)), (kronecker, (1, 1)), (kronecker, (2, 1))):
        for q in (2, 3):
            nil = brute_force_counts(quiver, d, q, "nilpotent")
            one = brute_force_counts(quiver, d, q, "one_nilpotent")
            plain = brute_force_counts(quiver, d, q, "plain")
            assert nil <= one <= plain


def test_unknown_flavour_rejected(jordan):
    with pytest.raises(CountingError):
        brute_force_counts(jordan, (1,), 2, "fancy")


def test_zero_vector_rejected(jordan):
    with pytest.raises(CountingError):
        brute_force_counts(jordan, (0,), 2)


def test_budget_guard(jordan, monkeypatch):
    with pytest.raises(BudgetError):
        brute_force_counts(jordan, (6,), 5)
    # past the enumeration budget, a charpoly's code would not fit its byte
    monkeypatch.setattr(_burnside, "ENUM_BUDGET", 10**9)
    with pytest.raises(BudgetError, match="byte lane"):
        matrix_types(7, 3)
    # the refusals name their budgets: 255^3 type tuples, and all of M_2(F_7)^2
    a3 = Quiver(["0", "1", "2"], [("0", "1"), ("1", "2")])
    tuples = r"^16581375 similarity type tuples \(budget 200000\)$"
    with pytest.raises(BudgetError, match=tuples):
        brute_force_counts(a3, (2, 2, 2), 16)
    two_loop = Quiver(["0"], [("0", "0"), ("0", "0")])
    with pytest.raises(BudgetError, match=r"size 7\^8 = 5764801 \(budget 2000000\)$"):
        brute_force_counts(two_loop, (2,), 7, "one_nilpotent")


def test_non_prime_power_rejected(jordan):
    with pytest.raises(CountingError):
        brute_force_counts(jordan, (1,), 6)


def test_fields_past_the_byte_lanes_rejected(jordan):
    # the census packs a * q + b into one byte, so F_17 would carry across lanes
    with pytest.raises(CountingError, match="at most 16"):
        brute_force_counts(jordan, (1,), 17)


def test_lane_arithmetic_matches_the_scalar_tables():
    # every pair (a, b) in one lane each; at q = 16, a * q + b reaches 255
    for q in FIELDS:
        F = get_field(q)
        pairs = list(itertools.product(range(q), repeat=2))
        a, b = bytes(x for x, _ in pairs), bytes(y for _, y in pairs)
        assert F.lanes(F.add, a, b) == bytes(F.s_add(x, y) for x, y in pairs)
        assert F.lanes(F.mul, a, b) == bytes(F.s_mul(x, y) for x, y in pairs)
        assert F.lanes(F.add, a, a.translate(F.neg)) == bytes(len(a))
        for c in range(q):
            assert b.translate(F.scale[c]) == bytes(F.s_mul(c, y) for y in b)
        if F.k == 1:
            assert [F.s_add(x, y) for x, y in pairs] == [(x + y) % q for x, y in pairs]
            assert [F.s_mul(x, y) for x, y in pairs] == [x * y % q for x, y in pairs]


def test_field_arithmetic_tables():
    for q in (4, 8, 9):
        F = get_field(q)
        assert F.q == q
        for a in range(1, q):
            assert F.s_mul(a, int(F.inv[a])) == 1
            assert F.s_add(a, int(F.neg[a])) == 0
        # the multiplicative group has exponent dividing q - 1
        for a in range(1, q):
            power = 1
            for _ in range(q - 1):
                power = F.s_mul(power, a)
            assert power == 1
        # Frobenius: (a + b)^p = a^p + b^p
        def frob(x):
            y = 1
            for _ in range(F.p):
                y = F.s_mul(y, x)
            return y

        for a in range(q):
            for b in range(q):
                assert frob(F.s_add(a, b)) == F.s_add(frob(a), frob(b))


def test_the_sieve_factors_every_monic_polynomial():
    for q in FIELDS:
        F = get_field(q)
        n = 1
        while q**n <= 256:
            table = F.factors(n)
            assert len(table) == q**n
            for poly, factors in table.items():
                assert functools.reduce(functools.partial(_poly_mul, F), factors) == poly
                assert list(factors) == sorted(factors, key=lambda f: (len(f), f))
                assert all(F.factors(len(f) - 1)[f] == (f,) for f in factors)
            # Gauss: n * #{monic irreducibles of degree n} = sum_{e | n} mu(e) q^(n/e)
            gauss = sum(_moebius(e) * q ** (n // e) for e in range(1, n + 1) if n % e == 0)
            assert n * len(F.irreducibles(n)) == gauss
            n += 1


def test_hom_dim_is_the_dimension_of_the_commutant():
    # the plain flavour's pairing of conjugate partitions against linear algebra
    for q, sizes in ((2, (1, 2, 3)), (3, (1, 2)), (4, (1, 2))):
        F = get_field(q)
        types = [t for n in sizes for t in matrix_types(q, n)]
        for a, b in itertools.product(types, repeat=2):
            assert hom_dim(a.sig, b.sig) == len(_commutant_kernel(F, a.rep, b.rep))


def test_gl_order():
    assert gl_order(2, 1) == 1
    assert gl_order(2, 2) == 6
    assert gl_order(3, 2) == 48
    assert gl_order(4, 2) == (16 - 1) * (16 - 4)


def test_matrix_types_partition_the_group():
    for q, n in ((2, 2), (3, 2), (2, 3), (4, 2)):
        types = matrix_types(q, n)
        assert sum(t.count for t in types) == gl_order(q, n)


def test_matrix_types_count_conjugacy_classes():
    # GL_n(F_q) has q^n - q conjugacy classes for n = 2, 3, 4
    for q in (2, 3, 4, 5):
        assert len(matrix_types(q, 2)) == q * q - 1
    for q in (2, 3):
        assert len(matrix_types(q, 3)) == q**3 - q
    assert len(matrix_types(2, 4)) == 14


def test_untouched_vertices_leave_the_census(jordan, a2):
    # GL at a vertex no acting arrow touches acts trivially: the count is
    # that of the induced subquiver, for every flavour
    loop_and_point = Quiver(["0", "1"], [("0", "0")])
    for flavour in FLAVOURS:
        for d in ((2, 1), (3, 2)):
            for q in (2, 3):
                whole = brute_force_counts(loop_and_point, d, q, flavour)
                part = brute_force_counts(jordan, d[:1], q, flavour)
                assert whole == part
        # no arrow acts on (n, 0): the representation space is a point
        for n in (1, 2, 3, 4):
            for q in (2, 3, 5):
                assert brute_force_counts(a2, (n, 0), q, flavour) == 1
    # the nilpotent paths are as long as the touched part of d: 2 of length 1
    # here, not 2^15 of length 15
    two_loop_and_point = Quiver(["0", "1"], [("0", "0"), ("0", "0")])
    assert brute_force_counts(two_loop_and_point, (1, 14), 2, "nilpotent") == 1


def test_a_nilpotent_census_builds_its_paths_once(kronecker, monkeypatch):
    # the paths depend on the quiver, the acting arrows and |d|, not on the type tuple
    built = []
    real = _burnside._paths_of_length

    def paths_of_length(quiver, arrows, length):
        built.append(length)
        return real(quiver, arrows, length)

    monkeypatch.setattr(_burnside, "_paths_of_length", paths_of_length)
    cycle = Quiver(["0", "1", "2"], [("0", "1"), ("1", "2"), ("2", "0")])
    cases = [(kronecker, (2, 2), 3, 24), (cycle, (1, 1, 2), 3, 9), (cycle, (2, 2, 1), 2, 16)]
    for quiver, d, q, count in cases:
        assert brute_force_counts(quiver, d, q, "nilpotent") == count
    assert built == [4, 4, 5]
    for flavour in ("plain", "one_nilpotent"):
        brute_force_counts(cycle, (1, 1, 2), 3, flavour)
    assert built == [4, 4, 5]


def test_oracle_requests_no_census_it_does_not_need(kronecker, monkeypatch):
    # at |d| <= 4 only (4,0) and (0,4) have a part of size 4, and no arrow acts on them
    requested = []
    real = _burnside.matrix_types

    def recording(q, n):
        requested.append((q, n))
        return real(q, n)

    monkeypatch.setattr(_burnside, "matrix_types", recording)
    oracle_kac_full(kronecker, 4)
    assert requested
    assert all(n < 4 for _, n in requested)
