from __future__ import annotations

import itertools

import pytest

from qgk import (
    HYPERBOLIC,
    ISOTROPIC,
    REAL,
    CartanDatum,
    DimVector,
    Quiver,
    RootError,
    canonical_decomposition,
    fundamental_cone_membership,
    phi_plus,
    positive_roots,
    sigma_membership,
    sym_form,
    weyl_reflect,
)
from qgk.series import vectors_up_to


def sigma_via_positive_roots(quiver: Quiver, bound: int) -> set[tuple[int, ...]]:
    """The cross-check definition of Sigma through the root system.

    d is accepted when d is a positive root and p(d) strictly dominates
    every decomposition of d into positive roots; the library's Sigma is
    the dynamic-programming definition, checked against this one below.
    """
    cartan = CartanDatum.from_quiver(quiver)
    roots = [r.as_tuple() for r in positive_roots(quiver, bound)]
    root_set = set(roots)

    def decompositions(d: tuple[int, ...], allowed: list[tuple[int, ...]]):
        if not any(d):
            yield []
            return
        for k, r in enumerate(allowed):
            if all(x <= y for x, y in zip(r, d)):
                rest = tuple(y - x for x, y in zip(r, d))
                for tail in decompositions(rest, allowed[k:]):
                    yield [r] + tail

    accepted: set[tuple[int, ...]] = set()
    for d in roots:
        pd = cartan.p(d)
        dominated = True
        for parts in decompositions(d, roots):
            if len(parts) == 1:
                continue
            if not pd > sum(cartan.p(r) for r in parts):
                dominated = False
                break
        if dominated and d in root_set:
            accepted.add(d)
    return accepted


def _sigma_box(quiver, bound):
    cartan = CartanDatum.from_quiver(quiver)
    rank = len(quiver.vertices)
    return {
        d
        for d in vectors_up_to(rank, bound)
        if any(d) and sigma_membership(cartan, DimVector(quiver, d))
    }


def test_cartan_from_quiver(kronecker, g2loop, jordan):
    assert CartanDatum.from_quiver(kronecker).matrix == ((2, -2), (-2, 2))
    assert CartanDatum.from_quiver(g2loop).matrix == ((-2,),)
    assert CartanDatum.from_quiver(jordan).matrix == ((0,),)


def test_cartan_rejects_bad_matrices():
    with pytest.raises(RootError):
        CartanDatum([[2, 0], [-1, 2]])
    with pytest.raises(RootError):
        CartanDatum([[1]])
    with pytest.raises(RootError):
        CartanDatum([[2, -1]])


def test_sigma_reference_memberships(jordan, a2, g2loop, kronecker):
    assert sigma_membership(CartanDatum.from_quiver(jordan), DimVector(jordan, (1,)))
    assert not sigma_membership(CartanDatum.from_quiver(jordan), DimVector(jordan, (2,)))
    assert not sigma_membership(CartanDatum.from_quiver(a2), DimVector(a2, (1, 1)))
    g2c = CartanDatum.from_quiver(g2loop)
    for d in range(1, 6):
        assert sigma_membership(g2c, DimVector(g2loop, (d,)))
    kc = CartanDatum.from_quiver(kronecker)
    assert sigma_membership(kc, DimVector(kronecker, (1, 1)))
    assert not sigma_membership(kc, DimVector(kronecker, (2, 2)))
    assert not sigma_membership(kc, DimVector(kronecker, (2, 1)))
    with pytest.raises(RootError):
        sigma_membership(kc, DimVector.zero(kronecker))


def test_units_always_in_sigma(jordan, a2, kronecker, g2loop):
    for quiver in (jordan, a2, kronecker, g2loop):
        cartan = CartanDatum.from_quiver(quiver)
        for v in quiver.vertices:
            assert sigma_membership(cartan, DimVector.unit(quiver, v))


def test_disconnected_support_never_in_sigma():
    pieces = Quiver(["0", "1"])
    cartan = CartanDatum.from_quiver(pieces)
    assert not sigma_membership(cartan, DimVector(pieces, (1, 1)))
    assert not sigma_membership(cartan, DimVector(pieces, (2, 3)))


def test_nonnegativity_clause_is_redundant(jordan, a2, kronecker, g2loop):
    """Strict dominance alone decides Sigma for quiver Cartan data."""
    for quiver in (jordan, a2, kronecker, g2loop):
        cartan = CartanDatum.from_quiver(quiver)
        rank = len(quiver.vertices)
        best: dict[tuple[int, ...], int] = {}

        def best_of(d):
            if d in best:
                return best[d]
            value = cartan.p(d)
            for a in itertools.product(*(range(n + 1) for n in d)):
                if any(a) and a != d:
                    b = tuple(x - y for x, y in zip(d, a))
                    value = max(value, best_of(a) + best_of(b))
            best[d] = value
            return value

        for d in vectors_up_to(rank, 5):
            if not any(d):
                continue
            splits = [
                best_of(a) + best_of(tuple(x - y for x, y in zip(d, a)))
                for a in itertools.product(*(range(n + 1) for n in d))
                if any(a) and a != d
            ]
            dominance_only = all(cartan.p(d) > s for s in splits)
            entry = cartan.root(d)
            assert (entry is not None and entry.multiplier == 1) == dominance_only


def test_phi_plus_reference_tables(jordan, a2, kronecker):
    roots = phi_plus(CartanDatum.from_quiver(jordan), 5)
    entries = {e.vector: e for e in roots}
    assert [e.vector for e in roots] == [(1,), (2,), (3,), (4,), (5,)]
    for entry in roots:
        assert entry.classification == ISOTROPIC
        assert entry.primitive == (1,)
        assert entry.multiplier == sum(entry.vector)
    assert entries[(1,)].multiplier == 1 and entries[(2,)].multiplier != 1
    assert (2,) in entries and (6,) not in entries

    roots = phi_plus(CartanDatum.from_quiver(a2), 4)
    assert [e.vector for e in roots] == [(0, 1), (1, 0)]
    assert all(e.classification == REAL for e in roots)

    roots = phi_plus(CartanDatum.from_quiver(kronecker), 4)
    entries = {e.vector: e for e in roots}
    assert [e.vector for e in roots] == [(0, 1), (1, 0), (1, 1), (2, 2)]
    assert entries[(1, 1)].classification == ISOTROPIC
    assert entries[(2, 2)].primitive == (1, 1)
    assert entries[(2, 2)].multiplier == 2
    assert entries[(1, 0)].classification == REAL


def test_phi_plus_hyperbolic(g2loop):
    roots = phi_plus(CartanDatum.from_quiver(g2loop), 3)
    assert all(e.classification == HYPERBOLIC for e in roots)
    assert [e.vector for e in roots] == [(1,), (2,), (3,)]
    assert [e.p_value for e in roots] == [4, 10, 20]


def test_weyl_reflect_examples(a2, jordan):
    assert weyl_reflect(a2, "0", DimVector(a2, (1, 1))) == DimVector(a2, (0, 1))
    assert weyl_reflect(a2, "0", DimVector(a2, (1, 0))).as_tuple() == (-1, 0)
    with pytest.raises(RootError):
        weyl_reflect(jordan, "0", DimVector(jordan, (1,)))


def test_weyl_reflect_involution_and_invariance(a2, kronecker):
    for quiver in (a2, kronecker):
        cartan = CartanDatum.from_quiver(quiver)
        for dt in itertools.product(range(3), repeat=2):
            d = DimVector(quiver, dt)
            for i, v in enumerate(quiver.vertices):
                assert weyl_reflect(quiver, v, weyl_reflect(quiver, v, d)) == d
                assert cartan.reflect(i, dt) == weyl_reflect(quiver, v, d).as_tuple()
            for et in itertools.product(range(3), repeat=2):
                e = DimVector(quiver, et)
                for v in quiver.vertices:
                    sd = weyl_reflect(quiver, v, d)
                    se = weyl_reflect(quiver, v, e)
                    assert sym_form(quiver, sd, se) == sym_form(quiver, d, e)


def test_fundamental_cone(kronecker, a2):
    assert fundamental_cone_membership(kronecker, DimVector(kronecker, (1, 1)))
    assert not fundamental_cone_membership(kronecker, DimVector(kronecker, (2, 1)))
    assert not fundamental_cone_membership(a2, DimVector(a2, (1, 0)))
    pieces = Quiver(["0", "1"])
    assert not fundamental_cone_membership(pieces, DimVector(pieces, (1, 1)))
    loops = Quiver(["0", "1"], [("0", "0"), ("1", "1")])  # only connectivity rules (1, 1) out
    assert not fundamental_cone_membership(loops, DimVector(loops, (1, 1)))
    assert not fundamental_cone_membership(LOOP_PLUS_LEG, DimVector(LOOP_PLUS_LEG, (1, 1)))
    assert fundamental_cone_membership(LOOP_PLUS_LEG, DimVector(LOOP_PLUS_LEG, (2, 1)))
    with pytest.raises(RootError):
        fundamental_cone_membership(a2, DimVector.zero(a2))


def test_positive_roots_reference_sets(a2, jordan, g2loop, kronecker):
    assert {r.as_tuple() for r in positive_roots(a2, 3)} == {(1, 0), (0, 1), (1, 1)}
    assert {r.as_tuple() for r in positive_roots(jordan, 3)} == {(1,), (2,), (3,)}
    assert {r.as_tuple() for r in positive_roots(g2loop, 3)} == {(1,), (2,), (3,)}
    kron = {r.as_tuple() for r in positive_roots(kronecker, 4)}
    assert kron == {(1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (2, 2)}


def test_positive_roots_sorted_and_positive(kronecker):
    roots = positive_roots(kronecker, 5)
    keys = [(r.total, r.as_tuple()) for r in roots]
    assert keys == sorted(keys)
    assert all(r.is_effective() and not r.is_zero() for r in roots)


def test_sigma_cross_check(jordan, a2, kronecker, g2loop):
    for quiver in (jordan, a2, kronecker, g2loop):
        assert _sigma_box(quiver, 5) == sigma_via_positive_roots(quiver, 5)


def test_canonical_decomposition_examples(a2, jordan, kronecker):
    def decomp(quiver, d):
        pairs = canonical_decomposition(quiver, DimVector(quiver, d))
        return sorted((p.as_tuple(), m) for p, m in pairs)

    assert decomp(a2, (2, 1)) == [((0, 1), 1), ((1, 0), 2)]
    assert decomp(a2, (1, 1)) == [((0, 1), 1), ((1, 0), 1)]
    assert decomp(jordan, (3,)) == [((1,), 3)]
    assert decomp(kronecker, (2, 2)) == [((1, 1), 2)]
    assert decomp(kronecker, (3, 1)) == [((1, 0), 2), ((1, 1), 1)]
    # 721,801 pairs in the split table, filled without recursion
    assert decomp(jordan, (1200,)) == [((1,), 1200)]
    assert not sigma_membership(CartanDatum.from_quiver(jordan), DimVector(jordan, (1200,)))


def test_canonical_decomposition_rejects_bad_input(a2):
    with pytest.raises(RootError):
        canonical_decomposition(a2, DimVector.zero(a2))


def test_canonical_decomposition_parts_in_sigma_and_sum(kronecker, g2loop):
    for quiver in (kronecker, g2loop):
        cartan = CartanDatum.from_quiver(quiver)
        rank = len(quiver.vertices)
        for d in vectors_up_to(rank, 5):
            if not any(d):
                continue
            pairs = canonical_decomposition(quiver, DimVector(quiver, d))
            total = [0] * rank
            for part, mult in pairs:
                assert sigma_membership(cartan, part)
                for i, x in enumerate(part.as_tuple()):
                    total[i] += mult * x
            assert tuple(total) == d


def _sigma_decompositions(sigma_parts, d):
    """All multisets of Sigma members summing to d, as part tuples."""
    out = []

    def recurse(remaining, chosen, start):
        if not any(remaining):
            out.append(tuple(chosen))
            return
        for i in range(start, len(sigma_parts)):
            part = sigma_parts[i]
            if all(x <= r for x, r in zip(part, remaining)):
                recurse(
                    tuple(r - x for r, x in zip(remaining, part)), chosen + [part], i
                )

    recurse(d, [], 0)
    return out


def _refines(finer, coarser):
    """Whether the parts of finer can be grouped to sum to the parts of coarser."""
    if not coarser:
        return not finer
    target = coarser[0]
    rest = list(coarser[1:])
    for size in range(1, len(finer) + 1):
        for combo in set(itertools.combinations(range(len(finer)), size)):
            if tuple(map(sum, zip(*(finer[i] for i in combo)))) != target:
                continue
            leftover = [finer[i] for i in range(len(finer)) if i not in combo]
            if _refines(leftover, rest):
                return True
    return False


#: Sigma members of many unit parts, such as delta = (2,1,1,1,1) of affine D4
#: and (4,2) of a loop with a leg, are where a partial merge search goes wrong.
AFFINE_D4 = Quiver(["0", "1", "2", "3", "4"], [("1", "0"), ("2", "0"), ("3", "0"), ("4", "0")])
LOOP_PLUS_LEG = Quiver(["0", "1"], [("0", "0"), ("0", "1")])


def test_every_sigma_decomposition_refines_the_canonical_one(a2, kronecker, g2loop):
    cases = ((a2, 5), (kronecker, 5), (g2loop, 5), (AFFINE_D4, 6), (LOOP_PLUS_LEG, 7))
    for quiver, bound in cases:
        rank = len(quiver.vertices)
        sigma_parts = sorted(_sigma_box(quiver, bound))
        for d in vectors_up_to(rank, bound):
            if not any(d):
                continue
            canonical = []
            for part, mult in canonical_decomposition(quiver, DimVector(quiver, d)):
                canonical.extend([part.as_tuple()] * mult)
            for decomposition in _sigma_decompositions(sigma_parts, d):
                assert _refines(list(decomposition), canonical), (quiver, d, decomposition)
