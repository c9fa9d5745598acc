from __future__ import annotations

import importlib.util
import itertools
from pathlib import Path

import pytest
from reference import in_sigma, sym_form

from qgk import (
    HYPERBOLIC,
    ISOTROPIC,
    REAL,
    CartanDatum,
    Quiver,
    RootError,
    canonical_decomposition,
    phi_plus,
    positive_roots,
)
from qgk.series import vectors_up_to


def sigma_via_positive_roots(quiver: Quiver, bound: int) -> set[tuple[int, ...]]:
    """The cross-check definition of Sigma through the root system.

    d is accepted when d is a positive root and p(d) strictly dominates
    every decomposition of d into positive roots; the library's Sigma is
    the dynamic-programming definition, checked against this one below.
    """
    cartan = CartanDatum.from_quiver(quiver)
    roots = positive_roots(cartan, bound)
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
        if any(d) and in_sigma(cartan, d)
    }


def _shipped_quivers() -> dict[str, Quiver]:
    """Every demo quiver and every perfbench base quiver, by name."""
    root = Path(__file__).resolve().parent.parent
    demos = sorted((root / "demos" / "quivers").glob("*.json"))
    quivers = {path.stem: Quiver.from_json(path.read_text()) for path in demos}
    spec = importlib.util.spec_from_file_location("workloads", root / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for name, data in workloads.BASE_QUIVERS.items():
        quivers[f"perfbench {name}"] = Quiver.from_json_dict(data)
    return quivers


def test_cartan_from_quiver(kronecker, g2loop, jordan):
    assert CartanDatum.from_quiver(kronecker).matrix == ((2, -2), (-2, 2))
    assert CartanDatum.from_quiver(g2loop).matrix == ((-2,),)
    assert CartanDatum.from_quiver(jordan).matrix == ((0,),)
    quivers = _shipped_quivers()
    assert len(quivers) == 9
    for name, quiver in quivers.items():
        rank = len(quiver.vertices)
        units = [tuple(int(k == i) for k in range(rank)) for i in range(rank)]
        expected = tuple(tuple(sym_form(quiver, a, b) for b in units) for a in units)
        assert CartanDatum.from_quiver(quiver).matrix == expected, name


def test_cartan_rejects_bad_matrices():
    with pytest.raises(RootError):
        CartanDatum([[2, 0], [-1, 2]])
    with pytest.raises(RootError):
        CartanDatum([[1]])
    with pytest.raises(RootError):
        CartanDatum([[2, -1]])


def test_sigma_reference_memberships(jordan, a2, g2loop, kronecker):
    assert in_sigma(CartanDatum.from_quiver(jordan), (1,))
    assert not in_sigma(CartanDatum.from_quiver(jordan), (2,))
    assert not in_sigma(CartanDatum.from_quiver(a2), (1, 1))
    g2c = CartanDatum.from_quiver(g2loop)
    for d in range(1, 6):
        assert in_sigma(g2c, (d,))
    kc = CartanDatum.from_quiver(kronecker)
    assert in_sigma(kc, (1, 1))
    assert not in_sigma(kc, (2, 2))
    assert not in_sigma(kc, (2, 1))
    with pytest.raises(RootError):
        kc.root((0, 0))


def test_units_always_in_sigma(jordan, a2, kronecker, g2loop):
    for quiver in (jordan, a2, kronecker, g2loop):
        cartan = CartanDatum.from_quiver(quiver)
        for i in range(cartan.rank):
            assert in_sigma(cartan, tuple(int(k == i) for k in range(cartan.rank)))


def test_disconnected_support_never_in_sigma():
    pieces = Quiver(["0", "1"])
    cartan = CartanDatum.from_quiver(pieces)
    assert not in_sigma(cartan, (1, 1))
    assert not in_sigma(cartan, (2, 3))


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


def test_weyl_reflect_examples(a2):
    cartan = CartanDatum.from_quiver(a2)
    assert cartan.reflect(0, (1, 1)) == (0, 1)
    assert cartan.reflect(0, (1, 0)) == (-1, 0)


def test_weyl_reflect_refuses_a_looped_vertex(jordan, g2loop):
    for quiver in (jordan, g2loop):
        with pytest.raises(RootError, match="has a loop"):
            CartanDatum.from_quiver(quiver).reflect(0, (1,))


def test_weyl_reflect_involution_and_invariance(a2, kronecker):
    for quiver in (a2, kronecker):
        cartan = CartanDatum.from_quiver(quiver)
        for d in itertools.product(range(3), repeat=2):
            for i in range(2):
                assert cartan.reflect(i, cartan.reflect(i, d)) == d
            for e in itertools.product(range(3), repeat=2):
                for i in range(2):
                    sd, se = cartan.reflect(i, d), cartan.reflect(i, e)
                    assert cartan.form(sd, se) == cartan.form(d, e)


def test_positive_roots_reference_sets(a2, jordan, g2loop, kronecker):
    a2, jordan, g2loop, kronecker = map(CartanDatum.from_quiver, (a2, jordan, g2loop, kronecker))
    assert set(positive_roots(a2, 3)) == {(1, 0), (0, 1), (1, 1)}
    assert set(positive_roots(jordan, 3)) == {(1,), (2,), (3,)}
    assert set(positive_roots(g2loop, 3)) == {(1,), (2,), (3,)}
    kron = set(positive_roots(kronecker, 4))
    assert kron == {(1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (2, 2)}


def test_positive_roots_sorted_and_positive(kronecker):
    roots = positive_roots(CartanDatum.from_quiver(kronecker), 5)
    keys = [(sum(r), r) for r in roots]
    assert keys == sorted(keys)
    assert all(min(r) >= 0 and any(r) for r in roots)


def test_sigma_cross_check(jordan, a2, kronecker, g2loop):
    for quiver in (jordan, a2, kronecker, g2loop):
        assert _sigma_box(quiver, 5) == sigma_via_positive_roots(quiver, 5)


def test_canonical_decomposition_examples(a2, jordan, kronecker):
    def decomp(quiver, d):
        return sorted(canonical_decomposition(quiver, d))

    assert decomp(a2, (2, 1)) == [((0, 1), 1), ((1, 0), 2)]
    assert decomp(a2, (1, 1)) == [((0, 1), 1), ((1, 0), 1)]
    assert decomp(jordan, (3,)) == [((1,), 3)]
    assert decomp(kronecker, (2, 2)) == [((1, 1), 2)]
    assert decomp(kronecker, (3, 1)) == [((1, 0), 2), ((1, 1), 1)]
    # 721,801 pairs in the split table, filled without recursion
    assert decomp(jordan, (1200,)) == [((1,), 1200)]
    assert not in_sigma(CartanDatum.from_quiver(jordan), (1200,))


def test_canonical_decomposition_rejects_bad_input(a2):
    with pytest.raises(RootError):
        canonical_decomposition(a2, (0, 0))


def test_canonical_decomposition_parts_in_sigma_and_sum(kronecker, g2loop):
    for quiver in (kronecker, g2loop):
        cartan = CartanDatum.from_quiver(quiver)
        rank = len(quiver.vertices)
        for d in vectors_up_to(rank, 5):
            if not any(d):
                continue
            pairs = canonical_decomposition(quiver, d)
            total = [0] * rank
            for part, mult in pairs:
                assert in_sigma(cartan, part)
                for i, x in enumerate(part):
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
            for part, mult in canonical_decomposition(quiver, d):
                canonical.extend([part] * mult)
            for decomposition in _sigma_decompositions(sigma_parts, d):
                assert _refines(list(decomposition), canonical), (quiver, d, decomposition)
