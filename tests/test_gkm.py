from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import UnderdeterminedError, series_inv, triangular_extract

import qgk._presented
import qgk.cuspidal
import qgk.gkm
from qgk import (
    BudgetError,
    CartanDatum,
    GkmError,
    GradedSeries,
    PlethMode,
    QPoly,
    Quiver,
    WeightFunction,
    frame,
    framed_character,
    gkm_dims,
    lowest_weight_extract,
    pleth_log,
    uea_character,
)
from qgk.cuspidal import absolutely_cuspidal
from qgk.series import vectors_of_total, vectors_up_to
from qgk._presented import GkmEngine, Letter, Tensor, _Echelon, _tensor_bracket, presented_dims

Q = QPoly.q_power
ONE = QPoly.one()


def _moebius(n):
    out, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1
    return -out if m > 1 else out


def character_at(engine: GkmEngine, d) -> QPoly:
    """sum_j dim n_{d,j} q^{j/2} in the presented algebra."""
    out = QPoly.zero()
    for j, dim in sorted(engine.dims_at(d).items()):
        out = out + QPoly.half_power(j, dim)
    return out


def free_lie_character(chV: GradedSeries, bound: int) -> GradedSeries:
    """Character of the free Lie algebra on a graded space V.

    The tensor algebra has character 1/(1 - chV), and the free Lie algebra
    is its plethystic logarithm.
    """
    if bound > chV.bound:
        raise GkmError("bound exceeds the generator series bound")
    chV = GradedSeries(chV.rank, bound, dict(chV.items()))
    if not chV.constant_term().is_zero():
        raise GkmError("generator series must have zero constant term")
    tensor = series_inv(GradedSeries.one(chV.rank, bound) - chV)
    return pleth_log(tensor, PlethMode.QZ)


# -- oracle: explicit Lyndon-bracket bases ------------------------------------------

#: Most words a single (multidegree, content) block may enumerate.
BLOCK_CAP = 20_000


@dataclass
class GkmBasis:
    """Surviving Lyndon-bracket labels of one multidegree block."""

    root: tuple[int, ...]
    entries: list[tuple[tuple[Letter, ...], int]]


def _is_lyndon(word):
    return all(word < word[i:] for i in range(1, len(word)))


def _standard_factor(word):
    """w = uv with v the longest proper Lyndon suffix; both are Lyndon."""
    for i in range(1, len(word)):
        if _is_lyndon(word[i:]):
            return word[:i], word[i:]
    raise GkmError("not a composable word")


def _multiset_permutations(items):
    """Distinct orderings of a sorted multiset, lexicographically."""
    counts: dict[Letter, int] = {}
    for x in items:
        counts[x] = counts.get(x, 0) + 1
    keys = sorted(counts)
    word: list[Letter] = []

    def rec():
        if len(word) == len(items):
            yield tuple(word)
            return
        for k in keys:
            if counts[k]:
                counts[k] -= 1
                word.append(k)
                yield from rec()
                word.pop()
                counts[k] += 1

    yield from rec()


def _rho(word, cache: dict) -> Tensor:
    """The tensor image of the Lyndon bracket labelled by word."""
    cached = cache.get(word)
    if cached is not None:
        return cached
    if len(word) == 1:
        result: Tensor = {word: 1}
    else:
        u, v = _standard_factor(word)
        result = _tensor_bracket(_rho(u, cache), _rho(v, cache))
    cache[word] = result
    return result


def _letters(engine: GkmEngine) -> list[Letter]:
    return sorted(l for letters in engine._root_letters.values() for l in letters)


def _class_contents(class_sizes: dict, d: tuple[int, ...]):
    """Multisets ((class, count), ...) of letter classes (root, half) with roots summing to d.

    A class whose root does not fit the remainder is skipped.
    """
    classes = sorted(class_sizes)

    def rec(start: int, remaining: tuple[int, ...], chosen: tuple):
        if not any(remaining):
            yield chosen
            return
        for idx in range(start, len(classes)):
            root = classes[idx][0]
            cap = min(x // r for x, r in zip(remaining, root) if r)
            for count in range(1, cap + 1):
                rest = tuple(x - count * r for x, r in zip(remaining, root))
                yield from rec(idx + 1, rest, chosen + ((classes[idx], count),))

    yield from rec(0, d, ())


def basis_at(engine: GkmEngine, d) -> GkmBasis:
    """Lyndon-bracket labels spanning the block, modulo the ideal."""
    d = tuple(d)
    ideal = engine._ideal_at(d)
    class_sizes = Counter((l.root, l.half_degree) for l in _letters(engine))
    rho_cache: dict = {}
    entries: list[tuple[tuple[Letter, ...], int]] = []
    for gamma in _class_contents(class_sizes, d):
        pools: list[tuple[list[Letter], int]] = []
        count = 1
        for (root, half), number in gamma:
            size = class_sizes[(root, half)]
            pool = [Letter(sum(root), root, half, l) for l in range(1, size + 1)]
            count *= comb(size + number - 1, number)
            pools.append((pool, number))
        if count > BLOCK_CAP:
            raise GkmError(f"block {d} content exceeds the cap of {BLOCK_CAP}")
        for picks in itertools.product(
            *(itertools.combinations_with_replacement(pool, k) for pool, k in pools)
        ):
            content = sorted(x for pick in picks for x in pick)
            if factorial(len(content)) > BLOCK_CAP:
                raise GkmError(f"block {d} content exceeds the cap of {BLOCK_CAP}")
            echelon = _Echelon()
            base = ideal.get(tuple(content))
            if base is not None:
                for row in base.pivots.values():
                    echelon.insert(row)
            for word in _multiset_permutations(content):
                if _is_lyndon(word) and echelon.insert(_rho(word, rho_cache)):
                    entries.append((word, sum(l.half_degree for l in word)))
    entries.sort()
    return GkmBasis(d, entries)


# -- oracle: relations set up one letter pair at a time ---------------------------------


def _relate(engine: GkmEngine, a: Letter, b: Letter) -> None:
    """Every relation between two letters, from their pairing alone."""
    cartan = engine.cartan
    pairing = cartan.form(a.root, b.root)
    if a.root != b.root and pairing > 0:
        raise GkmError(f"simple roots {a.root} and {b.root} pair positively ({pairing})")
    if pairing == 0 and a != b:
        engine._add_relation(_tensor_bracket({(a,): 1}, {(b,): 1}))
        return
    if pairing >= 0:
        return
    for actor, target in ((a, b), (b, a)):
        if cartan.form(actor.root, actor.root) != 2:
            continue
        power = 1 - pairing
        degree = tuple(power * x + y for x, y in zip(actor.root, target.root))
        if sum(degree) > engine.bound:
            continue
        rel: Tensor = {(target,): 1}
        actor_tensor: Tensor = {(actor,): 1}
        for _ in range(power):
            rel = _tensor_bracket(actor_tensor, rel)
        engine._add_relation(rel)


def _registered(cartan: CartanDatum, weights: dict, bound: int) -> GkmEngine:
    engine = GkmEngine(cartan, bound)
    for root in sorted(weights, key=lambda t: (sum(t), t)):
        engine.add_generators(root, weights[root])
    return engine


def _with_pairwise_relations(engine: GkmEngine) -> GkmEngine:
    """Replace the engine's relations by those of every pair of its letters."""
    engine._relations = {}
    letters = _letters(engine)
    for j, b in enumerate(letters):
        for a in letters[:j]:
            _relate(engine, a, b)
    return engine


# -- free Lie characters -------------------------------------------------------------


def test_free_lie_single_generator():
    chV = GradedSeries(1, 6, {(1,): ONE})
    lie = free_lie_character(chV, 6)
    assert lie.coeff((1,)) == ONE
    for n in range(2, 7):
        assert lie.coeff((n,)).is_zero()


def test_free_lie_one_generator_per_degree():
    chV = GradedSeries(1, 6, {(n,): ONE for n in range(1, 7)})
    lie = free_lie_character(chV, 6)
    # necklace oracle: dim L_n = (1/n) sum_{k|n} mu(k) (2^{n/k} - 1)
    for n in range(1, 7):
        expected = sum(
            _moebius(k) * (2 ** (n // k) - 1) for k in range(1, n + 1) if n % k == 0
        )
        assert expected % n == 0
        assert lie.coeff((n,)) == QPoly.constant(expected // n)
    values = [lie.coeff((n,)).eval_at(1) for n in range(1, 7)]
    assert values == [1, 1, 2, 3, 6, 9]


def test_free_lie_two_generators():
    chV = GradedSeries(1, 6, {(1,): QPoly.constant(2)})
    lie = free_lie_character(chV, 6)
    # binary Witt numbers: (1/n) sum_{k|n} mu(k) 2^{n/k}
    assert [lie.coeff((n,)).eval_at(1) for n in range(1, 7)] == [2, 1, 2, 3, 6, 9]


def test_free_lie_rejects_bad_input():
    with pytest.raises(GkmError):
        free_lie_character(GradedSeries(1, 2, {(0,): ONE}), 2)
    with pytest.raises(GkmError):
        free_lie_character(GradedSeries(1, 2, {(1,): ONE}), 3)


# -- the engine on Serre presentations ------------------------------------------------


def _sl3_engine(a2, bound=4):
    engine = GkmEngine(CartanDatum.from_quiver(a2), bound)
    engine.add_generators((1, 0), ONE)
    engine.add_generators((0, 1), ONE)
    return engine


def test_sl3_dimensions(a2):
    engine = _sl3_engine(a2)
    assert engine.dims_at((1, 0)) == {0: 1}
    assert engine.dims_at((0, 1)) == {0: 1}
    assert engine.dims_at((1, 1)) == {0: 1}
    assert engine.dims_at((2, 0)) == {}
    assert engine.dims_at((2, 1)) == {}
    assert engine.dims_at((1, 2)) == {}
    assert engine.dims_at((2, 2)) == {}
    assert character_at(engine, (1, 1)) == ONE
    assert character_at(engine, (2, 1)).is_zero()


def test_affine_sl2_root_multiplicities(kronecker):
    engine = GkmEngine(CartanDatum.from_quiver(kronecker), 6)
    engine.add_generators((1, 0), ONE)
    engine.add_generators((0, 1), ONE)
    positive = {(1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (2, 3), (3, 3)}
    for total in range(1, 7):
        for a in range(total + 1):
            d = (a, total - a)
            dims = engine.dims_at(d)
            if d in positive:
                assert dims == {0: 1}, d
            else:
                assert dims == {}, d


def test_basis_matches_dimensions(a2, kronecker):
    engine = _sl3_engine(a2)
    for d in ((1, 0), (1, 1), (2, 1), (2, 2)):
        basis = basis_at(engine, d)
        assert len(basis.entries) == sum(engine.dims_at(d).values())
    engine = GkmEngine(CartanDatum.from_quiver(kronecker), 4)
    engine.add_generators((1, 0), ONE)
    engine.add_generators((0, 1), ONE)
    for d in ((1, 1), (2, 1), (2, 2), (3, 1)):
        basis = basis_at(engine, d)
        assert len(basis.entries) == sum(engine.dims_at(d).values())


LOOP_PLUS_LEG = Quiver(["0", "1"], [("0", "0"), ("0", "1")])
# the same quiver with the loop at the second vertex: the real root is
# then registered after the isotropic one instead of before it
LEG_PLUS_LOOP = Quiver(["0", "1"], [("1", "1"), ("0", "1")])


@pytest.mark.parametrize(
    "quiver, doubled",
    [
        (LOOP_PLUS_LEG, False),
        (LEG_PLUS_LOOP, False),
        # plain C^abs gives every isotropic root of this quiver one letter;
        # q + 1 there puts two commuting letters at each isotropic root
        (LOOP_PLUS_LEG, True),
        (Quiver(["0"], [("0", "0"), ("0", "0")]), False),
    ],
    ids=["loop-plus-leg", "leg-plus-loop", "loop-plus-leg-doubled", "two-loop"],
)
def test_class_setup_matches_letter_pairs(quiver, doubled):
    bound = 5
    cartan = CartanDatum.from_quiver(quiver)
    weights = dict(absolutely_cuspidal(quiver, bound).table)
    if doubled:
        weights = {
            d: p + ONE if cartan.form(d, d) == 0 else p for d, p in weights.items()
        }
    engine = _registered(cartan, weights, bound)
    oracle = _with_pairwise_relations(_registered(cartan, weights, bound))
    relations = sum(len(rels) for rels in engine._relations.values())
    assert relations == sum(len(rels) for rels in oracle._relations.values())
    for d in vectors_up_to(cartan.rank, bound):
        if any(d):
            assert engine.dims_at(d) == oracle.dims_at(d), d


def test_positively_pairing_roots_are_rejected(a2):
    engine = GkmEngine(CartanDatum.from_quiver(a2), 3)
    engine.add_generators((1, 0), ONE)
    with pytest.raises(GkmError, match="pair positively"):
        engine.add_generators((1, 1), ONE)
    assert _letters(engine) == [Letter(1, (1, 0), 0, 1)]


def test_real_root_cannot_be_registered_twice(a2):
    engine = GkmEngine(CartanDatum.from_quiver(a2), 3)
    engine.add_generators((1, 0), ONE)
    with pytest.raises(GkmError, match="multiplicity one"):
        engine.add_generators((1, 0), ONE)
    assert _letters(engine) == [Letter(1, (1, 0), 0, 1)]
    assert engine.dims_at((2, 0)) == {}


def test_hyperbolic_root_is_relation_free(g2loop):
    engine = GkmEngine(CartanDatum.from_quiver(g2loop), 5)
    engine.add_generators((1,), QPoly.constant(2))
    assert [sum(engine.dims_at((n,)).values()) for n in range(1, 6)] == [2, 1, 2, 3, 6]


def test_engine_agrees_with_free_lie_series(g2loop):
    weight = ONE + Q(1)
    engine = GkmEngine(CartanDatum.from_quiver(g2loop), 4)
    engine.add_generators((1,), weight)
    lie = free_lie_character(GradedSeries(1, 4, {(1,): weight}), 4)
    for n in range(1, 5):
        assert character_at(engine, (n,)) == lie.coeff((n,))


def test_relation_free_engine_is_the_free_lie_algebra(g2loop):
    weights = {(1,): QPoly.constant(2) + Q(1), (2,): Q(2) + Q(4, 3)}
    engine = _registered(CartanDatum.from_quiver(g2loop), weights, 6)
    assert not engine._relations
    lie = free_lie_character(GradedSeries(1, 6, weights), 6)
    for n in range(1, 7):
        assert character_at(engine, (n,)) == lie.coeff((n,)), n
    for n in range(1, 5):
        basis = basis_at(engine, (n,))
        assert Counter(j for _, j in basis.entries) == engine.dims_at((n,)), n


def test_free_part_costs_no_work_and_one_ideal_lookup_per_root(g2loop):
    engine = _registered(
        CartanDatum.from_quiver(g2loop), dict(absolutely_cuspidal(g2loop, 9).table), 9
    )
    lookups = []
    ideal_at = engine._ideal_at

    def counted(d):
        lookups.append(d)
        return ideal_at(d)

    engine._ideal_at = counted
    work = engine.work
    assert engine.dims_at((9,))
    assert engine.work == work
    # (9,) itself, then (b - r,) once for each block b <= 9 and each root r < b
    assert len(lookups) <= 1 + sum(b - 1 for b in range(1, 10))


def test_isotropic_letters_commute(jordan):
    engine = GkmEngine(CartanDatum.from_quiver(jordan), 4)
    engine.add_generators((1,), ONE + Q(1))
    assert engine.dims_at((1,)) == {0: 1, 2: 1}
    for n in (2, 3, 4):
        assert engine.dims_at((n,)) == {}


def test_distinct_isotropic_rays_commute(jordan):
    engine = GkmEngine(CartanDatum.from_quiver(jordan), 4)
    engine.add_generators((1,), Q(1))
    engine.add_generators((2,), Q(1))
    assert engine.dims_at((1,)) == {2: 1}
    assert engine.dims_at((2,)) == {2: 1}
    assert engine.dims_at((3,)) == {}
    assert engine.dims_at((4,)) == {}


def test_engine_input_validation(a2, jordan):
    cartan = CartanDatum.from_quiver(a2)
    engine = GkmEngine(cartan, 3)
    with pytest.raises(GkmError):
        engine.add_generators((1, 0), QPoly.constant(2))  # real root, mult 2
    with pytest.raises(GkmError):
        engine.add_generators((1, 0), QPoly.half_power(1))  # odd degree
    with pytest.raises(GkmError):
        engine.add_generators((1, 0), Q(1, -1))  # negative multiplicity
    with pytest.raises(GkmError):
        engine.add_generators((0, 0), ONE)
    engine.add_generators((1, 0), ONE)
    engine.dims_at((2, 0))
    with pytest.raises(GkmError):
        engine.add_generators((0, 1), ONE)  # arrives after a higher query
    with pytest.raises(GkmError):
        engine.dims_at((2, 2))  # beyond bound
    with pytest.raises(GkmError):
        GkmEngine(cartan, 0)


def test_engine_add_order_independence(kronecker):
    def build(order):
        engine = GkmEngine(CartanDatum.from_quiver(kronecker), 4)
        for root in order:
            engine.add_generators(root, ONE)
        return [engine.dims_at((a, t - a)) for t in range(1, 5) for a in range(t + 1)]

    assert build([(1, 0), (0, 1)]) == build([(0, 1), (1, 0)])


# -- the denominator identity against the presented algebra ---------------------------

AFFINE_D4 = Quiver(["0", "1", "2", "3", "4"], [("1", "0"), ("2", "0"), ("3", "0"), ("4", "0")])
D4_UNITS = {tuple(int(i == k) for i in range(5)): ONE for k in range(5)}
KRONECKER = Quiver(["0", "1"], [("0", "1"), ("0", "1")])
JORDAN = Quiver(["0"], [("0", "0")])
# a looped vertex x beside the A2 arrow y -> z, whose sum y + z is a real root
LOOP_AND_LEG = Quiver(["x", "y", "z"], [("x", "x"), ("y", "z")])
# three looped vertices and an arrow b -> c: the clique {a, b} is orthogonal
# to c's root only through a, so it must not extend by c
LOOPS_AND_ARROW = Quiver(["a", "b", "c"], [("a", "a"), ("b", "b"), ("c", "c"), ("b", "c")])

#: Hand-made weight functions: (quiver, weights, bound).
HAND_MADE = {
    "affine-d4-units": (AFFINE_D4, D4_UNITS, 6),
    "affine-d4-extra-letter-at-delta": (AFFINE_D4, {**D4_UNITS, (2, 1, 1, 1, 1): ONE}, 6),
    "jordan-2+q-and-q": (JORDAN, {(1,): QPoly.constant(2) + Q(1), (2,): Q(1)}, 6),
    "kronecker-real-letter-at-q": (KRONECKER, {(1, 0): Q(1), (0, 1): ONE}, 6),
    "kronecker-real-letter-at-q-with-rays": (
        KRONECKER,
        {(1, 0): Q(1), (0, 1): ONE, (1, 1): Q(1) + ONE, (2, 2): Q(2)},
        6,
    ),
    "loop-and-real-root-of-total-2": (LOOP_AND_LEG, {(1, 0, 0): Q(1), (0, 1, 1): ONE}, 5),
    "three-loops-and-an-arrow": (
        LOOPS_AND_ARROW,
        {(1, 0, 0): Q(1), (0, 1, 0): Q(1), (0, 0, 1): ONE + Q(1)},
        5,
    ),
}

#: Quivers whose C^abs is the weight function, with the bound.
CABS_QUIVERS = {
    "two-loop": (Quiver(["0"], [("0", "0"), ("0", "0")]), 5),
    "kronecker": (KRONECKER, 8),
    "jordan": (JORDAN, 8),
    "3-cycle": (Quiver(["0", "1", "2"], [("0", "1"), ("1", "2"), ("2", "0")]), 5),
    "loop-plus-leg": (LOOP_PLUS_LEG, 6),
    "leg-plus-loop": (LEG_PLUS_LOOP, 6),
    "three-loop": (Quiver(["0"], [("0", "0")] * 3), 4),
}


def _denominator_cases():
    for name, (quiver, weights, bound) in HAND_MADE.items():
        yield pytest.param(quiver, weights, bound, id=name)
    for name, (quiver, bound) in CABS_QUIVERS.items():
        yield pytest.param(quiver, None, bound, id=f"cabs-{name}")


@pytest.mark.parametrize("quiver, weights, bound", _denominator_cases())
def test_denominator_dims_match_the_presented_algebra(quiver, weights, bound):
    if weights is None:
        weights = dict(absolutely_cuspidal(quiver, bound).table)
    cartan = CartanDatum.from_quiver(quiver)
    function = WeightFunction(quiver, weights)
    dims = gkm_dims(cartan, function, bound).dims
    assert dims == presented_dims(cartan, function, bound).dims
    assert list(dims) == sorted(dims, key=lambda t: (sum(t), t))


def test_affine_d4_dims_are_the_root_multiplicities():
    cartan = CartanDatum.from_quiver(AFFINE_D4)
    plain = gkm_dims(cartan, WeightFunction(AFFINE_D4, D4_UNITS), 7).dims
    extra = {**D4_UNITS, (2, 1, 1, 1, 1): ONE}
    grown = gkm_dims(cartan, WeightFunction(AFFINE_D4, extra), 7).dims
    delta = (2, 1, 1, 1, 1)
    assert plain[delta] == {0: 4} and grown[delta] == {0: 5}
    for d, block in plain.items():
        if d != delta:
            assert cartan.form(d, d) == 2 and block == {0: 1}, d
    assert sum(1 for d in plain if d != delta) == 24 + 5  # 24 at |d| <= 6, 5 at 7
    # the letter at delta commutes with every unit, since (delta, 1_i) = 0
    assert {d: b for d, b in grown.items() if d != delta} == {
        d: b for d, b in plain.items() if d != delta
    }


@pytest.mark.parametrize(
    "weights, message",
    [
        ({(1, 0): ONE, (1, 1): ONE}, "pair positively"),
        ({(1, 0): QPoly.constant(2)}, "multiplicity one"),
        ({(1, 0): QPoly.half_power(1)}, "odd cohomological degrees"),
        ({(1, 0): Q(1, -1)}, "not a nonnegative integer"),
        ({(0, 0): ONE}, "nonzero and nonnegative"),
        ({(1, 0, 0): ONE}, "wrong rank"),
    ],
)
def test_both_routes_share_the_generator_checks(a2, weights, message):
    cartan = CartanDatum.from_quiver(a2)
    for route in (gkm_dims, presented_dims):
        with pytest.raises(GkmError, match=message):
            route(cartan, WeightFunction(a2, weights), 3)


def test_presented_budget_keeps_the_totals_it_completed(kronecker, monkeypatch):
    weights = WeightFunction(kronecker, {(1, 0): ONE, (0, 1): ONE, (1, 1): Q(1)})
    cartan = CartanDatum.from_quiver(kronecker)
    full = presented_dims(cartan, weights, 6)
    assert full.bound == 6
    monkeypatch.setattr(qgk._presented, "PRESENTED_BUDGET", 100)
    part = presented_dims(cartan, weights, 6)  # the work passes 100 during |d| = 6
    assert part.bound == 5
    assert part.dims == {d: b for d, b in full.dims.items() if sum(d) <= 5}
    engine = GkmEngine(cartan, 6)
    for root, poly in weights.items():
        engine.add_generators(root, poly)
    with pytest.raises(BudgetError, match="passed its budget of 100 "):
        for d in vectors_of_total(2, 6):
            engine.dims_at(d)


def test_gkm_resolves_only_the_engine_from_the_oracle_module():
    assert qgk.gkm.GkmEngine is qgk._presented.GkmEngine
    with pytest.raises(AttributeError, match="has no attribute 'Letter'"):
        qgk.gkm.Letter


def test_denominator_arrival_order(a2):
    # (1 - a)(1 - b)(1 - ab) = 1 - a - b + a^2 b + a b^2 - a^2 b^2
    denominator = qgk.gkm._Denominator(CartanDatum.from_quiver(a2), 3)
    assert denominator.coeff((1, 0)).is_zero()
    denominator.add({(1, 0): ONE})
    assert denominator.coeff((1, 0)) == -ONE
    assert denominator.coeff((0, 1)).is_zero()
    denominator.add({(0, 1): ONE})  # a later real root sends every sum round again
    assert denominator.series().items() == [
        ((0, 0), ONE), ((0, 1), -ONE), ((1, 0), -ONE), ((1, 2), ONE), ((2, 1), ONE)
    ]
    # the real root y + z arrives after the sum at x was expanded, and sends it to x + y + z
    denominator = qgk.gkm._Denominator(CartanDatum.from_quiver(LOOP_AND_LEG), 5)
    denominator.add({(1, 0, 0): Q(1)})
    assert denominator.coeff((1, 0, 0)) == -Q(1)
    assert denominator.coeff((1, 1, 1)).is_zero()
    denominator.add({(0, 1, 1): ONE})
    assert denominator.coeff((1, 1, 1)) == Q(1)
    assert denominator.coeff((1, 0, 0)) == -Q(1)
    with pytest.raises(GkmError):
        qgk.gkm._Denominator(CartanDatum.from_quiver(a2), 0)


def _inverted(quiver, bound, monkeypatch):
    """C^abs up to bound, and the work of the denominator that inverted it."""
    made = []

    class Spy(qgk.gkm._Denominator):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(qgk.cuspidal, "_Denominator", Spy)
    table = absolutely_cuspidal(quiver, bound)
    (denominator,) = made
    return table, denominator.enumerated


def test_denominator_work_follows_its_output(monkeypatch):
    arrowless = Quiver([f"v{i:02d}" for i in range(60)], [])
    table, work = _inverted(arrowless, 1, monkeypatch)
    assert len(table.table) == 60
    assert work == 61  # the orbit of 0: itself and one step to each unit vector
    table, work = _inverted(JORDAN, 24, monkeypatch)
    assert work <= 1_000
    assert all(table.polynomial((n,)) == Q(1) for n in range(1, 25))


def test_denominator_skips_wedges_past_the_dimension():
    # multiplicity q is one-dimensional, so its Lambda^k is zero for k > 1
    denominator = qgk.gkm._Denominator(CartanDatum.from_quiver(JORDAN), 24)
    for n in range(1, 25):
        denominator.add({(n,): Q(1)})
    assert denominator.enumerated == 424


def test_denominator_budget(kronecker, monkeypatch):
    weights = WeightFunction(kronecker, {(1, 0): ONE, (0, 1): ONE, (1, 1): Q(1)})
    cartan = CartanDatum.from_quiver(kronecker)
    gkm_dims(cartan, weights, 8)
    monkeypatch.setattr(qgk.gkm, "GKM_BUDGET", 10)
    with pytest.raises(BudgetError, match="stopped after 11 cliques and Weyl group elements"):
        gkm_dims(cartan, weights, 8)


def test_gkm_dims_rejects_a_negative_dimension(kronecker, monkeypatch):
    log = qgk.gkm.pleth_log
    monkeypatch.setattr(qgk.gkm, "pleth_log", lambda series, mode: -log(series, mode))
    weights = WeightFunction(kronecker, {(1, 0): ONE, (0, 1): ONE})
    with pytest.raises(GkmError, match="dimension -1 at block"):
        gkm_dims(CartanDatum.from_quiver(kronecker), weights, 2)


def test_gkm_dims_vector_budget(jordan):
    weights = WeightFunction(jordan, {(1,): Q(1)})
    with pytest.raises(BudgetError, match="100000001 dimension vectors"):
        gkm_dims(CartanDatum.from_quiver(jordan), weights, 100_000_000)


# -- module-level wrappers ------------------------------------------------------------


def test_gkm_dims_table(kronecker):
    weights = WeightFunction(kronecker, {(1, 0): ONE, (0, 1): ONE})
    table = gkm_dims(CartanDatum.from_quiver(kronecker), weights, 4)
    assert table.dims[(1, 1)] == {0: 1}
    assert table.dims[(2, 2)] == {0: 1}
    assert (3, 1) not in table.dims
    terms = {d: QPoly(block) for d, block in table.dims.items()}
    series = GradedSeries(table.cartan.rank, table.bound, terms)
    assert series.coeff((2, 1)) == ONE
    assert series.coeff((2, 0)).is_zero()


def test_gkm_dims_workers_and_insertion_order(kronecker):
    """The table does not depend on the order the weight function lists roots in."""
    cartan = CartanDatum.from_quiver(kronecker)
    a = gkm_dims(cartan, WeightFunction(kronecker, {(1, 0): ONE, (0, 1): ONE}), 4)
    b = gkm_dims(cartan, WeightFunction(kronecker, {(0, 1): ONE, (1, 0): ONE}), 4)
    assert a.dims == b.dims
    assert list(a.dims) == sorted(a.dims, key=lambda t: (sum(t), t))


def test_uea_character_sl3():
    chL = GradedSeries(2, 3, {(1, 0): ONE, (0, 1): ONE, (1, 1): ONE})
    u = uea_character(chL)
    assert u.coeff((0, 0)) == ONE
    assert u.coeff((1, 1)) == QPoly.constant(2)
    assert u.coeff((2, 1)) == QPoly.constant(2)  # x^2 y, x z ordered monomials


def test_uea_character_geometric():
    chL = GradedSeries(1, 5, {(1,): Q(1)})
    u = uea_character(chL)
    for n in range(6):
        assert u.coeff((n,)) == Q(n)


# -- lowest-weight characters ---------------------------------------------------------
#
# reference.triangular_extract is the oracle: it solves F = sum_d V_d z^d chL_d
# from F alone, one equation at a time, where no two blocks are comparable.


def test_extract_single_block_is_identity():
    F = GradedSeries(1, 2, {(0,): ONE, (1,): Q(1), (2,): Q(2)})
    out = triangular_extract(F, {(0,): ONE})
    assert set(out) == {(0,)}
    assert out[(0,)].items() == F.items()


def test_extract_divides_by_the_multiplicity():
    F = GradedSeries(1, 1, {(0,): Q(1), (1,): Q(1)})
    out = triangular_extract(F, {(0,): Q(1)})
    assert out[(0,)].coeff((1,)) == ONE


def test_extract_two_block_triangular_system():
    # F = z0 (1 + q z0 + z1) + q z0^2: solvable one equation at a time
    F = GradedSeries(2, 2, {(1, 0): ONE, (2, 0): Q(1, 2), (1, 1): ONE})
    out = triangular_extract(F, {(1, 0): ONE, (2, 0): Q(1)})
    assert out[(1, 0)].coeff((1, 0)) == Q(1)
    assert out[(1, 0)].coeff((0, 1)) == ONE
    assert out[(2, 0)].items() == [((0, 0), ONE)]


def test_extract_truncates_each_block_below_the_bound_of_f(a2):
    F = GradedSeries(2, 2, {(1, 0): ONE, (2, 0): Q(1, 2), (1, 1): ONE})
    out = triangular_extract(F, {(1, 0): ONE, (2, 0): Q(1)})
    assert {d: block.bound for d, block in out.items()} == {(1, 0): 1, (2, 0): 0}
    # Jordan F with N = 1 gives a block that claims N = 1, not more
    F = GradedSeries(1, 1, {(0,): ONE, (1,): Q(1)})
    assert triangular_extract(F, {(0,): ONE})[(0,)].bound == 1
    # the library truncates at the envelope's bound less |start|
    cartan = CartanDatum.from_quiver(frame(a2, (1, 0)))
    units = {(1, 0, 0): ONE, (0, 1, 0): ONE}
    envelope = uea_character(GradedSeries(3, 3, {**units, (1, 1, 0): ONE}))
    assert lowest_weight_extract(cartan, (0, 0, 1), units, envelope).bound == 2


def test_extract_separates_comparable_blocks(a2):
    # A2 framed at (1,1) has blocks at (0,0) and (1,1): the adjoint module of
    # sl3 (lowest weight -1,-1) and the trivial one (lowest weight 0,0)
    cartan = CartanDatum.from_quiver(frame(a2, (1, 1)))
    units = {(1, 0, 0): ONE, (0, 1, 0): ONE}
    envelope = uea_character(GradedSeries(3, 4, {**units, (1, 1, 0): ONE}))
    adjoint = lowest_weight_extract(cartan, (0, 0, 1), units, envelope)
    two = QPoly.constant(2)
    assert adjoint.items() == [
        ((0, 0, 0), ONE),
        ((0, 1, 0), ONE),
        ((1, 0, 0), ONE),
        ((1, 1, 0), two),
        ((1, 2, 0), ONE),
        ((2, 1, 0), ONE),
    ]
    trivial = lowest_weight_extract(cartan, (1, 1, 1), units, envelope)
    assert trivial.items() == [((0, 0, 0), ONE)]
    # F alone does not separate them: its equation at (1, 2) holds both blocks
    F = framed_character(a2, (1, 1), 3)
    assert F.coeff((1, 1)) == two + Q(-1)
    with pytest.raises(
        UnderdeterminedError, match=r"equation at \(1, 2\) involves 2 unknown block terms"
    ):
        triangular_extract(F, {(0, 0): ONE, (1, 1): Q(-1)})


def test_extract_inconsistent_series():
    F = GradedSeries(1, 1, {(0,): ONE})
    with pytest.raises(GkmError, match=r"inconsistent decomposition at \(0,\): 1 != 0"):
        triangular_extract(F, {(1,): ONE})


# -- seed-pinned order independence ----------------------------------------------------


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    order=st.permutations([(1, 0), (0, 1)]),
    extra=st.sampled_from([None, 0, 2, 4]),
)
def test_engine_dims_do_not_depend_on_registration_order(order, extra):
    kronecker = Quiver(["0", "1"], [("0", "1"), ("0", "1")])
    cartan = CartanDatum.from_quiver(kronecker)

    def build(roots):
        engine = GkmEngine(cartan, 3)
        for root in roots:
            engine.add_generators(root, ONE)
        if extra is not None:
            engine.add_generators((1, 1), QPoly.half_power(extra))
        return [engine.dims_at((a, t - a)) for t in range(1, 4) for a in range(t + 1)]

    assert build(order) == build([(1, 0), (0, 1)])
