from __future__ import annotations

from pathlib import Path

import pytest
from reference import UnderdeterminedError, series_inv, triangular_extract

import qgk.cuspidal
import qgk.nakajima
from qgk import (
    GradedSeries,
    QPoly,
    Quiver,
    framed_character,
    lw_decompose,
    series_mul,
)
from qgk.series import vectors_up_to

Q = QPoly.q_power
ONE = QPoly.one()


def _partitions(bound: int) -> GradedSeries:
    """prod_k 1 / (1 - q^{-1} z^k), truncated at bound."""
    series = GradedSeries.one(1, bound)
    for k in range(1, bound + 1):
        series = series_mul(series, GradedSeries(1, bound, {(0,): ONE, (k,): -Q(-1)}))
    return series_inv(series)


def test_framed_character_one_box(a1):
    F = framed_character(a1, (1,), 2)
    assert F.coeff((0,)) == ONE
    assert F.coeff((1,)) == ONE
    assert F.coeff((2,)).is_zero()


def test_framed_jordan_is_the_partition_series(jordan):
    dec = lw_decompose(jordan, (1,), 6)
    assert [b.vector for b in dec.blocks] == [(0,)]
    block = dec.blocks[0]
    assert block.multiplicity == ONE
    assert block.weight == (-1,)
    assert block.character.items() == _partitions(6).items()


def test_framed_a1_gives_the_two_dimensional_block(a1):
    dec = lw_decompose(a1, (1,), 3)
    assert [b.vector for b in dec.blocks] == [(0,)]
    block = dec.blocks[0]
    assert block.weight == (-1,)
    assert block.character.items() == [((0,), ONE), ((1,), ONE)]


def test_lw_decompose_computes_the_framed_table_once(a2, monkeypatch):
    calls = []
    real = qgk.nakajima.hua_kac

    def counting(quiver, bound):
        calls.append(bound)
        return real(quiver, bound)

    for module in (qgk.nakajima, qgk.cuspidal):
        monkeypatch.setattr(module, "hua_kac", counting)
    dec = lw_decompose(a2, (1, 0), 2)
    assert calls == [3]
    assert dec.total.items() == framed_character(a2, (1, 0), 2).items()


def test_zero_framing_leaves_the_trivial_block(a2):
    dec = lw_decompose(a2, (0, 0), 3)
    assert [b.vector for b in dec.blocks] == [(0, 0)]
    block = dec.blocks[0]
    assert block.multiplicity == ONE
    assert block.weight == (0, 0)
    assert block.character.items() == [((0, 0), ONE)]


def test_framed_a2_fundamental_block(a2):
    dec = lw_decompose(a2, (1, 0), 3)
    assert [b.vector for b in dec.blocks] == [(0, 0)]
    block = dec.blocks[0]
    assert block.multiplicity == ONE
    assert block.weight == (-1, 0)
    assert block.character.items() == [
        ((0, 0), ONE),
        ((1, 0), ONE),
        ((1, 1), ONE),
    ]


def test_framed_kronecker_single_block_takes_all(kronecker):
    dec = lw_decompose(kronecker, (1, 0), 3)
    assert [b.vector for b in dec.blocks] == [(0, 0)]
    assert dec.blocks[0].character.items() == dec.total.items()
    assert dec.total.coeff((1, 1)) == ONE + Q(-1)


def test_comparable_blocks_are_separated(jordan):
    # framing 2: no root (n,0) is orthogonal to (d,1), and there is no real
    # root, so every block carries the partition series
    dec = lw_decompose(jordan, (2,), 3)
    assert [b.vector for b in dec.blocks] == [(0,), (1,), (2,), (3,)]
    assert [b.multiplicity for b in dec.blocks] == [
        ONE, Q(-2), Q(-4) + Q(-2), Q(-6) + Q(-4) + Q(-2)
    ]
    for block in dec.blocks:
        assert block.weight == (-2,)
        assert block.character.items() == _partitions(3 - block.vector[0]).items()
    multiplicities = {b.vector: b.multiplicity for b in dec.blocks}
    with pytest.raises(UnderdeterminedError, match=r"equation at \(2,\)"):
        triangular_extract(dec.total, multiplicities)


def test_comparable_blocks_below_the_horizon(jordan):
    # bound 1 stops before any equation carries two unknowns
    dec = lw_decompose(jordan, (2,), 1)
    assert [b.vector for b in dec.blocks] == [(0,), (1,)]
    weights = {b.vector: b.weight for b in dec.blocks}
    assert weights[(0,)] == (-2,)
    assert weights[(1,)] == (-2,)


LOOP_AND_POINT = Quiver(["0", "1"], [("0", "0")])


@pytest.mark.parametrize(
    "name, framing, bound",
    [("jordan", (1,), 6), ("a2", (1, 0), 4), ("kronecker", (1, 0), 4), ("loop_and_point", (1, 1), 5)],
)
def test_blocks_reconstruct_the_framed_character(name, framing, bound, request):
    """F = sum_d V_d z^d chL_d at every |e| <= N, each chL_d truncated at N - |d|."""
    quiver = LOOP_AND_POINT if name == "loop_and_point" else request.getfixturevalue(name)
    dec = lw_decompose(quiver, framing, bound)
    assert not dec.total.is_zero()
    for block in dec.blocks:
        assert block.character.bound == bound - sum(block.vector)
    for e in vectors_up_to(len(quiver.vertices), bound):
        acc = QPoly.zero()
        for block in dec.blocks:
            c = tuple(x - y for x, y in zip(e, block.vector))
            if min(c) >= 0:
                acc = acc + block.multiplicity * block.character.coeff(c)
        assert acc == dec.total.coeff(e), e


DEMOS = Path(__file__).resolve().parents[1] / "demos" / "quivers"

#: The demo framings that nakajima-decomp is run on.
DEMO_FRAMINGS = [
    ("a2", (1, 0)), ("a2", (1, 1)), ("a2", (2, 1)),
    ("jordan", (1,)), ("jordan", (2,)),
    ("kronecker", (1, 0)), ("kronecker", (1, 1)), ("kronecker", (0, 2)),
    ("two_loop", (1,)), ("two_loop", (2,)),
]


def test_blocks_agree_with_the_triangular_solve_wherever_it_solves():
    solved = []
    for name, framing in DEMO_FRAMINGS:
        quiver = Quiver.from_json((DEMOS / f"{name}.json").read_text())
        for bound in (1, 2, 4):
            dec = lw_decompose(quiver, framing, bound)
            try:
                oracle = triangular_extract(dec.total, {b.vector: b.multiplicity for b in dec.blocks})
            except UnderdeterminedError:
                continue
            assert {b.vector: b.character for b in dec.blocks} == oracle, (name, framing, bound)
            solved.append((name, framing, bound))
    # every framing at bound 1, and the three without comparable blocks at bound 4
    assert len(solved) == 19
