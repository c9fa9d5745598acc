from __future__ import annotations

import pytest
from reference import series_inv

import qgk.cuspidal
import qgk.nakajima
from qgk import (
    AmbiguousDecompositionError,
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
    expected = GradedSeries.one(1, 6)
    for k in range(1, 7):
        factor = GradedSeries(1, 6, {(0,): ONE, (k,): QPoly.zero() - Q(-1)})
        expected = series_mul(expected, factor)
    expected = series_inv(expected)
    assert block.character.items() == expected.items()


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


def test_comparable_blocks_are_ambiguous(jordan):
    with pytest.raises(AmbiguousDecompositionError):
        lw_decompose(jordan, (2,), 3)


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
