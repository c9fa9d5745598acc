r"""
Graded characters of framed moduli and their lowest-weight decomposition.

For a framing vector f the generating series

    F(z) = sum_e A_{Q_f, (e,1)}(q^{-1}) z^e

collects Kac polynomials of the framed quiver at framing dimension one,
evaluated at q^{-1}.  As a module character it decomposes into blocks

    F(z) = sum_d V_d(q^{-1}) z^d chL_d(z)

indexed by the d with (d,1) a positive root of Q_f.  The block
multiplicity V_d is the absolutely cuspidal polynomial of Q_f at (d,1),
again in q^{-1}.  chL_d is the character of the irreducible module over
the BPS Lie algebra n^+ of Q whose lowest weight pairs with 1_i as (d,1)
does under the symmetrised Euler form of Q_f.  The Borcherds-Kac
character formula gives it without F (gkm.lowest_weight_extract):

    chL_d = z^{-(d,1)} Exp_{q,z}(ch n^+) D_{(d,1)},

D_{(d,1)} the denominator identity's right side begun at (d,1) over the
simple roots (e,0) of Q_f, all in q^{-1}.  So both sides of F = sum_d
V_d z^d chL_d are computed apart, and lw_decompose checks it at |e| <= N.
"""

from __future__ import annotations

from typing import NamedTuple

from .cuspidal import absolutely_cuspidal_from_kac
from .gkm import GkmError, lowest_weight_extract, uea_character
from .kac import KacTable, hua_kac
from .qpoly import QPoly
from .quiver import Quiver, frame
from .series import GradedSeries, _csv, vectors_up_to


def framed_character(quiver: Quiver, framing: tuple[int, ...], bound: int) -> GradedSeries:
    """F(z) = sum_{|e| <= bound} A_{Q_f,(e,1)}(q^{-1}) z^e."""
    return _framed_series(hua_kac(frame(quiver, framing), bound + 1), bound)


def _framed_series(framed_kac: KacTable, bound: int) -> GradedSeries:
    """F(z) read off the Kac table of the framed quiver up to bound + 1."""
    kac = framed_kac.to_series()
    rank = framed_kac.cartan.rank - 1
    terms: dict[tuple[int, ...], QPoly] = {}
    for e in vectors_up_to(rank, bound):
        poly = kac.coeff(e + (1,))
        if not poly.is_zero():
            terms[e] = poly.substitute_power(-1)
    return GradedSeries(rank, bound, terms)


class Block(NamedTuple):
    """One lowest-weight constituent of a framed character."""

    vector: tuple[int, ...]
    multiplicity: QPoly
    weight: tuple[int, ...]
    character: GradedSeries


class LowestWeightDecomposition:
    def __init__(self, total: GradedSeries, blocks: list[Block]):
        self.total, self.blocks = total, blocks


def lw_decompose(
    quiver: Quiver, framing: tuple[int, ...], bound: int
) -> LowestWeightDecomposition:
    """Decompose the framed character into lowest-weight blocks.

    Blocks are the unframed d with |d| <= bound and (d,1) in Phi^+ of the
    framed quiver, which is exactly where its C^abs is nonzero
    (absolutely_cuspidal_from_kac checks that support); the zero vector is
    a block whenever the pure framing unit is (it always is).  Each chL_d
    comes from lowest_weight_extract at (d,1) and must have nonnegative
    integer coefficients, and F = sum_d V_d z^d chL_d is checked at every
    |e| <= bound; either failure raises GkmError.
    """
    kac = hua_kac(frame(quiver, framing), bound + 1)
    table = absolutely_cuspidal_from_kac(kac)
    total = _framed_series(kac, bound)
    cartan, rank = table.cartan, total.rank

    # n^+ is the unframed part of the framed algebra, in q^{-1} like F
    unframed = {e: poly.substitute_power(-1) for e, poly in kac.items() if not e[-1]}
    envelope = uea_character(GradedSeries(cartan.rank, bound + 1, unframed))
    simple = {e: poly.substitute_power(-1) for e, poly in table.items() if not e[-1]}

    blocks: list[Block] = []
    rebuilt: dict[tuple[int, ...], QPoly] = {}
    for d in vectors_up_to(rank, bound):
        start = d + (1,)
        multiplicity = table.polynomial(start).substitute_power(-1)
        if multiplicity.is_zero():
            continue
        weight = cartan.row(start)[:rank]
        framed = lowest_weight_extract(cartan, start, simple, envelope)
        character = GradedSeries(rank, framed.bound, {c[:-1]: p for c, p in framed.items()})
        blocks.append(Block(d, multiplicity, weight, character))
        for c, poly in character.items():
            if not (poly.has_integer_coefficients() and poly.has_nonnegative_coefficients()):
                raise GkmError(
                    f"chL_{_csv(d)} has a negative or fractional coefficient at {_csv(c)}: {poly}"
                )
            e = tuple(x + y for x, y in zip(d, c))
            rebuilt[e] = rebuilt.get(e, QPoly.zero()) + multiplicity * poly

    for e in vectors_up_to(rank, bound):
        got, want = rebuilt.get(e, QPoly.zero()), total.coeff(e)
        if got != want:
            raise GkmError(f"the blocks do not rebuild F at {_csv(e)}: {got} != {want}")
    return LowestWeightDecomposition(total, blocks)
