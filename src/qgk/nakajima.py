r"""
Graded characters of framed moduli and their lowest-weight decomposition.

For a framing vector f the generating series

    F(z) = sum_e A_{Q_f, (e,1)}(q^{-1}) z^e

collects Kac polynomials of the framed quiver at framing dimension one,
evaluated at q^{-1}.  As a module character it decomposes into blocks

    F(z) = sum_d V_d(q^{-1}) z^d chL_d(z)

indexed by the d with (d,1) a positive root of Q_f.  The block
multiplicity V_d is the absolutely cuspidal polynomial of Q_f at (d,1),
again in q^{-1}, and chL_d is the character of the block's lowest-weight
module, recovered coefficient by coefficient from F alone.  The lowest
weight itself is the pairing of (d,1) against the unframed coordinate
vectors under the symmetrised Euler form of Q_f.

The blocks reconstruct F = sum_d V_d z^d chL_d at every |e| <= N by
construction: lowest_weight_extract compares each equation without an
unknown with F and solves each equation with one unknown by exact
division.  Systems whose blocks are comparable in the dominance order
cannot be separated this way and raise AmbiguousDecompositionError.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cuspidal import absolutely_cuspidal_from_kac
from .gkm import lowest_weight_extract
from .kac import KacTable, hua_kac
from .qpoly import QPoly
from .quiver import DimVector, Quiver, frame, framed_vector, sym_form
from .series import GradedSeries, degree_lex, vectors_up_to


def framed_character(quiver: Quiver, framing: DimVector, bound: int) -> GradedSeries:
    """F(z) = sum_{|e| <= bound} A_{Q_f,(e,1)}(q^{-1}) z^e."""
    return _framed_series(quiver, hua_kac(frame(quiver, framing), bound + 1), bound)


def _framed_series(quiver: Quiver, framed_kac: KacTable, bound: int) -> GradedSeries:
    """F(z) read off the Kac table of the framed quiver up to bound + 1."""
    kac = framed_kac.to_series()
    rank = len(quiver.vertices)
    terms: dict[tuple[int, ...], QPoly] = {}
    for e in vectors_up_to(rank, bound):
        poly = kac.coeff(e + (1,))
        if not poly.is_zero():
            terms[e] = poly.substitute_power(-1)
    return GradedSeries(quiver, bound, terms)


@dataclass(frozen=True)
class Block:
    """One lowest-weight constituent of a framed character."""

    vector: tuple[int, ...]
    multiplicity: QPoly
    weight: tuple[int, ...]
    character: GradedSeries


@dataclass
class LowestWeightDecomposition:
    quiver: Quiver
    framing: DimVector
    bound: int
    total: GradedSeries
    blocks: list[Block]

    def block_vectors(self) -> list[tuple[int, ...]]:
        return [b.vector for b in self.blocks]


def lw_decompose(
    quiver: Quiver, framing: DimVector, bound: int
) -> LowestWeightDecomposition:
    """Decompose the framed character into lowest-weight blocks.

    Blocks are the unframed d with |d| <= bound and (d,1) in Phi^+ of the
    framed quiver, which is exactly where its C^abs is nonzero
    (absolutely_cuspidal_from_kac checks that support); the zero vector is
    a block whenever the pure framing unit is (it always is).
    """
    framed = frame(quiver, framing)
    kac = hua_kac(framed, bound + 1)
    table = absolutely_cuspidal_from_kac(kac)
    total = _framed_series(quiver, kac, bound)
    rank = len(quiver.vertices)

    multiplicities: dict[tuple[int, ...], QPoly] = {}
    for d in vectors_up_to(rank, bound):
        mult = table.polynomial(d + (1,)).substitute_power(-1)
        if not mult.is_zero():
            multiplicities[d] = mult

    characters = lowest_weight_extract(total, multiplicities)

    blocks: list[Block] = []
    for d in sorted(multiplicities, key=degree_lex):
        dv = framed_vector(framed, DimVector(quiver, d), 1)
        weight = tuple(
            sym_form(framed, dv, framed_vector(framed, DimVector.unit(quiver, v), 0))
            for v in quiver.vertices
        )
        blocks.append(Block(d, multiplicities[d], weight, characters[d]))

    return LowestWeightDecomposition(quiver, framing, bound, total, blocks)
