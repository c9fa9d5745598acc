"""Reference implementations that the tests compare the library against.

The library reads a quiver through its Cartan matrix and runs Exp/Log in
one integer-numerator core; these are the textbook forms of the same
objects, kept beside the tests that use them.  pytest does not collect
this module (its name does not start with ``test_``).
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

from qgk import CartanDatum, GkmError, GradedSeries, PlethMode, QPoly, Quiver
from qgk.series import SeriesError, degree_lex, vectors_of_total, vectors_up_to


@functools.cache
def partitions(n: int) -> list[tuple[int, ...]]:
    """All partitions of n as descending tuples, by head descending, then tail."""
    if not n:
        return [()]
    return [
        (head,) + tail
        for head in range(n, 0, -1)
        for tail in partitions(n - head)
        if not tail or tail[0] <= head
    ]


def euler_form(quiver: Quiver, d: tuple[int, ...], e: tuple[int, ...]) -> int:
    """The Euler form chi_Q(d, e) = sum_i d_i e_i - sum_{a: s->t} d_s e_t."""
    d, e = (dict(zip(quiver.vertices, quiver.vector(x))) for x in (d, e))
    total = sum(d[v] * e[v] for v in quiver.vertices)
    for s, t in quiver.arrows:
        total -= d[s] * e[t]
    return total


def sym_form(quiver: Quiver, d: tuple[int, ...], e: tuple[int, ...]) -> int:
    """The symmetrised Euler form (d, e)_Q = chi_Q(d,e) + chi_Q(e,d)."""
    return euler_form(quiver, d, e) + euler_form(quiver, e, d)


def in_sigma(cartan: CartanDatum, d: tuple[int, ...]) -> bool:
    """Whether a nonzero d lies in Sigma: Sigma is Phi^+ at multiplier 1."""
    entry = cartan.root(d)
    return entry is not None and entry.multiplier == 1


def weyl_word_pairs(cartan: CartanDatum, bound: int):
    """Each (d, w d) with 0 < |d| <= bound, w a word of 1 to 3 reflections at
    loop-free vertices, and w d >= 0 with |w d| <= bound: the pairs that
    `verify` compared when it applied every such word to every d.
    """
    words = [
        word for n in range(1, 4) for word in itertools.product(cartan.loop_free, repeat=n)
    ]
    for d in vectors_up_to(cartan.rank, bound):
        if not any(d):
            continue
        for word in words:
            image = d
            for i in word:
                image = cartan.reflect(i, image)
            if min(image) >= 0 and sum(image) <= bound:
                yield d, image


def series_inv(f: GradedSeries) -> GradedSeries:
    """Truncated inverse; the constant term must be a unit (a single term).

    Degree by degree in (|d|, lex): g_0 = 1/f_0 and g_d = -(1/f_0) sum_{0 < e <= d} f_e g_{d-e}.
    """
    u = f.constant_term()
    if u.is_zero() or len(u.items()) != 1:
        raise SeriesError("series_inv needs a unit (monomial) constant term")
    (k0, c0), = u.items()
    u_inv = QPoly.half_power(-k0, Fraction(1) / c0)
    rank = f.rank
    higher = [(e, p) for e, p in f.items() if any(e)]
    g: dict[tuple[int, ...], QPoly] = {}
    for d in sorted(itertools.product(range(f.bound + 1), repeat=rank), key=sum):
        if sum(d) > f.bound:
            break
        total = QPoly.zero() if any(d) else QPoly.one()
        for e, p in higher:
            rest = tuple(a - b for a, b in zip(d, e))
            if min(rest) >= 0:
                total = total - p * g[rest]
        g[d] = u_inv * total
    return GradedSeries(f.rank, f.bound, g)


def adams(f: GradedSeries, n: int, mode: PlethMode) -> GradedSeries:
    """The Adams operation psi_n: z^d -> z^{nd}, and q -> q^n in QZ mode."""
    if n < 1:
        raise SeriesError("adams needs n >= 1")
    out: dict[tuple[int, ...], QPoly] = {}
    for k, p in f.items():
        key = tuple(n * a for a in k)
        if sum(key) > f.bound:
            continue
        out[key] = p.substitute_power(n) if mode is PlethMode.QZ else p
    return GradedSeries(f.rank, f.bound, out)


class UnderdeterminedError(GkmError):
    """An equation of the triangular solve holds two or more unknown block terms."""


def triangular_extract(
    framed: GradedSeries,
    multiplicities: dict[tuple[int, ...], QPoly],
) -> dict[tuple[int, ...], GradedSeries]:
    """Solve F = sum_d V_d z^d chL_d for the block characters chL_d from F alone.

    Each chL_d is pinned to constant term 1 and truncated at N - |d|, N
    the bound of F.  Equations are scanned in (|e|, lex) order; the
    unknown chL_d(e - d) appears first in equation e, so there the only
    known term is V_e, when e is a block, and each block strictly below e
    brings one unknown.  An equation with none is compared with F, and
    one with one unknown is solved for it by exact division.  Two or more
    comparable blocks leave an equation underdetermined, which raises
    UnderdeterminedError.
    """
    rank = framed.rank
    blocks = sorted((d for d, v in multiplicities.items() if not v.is_zero()), key=degree_lex)
    chl: dict[tuple[int, ...], dict[tuple[int, ...], QPoly]] = {
        d: {tuple([0] * rank): QPoly.one()} for d in blocks
    }
    bound = framed.bound
    for total in range(0, bound + 1):
        for e in vectors_of_total(rank, total):
            below = [d for d in blocks if d != e and all(x >= y for x, y in zip(e, d))]
            if len(below) > 1:
                raise UnderdeterminedError(
                    f"equation at {e} involves {len(below)} unknown block terms"
                )
            lhs = framed.coeff(e)
            known = multiplicities[e] if e in chl else QPoly.zero()
            if below:
                (d,) = below
                c = tuple(x - y for x, y in zip(e, d))
                chl[d][c] = (lhs - known).divexact(multiplicities[d])
            elif lhs != known:
                raise GkmError(f"inconsistent decomposition at {e}: {lhs} != {known}")
    return {d: GradedSeries(rank, bound - sum(d), terms) for d, terms in chl.items()}
