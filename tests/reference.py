"""Reference implementations that the tests compare the library against.

The library reads a quiver through its Cartan matrix and runs Exp/Log in
one integer-numerator core; these are the textbook forms of the same
objects, kept beside the tests that use them.  pytest does not collect
this module (its name does not start with ``test_``).
"""

from __future__ import annotations

from fractions import Fraction

from qgk import CartanDatum, DimVector, GradedSeries, PlethMode, QPoly, Quiver, QuiverError
from qgk.series import SeriesError, _convolve, _levels, _series


def euler_form(quiver: Quiver, d: DimVector, e: DimVector) -> int:
    """The Euler form chi_Q(d, e) = sum_i d_i e_i - sum_{a: s->t} d_s e_t."""
    if d.quiver != quiver or e.quiver != quiver:
        raise QuiverError("euler_form arguments over a different quiver")
    total = sum(d[v] * e[v] for v in quiver.vertices)
    for s, t in quiver.arrows:
        total -= d[s] * e[t]
    return total


def sym_form(quiver: Quiver, d: DimVector, e: DimVector) -> int:
    """The symmetrised Euler form (d, e)_Q = chi_Q(d,e) + chi_Q(e,d)."""
    return euler_form(quiver, d, e) + euler_form(quiver, e, d)


def in_sigma(cartan: CartanDatum, d: tuple[int, ...]) -> bool:
    """Whether a nonzero d lies in Sigma: Sigma is Phi^+ at multiplier 1."""
    entry = cartan.root(d)
    return entry is not None and entry.multiplier == 1


def series_inv(f: GradedSeries) -> GradedSeries:
    """Truncated inverse; the constant term must be a unit (a single term).

    With f = u (1 + h), 1/f = u^{-1} g where g_0 = 1 and g_t = -sum_{s>=1} h_s g_{t-s}.
    """
    u = f.constant_term()
    if u.is_zero() or len(u.items()) != 1:
        raise SeriesError("series_inv needs a unit (monomial) constant term")
    (k0, c0), = u.items()
    u_inv = QPoly.half_power(-k0, Fraction(1) / c0)
    (h,) = _levels(f.scale(u_inv))
    g = h[:1]
    for t in range(1, f.bound + 1):
        g.append(_convolve([(h[s], g[t - s]) for s in range(1, t + 1)], -1))
    return _series(f, g).scale(u_inv)


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
    return GradedSeries(f.quiver, f.bound, out)
