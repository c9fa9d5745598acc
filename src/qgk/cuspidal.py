r"""
Cuspidal and absolutely cuspidal polynomials, and IP polynomials.

The absolutely cuspidal polynomials C^abs_d are the simple-root
multiplicities of the generalised Kac-Moody algebra whose character is
the Kac-polynomial series.  invert_character solves Borcherds'
denominator identity for them, one total degree |d| at a time: at
each d the identity leaves a deficit that must vanish off the simple
positive roots Phi^+ and be a polynomial in q with nonnegative integer
coefficients on them.

Cuspidal polynomials C_d agree with C^abs_d at hyperbolic d and at basis
vectors (where both equal q^{g_i} for g_i loops); along an isotropic ray
generated by indivisible m they solve

    Exp_z( sum_l C_{lm} z^{lm} ) = Exp_{z,q}( sum_l C^abs_{lm} z^{lm} ).

C_d may have rational coefficients; it is only integer valued at
integers (binomial-type polynomials), which the constructor checks
exactly: by Polya, a polynomial of degree k is integer valued if and
only if its values at 0, 1, ..., k are integers.  A C_d with integer
coefficients is integer valued as it stands and is not evaluated.

IP polynomials repackage C^abs in the intersection-cohomology variable:
IP_d(v) = C^abs_d(v^{-2}), a shifted Poincare polynomial (for a smooth
n-dimensional parameter space the shift makes it v^{-n} * usual).  Off
Sigma the IP data is a product of symmetric powers over the canonical
decomposition.
"""

from __future__ import annotations

from .gkm import _Denominator
from .kac import KacTable, hua_kac, oracle_kac_full
from .qpoly import QPoly
from .quiver import Quiver
from .roots import (
    ISOTROPIC,
    CartanDatum,
    phi_plus,
)
from .series import (
    GradedSeries,
    PlethMode,
    _csv,
    degree_lex,
    pleth_exp,
    pleth_log,
    sym_power_coeff,
    vectors_of_total,
    vectors_up_to,
)


class CuspidalError(ValueError):
    pass


class CuspidalTable:
    """C^abs_d (absolute=True) or C_d (absolute=False) on Phi^+ members."""

    def __init__(
        self,
        cartan: CartanDatum,
        bound: int,
        flavour: str,
        absolute: bool,
        table: dict[tuple[int, ...], QPoly],
    ):
        for d, poly in table.items():
            if poly.is_zero():
                continue
            if absolute:
                if not poly.is_nonnegative_integer_polynomial():
                    raise CuspidalError(
                        f"C^abs_{_csv(d)} is not a nonnegative integer polynomial in q: {poly}"
                    )
            elif not poly.has_integral_exponents() or poly.min_half < 0:
                raise CuspidalError(f"C_{_csv(d)} is not a polynomial in q: {poly}")
            elif not poly.has_integer_coefficients():
                for v in range(int(poly.degree_q()) + 1):
                    if poly.eval_at(v).denominator != 1:
                        raise CuspidalError(f"C_{_csv(d)} is not integer valued at q = {v}: {poly}")
        self.cartan, self.bound, self.flavour = cartan, bound, flavour
        self.absolute, self.table = absolute, table

    def polynomial(self, d) -> QPoly:
        return self.table.get(tuple(d), QPoly.zero())

    def items(self) -> list[tuple[tuple[int, ...], QPoly]]:
        return [(d, self.table[d]) for d in sorted(self.table, key=degree_lex)]


def invert_character(
    cartan: CartanDatum, target: GradedSeries, roots: set[tuple[int, ...]]
) -> dict[tuple[int, ...], QPoly]:
    """Simple-root multiplicities of the presented algebra with character target.

    Solves Borcherds' denominator identity Exp_{q,z}(-target) = sum_w
    sum_S eps(w) (-1)^{|S|} q^{deg S} z^{w*s(S)} (see gkm) for the
    multiplicities, one total degree t at a time.  A root of total t
    changes the right side at total t only at itself: there the term
    holding the unknown is -C_d, from S = the letters at d and w = 1, and
    every other term comes from roots of smaller total.  So C_d = (right
    side of those roots)_d - [Exp(-target)]_d, the deficit of target_d
    against the algebra so far, and all roots of total t are found before
    they are added in one step.  A nonzero deficit off Phi^+, or on it
    one that is not a polynomial in q with nonnegative integer
    coefficients, aborts: the target is then not a GKM character for this
    Cartan datum.  The multiplicities run up to the bound of target, and
    roots holds the vectors of Phi^+ that far.
    """
    bound = target.bound
    minus = {d: -p for d, p in target.items() if any(d)}
    exp_minus = pleth_exp(GradedSeries(cartan.rank, bound, minus), PlethMode.QZ)
    denominator = _Denominator(cartan, bound)
    weights: dict[tuple[int, ...], QPoly] = {}
    for total in range(1, bound + 1):
        deficits = {}
        for d in vectors_of_total(cartan.rank, total):
            deficit = denominator.coeff(d) - exp_minus.coeff(d)
            if deficit.is_zero():
                continue
            if d not in roots:
                raise CuspidalError(f"character deficit {deficit} at non-root {_csv(d)}")
            if not deficit.is_nonnegative_integer_polynomial():
                raise CuspidalError(f"deficit at root {_csv(d)} is not admissible: {deficit}")
            deficits[d] = deficit
        denominator.add(deficits)
        weights.update(deficits)
    return weights


def absolutely_cuspidal(quiver: Quiver, bound: int, flavour: str = "plain") -> CuspidalTable:
    """C^abs_d for |d| <= bound, by inverting the Kac-polynomial character.

    The plain flavour reads Kac polynomials off Hua's formula; nilpotent
    flavours fall back to the finite-field counting oracle.
    """
    if flavour == "plain":
        return absolutely_cuspidal_from_kac(hua_kac(quiver, bound))
    return absolutely_cuspidal_from_kac(oracle_kac_full(quiver, bound, flavour))


def absolutely_cuspidal_from_kac(kac: KacTable) -> CuspidalTable:
    """C^abs_d for |d| <= kac.bound, by inverting the character of a Kac table."""
    roots = {entry.vector for entry in phi_plus(kac.cartan, kac.bound)}
    weights = invert_character(kac.cartan, kac.to_series(), roots)
    table = CuspidalTable(kac.cartan, kac.bound, kac.flavour, True, weights)
    if kac.flavour == "plain":
        _check_plain_shape(table, roots)
    return table


def _check_plain_shape(table: CuspidalTable, roots: set[tuple[int, ...]]) -> None:
    """Plain C^abs is supported exactly on Phi^+, monic of degree 1 - chi(d,d) = p(d)/2."""
    support = set(table.table)
    if support != roots:
        off = sorted(support ^ roots, key=degree_lex)
        raise CuspidalError(f"C^abs support differs from Phi^+ at {_csv(off[0])}")
    for d, poly in table.table.items():
        degree = table.cartan.p(d) // 2
        if poly.degree_q() != degree or not poly.is_monic():
            raise CuspidalError(
                f"C^abs_{_csv(d)} = {poly} is not monic of degree {degree}"
            )


def cuspidal_from_abs(table: CuspidalTable) -> CuspidalTable:
    """Cuspidal polynomials from absolutely cuspidal ones.

    Entries are classified by CartanDatum.root: hyperbolic and real ones
    carry over unchanged, and each isotropic ray is converted through the
    Exp_z / Exp_{z,q} relation on a rank-1 series.
    """
    if not table.absolute:
        raise CuspidalError("input must be a table of absolutely cuspidal polynomials")
    out: dict[tuple[int, ...], QPoly] = {}
    rays: set[tuple[int, ...]] = set()
    for d, poly in table.table.items():
        entry = table.cartan.root(d)
        if entry.classification == ISOTROPIC:
            rays.add(entry.primitive)
        elif not poly.is_zero():
            out[d] = poly
    for m in sorted(rays, key=degree_lex):
        length = table.bound // sum(m)
        absolutes = {
            (l,): table.polynomial(tuple(l * x for x in m)) for l in range(1, length + 1)
        }
        ray_abs = GradedSeries(1, length, absolutes)
        ray_cusp = pleth_log(pleth_exp(ray_abs, PlethMode.QZ), PlethMode.Z_ONLY)
        for l in range(1, length + 1):
            poly = ray_cusp.coeff((l,))
            if not poly.is_zero():
                out[tuple(l * x for x in m)] = poly
    return CuspidalTable(table.cartan, table.bound, table.flavour, False, out)


# -- IP polynomials --------------------------------------------------------------


def ip_general(quiver: Quiver, d: tuple[int, ...], flavour: str = "plain") -> QPoly:
    """IP data at arbitrary d: symmetric powers over the canonical decomposition.

    For d = sum_j m_j d_j (canonical), the result is
    prod_j [u^{m_j}] Exp_{t,u}(IP_{d_j} u), which reduces to C^abs_d(v^{-2})
    when d lies in Sigma.  The output variable is rendered as q but stands
    for v.
    """
    d = quiver.vector(d)
    if not any(d):
        raise CuspidalError("IP data is defined for nonzero dimension vectors")
    return _ip_from_table(absolutely_cuspidal(quiver, sum(d), flavour), d)


def _ip_from_table(table: CuspidalTable, d: tuple[int, ...]) -> QPoly:
    result = QPoly.one()
    for part, mult in table.cartan.canonical_decomposition(d):
        shifted = table.polynomial(part).substitute_power(-2)
        result = result * sym_power_coeff(shifted, mult)
    return result


def ip_table(quiver: Quiver, bound: int, flavour: str = "plain") -> dict[tuple[int, ...], QPoly]:
    """IP data for every nonzero d with |d| <= bound off one shared C^abs table."""
    table = absolutely_cuspidal(quiver, bound, flavour)
    return {d: _ip_from_table(table, d) for d in vectors_up_to(table.cartan.rank, bound) if any(d)}
