r"""
Cuspidal and absolutely cuspidal polynomials, and IP polynomials.

The absolutely cuspidal polynomials C^abs_d are the simple-root
multiplicities of the generalised Kac-Moody algebra whose character is
the Kac-polynomial series.  invert_character solves Borcherds'
denominator identity for them, block by block in (|d|, lex) order: at
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

from dataclasses import dataclass, field

from .gkm import WeightFunction, _Denominator
from .kac import DEFAULT_FIELDS, KacTable, hua_kac, oracle_kac_full
from .qpoly import QPoly
from .quiver import DimVector, Quiver
from .roots import (
    ISOTROPIC,
    CartanDatum,
    phi_plus,
    sigma_membership,
)
from .series import (
    GradedSeries,
    PlethMode,
    _LINE,
    degree_lex,
    pleth_exp,
    pleth_log,
    sym_power_coeff,
    vectors_up_to,
)


class CuspidalError(ValueError):
    pass


@dataclass
class CuspidalTable:
    """C^abs_d (absolute=True) or C_d (absolute=False) on Phi^+ members."""

    quiver: Quiver
    bound: int
    flavour: str
    absolute: bool
    table: dict[tuple[int, ...], QPoly] = field(default_factory=dict)

    def __post_init__(self):
        for d, poly in self.table.items():
            if poly.is_zero():
                continue
            if self.absolute:
                if not poly.is_nonnegative_integer_polynomial():
                    raise CuspidalError(
                        f"C^abs_{d} is not a nonnegative integer polynomial in q: {poly}"
                    )
            elif not poly.has_integral_exponents() or poly.min_half < 0:
                raise CuspidalError(f"C_{d} is not a polynomial in q: {poly}")
            elif not poly.has_integer_coefficients():
                for v in range(int(poly.degree_q()) + 1):
                    if poly.eval_at(v).denominator != 1:
                        raise CuspidalError(f"C_{d} is not integer valued at q = {v}: {poly}")

    def polynomial(self, d) -> QPoly:
        key = d.as_tuple() if isinstance(d, DimVector) else tuple(d)
        return self.table.get(key, QPoly.zero())

    def items(self) -> list[tuple[tuple[int, ...], QPoly]]:
        return [(d, self.table[d]) for d in sorted(self.table, key=degree_lex)]


def invert_character(cartan: CartanDatum, target: GradedSeries) -> WeightFunction:
    """Simple-root multiplicities of the presented algebra with character target.

    Solves Borcherds' denominator identity Exp_{q,z}(-target) = sum_w
    sum_S eps(w) (-1)^{|S|} q^{deg S} z^{w*s(S)} (see gkm) for the
    multiplicities, peeling dimension vectors by (|d|, lex).  At d the one
    term of the right side that holds the unknown is -C_d, from S = the
    letters at d and w = 1; every other term comes from roots already
    registered.  So C_d = (right side of those roots)_d - [Exp(-target)]_d,
    which is the deficit of target_d against the algebra so far.  A
    nonzero deficit off Phi^+, or on it one that is not a polynomial in q
    with nonnegative integer coefficients, aborts: the target is then not
    a GKM character for this Cartan datum.  The multiplicities run up to
    the bound of target.
    """
    bound = target.bound
    roots = {entry.vector for entry in phi_plus(cartan, bound)}
    minus = {d: -p for d, p in target.items() if any(d)}
    exp_minus = pleth_exp(GradedSeries(target.quiver, bound, minus), PlethMode.QZ)
    denominator = _Denominator(cartan, bound)
    weights: dict[tuple[int, ...], QPoly] = {}
    for d in vectors_up_to(cartan.rank, bound):
        if not any(d):
            continue
        deficit = denominator.coeff(d) - exp_minus.coeff(d)
        if deficit.is_zero():
            continue
        if d not in roots:
            raise CuspidalError(f"character deficit {deficit} at non-root {d}")
        if not deficit.is_nonnegative_integer_polynomial():
            raise CuspidalError(f"deficit at root {d} is not admissible: {deficit}")
        denominator.add(d, deficit)
        weights[d] = deficit
    return WeightFunction(target.quiver, weights)


def absolutely_cuspidal(
    quiver: Quiver,
    bound: int,
    flavour: str = "plain",
    fields: tuple[int, ...] = DEFAULT_FIELDS,
) -> CuspidalTable:
    """C^abs_d for |d| <= bound, by inverting the Kac-polynomial character.

    The plain flavour reads Kac polynomials off Hua's formula; nilpotent
    flavours fall back to the finite-field counting oracle.
    """
    if flavour == "plain":
        return absolutely_cuspidal_from_kac(hua_kac(quiver, bound))
    return absolutely_cuspidal_from_kac(oracle_kac_full(quiver, bound, flavour, fields))


def absolutely_cuspidal_from_kac(kac: KacTable) -> CuspidalTable:
    """C^abs_d for |d| <= kac.bound, by inverting the character of a Kac table."""
    cartan = CartanDatum.from_quiver(kac.quiver)
    weights = invert_character(cartan, kac.to_series())
    table = CuspidalTable(kac.quiver, kac.bound, kac.flavour, True, dict(weights.table))
    if kac.flavour == "plain":
        _check_plain_shape(table, cartan)
    return table


def _check_plain_shape(table: CuspidalTable, cartan: CartanDatum) -> None:
    """Plain C^abs is supported exactly on Phi^+, monic of degree 1 - chi(d,d)."""
    support = set(table.table)
    expected = {entry.vector for entry in phi_plus(cartan, table.bound)}
    if support != expected:
        off = sorted(support ^ expected, key=degree_lex)
        raise CuspidalError(f"C^abs support differs from Phi^+ at {off[0]}")
    for d, poly in table.table.items():
        degree = 1 - cartan.form(d, d) // 2
        if poly.degree_q() != degree or not poly.is_monic():
            raise CuspidalError(
                f"C^abs_{d} = {poly} is not monic of degree {degree}"
            )


def cuspidal_from_abs(table: CuspidalTable) -> CuspidalTable:
    """Cuspidal polynomials from absolutely cuspidal ones.

    Hyperbolic and real entries carry over unchanged; each isotropic ray
    is converted through the Exp_z / Exp_{z,q} relation on a synthetic
    one-vertex grading.
    """
    if not table.absolute:
        raise CuspidalError("input must be a table of absolutely cuspidal polynomials")
    out: dict[tuple[int, ...], QPoly] = {}
    rays: set[tuple[int, ...]] = set()
    for entry in phi_plus(CartanDatum.from_quiver(table.quiver), table.bound):
        if entry.classification == ISOTROPIC:
            rays.add(entry.primitive)
            continue
        poly = table.polynomial(entry.vector)
        if not poly.is_zero():
            out[entry.vector] = poly
    for m in sorted(rays, key=degree_lex):
        length = table.bound // sum(m)
        absolutes = {
            (l,): table.polynomial(tuple(l * x for x in m)) for l in range(1, length + 1)
        }
        ray_abs = GradedSeries(_LINE, length, absolutes)
        ray_cusp = pleth_log(pleth_exp(ray_abs, PlethMode.QZ), PlethMode.Z_ONLY)
        for l in range(1, length + 1):
            poly = ray_cusp.coeff((l,))
            if not poly.is_zero():
                out[tuple(l * x for x in m)] = poly
    return CuspidalTable(table.quiver, table.bound, table.flavour, False, out)


# -- IP polynomials --------------------------------------------------------------


def ip_polynomial(
    quiver: Quiver,
    d: DimVector,
    flavour: str = "plain",
    fields: tuple[int, ...] = DEFAULT_FIELDS,
) -> QPoly:
    """The shifted intersection-cohomology polynomial at d in Sigma.

    IP_d(v) = C^abs_d(v^{-2}), which is ip_general at d in Sigma; the output
    variable is rendered as q but stands for v.  Outside Sigma use
    ip_general.
    """
    if not isinstance(d, DimVector):
        d = DimVector(quiver, d)
    if not sigma_membership(CartanDatum.from_quiver(quiver), d):
        raise CuspidalError(f"{d.as_tuple()} is not in Sigma; use ip_general")
    return ip_general(quiver, d, flavour, fields)


def ip_general(
    quiver: Quiver,
    d: DimVector,
    flavour: str = "plain",
    fields: tuple[int, ...] = DEFAULT_FIELDS,
) -> QPoly:
    """IP data at arbitrary d: symmetric powers over the canonical decomposition.

    For d = sum_j m_j d_j (canonical), the result is
    prod_j [u^{m_j}] Exp_{t,u}(IP_{d_j} u), which reduces to ip_polynomial
    when d lies in Sigma.
    """
    if not isinstance(d, DimVector):
        d = DimVector(quiver, d)
    if d.is_zero():
        raise CuspidalError("IP data is defined for nonzero dimension vectors")
    table = absolutely_cuspidal(quiver, d.total, flavour, fields)
    return _ip_from_table(table, CartanDatum.from_quiver(quiver), d.as_tuple())


def _ip_from_table(table: CuspidalTable, cartan: CartanDatum, d: tuple[int, ...]) -> QPoly:
    result = QPoly.one()
    for part, mult in cartan.canonical_decomposition(d):
        shifted = table.polynomial(part).substitute_power(-2)
        result = result * sym_power_coeff(shifted, mult)
    return result


def ip_table(
    quiver: Quiver,
    bound: int,
    flavour: str = "plain",
    fields: tuple[int, ...] = DEFAULT_FIELDS,
) -> dict[tuple[int, ...], QPoly]:
    """IP data for every nonzero d with |d| <= bound off one shared C^abs table."""
    table = absolutely_cuspidal(quiver, bound, flavour, fields)
    cartan = CartanDatum.from_quiver(quiver)
    out: dict[tuple[int, ...], QPoly] = {}
    for d in vectors_up_to(cartan.rank, bound):
        if any(d):
            out[d] = _ip_from_table(table, cartan, d)
    return out
