"""Root data and Kac polynomials on the three smallest interesting quivers.

Run as `python3 demos/kac_walkthrough.py`.  Everything printed is exact:
coefficients are rationals and the variable is a formal q^(1/2).
"""

from __future__ import annotations

from qgk import (
    CartanDatum,
    Quiver,
    hua_kac,
    oracle_kac_full,
    phi_plus,
)

jordan = Quiver(["0"], [("0", "0")])
a2 = Quiver(["0", "1"], [("0", "1")])
kronecker = Quiver(["0", "1"], [("0", "1"), ("0", "1")])


def show_roots(name: str, quiver: Quiver, bound: int) -> None:
    print(f"\n== positive root data for {name}, |d| <= {bound}")
    for entry in phi_plus(CartanDatum.from_quiver(quiver), bound):
        star = "*" if entry.multiplier == 1 else " "
        print(
            f"  {entry.vector}  {entry.classification:<10}"
            f" p = {entry.p_value}  {star}"
        )
    print("  (* marks members of Sigma)")


def show_kac(name: str, quiver: Quiver, bound: int) -> None:
    print(f"\n== Kac polynomials for {name}, |d| <= {bound}")
    table = hua_kac(quiver, bound)
    for d, poly in table.items():
        print(f"  A_{d} = {poly}")


show_roots("the Jordan quiver", jordan, 3)
show_roots("A2", a2, 3)
show_roots("the Kronecker quiver", kronecker, 4)

show_kac("the Jordan quiver", jordan, 4)
show_kac("the Kronecker quiver", kronecker, 4)

# The generating-function route above never touches a finite field.  The
# counting oracle recovers the same polynomials from class counts over
# small fields, one field per interpolation point.
d = (1, 1)
print("\n== cross-check at (1,1) on the Kronecker quiver")
print(f"  Hua            : {hua_kac(kronecker, 2).polynomial(d)}")
print(f"  counting oracle: {oracle_kac_full(kronecker, 2).polynomial(d)}")

# Kac tables are constant along Weyl orbits.
print("\n== a Weyl orbit on the Kronecker quiver")
table = hua_kac(kronecker, 4)
cartan = CartanDatum.from_quiver(kronecker)
orbit = [(0, 1)]
for vertex in (0, 1, 0):
    image = cartan.reflect(vertex, orbit[-1])
    if sum(image) > 4:
        break
    orbit.append(image)
for point in orbit:
    print(f"  A_{point} = {table.polynomial(point)}")
