"""From Kac polynomials to cuspidal counts and intersection-cohomology data.

Run as `python3 demos/cuspidal_and_ip.py`.
"""

from __future__ import annotations

from qgk import (
    Quiver,
    absolutely_cuspidal,
    canonical_decomposition,
    cuspidal_from_abs,
    ip_general,
    ip_table,
)

kronecker = Quiver(["0", "1"], [("0", "1"), ("0", "1")])
two_loop = Quiver(["0"], [("0", "0"), ("0", "0")])

# Peeling the Kac character of the Kronecker quiver leaves a deficit
# only on Phi^+: one generator at each unit and A_{l(1,1)} = q + 1 thins
# to C^abs = q along the whole isotropic ray.
print("== Kronecker quiver, bound 6")
table = absolutely_cuspidal(kronecker, 6)
print("  absolutely cuspidal:")
for d, poly in table.items():
    print(f"    C^abs_{d} = {poly}")

# On an isotropic ray the two plethystic exponentials differ, so C and
# C^abs differ too.  C picks up rational coefficients but stays
# integer-valued at every integer q.
print("  cuspidal:")
for d, poly in cuspidal_from_abs(table).items():
    print(f"    C_{d} = {poly}")

# A wild example: the two-loop quiver.  Every C^abs_d is monic of degree
# 1 + d^2 with nonnegative coefficients.
print("\n== two-loop quiver, bound 4")
for d, poly in absolutely_cuspidal(two_loop, 4).items():
    print(f"  C^abs_{d} = {poly}")

# IP data: on Sigma this is C^abs_d(v^{-2}); elsewhere symmetric powers
# over the canonical decomposition take over.  The printed variable q
# stands for v.
print("\n== IP data on the Kronecker quiver, bound 4")
for d, poly in sorted(ip_table(kronecker, 4).items(), key=lambda t: (sum(t[0]), t[0])):
    print(f"  IP_{d} = {poly}")

d = (3, 1)
parts = canonical_decomposition(kronecker, d)
pretty = " + ".join(f"{m} x {p}" for p, m in parts)
print(f"\n  canonical decomposition of {d}: {pretty}")
print(f"  IP_{d} = {ip_general(kronecker, d)}")
