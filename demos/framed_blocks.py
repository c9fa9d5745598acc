"""Framed characters split into lowest-weight blocks.

Run as `python3 demos/framed_blocks.py`.
"""

from __future__ import annotations

from qgk import Quiver, lw_decompose

jordan = Quiver(["0"], [("0", "0")])
a2 = Quiver(["0", "1"], [("0", "1")])


def show(name: str, quiver: Quiver, framing: tuple[int, ...], bound: int) -> None:
    dec = lw_decompose(quiver, framing, bound)
    print(f"\n== {name}, framing {framing}, bound {bound}")
    for block in dec.blocks:
        print(
            f"  block at {block.vector}: multiplicity {block.multiplicity},"
            f" weight {block.weight}"
        )
        for e, poly in block.character.items():
            print(f"    chL_{e} = {poly}")


# One framing node on the Jordan quiver: a single block whose character
# is the generating series of partitions, graded by q^{-1} per box.
show("Jordan quiver", jordan, (1,), 6)

# The fundamental framing on A2 gives one three-dimensional block.
show("A2", a2, (1, 0), 3)

# Framing 2 on the Jordan quiver: five comparable blocks at bound 4, each
# carrying the partition series, since no root (n,0) is orthogonal to (d,1).
show("Jordan quiver", jordan, (2,), 4)
