"""Small reference ultragraphs used across the test suite and docs.

gx: three vertices in one strongly connected component where edge e has a
two-vertex range, so every subset of vertices appears in the lattice.
gy: one vertex with a single loop edge whose range is that vertex.
gw: two disjoint one-vertex loops; fails condition (K) and cofinality.
"""

from __future__ import annotations

from .core import Ultragraph


def gx() -> Ultragraph:
    return Ultragraph.build(
        ["v", "w", "u"],
        {
            "e": ("v", ("w", "u")),
            "f": ("w", ("v",)),
            "g": ("u", ("w",)),
        },
    )


def gy() -> Ultragraph:
    return Ultragraph.build(["v"], {"e": ("v", ("v",))})


def gw() -> Ultragraph:
    return Ultragraph.build(
        ["a", "b"],
        {
            "p": ("a", ("a",)),
            "q": ("b", ("b",)),
        },
    )
