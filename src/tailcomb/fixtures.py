"""Named fixtures shared by the tests, the docs and the CLI.

G1: one component with a loop.  G2: two components joined by two nodes (the
banana).  G3: three components with C1 meeting C2 and C3 once each and C2
meeting C3 twice.  G4: two components joined by a single node.  The marked
component is C1 throughout.
"""

from __future__ import annotations

from functools import cache

from .graph import CurveGraph, Node


@cache
def fixture(name: str) -> CurveGraph:
    """Return the named fixture graph (instances are shared and immutable)."""
    if name == "G1":
        return CurveGraph(["C1"], [Node("loop", 0, 0)], 0)
    if name == "G2":
        return CurveGraph(["C1", "C2"], [Node("a", 0, 1), Node("b", 0, 1)], 0)
    if name == "G3":
        return CurveGraph(
            ["C1", "C2", "C3"],
            [Node("e12", 0, 1), Node("e13", 0, 2), Node("f", 1, 2), Node("g", 1, 2)],
            0,
        )
    if name == "G4":
        return CurveGraph(["C1", "C2"], [Node("e", 0, 1)], 0)
    raise KeyError(f"unknown fixture {name!r}")


FIXTURE_NAMES = ("G1", "G2", "G3", "G4")
