"""Exact combinatorics of nodal-curve dual graphs.

The package models dual graphs as vertex-marked multigraphs and implements,
with integer arithmetic only: tail enumeration and nested tail families,
quasistable multidegrees with a brute-force representative oracle, twister
tables, local blowup choices with their distinguished points, the node
subdivision with canonical liftings, and the synchronization and resolution
criteria for degree-2 Abel-Jacobi data.  A seeded verification harness turns
the underlying theorems into property suites.

The top level exports the graph model, the names of the README's library
example and the error types; everything else is read from its module.
"""

from .errors import (
    GraphError,
    InvariantViolation,
    MultipleRepresentatives,
    PreconditionError,
    RepresentativeNotFound,
)
from .fixtures import fixture
from .graph import CurveGraph, load, validate
from .tails import nested
from .degrees import quasistable_representative, twister
from .blowup import decide_resolution, plan_from_tails

__version__ = "0.1.0"
