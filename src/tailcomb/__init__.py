"""Exact combinatorics of nodal-curve dual graphs.

The package models dual graphs as vertex-marked multigraphs and implements,
with integer arithmetic only: tail enumeration and nested tail families,
quasistable multidegrees with a brute-force representative oracle, twister
tables, local blowup choices with their distinguished points, the node
subdivision with canonical liftings, and the synchronization and resolution
criteria for degree-2 Abel-Jacobi data.  A seeded verification harness turns
the underlying theorems into property suites.
"""

from .errors import (
    GraphError,
    InvariantViolation,
    MultipleRepresentatives,
    PreconditionError,
    RepresentativeNotFound,
)
from .fixtures import FIXTURE_NAMES, fixture
from .graph import (
    CurveGraph,
    Node,
    PairRelation,
    canon_key,
    load,
    mask_of,
    members,
    node_on,
    precedes,
    relate,
    validate,
)
from .tails import (
    NestedFamily,
    SymmDiffReport,
    nested,
    symm_diff,
    tail_family,
)
from .degrees import (
    QSResult,
    TwisterTable,
    abel_multidegree,
    beta2,
    delta,
    format_half,
    is_quasistable,
    laplacian,
    lemma35_difference,
    multidegree,
    multidegree_map,
    quasistable_representative,
    twister,
)
from .blowup import (
    AS_DISPLAYED,
    PROFILES,
    RECONSTRUCTED,
    BlowupChoice,
    BlowupPlan,
    DistinguishedPoint,
    admissibility_check,
    decide_resolution,
    distinguished_points,
    is_quasistable_point,
    make_choice,
    minimality_probe,
    pair_matchings,
    plan_from_tails,
)
from .lift import (
    HatFamilies,
    LiftedGraph,
    build_c2,
    canonical_liftings,
    eq34_level2,
    hat_families,
    is_synchronized,
    one_tail_diagnostic,
)
from .randgen import child_rng, instance_graph, random_graph
from .suites import ALL_SUITES, SuiteConfig, VerificationReport, replay, run_suite

__version__ = "0.1.0"
