"""The synchronization suites against their per-point reference bodies.

lemma-61 walks `blowup.choices` and reads `lift._one_tail_side` for each
point's two sides.  prop-62 and thm-63-pairwise look up each choice in the
two per-graph tables keyed by choice, `blowup._point_verdicts` and
`lift._sync_reports` (its reports read through `lift._checked`).  The
reference suites below are their earlier bodies, which ask the public
per-point entries (`is_quasistable_point`, `is_synchronized` and its
eq. (34) violations, `one_tail_diagnostic`) about every point; both must give
the same checks and violations, or raise the same error.
"""

from tailcomb import blowup as bw
from tailcomb.blowup import PROFILES
from tailcomb.graph import CurveGraph, Node
from tailcomb.lift import (LiftedGraph, _sync_reports, build_c2, canonical_liftings,
                           is_synchronized, one_tail_diagnostic)
from tailcomb.suites import (SuiteConfig, _check, run_suite, suite_lemma61,
                             suite_prop62, suite_thm63)

from conftest import eq34_level2, hide_lifted_tail, oracle_corpus, outcome


def reference_lemma61(G, rng, profile):
    checks = 0
    bad = []
    for ch in bw.choices(G):
        for pt in bw.distinguished_points(G, ch):
            checks += 1
            detail = one_tail_diagnostic(G, pt)
            if detail:
                bad.append({"check": "lemma-6.1", "point": pt.describe(G),
                            "detail": [list(d) for d in detail]})
    return checks, bad


def reference_prop62(G, rng, profile):
    checks = 0
    bad = []
    for ch in bw.choices(G):
        for pt in bw.distinguished_points(G, ch):
            checks += 1
            qs = bw.is_quasistable_point(G, pt, profile)
            sync = is_synchronized(G, pt)
            if qs.ok and not sync.synchronized:
                diag_ok = not one_tail_diagnostic(G, pt)
                bad.append({"check": "prop-6.2", "point": pt.describe(G),
                            "sync": {**sync.describe(G),
                                     "one_tail_diagnostic_ok": diag_ok}})
            if sync.synchronized:
                viol = eq34_level2(G, pt)
                checks += 1
                if viol:
                    bad.append({"check": "eq-34", "point": pt.describe(G),
                                "violations": [list(v) for v in viol]})
    return checks, bad


def reference_thm63(G, rng, profile):
    checks = 0
    bad = []
    for ch in bw.choices(G):
        pts = bw.distinguished_points(G, ch)
        checks += 1
        qs_both = all(bw.is_quasistable_point(G, pt, profile).ok for pt in pts)
        sync_both = all(is_synchronized(G, pt).synchronized for pt in pts)
        if qs_both != sync_both:
            bad.append({
                "check": "thm-6.3",
                "pair": [G.nodes[ch.r1].id, G.nodes[ch.r2].id],
                "matching": ch.match_names(G),
                "quasistable": qs_both,
                "synchronized": sync_both,
            })
    return checks, bad


PAIRS = (
    (suite_lemma61, reference_lemma61),
    (suite_prop62, reference_prop62),
    (suite_thm63, reference_thm63),
)


def suite_outcomes(G):
    """Each suite's outcome and its reference's, under both profiles, the
    suite run first on a fresh copy of G so that it fills the tables."""
    got = []
    for profile in PROFILES:
        for suite, reference in PAIRS:
            fresh = CurveGraph(G.names, G.nodes, G.marked)
            got.append((outcome(suite, fresh, None, profile),
                        outcome(reference, fresh, None, profile)))
    return got


def test_sync_suites_match_reference_fixtures(G1, G2, G3, G4):
    for G in (G1, G2, G3, G4):
        for fast, slow in suite_outcomes(G):
            assert fast == slow


def test_sync_suites_match_reference_corpus():
    violations = 0
    for G in oracle_corpus():
        for fast, slow in suite_outcomes(G):
            assert fast == slow
            violations += len(fast[1])
    assert violations > 0  # the as-displayed profile fails prop-62 and thm-6.3


def test_sync_suites_match_reference_with_violations_mid_walk(monkeypatch, G3):
    # Hide the lifted 2-tail of test_lift.py's violation tests: the four
    # points anchored over f and g then break the nested-family invariant,
    # and the walk reaches them after points that pass.  The suites must
    # raise the first such point's violation, a fresh copy with that
    # point's anchors, where the reference raises it.
    G = CurveGraph(G3.names, G3.nodes, G3.marked)
    LG = build_c2(G)
    hidden = LG.subcurve(["C2", "C3", "E(f,C2)", "E(f,C3)", "E(g,C2)", "E(g,C3)"])
    hide_lifted_tail(monkeypatch, LG, 2, hidden)
    points = [pt for ch in bw.choices(G) for pt in bw.distinguished_points(G, ch)]
    failing = [i for i, pt in enumerate(points)
               if not hasattr(outcome(is_synchronized, G, pt), "levels")]
    assert len(failing) == 4 and failing[0] > 0
    for profile in PROFILES:
        for suite, reference in PAIRS:
            assert outcome(suite, G, None, profile) == outcome(reference, G, None, profile)


def test_lemma61_matches_reference_with_findings(monkeypatch):
    # Hide the lifted 1-tail of test_lift.py's level-1 violation test: every
    # point then has findings on both of its sides, over a and over b or c,
    # so a suite that read one side twice or dropped one would differ.
    G = CurveGraph(["C1", "C2", "C3"],
                   [Node("a", 0, 1), Node("b", 1, 2), Node("c", 1, 2)], 0)
    LG = build_c2(G)
    hidden = canonical_liftings(LG, G.subcurve(["C2", "C3"]))[2]
    hide_lifted_tail(monkeypatch, LG, 1, hidden)
    for profile in PROFILES:
        checks, bad = suite_lemma61(G, None, profile)
        assert checks == len(bad) == 12
        assert (checks, bad) == reference_lemma61(G, None, profile)


def test_thm63_decides_a_choice_by_its_unsynchronized_first_point(monkeypatch, G2):
    # Hide G2's lifted 2-tail C2 + E(a,C2) + E(b,C2): the crossed choice's
    # first point is then unsynchronized and its second breaks the
    # nested-family invariant.  Like the reference's `all`, thm-6.3 must
    # decide that choice by the first point and never raise the second's
    # violation.
    G = CurveGraph(G2.names, G2.nodes, G2.marked)
    LG = build_c2(G)
    hidden = LG.subcurve(["C2", "E(a,C2)", "E(b,C2)"])
    hide_lifted_tail(monkeypatch, LG, 2, hidden)
    crossed = next(ch for ch in bw.choices(G) if ch.matching == ((0, 1), (1, 0)))
    first, second = bw.distinguished_points(G, crossed)
    assert not is_synchronized(G, first).synchronized
    assert not hasattr(outcome(is_synchronized, G, second), "levels")
    for profile in PROFILES:
        got = outcome(suite_thm63, G, None, profile)
        assert got == outcome(reference_thm63, G, None, profile)
        assert isinstance(got[0], int)  # the walk ends without raising


def test_sync_suites_never_enumerate_the_subdivision(monkeypatch):
    # The synchronization path reads the subdivision's small tails from its
    # closed-form pool alone: with the subdivision's enumeration and
    # `k_tails` made to raise, the three suites still run green on dense
    # graphs, so a path back to the full enumeration fails here.
    def refuse(self, *args):
        raise AssertionError("the subdivision's tails were enumerated")

    monkeypatch.setattr(LiftedGraph, "tails", refuse)
    monkeypatch.setattr(LiftedGraph, "k_tails", refuse)
    report = run_suite(SuiteConfig(seed=1, instances=5, max_components=8,
                                   max_extra_edges=5,
                                   suites=("lemma-61", "prop-62", "thm-63-pairwise")))
    assert report.ok, report.violations
    assert all(report.checks[s] > 0 for s in report.config.suites)


def test_lemma61_reads_no_synchronization_table():
    # lemma-61 is a level-1 fact: run alone on a fresh graph, it fills no
    # synchronization table and makes one check per point.
    key = (_sync_reports.__wrapped__,)
    graphs = [G for G in oracle_corpus() if len(G.reducible_nodes()) >= 2]
    assert len(graphs) >= 20
    for G in graphs:
        fresh = CurveGraph(G.names, G.nodes, G.marked)
        checks, _ = _check(fresh, "lemma-61", 1, 0, bw.RECONSTRUCTED)
        assert key not in fresh._memo
        assert checks == 2 * len(bw.choices(fresh))
        _sync_reports(fresh)
        assert key in fresh._memo
