"""Acceptance battery.

Each test implements one acceptance criterion at its stated budget and
prints a single pass/fail line (run pytest with -s to see them on success).
The fuzz corpus is the deterministic stream at seed 1 with the default
generator bounds (components <= 6, extra edges <= 4, loops allowed).
"""

import time
from itertools import combinations_with_replacement

import pytest

from tailcomb import degrees as dg
from tailcomb.blowup import (
    AS_DISPLAYED,
    RECONSTRUCTED,
    BlowupPlan,
    decide_resolution,
    distinguished_points,
    is_quasistable_point,
    make_choice,
    minimality_probe,
    plan_from_tails,
)
from tailcomb.lift import is_synchronized, one_tail_diagnostic
from tailcomb.randgen import instance_graph
from tailcomb.suites import (
    suite_admissibility,
    suite_closure,
    suite_lemma35,
    suite_prop31,
    suite_thm64,
)
from tailcomb.tails import tail_family

from conftest import choices_oracle, sc

CORPUS_SIZE = 200


@pytest.fixture(scope="module")
def corpus():
    return [instance_graph(1, i, 6, 4, True) for i in range(CORPUS_SIZE)]


def record(number, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} {name}: {verdict} {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_01_fixture_tail_families(G3):
    t0 = time.monotonic()
    marked_pairs = [(0, 0), (0, 1), (0, 2)]
    far_pairs = [(1, 1), (1, 2), (2, 2)]
    ok = all(tail_family(G3, *p) == () for p in marked_pairs)
    expected = (sc(G3, "C2", "C3"),)
    ok = ok and all(tail_family(G3, *p) == expected for p in far_pairs)
    dt = time.monotonic() - t0
    record(1, "tail families of the three-component fixture", ok and dt < 1.0,
           f"({dt:.3f}s)")


def test_criterion_02_resolution_fixtures(G3):
    t0 = time.monotonic()
    ok = decide_resolution(G3, plan_from_tails(G3)).resolved
    phi_s = BlowupPlan()
    phi_s.set(make_choice(G3, 0, 1, [(1, 2), (0, 0)]))
    ok = ok and decide_resolution(G3, phi_s).resolved
    empty = decide_resolution(G3, BlowupPlan())
    failing = [(G3.nodes[p.r1].id, G3.nodes[p.r2].id) for p in empty.failing_pairs()]
    ok = ok and not empty.resolved and failing == [("e12", "e13")]
    probe = minimality_probe(G3)
    ok = ok and [
        (p, kind) for p, kind, _ in probe.classification if kind != "free"
    ] == [((0, 1), "forced")]
    ok = ok and probe.minimal_plan == phi_s
    ok = ok and not probe.phi_t_minimal
    dt = time.monotonic() - t0
    record(2, "resolution and minimality fixtures", ok and dt < 1.0, f"({dt:.3f}s)")


def test_criterion_03_twister_oracle_equivalence(corpus):
    t0 = time.monotonic()
    pairs = bad = 0
    for G in corpus:
        table = dg.twister(G)
        for g1, g2 in combinations_with_replacement(range(G.p), 2):
            alpha = table[(g1, g2)]
            pairs += 1
            c, d = dg.quasistable_representative(
                G, dg.abel_multidegree(G, g1, g2), bound=max(alpha) + 2
            )
            if c != alpha:
                bad += 1
    dt = time.monotonic() - t0
    record(3, "twister equals brute-force representative",
           bad == 0 and len(corpus) >= 200 and dt < 300.0,
           f"({pairs} pairs over {len(corpus)} graphs, {bad} disagreements, {dt:.1f}s)")


def test_criterion_04_admissibility_inequalities(corpus):
    t0 = time.monotonic()
    checks = 0
    violations = []
    for G in corpus:
        c, bad = suite_admissibility(G, None, RECONSTRUCTED)
        checks += c
        violations.extend(bad)
    dt = time.monotonic() - t0
    record(4, "gated admissibility instances 18-25",
           not violations, f"({checks} instances, {dt:.1f}s)")


def test_criterion_05_closure_and_comparison_suites(corpus):
    t0 = time.monotonic()
    samples = 0
    violations = []
    for G in corpus:
        for fn in (suite_closure, suite_prop31):
            c, bad = fn(G, None, RECONSTRUCTED)
            samples += c
            violations.extend(bad)
    dt = time.monotonic() - t0
    record(5, "closure, support and comparison lemmas",
           not violations and samples >= 500,
           f"({samples} samples, {dt:.1f}s)")


def test_criterion_06_level_set_difference(corpus):
    t0 = time.monotonic()
    checks = 0
    violations = []
    for G in corpus:
        c, bad = suite_lemma35(G, None, RECONSTRUCTED)
        checks += c
        violations.extend(bad)
    dt = time.monotonic() - t0
    record(6, "twister level-set two-valuedness", not violations,
           f"({checks} triples, {dt:.1f}s)")


def test_criterion_07_quasistable_synchronized_equivalence(corpus):
    t0 = time.monotonic()
    points = pair_checks = 0
    violations = []
    for G in corpus:
        for ch in choices_oracle(G):
            pts = distinguished_points(G, ch)
            qs = [is_quasistable_point(G, p, RECONSTRUCTED).ok for p in pts]
            sy = [is_synchronized(G, p).synchronized for p in pts]
            for q, s, p in zip(qs, sy, pts):
                points += 1
                if q and not s:
                    violations.append(("prop-6.2", p.describe(G)))
            pair_checks += 1
            if all(qs) != all(sy):
                violations.append(("thm-6.3", ch))
    dt = time.monotonic() - t0
    record(7, "quasistable vs synchronized per point and pair",
           not violations and dt < 600.0,
           f"({points} points, {pair_checks} pair checks, {dt:.1f}s)")


def test_criterion_08_level1_diagnostic_and_counting(corpus):
    t0 = time.monotonic()
    diags = identities = 0
    violations = []
    for G in corpus:
        for ch in choices_oracle(G):
            for p in distinguished_points(G, ch):
                diags += 1
                if one_tail_diagnostic(G, p):
                    violations.append(("lemma-6.1", p.describe(G)))
                sync = is_synchronized(G, p)
                if sync.synchronized:
                    identities += 1
                    if sync.eq34:
                        violations.append(("eq-34", p.describe(G)))
    dt = time.monotonic() - t0
    record(8, "level-1 diagnostic and node-counting identity",
           not violations, f"({diags} diagnostics, {identities} identities, {dt:.1f}s)")


def test_criterion_09_banana_end_to_end(G2):
    t0 = time.monotonic()
    aligned = make_choice(G2, 0, 1, [(1, 1), (0, 0)])
    crossed = make_choice(G2, 0, 1, [(1, 0), (0, 1)])
    ok = True
    for pt in distinguished_points(G2, aligned):
        rep = is_synchronized(G2, pt)
        ok = ok and is_quasistable_point(G2, pt, RECONSTRUCTED).ok and rep.synchronized
    for pt in distinguished_points(G2, crossed):
        rep = is_synchronized(G2, pt)
        ok = ok and not is_quasistable_point(G2, pt, RECONSTRUCTED).ok
        ok = ok and not {l.level: l.ok for l in rep.levels}[2]
    ok = ok and dg.quasistable_representative(G2, (2, -2), 3) == ((0, 1), (0, 0))
    dt = time.monotonic() - t0
    record(9, "banana fixture end to end", ok, f"({dt:.3f}s)")


def test_criterion_10_profile_discrepancy(G2):
    t0 = time.monotonic()
    checks, bad = suite_thm64(G2, None, AS_DISPLAYED)
    ok = bool(bad) and bad[0]["failing_pairs"] == [["a", "b"]]
    # the witness itself: the point with canonical corner (C2, C1) violates
    # the displayed pair (C2, C2)
    aligned = make_choice(G2, 0, 1, [(1, 1), (0, 0)])
    witness = [
        pt
        for pt in distinguished_points(G2, aligned)
        if (pt.g1, pt.g2) == (1, 0)
    ]
    ok = ok and len(witness) == 1
    verdict = is_quasistable_point(G2, witness[0], AS_DISPLAYED)
    ok = ok and not verdict.ok and verdict.failing_pair == (1, 1)
    ok = ok and decide_resolution(G2, plan_from_tails(G2), RECONSTRUCTED).resolved
    dt = time.monotonic() - t0
    record(10, "displayed-profile discrepancy is demonstrated", ok, f"({dt:.3f}s)")
