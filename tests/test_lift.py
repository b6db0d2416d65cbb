import random
from itertools import combinations

import pytest
from hypothesis import given, settings

from tailcomb.blowup import (
    AS_DISPLAYED,
    PROFILES,
    RECONSTRUCTED,
    _point_verdicts,
    choices,
    distinguished_points,
    is_quasistable_point,
    make_choice,
    pair_matchings,
)
from tailcomb.errors import InvariantViolation, PreconditionError
from tailcomb.graph import CurveGraph, Node, canon_key, members, precedes, validate
from tailcomb.lift import (
    LevelSync,
    LiftedGraph,
    SyncReport,
    _distinct,
    _sync_reports,
    build_c2,
    canonical_liftings,
    is_synchronized,
    one_tail_diagnostic,
)
from tailcomb.randgen import instance_graph
from tailcomb.suites import replay
from tailcomb.tails import _candidates, _pool_index, nested

from conftest import (d_count, eq34_level2, graphs, hat_families, hide_lifted_tail,
                      oracle_corpus, outcome, sc)


def lnames(LG, mask):
    return set(LG.names_of(mask))


# -- subdivision structure ---------------------------------------------------------


def test_build_c2_counts(G1, G2, G3, G4):
    for G in (G1, G2, G3, G4):
        LG = build_c2(G)
        assert LG.p == G.p + 2 * len(G.nodes)
        assert len(LG.nodes) == 3 * len(G.nodes)
        assert LG.names[LG.marked] == G.names[G.marked]


def test_build_c2_path(G4):
    LG = build_c2(G4)
    assert LG.names == ("C1", "C2", "E(e,C1)", "E(e,C2)")
    ids = {nd.id for nd in LG.nodes}
    assert ids == {"e:C1", "e:mid", "e:C2"}


def test_build_c2_loop_triangle(G1):
    LG = build_c2(G1)
    assert LG.p == 3
    assert LG.connected(LG.full_mask)
    assert set(LG.names) == {"C1", "E(loop,1)", "E(loop,2)"}


def test_mu_image(G2):
    LG = build_c2(G2)
    y = LG.subcurve(["E(a,C1)", "E(a,C2)"])
    assert LG.mu_image(y) == 0  # purely exceptional
    y = LG.subcurve(["E(a,C2)", "C2", "E(b,C2)", "E(b,C1)"])
    assert LG.mu_image(y) == sc(G2, "C2")


# -- canonical liftings -------------------------------------------------------------


def test_canonical_liftings_path(G4):
    LG = build_c2(G4)
    l0, l1, l2 = canonical_liftings(LG, sc(G4, "C2"))
    assert lnames(LG, l0) == {"C2"}
    assert lnames(LG, l1) == {"C2", "E(e,C2)"}
    assert lnames(LG, l2) == {"C2", "E(e,C2)", "E(e,C1)"}


def test_canonical_liftings_banana(G2):
    LG = build_c2(G2)
    l0, l1, l2 = canonical_liftings(LG, sc(G2, "C2"))
    assert lnames(LG, l1) - lnames(LG, l0) == {"E(a,C2)", "E(b,C2)"}
    assert lnames(LG, l2) - lnames(LG, l1) == {"E(a,C1)", "E(b,C1)"}
    for a, b in ((l0, l1), (l1, l2)):
        assert precedes(LG, a, b)


def test_canonical_liftings_interior_nodes(G3):
    LG = build_c2(G3)
    l0, l1, l2 = canonical_liftings(LG, sc(G3, "C2", "C3"))
    assert lnames(LG, l0) == {"C2", "C3", "E(f,C2)", "E(f,C3)", "E(g,C2)", "E(g,C3)"}
    assert lnames(LG, l1) - lnames(LG, l0) == {"E(e12,C2)", "E(e13,C3)"}
    assert lnames(LG, l2) - lnames(LG, l1) == {"E(e12,C1)", "E(e13,C1)"}


def test_canonical_liftings_reject_improper(G4):
    LG = build_c2(G4)
    with pytest.raises(PreconditionError):
        canonical_liftings(LG, 0)
    with pytest.raises(PreconditionError):
        canonical_liftings(LG, G4.full_mask)


def test_canonical_liftings_reject_masks_outside_the_components(G4):
    # a bit past the base components (4, 7) once indexed past the adjacency
    # table, and a negative mask (-1) never ran out of members
    LG = build_c2(G4)
    for W in (4, 7, -1):
        with pytest.raises(PreconditionError, match="outside the component range"):
            canonical_liftings(LG, W)


# -- hat families and synchronization ----------------------------------------------


def test_hat_families_banana_aligned(G2):
    LG = build_c2(G2)
    ch = make_choice(G2, 0, 1, [(1, 1), (0, 0)])
    for pt in distinguished_points(G2, ch):
        t2, t3 = hat_families(G2, pt)
        assert len(t2) == 1
        assert LG.mu_image(t2[0]) == sc(G2, "C2")
        assert t3 == ()


def test_hat_families_banana_crossed(G2):
    LG = build_c2(G2)
    ch = make_choice(G2, 0, 1, [(1, 0), (0, 1)])
    by_anchor = {}
    for pt in distinguished_points(G2, ch):
        t2, _ = hat_families(G2, pt)
        by_anchor[G2.names[pt.g1]] = [lnames(LG, y) for y in t2]
    # the point anchored at the C2-side exceptional vertices grows a
    # two-member chain: the short middle arc, then everything but the mark
    assert by_anchor["C2"] == [
        {"E(a,C2)", "C2", "E(b,C2)"},
        {"E(a,C1)", "E(a,C2)", "C2", "E(b,C2)", "E(b,C1)"},
    ]
    assert len(by_anchor["C1"]) == 1


def test_sync_banana(G2):
    aligned = make_choice(G2, 0, 1, [(1, 1), (0, 0)])
    crossed = make_choice(G2, 0, 1, [(1, 0), (0, 1)])
    for pt in distinguished_points(G2, aligned):
        rep = is_synchronized(G2, pt)
        assert rep.synchronized
        assert {l.level: l.ok for l in rep.levels} == {2: True, 3: True}
    for pt in distinguished_points(G2, crossed):
        rep = is_synchronized(G2, pt)
        assert not rep.synchronized
        assert {l.level: l.ok for l in rep.levels} == {2: False, 3: True}


def test_sync_g3_aligned_pair(G3):
    ch = make_choice(G3, 0, 1, [(1, 2), (0, 0)])
    for pt in distinguished_points(G3, ch):
        assert is_quasistable_point(G3, pt, RECONSTRUCTED).ok
        assert is_synchronized(G3, pt).synchronized


def test_is_synchronized_rejects_a_foreign_point(G2, G3):
    pt = distinguished_points(G3, make_choice(G3, 0, 1, [(1, 2), (0, 0)]))[0]
    assert is_synchronized(G3, pt).synchronized
    # C3 is no side of e12, and G2's points name sides of G2's nodes
    foreign = [pt._replace(g1=G3.index("C3"))]
    foreign += distinguished_points(G2, make_choice(G2, 0, 1, [(1, 1), (0, 0)]))
    for bad in foreign:
        for query in (is_synchronized, hat_families):
            with pytest.raises(PreconditionError, match="not a distinguished point"):
                query(G3, bad)


POINT_READERS = {
    "is_quasistable_point-reconstructed":
        lambda G, pt: is_quasistable_point(G, pt, RECONSTRUCTED),
    "is_quasistable_point-as-displayed":
        lambda G, pt: is_quasistable_point(G, pt, AS_DISPLAYED),
    "is_synchronized": is_synchronized,
    "eq34_level2": eq34_level2,
    "one_tail_diagnostic": one_tail_diagnostic,
    "hat_families": hat_families,
}


@pytest.mark.parametrize("read", list(POINT_READERS.values()), ids=list(POINT_READERS))
def test_point_readers_share_one_membership_rule(read, G2, G3):
    # Every per-point reader answers what is not one of G3's points with
    # the same PreconditionError: a choice whose matching holds lists (an
    # unhashable key), another graph's point, a point index other than 1
    # or 2 (True and 1.0, which compare equal to 1, included), and a point
    # whose labels are swapped.
    pt = distinguished_points(G3, make_choice(G3, 0, 1, [(1, 2), (0, 0)]))[0]
    read(G3, pt)
    listed = pt.choice._replace(matching=[list(pair) for pair in pt.choice.matching])
    foreign = [
        pt._replace(choice=listed),
        distinguished_points(G2, make_choice(G2, 0, 1, [(1, 1), (0, 0)]))[0],
        pt._replace(index=0),
        pt._replace(index=3),
        pt._replace(index=True),
        pt._replace(index=1.0),
        pt._replace(g1=pt.g1p, g1p=pt.g1),
    ]
    for point in foreign:
        with pytest.raises(PreconditionError,
                           match="^not a distinguished point of this graph$"):
            read(G3, point)


def assert_tables_keyed_by_choice(G):
    """The synchronization table and both verdict tables are keyed by
    `choices(G)`, in its order; each choice's two slots hold its points'
    reports, in point order, or a stored violation."""
    keys = list(choices(G))
    reports = _sync_reports(G)
    for profile in PROFILES:
        assert list(reports) == list(_point_verdicts(G, profile)) == keys
    for ch, slots in reports.items():
        assert len(slots) == 2
        for pt, entry in zip(distinguished_points(G, ch), slots):
            if isinstance(entry, SyncReport):
                assert entry.point == pt
            else:
                assert isinstance(entry, InvariantViolation)


def test_tables_keyed_by_choice_fixtures_and_corpus(G1, G2, G3, G4):
    for G in (G1, G2, G3, G4) + oracle_corpus():
        assert_tables_keyed_by_choice(G)


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_tables_keyed_by_choice_property(G):
    assert_tables_keyed_by_choice(G)


def test_thm63_pairwise_on_fixtures(G2, G3):
    for G in (G2, G3):
        red = G.reducible_nodes()
        for i in range(len(red)):
            for j in range(i + 1, len(red)):
                from tailcomb.blowup import pair_matchings

                for ch in pair_matchings(G, red[i], red[j]):
                    pts = distinguished_points(G, ch)
                    qs = all(
                        is_quasistable_point(G, p, RECONSTRUCTED).ok for p in pts
                    )
                    sy = all(is_synchronized(G, p).synchronized for p in pts)
                    assert qs == sy


# -- diagnostics ---------------------------------------------------------------------


def test_one_tail_diagnostic(G2, G3):
    for G in (G2, G3):
        red = G.reducible_nodes()
        from tailcomb.blowup import pair_matchings

        for i in range(len(red)):
            for j in range(i + 1, len(red)):
                for ch in pair_matchings(G, red[i], red[j]):
                    for pt in distinguished_points(G, ch):
                        assert one_tail_diagnostic(G, pt) == ()


def test_diagnostic_separating_node():
    # a bridge next to a banana provides separating-node level-1 tails
    from tailcomb.graph import CurveGraph, Node

    G = CurveGraph(
        ["C1", "C2", "C3"],
        [Node("a", 0, 1), Node("b", 1, 2), Node("c", 1, 2)],
        0,
    )
    points = list(all_points(G))
    assert len(points) == 12  # the pairs (a, b) and (a, c) anchor on the bridge
    for pt in points:
        assert one_tail_diagnostic(G, pt) == ()


def test_eq34_on_synchronized_points(G2, G3):
    for G in (G2, G3):
        from tailcomb.blowup import pair_matchings

        red = G.reducible_nodes()
        for i in range(len(red)):
            for j in range(i + 1, len(red)):
                for ch in pair_matchings(G, red[i], red[j]):
                    for pt in distinguished_points(G, ch):
                        if is_synchronized(G, pt).synchronized:
                            assert eq34_level2(G, pt) == ()


# -- derived s-tails of the subdivision against full enumeration ----------------------


@pytest.fixture(scope="module")
def corpus():
    """80 seeded draws at the verify defaults (<=6 components, <=4 extra)."""
    return [instance_graph(11, i, 6, 4, True) for i in range(80)]


def enumerated_subdivision(G):
    """The subdivision of G and a plain copy whose k-tails bucket its
    enumerated tails."""
    LG = LiftedGraph(G)
    return LG, CurveGraph(LG.names, LG.nodes, LG.marked)


def assert_derived_tails(G):
    """The closed form's pool equals the enumerated unmarked s-tails with
    their terminal masks, and `k_tails` its closure under complement."""
    lg, plain = enumerated_subdivision(G)
    marked_bit = 1 << plain.marked
    for s in (1, 2, 3):
        assert _pool_index(lg, s)[0] == tuple(
            (z, plain.term_mask(z)) for z in plain.tails()
            if plain.k(z) == s and not z & marked_bit), (G, s)
        assert lg.k_tails(s) == plain.k_tails(s), (G, s)
    assert (CurveGraph.tail_table.__wrapped__,) not in lg._memo  # never enumerated
    # the pool's terminal masks come from the lifting steps, not term_mask
    assert not [key for key in lg._memo if key[0] is CurveGraph.term_mask.__wrapped__]


def test_derived_tails_fixtures(G1, G2, G3, G4):
    for G in (G1, G2, G3, G4):
        assert_derived_tails(G)


def test_derived_tails_corpus(corpus):
    for G in corpus:
        assert_derived_tails(G)


@settings(max_examples=100, deadline=None)
@given(graphs())
def test_derived_tails_property(G):
    assert_derived_tails(G)


def test_k_tails_above_three_still_enumerate(G2, G3, corpus):
    for G in [G2, G3] + corpus[:20]:
        lg, plain = enumerated_subdivision(G)
        assert lg.k_tails(4) == plain.k_tails(4)
        assert lg.tails() == plain.tails()


def component_without_scan(G, start, skip_node):
    """Reference: vertices reachable from start by search, never using the node."""
    seen = 1 << start
    frontier = [start]
    while frontier:
        v = frontier.pop()
        for t, nd in enumerate(G.nodes):
            if t == skip_node or nd.is_loop:
                continue
            if nd.a == v or nd.b == v:
                u = nd.b if nd.a == v else nd.a
                if not (seen >> u) & 1:
                    seen |= 1 << u
                    frontier.append(u)
    return seen


def one_tail_oracle(G, point):
    """`one_tail_diagnostic` with each side's expectations found as they
    were before the pool pass: the crossing members from `_candidates` at
    both ends of the node, and the separating side by search."""
    return (one_tail_side_oracle(G, point.choice.r1, point.g1)
            + one_tail_side_oracle(G, point.choice.r2, point.g2))


def one_tail_side_oracle(G, r, g):
    LG = build_c2(G)
    nd = G.nodes[r]
    detail = []
    crossing = []
    rest = []
    for y in nested(LG, 1, 1 << LG.exceptional(r, g)):
        img = LG.mu_image(y)
        if not G.is_tail(img) or (img >> G.marked) & 1:
            detail.append(("bad-image", nd.id, LG.names_of(y)))
            continue
        both = (img >> nd.a) & 1 and (img >> nd.b) & 1
        (crossing if both else rest).append(y)
    expected = set()
    for w, _ in _candidates(G, 1, (1 << nd.a) | (1 << nd.b)):
        expected.update(canonical_liftings(LG, w))
    if set(crossing) != expected:
        detail.append(("crossing-mismatch", nd.id))
    # Non-crossing members exist exactly over a separating node.
    exp_rest = set()
    side = component_without_scan(G, nd.a, r)
    if not (side >> nd.b) & 1:
        v = side if not (side >> G.marked) & 1 else G.full_mask ^ side
        _, l1, l2 = canonical_liftings(LG, v)
        exp_rest = {l1, l2} if (v >> g) & 1 else {l2}
    if set(rest) != exp_rest:
        detail.append(("separating-mismatch", nd.id))
    return tuple(detail)


# -- the index layout and the per-node oracles of the point layers ----------------------


def exceptional_pair(LG, t):
    nd = LG.base.nodes[t]
    keys = (1, 2) if nd.is_loop else (nd.a, nd.b)
    return [LG.exceptional(t, key) for key in keys]


def assert_index_layout(G):
    """Strict transforms keep the base indices, the exceptional vertices come
    after them, and lifted edges 3t..3t+2 are the chain over node t."""
    LG = build_c2(G)
    assert LG.names[: G.p] == G.names and LG.marked == G.marked
    assert LG.p == G.p + 2 * len(G.nodes)
    exc = [e for t in range(len(G.nodes)) for e in exceptional_pair(LG, t)]
    assert sorted(exc) == list(range(G.p, LG.p))
    for t, nd in enumerate(G.nodes):
        e1, e2 = exceptional_pair(LG, t)
        assert G.p <= e1 and G.p <= e2
        ends = [{c.a, c.b} for c in LG.nodes[3 * t: 3 * t + 3]]
        assert ends == [{nd.a, e1}, {e1, e2}, {e2, nd.b}]


def mu_image_oracle(LG, mask):
    """The contraction as a loop over the members of the lifted mask; the
    strict transform of a base component is the lifted vertex of its name."""
    comp = {LG.index(name): m for m, name in enumerate(LG.base.names)}
    img = 0
    for v in members(mask):
        if v in comp:
            img |= 1 << comp[v]
    return img


def hat_oracle(G, point):
    """The level-2 and level-3 hat families of one point, grown on their own
    by `nested` on the subdivision at E(R1, g1) and E(R2, g2)."""
    LG = build_c2(G)
    a1 = 1 << LG.exceptional(point.choice.r1, point.g1)
    a2 = 1 << LG.exceptional(point.choice.r2, point.g2)
    return nested(LG, 2, a1 | a2), nested(LG, 3, a1 | a2)


def base_level_multiset(G, point, s):
    """The base multiset at one level: the three families of the point's
    triple pairs, concatenated and sorted; the synchronization table merges
    the same families, each fetched once per graph."""
    out = []
    for (a, b) in ((point.g1, point.g2), (point.g1, point.g2p), (point.g1p, point.g2)):
        out.extend(nested(G, s, (1 << a) | (1 << b)))
    return tuple(sorted(out, key=canon_key))


def eq34_oracle(G, point):
    """`SyncReport.eq34` node by node: `d_count` over the base level-2 multiset
    against the sum of `d_count` over the hat family at each lifted edge
    touching an exceptional vertex over the node."""
    LG = build_c2(G)
    t2, _ = hat_oracle(G, point)
    base = base_level_multiset(G, point, 2)
    bad = []
    for t, nd in enumerate(G.nodes):
        exc = set(exceptional_pair(LG, t))
        chain = [e for e, c in enumerate(LG.nodes) if {c.a, c.b} & exc]
        lhs = d_count(G, base, 1 << t)
        rhs = sum(d_count(LG, t2, 1 << e) for e in chain)
        if lhs != rhs:
            bad.append((nd.id, lhs, rhs))
    return tuple(bad)


def all_points(G):
    for r1, r2 in combinations(G.reducible_nodes(), 2):
        for ch in pair_matchings(G, r1, r2):
            yield from distinguished_points(G, ch)


def sync_view(G, point):
    """`is_synchronized` as `sync_oracle` gives it: the report's point,
    verdict and levels."""
    rep = is_synchronized(G, point)
    return rep.point, rep.synchronized, rep.levels


def sync_oracle(G, point):
    """`is_synchronized` for one point on its own: its two hat families
    against the base multisets of its triple, level by level, as the point,
    its verdict and its levels.  A level synchronizes when the images equal
    the base multiset and no member is purely exceptional, and the point
    when both levels do."""
    LG = build_c2(G)
    levels = []
    for s, fam in zip((2, 3), hat_oracle(G, point)):
        images = tuple(sorted((LG.mu_image(y) for y in fam), key=canon_key))
        base = base_level_multiset(G, point, s)
        pure = any(y and not LG.mu_image(y) for y in fam)
        ok = images == base and not pure
        levels.append(LevelSync(s, ok, images, base, fam))
    return point, all(l.ok for l in levels), tuple(levels)


def assert_point_layers_match_oracles(G, rng):
    """Index layout, `mu_image` on the lifted tails, the hat family members
    and random masks, and `is_synchronized`, its eq. (34) violations and
    `one_tail_diagnostic` at every distinguished point; returns the number
    of nonempty eq-34 results compared."""
    assert_index_layout(G)
    LG = build_c2(G)
    masks = [m for s in (1, 2, 3) for m in LG.k_tails(s)]
    masks += [0, LG.full_mask] + [rng.getrandbits(LG.p) for _ in range(50)]
    nonempty = 0
    for pt in all_points(G):
        t2, t3 = hat_oracle(G, pt)
        masks += t2 + t3
        assert outcome(hat_families, G, pt) == outcome(hat_oracle, G, pt)
        assert outcome(sync_view, G, pt) == outcome(sync_oracle, G, pt)
        got = outcome(eq34_level2, G, pt)
        assert got == outcome(eq34_oracle, G, pt)
        nonempty += bool(got)
        assert outcome(one_tail_diagnostic, G, pt) == outcome(one_tail_oracle, G, pt)
    for m in masks:
        assert LG.mu_image(m) == mu_image_oracle(LG, m)
    return nonempty


def test_point_layers_match_oracles_fixtures(G1, G2, G3, G4):
    for G in (G1, G2, G3, G4):
        assert_point_layers_match_oracles(G, random.Random(0))
    crossed = make_choice(G2, 0, 1, [(1, 0), (0, 1)])
    assert all(eq34_level2(G2, pt) == eq34_oracle(G2, pt) != ()
               for pt in distinguished_points(G2, crossed))


def test_point_layers_match_oracles_corpus():
    rng = random.Random(0)
    nonempty = sum(assert_point_layers_match_oracles(G, rng)
                   for G in oracle_corpus())
    assert nonempty > 0  # unsynchronized points give nonempty violation lists


def test_sync_violations_stay_with_their_points(monkeypatch, G3):
    # Hide from G3's subdivision the 2-tail over C2 + C3 that holds every
    # exceptional vertex of f and g: the four points anchored at f and g
    # then find no unique minimal candidate, and only those four fail, each
    # naming its own anchors, as their per-point evaluation does.
    G = CurveGraph(G3.names, G3.nodes, G3.marked)  # a fresh memo
    LG = build_c2(G)
    hidden = LG.subcurve(["C2", "C3", "E(f,C2)", "E(f,C3)", "E(g,C2)", "E(g,C3)"])
    hide_lifted_tail(monkeypatch, LG, 2, hidden)
    failed = set()
    for pt in all_points(G):
        got = outcome(sync_view, G, pt)
        assert got == outcome(sync_oracle, G, pt)
        if got[0] != pt:  # not a report: the error's type, message and witnesses
            assert "no unique minimal" in got[1]
            failed.add(got[2]["anchors"])
    assert failed == {("E(f,C2)", "E(g,C3)"), ("E(f,C3)", "E(g,C2)"),
                      ("E(f,C2)", "E(g,C2)"), ("E(f,C3)", "E(g,C3)")}


def test_a_stored_sync_violation_is_raised_afresh(monkeypatch, G3):
    # The four failing points of the test above: each keeps its violation
    # without a traceback (whose frames would hold G), and every call
    # raises a fresh copy of it, so raising never grows the stored one.
    G = CurveGraph(G3.names, G3.nodes, G3.marked)  # a fresh memo
    LG = build_c2(G)
    hidden = LG.subcurve(["C2", "C3", "E(f,C2)", "E(f,C3)", "E(g,C2)", "E(g,C3)"])
    hide_lifted_tail(monkeypatch, LG, 2, hidden)
    failing = [pt for pt in all_points(G)
               if isinstance(_sync_reports(G)[pt.choice][pt.index - 1],
                             InvariantViolation)]
    assert len(failing) == 4
    for pt in failing:
        raised = []
        for _ in range(2):
            with pytest.raises(InvariantViolation) as info:
                is_synchronized(G, pt)
            raised.append(info.value)
        first, second = raised
        stored = _sync_reports(G)[pt.choice][pt.index - 1]
        assert first is not second and stored is not first and stored is not second
        assert type(first) is type(second) is type(stored)
        assert first.args == second.args == stored.args
        assert first.witnesses == second.witnesses == stored.witnesses
        assert stored.__traceback__ is None


def test_subdivision_refers_to_its_base_weakly():
    # G's memo holds its subdivision, which reads G through a weak
    # reference, so dropping G frees it; the orphaned subdivision says so.
    G = CurveGraph(["C1", "C2"], [Node("e", 0, 1)], 0)
    LG = build_c2(G)
    assert LG.base is G and LG.exceptional(0, 1) == 3
    del G
    for read in (lambda: LG.base, lambda: LG.exceptional(0, 1)):
        with pytest.raises(PreconditionError,
                           match="^the base graph of this subdivision is gone$"):
            read()


def test_one_tail_violations_match_oracle(monkeypatch):
    # Hide from the subdivision the lifted 1-tail L2 of the bridge a's
    # unmarked side C2 + C3 (it holds both exceptional vertices of a): every
    # family anchored over a then misses a separating member, and every
    # family over b or c a crossing one, so every point has findings, and
    # the diagnostic and its oracle report the same ones.
    G = CurveGraph(["C1", "C2", "C3"],
                   [Node("a", 0, 1), Node("b", 1, 2), Node("c", 1, 2)], 0)
    LG = build_c2(G)
    hidden = canonical_liftings(LG, G.subcurve(["C2", "C3"]))[2]
    assert hidden in LiftedGraph(G).k_tails(1)  # a fresh copy: LG's pool is unread
    hide_lifted_tail(monkeypatch, LG, 1, hidden)
    points = list(all_points(G))
    assert len(points) == 12
    for pt in points:
        got = one_tail_diagnostic(G, pt)
        assert got and got == one_tail_oracle(G, pt)
        over = {G.nodes[pt.choice.r1].id, G.nodes[pt.choice.r2].id}
        assert {d[0] for d in got} == (
            {"separating-mismatch", "crossing-mismatch"} if "a" in over
            else {"crossing-mismatch"})


def test_one_tail_diagnostic_rejects_foreign_points(G2, G3):
    pt = next(all_points(G3))
    swapped = pt._replace(g1=pt.g1p, g1p=pt.g1)
    for point in (swapped, next(all_points(G2))):
        with pytest.raises(PreconditionError, match="not a distinguished point"):
            one_tail_diagnostic(G3, point)


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_point_layers_match_oracles_property(G):
    assert_point_layers_match_oracles(G, random.Random(0))


# -- names of the subdivision ----------------------------------------------------

# a valid graph whose component E(a,C1) is also the name the subdivision
# generates for the exceptional vertex over node a on the side of C1
NAMED_LIKE_A_LIFT = {
    "components": ["C1", "E(a,C1)", "C3"],
    "marked": "C1",
    "nodes": [
        {"id": "a", "ends": ["C1", "E(a,C1)"]},
        {"id": "b", "ends": ["C1", "C3"]},
        {"id": "c", "ends": ["C3", "E(a,C1)"]},
    ],
}


def test_distinct_renames_only_repeats():
    assert _distinct(["x", "y", "z"]) == ["x", "y", "z"]
    # the suffix skips every name the list already holds
    assert _distinct(["x", "x", "x#2", "x"]) == ["x", "x#3", "x#2", "x#4"]


def test_subdivision_names_unique_when_a_component_collides():
    G = validate(NAMED_LIKE_A_LIFT)
    LG = build_c2(G)
    assert LG.names[:3] == G.names
    assert LG.names[3:] == ("E(a,C1)#2", "E(a,E(a,C1))", "E(b,C1)", "E(b,C3)",
                            "E(c,E(a,C1))", "E(c,C3)")


def test_subdivision_node_ids_unique_when_a_side_is_called_mid():
    G = CurveGraph(["C1", "mid"], [Node("a", 0, 1)], 0)
    assert [nd.id for nd in build_c2(G).nodes] == ["a:C1", "a:mid", "a:mid#2"]


def test_prop62_replays_green_on_a_graph_named_like_a_lift():
    report = replay({"suite": "prop-62", "graph": NAMED_LIKE_A_LIFT})
    assert report.ok and report.checks["prop-62"] > 1
