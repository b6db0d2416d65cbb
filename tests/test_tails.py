import random
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, settings

from tailcomb.blowup import distinguished_points, pair_matchings
from tailcomb.errors import InvariantViolation, PreconditionError
from tailcomb.graph import CurveGraph, Node, members, precedes
from tailcomb.lift import build_c2
from tailcomb.tails import (_candidates, _grow, _pool_index, _selection, family_terminals,
                            nested, symm_diff, tail_family)

from conftest import d_count, graphs, oracle_corpus, outcome, sc, tset


def fam_sets(G, fam):
    return [tset(G, z) for z in fam]


# -- nested families -------------------------------------------------------------


def test_nested_examples(G3, G4):
    assert fam_sets(G3, nested(G3, 2, sc(G3, "C2", "C3"))) == [{"C2", "C3"}]
    assert fam_sets(G4, nested(G4, 1, sc(G4, "C2"))) == [{"C2"}]
    assert nested(G4, 1, sc(G4, "C1")) == ()  # marked anchor
    assert nested(G3, 3, sc(G3, "C2")) == ()  # blocked by the 2-family


def test_nested_chain_invariant(G3):
    ms = nested(G3, 2, sc(G3, "C2"))
    for a, b in zip(ms, ms[1:]):
        assert precedes(G3, a, b)


def test_nested_preconditions(G3):
    with pytest.raises(PreconditionError):
        nested(G3, 4, sc(G3, "C2"))
    with pytest.raises(PreconditionError):
        nested(G3, 2, 0)


def test_nested_errors_are_not_memoized(G3):
    G = CurveGraph(G3.names, G3.nodes, G3.marked)
    for _ in range(3):
        with pytest.raises(PreconditionError):
            nested(G, 2, 1 << 5)
    assert nested(G, 2, sc(G, "C2", "C3")) == (sc(G, "C2", "C3"),)


# -- pair families ----------------------------------------------------------------


def test_tail_family_three_component_fixture(G3):
    # Families attached to the marked component are empty; the rest is the
    # single union of the far components.
    for pair in ((0, 0), (0, 1), (0, 2)):
        assert tail_family(G3, *pair) == ()
    for pair in ((1, 1), (1, 2), (2, 2)):
        assert fam_sets(G3, tail_family(G3, *pair)) == [{"C2", "C3"}]


def test_tail_family_multiset(G2, G4):
    assert fam_sets(G4, tail_family(G4, 1, 1)) == [{"C2"}, {"C2"}]
    assert fam_sets(G2, tail_family(G2, 1, 1)) == [{"C2"}]


def test_d_count(G3):
    fam = tail_family(G3, 1, 2)
    e12 = 1 << G3.node_index("e12")
    fg = (1 << G3.node_index("f")) | (1 << G3.node_index("g"))
    assert d_count(G3, fam, e12) == 1
    assert d_count(G3, fam, fg) == 0


# -- symmetric differences ----------------------------------------------------------


def test_symm_diff_level1_example(G4):
    r = symm_diff(G4, 1, 0, 1, 0)
    assert fam_sets(G4, r.family) == [{"C2"}]
    assert G4.term_mask(r.family[0]) == G4.joining(0, 1)
    assert r.condition == "condition-i"


def test_symm_diff_empty(G3):
    r = symm_diff(G3, 2, 1, 2, 1)
    assert r.family == () and r.condition == "empty"
    assert r.difference_nodes == ()


def test_symm_diff_banana(G2):
    r = symm_diff(G2, 2, 0, 1, 1)
    assert fam_sets(G2, r.family) == [{"C2"}]
    assert r.condition == "condition-i"
    assert {G2.nodes[t].id for t in r.difference_nodes} == {"a", "b"}


def test_symm_diff_preconditions(G3):
    with pytest.raises(PreconditionError):
        symm_diff(G3, 2, 1, 1, 0)  # i == j
    from tailcomb.graph import CurveGraph, Node

    path = CurveGraph(
        ["C1", "C2", "C3"], [Node("a", 0, 1), Node("b", 1, 2)], 0
    )
    with pytest.raises(PreconditionError):
        symm_diff(path, 2, 0, 2, 1)  # C1 and C3 share no node


def test_symm_diff_range_checks_every_index(G3):
    # G3's C1 and C2 share a node, so only the bad index can be at fault
    for pos in range(3):
        for bad in (-1, G3.p):
            args = [1, 0, 1]
            args[pos] = bad
            with pytest.raises(PreconditionError, match="out of range"):
                symm_diff(G3, 1, *args)


# -- closure lemma spot checks --------------------------------------------------------


def test_wedge_closure_two_tails(G3):
    two = [z for z in G3.k_tails(2) if not (z >> G3.marked) & 1]
    for z in two:
        for zp in two:
            w = z & zp
            if w:
                assert G3.is_tail(w) and G3.k(w) == 2


def test_terminal_support_lemma(G3):
    # Every qualifying 2-tail admits a terminal member of the nested family
    # inside it.
    anchors = sc(G3, "C2")
    fam = nested(G3, 2, anchors)
    for z in G3.k_tails(2):
        if z & anchors == anchors and not (z >> G3.marked) & 1:
            assert any(
                w & z == w and G3.term_mask(w) & G3.term_mask(z) for w in fam
            )


def test_caching_is_transparent():
    # two value-equal graphs built independently (fresh caches) agree on
    # every derived family, so memoization cannot change results
    from tailcomb.graph import CurveGraph, Node

    def build():
        return CurveGraph(
            ["C1", "C2", "C3"],
            [Node("e12", 0, 1), Node("e13", 0, 2), Node("f", 1, 2), Node("g", 1, 2)],
            0,
        )

    a, b = build(), build()
    assert a.tails() == b.tails()
    for s in (1, 2, 3):
        for anchors in range(1, a.full_mask + 1):
            assert nested(a, s, anchors) == nested(b, s, anchors)
    # warm caches and ask again
    assert a.tails() == b.tails()
    assert tail_family(a, 1, 2) == tail_family(b, 1, 2)


# -- the precedes()-based growth is the oracle of `nested` -----------------------------


def nested_oracle(G, s, anchors):
    """`nested` grown with a `precedes` call per candidate and step, from its
    own level-2 family at level 3; raises what `nested` raises."""
    if (anchors >> G.marked) & 1:
        return ()
    cands = [
        z for z in G.k_tails(s)
        if z & anchors == anchors and not (z >> G.marked) & 1
    ]
    if s == 3:
        blocked = 0
        for w in nested_oracle(G, 2, anchors):
            blocked |= G.term_mask(w)
        cands = [z for z in cands if not G.term_mask(z) & blocked]
    chain = []
    prev = 0
    while True:
        step = [z for z in cands if precedes(G, prev, z)]
        if not step:
            break
        meet = step[0]
        for z in step[1:]:
            meet &= z
        if meet not in step:
            minimal = [
                z for z in step if not any(y != z and y & z == y for y in step)
            ]
            raise InvariantViolation(
                "no unique minimal candidate during nested-family growth",
                level=s,
                anchors=G.names_of(anchors),
                witnesses=[G.names_of(z) for z in minimal[:2]],
            )
        chain.append(meet)
        prev = meet
    if s == 1 and len(chain) != len(cands):
        raise InvariantViolation(
            "1-tail candidates are not totally ordered",
            anchors=G.names_of(anchors),
            chain=[G.names_of(z) for z in chain],
            candidates=[G.names_of(z) for z in cands],
        )
    return tuple(chain)


def hat_anchors(G):
    """The anchors the point layers grow families from on the subdivision:
    each exceptional vertex (level 1) and each distinguished point's pair."""
    LG = build_c2(G)
    singles = {LG.exceptional(t, key) for t, nd in enumerate(G.nodes)
               for key in ((1, 2) if nd.is_loop else (nd.a, nd.b))}
    pairs = set()
    for r1, r2 in combinations(G.reducible_nodes(), 2):
        for ch in pair_matchings(G, r1, r2):
            for pt in distinguished_points(G, ch):
                pairs.add((1 << LG.exceptional(r1, pt.g1))
                          | (1 << LG.exceptional(r2, pt.g2)))
    return [1 << v for v in sorted(singles)] + sorted(pairs)


def assert_nested_matches_oracle(G, base_anchors):
    """Equal members, in order, or equal errors, at every level on the base
    graph and at the hat anchors on its subdivision; returns the number of
    members compared."""
    n = 0
    for graph, anchor_sets in ((G, base_anchors), (build_c2(G), hat_anchors(G))):
        for anchors in anchor_sets:
            for s in (1, 2, 3):
                got = outcome(nested, graph, s, anchors)
                assert got == outcome(nested_oracle, graph, s, anchors)
                n += len(got) if isinstance(got, tuple) else 0
    return n


def pair_anchors(G):
    return [(1 << a) | (1 << b)
            for a, b in combinations_with_replacement(range(G.p), 2)]


def test_nested_matches_oracle_fixtures(G1, G2, G3, G4):
    for G in (G1, G2, G3, G4):
        assert_nested_matches_oracle(G, range(1, G.full_mask + 1))


def test_nested_matches_oracle_corpus():
    compared = sum(assert_nested_matches_oracle(G, pair_anchors(G))
                   for G in oracle_corpus())
    assert compared > 10_000  # the corpus grows many nontrivial chains


def member_terminals(G, s, anchors):
    """The OR of the terminal masks of the level-s family's members."""
    covered = 0
    for w in nested(G, s, anchors):
        covered |= G.term_mask(w)
    return covered


def test_family_terminals_matches_member_or_corpus():
    nonempty = 0
    for G in oracle_corpus():
        for anchors in pair_anchors(G):
            for s in (1, 2, 3):
                got = outcome(family_terminals, G, s, anchors)
                assert got == outcome(member_terminals, G, s, anchors)
                nonempty += isinstance(got, int) and got != 0
    assert nonempty > 500


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_nested_matches_oracle_property(G):
    assert_nested_matches_oracle(G, range(1, G.full_mask + 1))


# -- the pool scan is the oracle of `_candidates` ------------------------------------


def candidates_oracle(G, s, anchors):
    """`_candidates` as a scan of the whole free pool, blocked at level 3
    by the terminal nodes of the oracle's own level-2 family."""
    blocked = 0
    if s == 3:
        for w in nested_oracle(G, 2, anchors):
            blocked |= G.term_mask(w)
    pool, _, _ = _pool_index(G, s)
    return [(z, tz) for z, tz in pool
            if z & anchors == anchors and not tz & blocked]


def assert_candidates_match_oracle(G, rng):
    """Equal candidates, in order, or equal errors, at levels 1..3 for every
    anchor set of one or two vertices and 20 random ones, on G and on its
    subdivision; returns the number of candidates compared."""
    n = 0
    for graph in (G, build_c2(G)):
        verts = range(graph.p)
        anchor_sets = [1 << v for v in verts]
        anchor_sets += [(1 << a) | (1 << b) for a, b in combinations(verts, 2)]
        anchor_sets += [rng.randrange(1, graph.full_mask + 1) for _ in range(20)]
        for anchors in anchor_sets:
            for s in (1, 2, 3):
                got = outcome(_candidates, graph, s, anchors)
                assert got == outcome(candidates_oracle, graph, s, anchors)
                n += len(got) if isinstance(got, list) else 0
    return n


def test_candidates_match_oracle_fixtures(G1, G2, G3, G4):
    rng = random.Random(0)
    assert sum(assert_candidates_match_oracle(G, rng) for G in (G1, G2, G3, G4)) > 0


def test_candidates_match_oracle_corpus():
    rng = random.Random(0)
    compared = sum(assert_candidates_match_oracle(G, rng) for G in oracle_corpus())
    assert compared > 10_000


# -- the list-filter growth is the oracle of the bitset `_grow` ---------------------


def grow_reference(G, s, cands, anchors):
    """`_grow` as a filter of the candidate list, each candidate paired with
    its terminal mask: every step keeps the candidates the last member
    precedes and asserts that their meet is one of them."""
    chain = []
    terms = []
    prev = tprev = 0
    while True:
        step = [
            c for c in cands
            if c[0] != prev and c[0] & prev == prev and not c[1] & tprev
        ]
        if not step:
            break
        meet = step[0][0]
        for z, _ in step:
            meet &= z
        for z, tz in step:
            if z == meet:
                break
        else:
            masks = [z for z, _ in step]
            minimal = [
                z for z in masks if not any(y != z and y & z == y for y in masks)
            ]
            raise InvariantViolation(
                "no unique minimal candidate during nested-family growth",
                level=s,
                anchors=G.names_of(anchors),
                witnesses=[G.names_of(z) for z in minimal[:2]],
            )
        chain.append(meet)
        terms.append(tz)
        prev, tprev = meet, tz
    if s == 1 and len(chain) != len(cands):
        raise InvariantViolation(
            "1-tail candidates are not totally ordered",
            anchors=G.names_of(anchors),
            chain=[G.names_of(z) for z in chain],
            candidates=[G.names_of(z) for z, _ in cands],
        )
    return chain, terms


def grow_outcomes(G, s, sel, anchors):
    """`_grow` and its reference on one selection."""
    pool = _pool_index(G, s)[0]
    return (outcome(_grow, G, s, sel, anchors),
            outcome(grow_reference, G, s, [pool[i] for i in members(sel)], anchors))


def assert_grow_matches_reference(G, base_anchors, rng):
    """Equal chains and terminal masks, or equal violations with the same
    witnesses, at every level on G and on its subdivision: for the selection
    of every anchor set given (every set of one or two vertices on the
    subdivision), and for 8 random selections per level, which break the
    closure lemmas and so reach the violations.  Returns the members and
    violations compared."""
    n = raised = 0
    LG = build_c2(G)
    lifted_anchors = [(1 << a) | (1 << b)
                      for a, b in combinations_with_replacement(range(LG.p), 2)]
    for graph, anchor_sets in ((G, base_anchors), (LG, lifted_anchors)):
        for s in (1, 2, 3):
            size = len(_pool_index(graph, s)[0])
            cases = [(_selection(graph, s, anchors), anchors) for anchors in anchor_sets]
            cases += [(rng.getrandbits(size), 1) for _ in range(8)]
            for sel, anchors in cases:
                got, expected = grow_outcomes(graph, s, sel, anchors)
                assert got == expected, (graph, s, sel)
                if isinstance(got[0], list):
                    n += len(got[0])
                else:
                    raised += 1
    return n, raised


def test_grow_matches_reference_fixtures(G1, G2, G3, G4):
    rng = random.Random(0)
    for G in (G1, G2, G3, G4):
        assert_grow_matches_reference(G, range(1, G.full_mask + 1), rng)


def test_grow_matches_reference_corpus():
    rng = random.Random(0)
    n = raised = 0
    for G in oracle_corpus():
        got = assert_grow_matches_reference(G, range(1, G.full_mask + 1), rng)
        n, raised = n + got[0], raised + got[1]
    assert n > 10_000 and raised > 100


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_grow_matches_reference_property(G):
    assert_grow_matches_reference(G, range(1, G.full_mask + 1), random.Random(0))


def test_nested_violations_match_oracle(monkeypatch):
    # On the 4-cycle C1-C2-C3-C4 marked at C1, hide the 2-tail {C3}: the
    # candidates at C3 then meet in {C3}, which is no candidate.  At level 1,
    # offer {C3} and {C2,C3}, which share a terminal node: the growth stops
    # after {C3} and leaves a candidate out of the chain.
    G = CurveGraph(
        ["C1", "C2", "C3", "C4"],
        [Node("a", 0, 1), Node("b", 1, 2), Node("c", 2, 3), Node("d", 0, 3)],
        0,
    )
    c3, c23 = G.subcurve(["C3"]), G.subcurve(["C2", "C3"])
    unmarked_k_tails = CurveGraph._unmarked_k_tails

    def corrupted(self, kk):
        # the pool source: (tail, terminal mask) pairs, which `_pool_index`
        # and the oracle's `k_tails` both read
        got = unmarked_k_tails(self, kk)
        if self is G and kk == 2:
            return tuple(e for e in got if e[0] != c3)
        if self is G and kk == 1:
            return ((c3, G.term_mask(c3)), (c23, G.term_mask(c23)))
        return got

    monkeypatch.setattr(CurveGraph, "_unmarked_k_tails", corrupted)
    for s, message in ((2, "no unique minimal"), (1, "not totally ordered")):
        with pytest.raises(InvariantViolation, match=message) as exc:
            nested(G, s, c3)
        with pytest.raises(InvariantViolation) as expected:
            nested_oracle(G, s, c3)
        assert str(exc.value) == str(expected.value)
        assert exc.value.witnesses == expected.value.witnesses
        got, expected = grow_outcomes(G, s, _selection(G, s, c3), c3)
        assert got == expected and got[0] is InvariantViolation
    assert exc.value.witnesses["chain"] == [("C3",)]
