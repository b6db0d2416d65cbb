import json
import random
import re
from dataclasses import dataclass

import pytest
from hypothesis import given, settings

from tailcomb.degrees import (abel_multidegree, is_quasistable, laplacian,
                              quasistable_representative, twister)
from tailcomb.errors import GraphError
from tailcomb.graph import (CurveGraph, Node, canon_key, members, precedes, validate,
                            write_json)
from tailcomb.lift import build_c2
from tailcomb.randgen import instance_graph
from tailcomb.suites import lemma27
from tailcomb.tails import _pool_index, nested

from conftest import graphs, json_values, oracle_corpus, sc, tset


# -- construction and validation ----------------------------------------------


def test_fixture_graphs_valid(G1, G2, G3, G4):
    assert (G1.p, G2.p, G3.p, G4.p) == (1, 2, 3, 2)
    assert G3.names[G3.marked] == "C1"


def test_validate_from_json_spec():
    data = {
        "components": ["C1", "C2"],
        "marked": "C1",
        "nodes": [
            {"id": "a", "ends": ["C1", "C2"]},
            {"id": "b", "ends": ["C1", "C2"]},
        ],
    }
    G = validate(data)
    assert G.p == 2 and len(G.nodes) == 2


def test_validate_accepts_and_ignores_genus():
    data = {
        "components": [{"name": "C1", "genus": 2}, {"name": "C2", "genus": 0}],
        "marked": "C1",
        "nodes": [{"id": "a", "ends": ["C1", "C2"]}],
    }
    G = validate(data)
    assert G.names == ("C1", "C2")


def test_validate_disconnected():
    data = {"components": ["C1", "C2"], "marked": "C1", "nodes": []}
    with pytest.raises(GraphError, match="disconnected"):
        validate(data)


def test_validate_unknown_marked():
    data = {"components": ["C1"], "marked": "CX", "nodes": []}
    with pytest.raises(GraphError, match="CX"):
        validate(data)


def test_validate_duplicate_node_id():
    data = {
        "components": ["C1", "C2"],
        "marked": "C1",
        "nodes": [
            {"id": "a", "ends": ["C1", "C2"]},
            {"id": "a", "ends": ["C1", "C2"]},
        ],
    }
    with pytest.raises(GraphError, match="duplicate node id"):
        validate(data)


@pytest.mark.parametrize("names, node_id, value", [
    ([1, 2], "a", "1"), (["C1", b"C2"], "a", "b'C2'"),
    (["C1", "C2"], 7, "7"), (["C1", "C2"], None, "None"),
])
def test_graph_names_must_be_strings(names, node_id, value):
    # a component name or node id is never coerced: CurveGraph([1, 2], ...)
    # would name its components "1" and "2", and a numeric node id would be
    # written by `to_spec` as a number that `validate` rejects
    with pytest.raises(GraphError, match=rf"^(component name|node id) {re.escape(value)} "
                                         r"is not a string$"):
        CurveGraph(names, [Node(node_id, 0, 1)], 0)


def test_json_round_trip(G3):
    again = validate(json.loads(G3.to_json()))
    assert again == G3


def stdlib_json(value) -> str:
    """The oracle of `write_json`: the stdlib's sorted, indented text."""
    return json.dumps(value, sort_keys=True, indent=2)


def written(writer, value):
    """writer(value), or the type of the error it raised."""
    try:
        return writer(value)
    except (TypeError, ValueError) as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(json_values())
def test_write_json_equals_stdlib(value):
    assert written(write_json, value) == written(stdlib_json, value)


@pytest.mark.parametrize("value", [
    {1, 2}, b"bytes", {"a": 1, 2: 3}, [{"a": {None: 1, "b": 2}}], {"a": (1, {2})},
], ids=["set", "bytes", "mixed-keys", "nested-mixed-keys", "nested-set"])
def test_write_json_rejects_what_the_stdlib_rejects(value):
    for writer in (write_json, stdlib_json):
        with pytest.raises(TypeError):
            writer(value)


def test_write_json_equals_stdlib_on_outputs(G1, G2, G3, G4):
    from tailcomb.blowup import BlowupPlan, decide_resolution, minimality_probe

    for G in (G1, G2, G3, G4) + oracle_corpus()[:20]:
        for value in (G.to_spec(), minimality_probe(G, "reconstructed").describe(G),
                      decide_resolution(G, BlowupPlan(), "as-displayed").describe(G)):
            assert write_json(value) == stdlib_json(value)


def test_dot_export(G2):
    dot = G2.to_dot()
    assert "doublecircle" in dot
    assert '"C1" -- "C2" [label="a"]' in dot


# -- terminal sets and k -------------------------------------------------------


def test_terminal_set_examples(G3):
    assert set(G3.node_ids(G3.term_mask(sc(G3, "C2", "C3")))) == {"e12", "e13"}
    assert G3.k(sc(G3, "C2", "C3")) == 2
    assert set(G3.node_ids(G3.term_mask(sc(G3, "C2")))) == {"e12", "f", "g"}
    assert G3.k(sc(G3, "C2")) == 3
    assert G3.term_mask(G3.full_mask) == 0
    assert G3.term_mask(0) == 0


def test_loops_never_terminal(G1):
    assert G1.term_mask(G1.full_mask) == 0
    assert G1.k(0) == 0


def term_mask_scan(G, mask):
    """Oracle of `CurveGraph.term_mask`: a scan of every node."""
    t = 0
    for i, nd in enumerate(G.nodes):
        if ((mask >> nd.a) & 1) != ((mask >> nd.b) & 1):
            t |= 1 << i
    return t


def joining_scan(G, i, j):
    """Oracle of `CurveGraph.joining`: a scan of every node."""
    m = 0
    for t, nd in enumerate(G.nodes):
        if not nd.is_loop and {nd.a, nd.b} == {i, j}:
            m |= 1 << t
    return m


def laplacian_scan(G):
    """Oracle of `degrees.laplacian`: one pass over the non-loop nodes."""
    lap = [[0] * G.p for _ in range(G.p)]
    for nd in G.nodes:
        if not nd.is_loop:
            lap[nd.a][nd.a] += 1
            lap[nd.b][nd.b] += 1
            lap[nd.a][nd.b] -= 1
            lap[nd.b][nd.a] -= 1
    return tuple(tuple(row) for row in lap)


def assert_incidence_matches_scans(G, masks):
    for i in range(G.p):
        for j in range(G.p):
            assert G.joining(i, j) == joining_scan(G, i, j)
    for mask in masks:
        assert G.term_mask(mask) == term_mask_scan(G, mask)
    assert laplacian(G) == laplacian_scan(G)


def test_incidence_matches_scans_fixtures_and_corpus(G1, G2, G3, G4):
    # every subcurve of the base graph; on its subdivision, the 1-, 2- and
    # 3-tails and random masks
    rng = random.Random(5)
    for G in (G1, G2, G3, G4, *oracle_corpus()):
        assert_incidence_matches_scans(G, range(1 << G.p))
        LG = build_c2(G)
        masks = [m for s in (1, 2, 3) for m in LG.k_tails(s)]
        masks += [rng.getrandbits(LG.p) for _ in range(50)]
        assert_incidence_matches_scans(LG, masks)


@settings(max_examples=120, deadline=None)
@given(graphs())
def test_incidence_matches_scans_property(G):
    assert_incidence_matches_scans(G, range(1 << G.p))


# -- tails ----------------------------------------------------------------------


def bfs_connected(G, mask):
    """Independent connectivity test: a breadth-first search over G.nodes."""
    inside = set(members(mask))
    if not inside:
        return True
    adjacent = {v: set() for v in inside}
    for nd in G.nodes:
        if nd.a in inside and nd.b in inside:
            adjacent[nd.a].add(nd.b)
            adjacent[nd.b].add(nd.a)
    start = min(inside)
    seen, todo = {start}, [start]
    while todo:
        for w in adjacent[todo.pop()] - seen:
            seen.add(w)
            todo.append(w)
    return seen == inside


def brute_force_tails(G):
    """Independent oracle: filter the full power set."""
    out = []
    for mask in range(1, G.full_mask):
        if bfs_connected(G, mask) and bfs_connected(G, G.full_mask ^ mask):
            out.append(mask)
    return sorted(out, key=canon_key)


def rooted_growth_tails(G):
    """Oracle: grow every connected vertex set from component 0 by frontier
    extension and keep those with a connected complement; a set and its
    complement are both tails or neither, so rooting the growth at one
    vertex visits each tail pair exactly once."""
    if G.p == 1:
        return ()
    full = G.full_mask
    nbr = G._nbr
    found = []
    seen = {1}
    stack = [1]
    while stack:
        s = stack.pop()
        comp = full ^ s
        if comp and bfs_connected(G, comp):
            found.append(s)
        frontier = 0
        t = s
        while t:
            low = t & -t
            frontier |= nbr[low.bit_length() - 1]
            t ^= low
        frontier &= ~s
        while frontier:
            low = frontier & -frontier
            nxt = s | low
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
            frontier ^= low
    out = []
    for s in found:
        out.append(s)
        out.append(full ^ s)
    return tuple(sorted(out, key=canon_key))


def test_canon_key_orders_by_size_then_vertex_tuple():
    # the oracle is the key as defined: size, then the sorted vertex tuple
    def oracle(mask):
        return (mask.bit_count(), members(mask))

    rng = random.Random(5)
    masks = list(range(1 << 11)) + [rng.getrandbits(rng.randint(1, 120))
                                     for _ in range(20_000)]
    rng.shuffle(masks)
    assert sorted(masks, key=canon_key) == sorted(masks, key=oracle)


def test_tails_match_brute_force(G1, G2, G3, G4):
    for G in (G1, G2, G3, G4):
        assert list(G.tails()) == brute_force_tails(G)


def assert_tail_table_matches_oracles(G):
    """The tail table's masks against the brute-force and rooted-growth
    oracles of `tails()`, its terminal masks against the scan of every
    node."""
    masks, terms = G.tail_table()
    assert list(masks) == brute_force_tails(G)
    assert masks == rooted_growth_tails(G) == G.tails()
    assert terms == tuple(term_mask_scan(G, z) for z in masks)


def test_tails_match_rooted_growth_fixtures_and_corpus(G1, G2, G3, G4):
    for G in (G1, G2, G3, G4, *oracle_corpus()):
        assert_tail_table_matches_oracles(G)


def test_tails_match_rooted_growth_on_larger_draws():
    draws = ([instance_graph(3, i, 9, 7, True) for i in range(300)]
             + [instance_graph(1, i, 12, 10, True) for i in range(10)])
    for G in draws:
        assert G.tails() == rooted_growth_tails(G)


@settings(max_examples=120, deadline=None)
@given(graphs())
def test_tails_match_rooted_growth_property(G):
    assert_tail_table_matches_oracles(G)


def test_tails_of_the_p28_graph():
    # 28 components and 39 nodes: the rooted growth visits 5.3 million
    # connected sets here, so the count is pinned instead; the table's
    # terminal masks still meet their scan
    G = instance_graph(1, 0, 30, 20, True)
    assert (G.p, len(G.nodes)) == (28, 39)
    tails, terms = G.tail_table()
    assert tails == G.tails() and list(tails) == sorted(tails, key=canon_key)
    assert len(tails) == len(set(tails)) == 30_850
    assert {G.full_mask ^ z for z in tails} == set(tails)
    assert terms == tuple(term_mask_scan(G, z) for z in tails)


def test_no_tail_reader_fills_the_term_mask_memo(G1, G2, G3, G4):
    # Only the table's search computes a tail's terminal mask: the readers
    # of the tails take it from the table by index.
    for G0 in (G1, G2, G3, G4, *oracle_corpus()):
        G = CurveGraph(G0.names, G0.nodes, G0.marked)
        G.tails()
        for s in range(6):
            G.k_tails(s)
        for s in (1, 2, 3):
            _pool_index(G, s)
        ds = [abel_multidegree(G, g1, g2) for g1 in range(G.p) for g2 in range(g1, G.p)]
        for d in ds:
            is_quasistable(G, d)
        quasistable_representative(G, ds[-1])
        lemma27(G, *G.tail_table())
        assert not [key for key in G._memo
                    if key[0] is CurveGraph.term_mask.__wrapped__], G


def test_k_tails_examples(G2, G3):
    assert [tset(G3, z) for z in G3.k_tails(2)] == [{"C1"}, {"C2", "C3"}]
    assert [tset(G3, z) for z in G3.k_tails(3)] == [
        {"C2"},
        {"C3"},
        {"C1", "C2"},
        {"C1", "C3"},
    ]
    assert G2.k_tails(1) == ()


def assert_k_tails_match_filter(G):
    """`k_tails` and the small-tail hook `_unmarked_k_tails` against the
    filter of the full enumeration by terminal count, order included."""
    marked_bit = 1 << G.marked
    for s in range(5):
        expected = tuple(z for z in G.tails() if G.k(z) == s)
        assert G.k_tails(s) == expected, (G, s)
        assert G._unmarked_k_tails(s) == tuple(
            (z, G.term_mask(z)) for z in expected if not z & marked_bit), (G, s)


def test_k_tails_match_filter_fixtures_and_corpus(G1, G2, G3, G4):
    for G in (G1, G2, G3, G4, *oracle_corpus()):
        assert_k_tails_match_filter(G)


@settings(max_examples=100, deadline=None)
@given(graphs())
def test_k_tails_match_filter_property(G):
    assert_k_tails_match_filter(G)


def test_is_tail(G3):
    assert G3.is_tail(sc(G3, "C2", "C3"))
    assert not G3.is_tail(0)
    assert not G3.is_tail(G3.full_mask)


# -- pair relations --------------------------------------------------------------
#
# The relation layer below is the oracle of `suites.lemma27`, which tests the
# same three clauses of lemma 2.7 with mask arithmetic.

PRECEDES = "precedes"
TERMINAL = "terminal"
FREE = "free"


@dataclass(frozen=True)
class PairRelation:
    """Relation of a subcurve pair: exactly one of precedes/terminal/free,
    plus the independent perfection flag."""

    kind: str
    perfect: bool

    @property
    def precedes(self) -> bool:
        return self.kind == PRECEDES

    @property
    def terminal(self) -> bool:
        return self.kind == TERMINAL

    @property
    def free(self) -> bool:
        # Free means the terminal sets are disjoint; preceding pairs are free.
        return self.kind != TERMINAL


def relate(G, Z, Zp):
    """Compare two subcurves: precedes / terminal / free, plus perfection."""
    if G.term_mask(Z) & G.term_mask(Zp):
        kind = TERMINAL
    elif Z != Zp and Z & Zp == Z:
        kind = PRECEDES
    else:
        kind = FREE
    zc = G.full_mask ^ Z
    perfect = (
        Z | Zp == Zp
        or Zp | Z == Z
        or zc | Zp == Zp
        or Zp | zc == zc
    )
    return PairRelation(kind, perfect)


def node_on(G, Z, node):
    """Whether a node lies on the subcurve (at least one endpoint inside)."""
    nd = G.nodes[node if isinstance(node, int) else G.node_index(node)]
    return bool((Z >> nd.a) & 1 or (Z >> nd.b) & 1)


def lemma27_oracle(G, masks):
    """Lemma 2.7 per ordered pair through `relate` and `node_on`."""
    checks = 0
    bad = []
    full = G.full_mask
    for z in masks:
        kz = G.k(z)
        tz = G.term_mask(z)
        tz_nodes = [t for t, nd in enumerate(G.nodes) if (tz >> t) & 1]
        for zp in masks:
            checks += 1
            rel = relate(G, z, zp)
            if all(node_on(G, zp, t) for t in tz_nodes):
                if not (z & zp == z or (full ^ z) & zp == (full ^ z)):
                    bad.append({"check": "lemma-2.7-i", "z": list(G.names_of(z)),
                                "zp": list(G.names_of(zp))})
            if (tz & G.term_mask(zp)).bit_count() == kz - 1:
                if not rel.perfect:
                    bad.append({"check": "lemma-2.7-ii", "z": list(G.names_of(z)),
                                "zp": list(G.names_of(zp))})
            if kz >= 2 and G.k(zp) == 1 and not rel.free:
                bad.append({"check": "lemma-2.7-iii", "z": list(G.names_of(z)),
                            "zp": list(G.names_of(zp))})
    return checks, bad


def lemma27_of(G, masks):
    """`lemma27` on masks, with their terminal masks from `G.term_mask`."""
    return lemma27(G, masks, [G.term_mask(z) for z in masks])


def assert_lemma27_matches_oracle(G):
    """On every ordered pair of proper nonempty subcurves, tails or not."""
    masks = range(1, G.full_mask)
    assert lemma27_of(G, masks) == lemma27_oracle(G, masks)


def test_lemma27_matches_oracle_fixtures(G1, G2, G3, G4):
    for G in (G1, G2, G3, G4):
        assert_lemma27_matches_oracle(G)


def test_lemma27_matches_oracle_corpus():
    clauses = set()
    for G in oracle_corpus():
        if G.p <= 6:
            assert_lemma27_matches_oracle(G)
            clauses.update(b["check"] for b in lemma27_of(G, range(1, G.full_mask))[1])
        else:
            assert lemma27_of(G, G.tails()) == lemma27_oracle(G, G.tails())
    # subcurves that are not tails break every clause, so the entries
    # compared are not all empty
    assert clauses == {"lemma-2.7-i", "lemma-2.7-ii", "lemma-2.7-iii"}


@settings(max_examples=80, deadline=None)
@given(graphs())
def test_lemma27_matches_oracle_property(G):
    assert_lemma27_matches_oracle(G)


def test_relate_examples(G3):
    r = relate(G3, sc(G3, "C2"), sc(G3, "C2", "C3"))
    assert r.terminal and r.perfect and not r.precedes
    r = relate(G3, sc(G3, "C1"), sc(G3, "C2", "C3"))
    assert r.terminal and r.perfect
    z = sc(G3, "C2")
    r = relate(G3, z, z)
    assert not r.precedes and r.terminal


def test_precedes_via_empty(G3):
    assert precedes(G3, 0, sc(G3, "C2"))
    assert not precedes(G3, sc(G3, "C2"), sc(G3, "C2"))


def test_wedge_crosses_reducible(G2):
    assert set(G2.nodes[i].id for i in G2.reducible_nodes()) == {"a", "b"}


def test_per_graph_repeats_return_the_same_object(G3):
    G = CurveGraph(G3.names, G3.nodes, G3.marked)
    anchors = sc(G, "C2", "C3")
    for call in (
        G.tails,
        lambda: G.k_tails(2),
        lambda: nested(G, 3, anchors),
        lambda: twister(G),
        lambda: build_c2(G),
    ):
        assert call() is call()


def test_loop_conventions(G1):
    assert G1.reducible_nodes() == ()
    assert node_on(G1, G1.full_mask, "loop")


# -- fuzzed invariants -----------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(graphs())
def test_terminal_symmetry_and_complement(G):
    for z in range(G.full_mask + 1):
        zc = G.full_mask ^ z
        assert G.term_mask(z) == G.term_mask(zc)
        assert G.k(z) == G.k(zc)


@settings(max_examples=120, deadline=None)
@given(graphs())
def test_tail_complement_closed(G):
    for z in G.tails():
        zc = G.full_mask ^ z
        assert G.is_tail(zc)
        assert G.k(z) == G.k(zc)


@settings(max_examples=120, deadline=None)
@given(graphs())
def test_tails_partition_by_double_count(G):
    via_k = sum(len(G.k_tails(k)) for k in range(0, 3 * len(G.nodes) + 1))
    brute = sum(
        1
        for mask in range(1, G.full_mask)
        if bfs_connected(G, mask) and bfs_connected(G, G.full_mask ^ mask)
    )
    assert via_k == len(G.tails()) == brute


def test_tails_double_count_up_to_ten_components():
    from tailcomb.randgen import child_rng, random_graph

    for i in range(25):
        G = random_graph(child_rng(17, i), max_components=10, max_extra_edges=5,
                         allow_loops=True)
        brute = sum(
            1
            for mask in range(1, G.full_mask)
            if bfs_connected(G, mask) and bfs_connected(G, G.full_mask ^ mask)
        )
        assert len(G.tails()) == brute
        assert sum(len(G.k_tails(k)) for k in range(3 * len(G.nodes) + 1)) == brute


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_relate_symmetry_and_precedes_order(G):
    tails = G.tails()
    for z in tails:
        for zp in tails:
            a = relate(G, z, zp)
            b = relate(G, zp, z)
            assert a.terminal == b.terminal
            assert a.perfect == b.perfect
            assert not (precedes(G, z, zp) and precedes(G, zp, z))
    # transitivity on the tail family
    for x in tails:
        for y in tails:
            if not precedes(G, x, y):
                continue
            for z in tails:
                if precedes(G, y, z):
                    assert precedes(G, x, z)
