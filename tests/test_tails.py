import pytest

from tailcomb.errors import PreconditionError
from tailcomb.graph import CurveGraph, precedes
from tailcomb.tails import d_count, joining_nodes_mask, nested, symm_diff, tail_family

from conftest import sc, tset


def fam_sets(G, fam):
    return [tset(G, z) for z in fam]


# -- nested families -------------------------------------------------------------


def test_nested_examples(G3, G4):
    assert fam_sets(G3, nested(G3, 2, sc(G3, "C2", "C3"))) == [{"C2", "C3"}]
    assert fam_sets(G4, nested(G4, 1, sc(G4, "C2"))) == [{"C2"}]
    assert nested(G4, 1, sc(G4, "C1")).members == ()  # marked anchor
    assert nested(G3, 3, sc(G3, "C2")).members == ()  # blocked by the 2-family


def test_nested_chain_invariant(G3):
    fam = nested(G3, 2, sc(G3, "C2"))
    ms = fam.members
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
    assert nested(G, 2, sc(G, "C2", "C3")).members == (sc(G, "C2", "C3"),)


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
    assert G4.term_mask(r.family[0]) == joining_nodes_mask(G4, 0, 1)
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
    fam = nested(G3, 2, anchors).members
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
            assert nested(a, s, anchors).members == nested(b, s, anchors).members
    # warm caches and ask again
    assert a.tails() == b.tails()
    assert tail_family(a, 1, 2) == tail_family(b, 1, 2)
