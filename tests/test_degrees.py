import pytest
from hypothesis import given, settings, strategies as st

from tailcomb.degrees import (
    abel_multidegree,
    beta2,
    format_half,
    is_quasistable,
    laplacian,
    lemma35_difference,
    multidegree,
    multidegree_map,
    quasistable_representative,
    twister,
)
from tailcomb.errors import (
    InvariantViolation,
    PreconditionError,
    RepresentativeNotFound,
)
from tailcomb.graph import CurveGraph
from tailcomb.tails import tail_family

from conftest import delta, sc, tset
from test_graph import graphs


# -- laplacian -------------------------------------------------------------------


def test_laplacian_examples(G1, G2, G3):
    assert laplacian(G2) == ((2, -2), (-2, 2))
    assert laplacian(G3) == ((2, -1, -1), (-1, 3, -2), (-1, -2, 3))
    assert laplacian(G1) == ((0,),)


@settings(max_examples=80, deadline=None)
@given(graphs())
def test_laplacian_rows_sum_zero(G):
    for row in laplacian(G):
        assert sum(row) == 0


# -- beta ------------------------------------------------------------------------


def test_beta_examples(G2, G3):
    assert beta2(G2, (0, 0), sc(G2, "C2")) == 2  # value 1
    assert beta2(G3, (0, 0, 0), sc(G3, "C2")) == 3  # value 3/2
    assert format_half(3) == "3/2" and format_half(2) == "1"


@settings(max_examples=80, deadline=None)
@given(graphs())
def test_beta_additivity_identity(G):
    # beta2(YuY') + beta2(Y^Y') = beta2(Y) + beta2(Y') - 2 * cross edges,
    # where cross edges join Y\Y' to Y'\Y.
    d = tuple((-1) ** m * (m % 3) for m in range(G.p))
    masks = list(range(G.full_mask + 1))[:32]
    for y in masks:
        for yp in masks:
            cross = 0
            a, b = y & ~yp, yp & ~y
            for nd in G.nodes:
                if ((a >> nd.a) & 1 and (b >> nd.b) & 1) or (
                    (b >> nd.a) & 1 and (a >> nd.b) & 1
                ):
                    cross += 1
            assert beta2(G, d, y | yp) + beta2(G, d, y & yp) == beta2(
                G, d, y
            ) + beta2(G, d, yp) - 2 * cross


# -- quasistability ----------------------------------------------------------------


def test_is_quasistable_examples(G2):
    assert is_quasistable(G2, (0, 0)).ok
    assert is_quasistable(G2, (1, -1)).ok
    res = is_quasistable(G2, (2, -2))
    assert not res.ok
    assert tset(G2, res.witness_subcurve) == {"C1"}
    assert format_half(res.witness_beta2) == "3"


def test_is_quasistable_requires_degree_zero(G2):
    with pytest.raises(PreconditionError):
        is_quasistable(G2, (1, 0))


# -- representative oracle ----------------------------------------------------------


def test_oracle_examples(G1, G2, G3):
    assert quasistable_representative(G2, (2, -2), 3) == ((0, 1), (0, 0))
    assert quasistable_representative(G3, (2, -1, -1), 3) == ((0, 1, 1), (0, 0, 0))
    assert quasistable_representative(G1, (0,)) == ((0,), (0,))


def test_oracle_not_found_within_bound(G2):
    with pytest.raises(RepresentativeNotFound):
        quasistable_representative(G2, (6, -6), bound=1)
    # adaptive default enlarges until it lands
    c, d = quasistable_representative(G2, (6, -6))
    assert d == (0, 0) and c == (0, 3)


def test_oracle_total_preserved(G3):
    c, d = quasistable_representative(G3, (3, -1, -2), 4)
    assert sum(d) == 0


# -- twister table -------------------------------------------------------------------


def test_twister_examples(G2, G3, G4):
    assert twister(G3).alpha[(1, 2)] == (0, 1, 1)
    assert twister(G4).alpha[(1, 1)] == (0, 2)
    assert abel_multidegree(G2, 1, 1) == (2, -2)


def test_twister_symmetry_and_normalization(G3):
    tab = twister(G3).alpha
    for (g1, g2), al in tab.items():
        assert al == tab[(g2, g1)]
        assert al[G3.marked] == 0
        assert all(a >= 0 for a in al)


def test_delta_examples(G3, G4):
    assert delta(G4, 1, 1, 0, 1) == -2
    assert delta(G3, 1, 2, 1, 0) == 1
    assert delta(G3, 1, 2, 2, 2) == 0


def test_delta_relation_10(G3):
    for g1 in range(3):
        for g2 in range(3):
            for m in range(3):
                for n in range(3):
                    assert delta(G3, g1, g2, m, n) == delta(G3, g2, g1, m, n)
                    assert delta(G3, g1, g2, m, n) == -delta(G3, g1, g2, n, m)


def test_twister_checks_terminal_counts(G3, monkeypatch):
    # Warm the families on a fresh copy, then hide one terminal node of
    # the 2-tail {C2, C3}: the table build must catch the miscount.
    G = CurveGraph(G3.names, G3.nodes, G3.marked)
    for g1 in range(G.p):
        for g2 in range(G.p):
            tail_family(G, g1, g2)
    w0, e12 = sc(G, "C2", "C3"), 1 << G.node_index("e12")
    term_mask = CurveGraph.term_mask

    def miscounted(self, mask):
        t = term_mask(self, mask)
        return t & ~e12 if mask == w0 else t

    monkeypatch.setattr(CurveGraph, "term_mask", miscounted)
    with pytest.raises(InvariantViolation, match="terminal-count") as exc:
        twister(G)
    assert exc.value.witnesses["node"] == "e12"
    assert set(exc.value.witnesses) == {
        "pair", "node", "m", "n", "signed", "alpha_difference"
    }


def test_lemma35_examples(G2, G3, G4):
    assert tset(G4, lemma35_difference(G4, 1, 0, 1)) == {"C2"}
    assert lemma35_difference(G3, 1, 2, 1) == 0
    assert tset(G2, lemma35_difference(G2, 1, 0, 1)) == {"C2"}


def test_lemma35_swapped_orientation(G4):
    # Swapping i and j flips the level set to the complementary side.
    y = lemma35_difference(G4, 0, 1, 1)
    assert tset(G4, y) == {"C1"}


# -- helpers ---------------------------------------------------------------------------


def test_multidegree_coercion(G2):
    assert multidegree(G2, {"C2": -2, "C1": 2}) == (2, -2)
    assert multidegree_map(G2, (2, -2)) == {"C1": 2, "C2": -2}
    with pytest.raises(PreconditionError):
        multidegree(G2, (1, 2, 3))
    for bad in ((1.0, -1), (True, -1), 5, "1-1"):
        with pytest.raises(PreconditionError):
            multidegree(G2, bad)


def _qs_fast(d, profile) -> bool:
    # beta2 = 2*deg + k against [0, 2k) becomes 2*deg in [-k, k)
    for idx, kk in profile:
        s = 0
        for m in idx:
            s += d[m]
        b2 = s + s
        if b2 < -kk or b2 >= kk:
            return False
    return True


def _scan_box_naive(G, d0, b, lap, profile, positions):
    """Reference for the pruned scan: every twist in the box, no pruning."""
    p = G.p
    hits = []
    c = [0] * p

    def rec(i, d):
        if i == len(positions):
            if _qs_fast(d, profile):
                hits.append((tuple(c), tuple(d)))
            return
        m = positions[i]
        col = lap[m]
        for v in range(-b, b + 1):
            c[m] = v
            rec(i + 1, [d[x] + v * col[x] for x in range(p)])
        c[m] = 0

    rec(0, list(d0))
    return hits


@settings(max_examples=60, deadline=None)
@given(graphs(), st.integers(-2, 2), st.integers(-2, 2))
def test_pruned_scan_matches_naive(G, a, b):
    from tailcomb.degrees import _qs_profile, _scan_box

    d0 = [0] * G.p
    if G.p >= 2:
        d0[0] += a
        d0[1] -= a
        d0[-1] += b
        d0[0] -= b
    lap = laplacian(G)
    profile = _qs_profile(G)
    positions = [m for m in range(G.p) if m != G.marked]
    assert _scan_box(G, tuple(d0), 2, lap, profile, positions) == _scan_box_naive(
        G, tuple(d0), 2, lap, profile, positions
    )


@settings(max_examples=40, deadline=None)
@given(graphs(), st.integers(0, 3))
def test_oracle_agrees_with_twister(G, shift):
    tab = twister(G).alpha
    pairs = sorted(tab)
    g1, g2 = pairs[shift % len(pairs)]
    alpha = tab[(g1, g2)]
    c, d = quasistable_representative(
        G, abel_multidegree(G, g1, g2), bound=max(alpha) + 2
    )
    assert c == alpha
    assert is_quasistable(G, d).ok
