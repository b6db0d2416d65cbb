import random

import pytest
from hypothesis import given, settings, strategies as st

from tailcomb.degrees import (
    _scan_box,
    abel_multidegree,
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
from tailcomb.graph import CurveGraph, canon_key, members
from tailcomb.tails import tail_family

from conftest import delta, oracle_corpus, sc, tset
from test_graph import bfs_connected, graphs


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


def beta2(G, d, Y):
    """Doubled stability value of a subcurve: 2*deg(d over Y) + k(Y)."""
    return 2 * sum(d[m] for m in members(Y)) + G.k(Y)


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


def qs_witness_oracle(G, d):
    """`is_quasistable` by brute force: every proper mask whose two sides
    are connected, in canonical order, and the first whose doubled beta
    leaves its window (marked: 0 < b2 <= 2k; unmarked: 0 <= b2 < 2k)."""
    tails = sorted((y for y in range(1, G.full_mask)
                    if bfs_connected(G, y) and bfs_connected(G, G.full_mask ^ y)),
                   key=canon_key)
    for y in tails:
        k = sum(1 for nd in G.nodes if ((y >> nd.a) ^ (y >> nd.b)) & 1)
        b2 = 2 * sum(d[m] for m in members(y)) + k
        if not (0 < b2 <= 2 * k if (y >> G.marked) & 1 else 0 <= b2 < 2 * k):
            return False, y, b2
    return True, None, None


def test_is_quasistable_witness_matches_oracle(G1, G2, G3, G4):
    # The witness is the first failing tail in canonical order, whichever
    # side of its pair holds the marked component: a scan that passes an
    # unmarked tail at b2 == 2k still reaches the same verdict through the
    # complement, so only the witness shows it.
    rng = random.Random(0)
    failed = 0
    for G in (G1, G2, G3, G4, *oracle_corpus()):
        ds = [abel_multidegree(G, g1, g2) for g1 in range(G.p) for g2 in range(g1, G.p)]
        while len(ds) < 3 * G.p + 12:
            d = tuple(rng.randint(-2, 2) for _ in range(G.p))
            if sum(d) == 0:
                ds.append(d)
        for d in ds:
            got = is_quasistable(G, d)
            assert tuple(got) == qs_witness_oracle(G, d), (G, d)
            failed += not got.ok
    assert failed > 1000


def test_is_quasistable_requires_degree_zero(G2):
    with pytest.raises(PreconditionError):
        is_quasistable(G2, (1, 0))


@pytest.mark.parametrize("fn", [is_quasistable, quasistable_representative])
@pytest.mark.parametrize("d, message", [
    ((1, -1, 0, 0), "multidegree has 4 entries for 3 components"),
    ((2, -1, -1, 0), "multidegree has 4 entries for 3 components"),
    ((1, -1), "multidegree has 2 entries for 3 components"),
    ((0.5, -0.5, 0), "multidegree entry 0.5 is not an integer"),
    ((True, -1, 0), "multidegree entry True is not an integer"),
    ({"C1": 0, "C2": 0, "C3": 0}, "multidegree must be a list or tuple"),
    ((1, 0, 0), "total degree must be 0, got 1"),
])
def test_quasistability_entry_points_check_their_input(G3, fn, d, message):
    with pytest.raises(PreconditionError, match=f"^{message}$"):
        fn(G3, d)


# -- representative oracle ----------------------------------------------------------


def test_oracle_examples(G1, G2, G3):
    assert quasistable_representative(G2, (2, -2), 3) == ((0, 1), (0, 0))
    assert quasistable_representative(G3, (2, -1, -1), 3) == ((0, 1, 1), (0, 0, 0))
    assert quasistable_representative(G1, (0,)) == ((0,), (0,))


def test_oracle_bound_must_be_a_positive_int(G3):
    for bad in (1.5, 2.0, "2", True, False):
        with pytest.raises(PreconditionError, match="bound must be an integer, got"):
            quasistable_representative(G3, (2, -1, -1), bad)
    for bad in (0, -3):
        with pytest.raises(PreconditionError, match="^bound must be positive$"):
            quasistable_representative(G3, (2, -1, -1), bad)


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
    assert twister(G3)[(1, 2)] == (0, 1, 1)
    assert twister(G4)[(1, 1)] == (0, 2)
    assert abel_multidegree(G2, 1, 1) == (2, -2)


def test_twister_symmetry_and_normalization(G3):
    tab = twister(G3)
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


def test_lemma35_range_checks_every_index(G3):
    for pos in range(3):
        for bad in (-1, G3.p):
            args = [0, 1, 2]
            args[pos] = bad
            with pytest.raises(PreconditionError, match="out of range"):
                lemma35_difference(G3, *args)


def test_abel_multidegree_range_checks_both_indices(G3):
    # -1 must not read as the last component, G3.p must not end in IndexError
    for bad in (-1, G3.p):
        for args in ((bad, 1), (1, bad)):
            with pytest.raises(PreconditionError, match="component index out of range"):
                abel_multidegree(G3, *args)


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


def _scan_inputs(G):
    """The Laplacian, the tails avoiding the marked component as
    (members, k), small k first, and the unmarked positions: what both
    reference scans read, built here without the scan's per-graph data."""
    profile = sorted((G.k(y), members(y)) for y in G.tails()
                     if not (y >> G.marked) & 1)
    positions = [m for m in range(G.p) if m != G.marked]
    return laplacian(G), tuple((idx, kk) for kk, idx in profile), positions


def _scan_box_naive(G, d0, b, lap, profile, positions):
    """Reference for the box scan: every twist in the box, no pruning."""
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


def _scan_box_per_child(G, d0, b, lap, profile, positions):
    """Reference for the box scan on boxes too large for the naive one:
    every child of every visited node is entered, and the subtree is
    dropped when some tail cannot get back into [-k, k) within the
    remaining coordinates' reach."""
    p = G.p
    n = len(positions)
    ks = [k for _, k in profile]
    g = [2 * sum(d0[x] for x in idx) for idx, _ in profile]
    weights = [
        [2 * sum(lap[m][x] for x in idx) for idx, _ in profile]
        for m in positions
    ]
    nt = len(profile)
    slack = [[0] * nt for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        for t in range(nt):
            slack[i][t] = slack[i + 1][t] + b * abs(weights[i][t])
    hits = []
    c = [0] * p

    def rec(i):
        si = slack[i]
        for t in range(nt):
            if g[t] - si[t] > ks[t] - 1 or g[t] + si[t] < -ks[t]:
                return
        if i == n:
            d = tuple(
                d0[x] + sum(lap[m][x] * c[m] for m in positions)
                for x in range(p)
            )
            hits.append((tuple(c), d))
            return
        m = positions[i]
        wi = weights[i]
        for t in range(nt):
            g[t] -= (b + 1) * wi[t]
        for v in range(-b, b + 1):
            for t in range(nt):
                g[t] += wi[t]
            c[m] = v
            rec(i + 1)
        for t in range(nt):
            g[t] -= b * wi[t]
        c[m] = 0

    rec(0)
    return hits


def _balanced(G, entries):
    """A degree-0 multidegree: the entries on all but the last component,
    the last one balancing them."""
    d = list(entries[: G.p - 1])
    return tuple(d + [-sum(d)])


@settings(max_examples=120, deadline=None)
@given(graphs(), st.integers(1, 4), st.lists(st.integers(-3, 3), min_size=5,
                                            max_size=5))
def test_pruned_scan_matches_naive(G, b, entries):
    d0 = _balanced(G, entries)
    inputs = _scan_inputs(G)
    hits = _scan_box(G, d0, b)
    assert hits == _scan_box_naive(G, d0, b, *inputs)
    assert hits == _scan_box_per_child(G, d0, b, *inputs)


NAIVE_BOX_POINTS = 9**4  # larger boxes are compared with the per-child scan only


def _assert_scan_matches(G, d0, b, inputs):
    hits = _scan_box(G, d0, b)
    if (2 * b + 1) ** len(inputs[2]) <= NAIVE_BOX_POINTS:
        assert hits == _scan_box_naive(G, d0, b, *inputs)
        naive = 1
    else:
        naive = 0
    assert hits == _scan_box_per_child(G, d0, b, *inputs)
    return len(hits), naive


def test_pruned_scan_matches_oracles_corpus():
    """On the corpus: the Abel multidegree of every pair at the bound
    thm-24-oracle uses, and seeded multidegrees with entries in [-3, 3]
    at bound 3, whose boxes may hold no hit."""
    rng = random.Random(11)
    found = empty = naive = 0
    for G in oracle_corpus():
        inputs = _scan_inputs(G)
        cases = [(abel_multidegree(G, g1, g2), max(alpha) + 2)
                 for (g1, g2), alpha in sorted(twister(G).items())
                 if g1 <= g2]
        cases += [(_balanced(G, [rng.randint(-3, 3) for _ in range(G.p)]), 3)
                  for _ in range(3)]
        for d0, b in cases:
            hits, compared = _assert_scan_matches(G, d0, b, inputs)
            found += hits
            empty += not hits
            naive += compared
    assert found > 1000 and empty > 50 and naive > 500


def test_pruned_scan_root_without_hits(G3):
    # (40, -20, -20) is out of reach of the bound-1 box: the root test
    # fails and nothing below it is visited.
    inputs = _scan_inputs(G3)
    assert _scan_box(G3, (40, -20, -20), 1) == []
    assert _scan_box_naive(G3, (40, -20, -20), 1, *inputs) == []


def test_pruned_scan_negative_weights(G3):
    # Twisting C2 moves the tail {C2} by a positive and {C3} by a negative
    # doubled weight, so the range for C2 takes the floor and ceiling
    # divisions of both signs.
    from tailcomb.degrees import _box

    box = _box(G3)
    signs = {w > 0 for lvl in box.levels for _, w, _, _ in lvl}
    assert signs == {True, False}
    inputs = _scan_inputs(G3)
    for d0 in ((3, -1, -2), (-4, 5, -1), (0, 7, -7), (1, -4, 3)):
        for b in (1, 2, 3, 4):
            _assert_scan_matches(G3, d0, b, inputs)


@settings(max_examples=40, deadline=None)
@given(graphs(), st.integers(0, 3))
def test_oracle_agrees_with_twister(G, shift):
    tab = twister(G)
    pairs = sorted(tab)
    g1, g2 = pairs[shift % len(pairs)]
    alpha = tab[(g1, g2)]
    c, d = quasistable_representative(
        G, abel_multidegree(G, g1, g2), bound=max(alpha) + 2
    )
    assert c == alpha
    assert is_quasistable(G, d).ok
