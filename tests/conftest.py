from functools import cache
from itertools import combinations

import pytest
from hypothesis import strategies as st

from tailcomb import lift
from tailcomb.blowup import pair_matchings
from tailcomb.degrees import twister
from tailcomb.errors import InvariantViolation, PreconditionError
from tailcomb.fixtures import fixture
from tailcomb.graph import CurveGraph, Node
from tailcomb.randgen import instance_graph


@pytest.fixture(scope="session")
def G1():
    return fixture("G1")


@pytest.fixture(scope="session")
def G2():
    return fixture("G2")


@pytest.fixture(scope="session")
def G3():
    return fixture("G3")


@pytest.fixture(scope="session")
def G4():
    return fixture("G4")


def sc(G, *names):
    """Subcurve mask from component names."""
    return G.subcurve(names)


def tset(G, mask):
    return set(G.names_of(mask))


def d_count(G, family, node_mask):
    """Number of family members with a terminal node in the given node set,
    counted once per tail however many of its terminal nodes are hit (the
    per-node oracle of `SyncReport.eq34`)."""
    return sum(1 for w in family if G.term_mask(w) & node_mask)


def hat_families(G, point):
    """The level-2 and level-3 hat families of a point, lifted masks in
    family order, read from its synchronization report."""
    return tuple(l.hat_members for l in lift.is_synchronized(G, point).levels)


def eq34_level2(G, point):
    """The eq. (34) violations of a point, read from its synchronization
    report (`SyncReport.eq34`)."""
    return lift.is_synchronized(G, point).eq34


def delta(G, g1, g2, m, n):
    """Difference of twister coefficients, alpha_m - alpha_n: for m and n
    joined by a node, the signed terminal count `twister` checks when it
    builds the table (the oracle's unit in the admissibility tests)."""
    al = twister(G)[(g1, g2)]
    return al[m] - al[n]


def choices_oracle(G):
    """Each blowup choice, pair by pair in node order and both matchings of a
    pair in `pair_matchings` order (the oracle of `blowup.choices`)."""
    return tuple(
        ch
        for r1, r2 in combinations(G.reducible_nodes(), 2)
        for ch in pair_matchings(G, r1, r2)
    )


def outcome(fn, *args):
    """fn(*args), or the type, message and witnesses of the error it raised,
    so a fast path and its oracle can be compared on either."""
    try:
        return fn(*args)
    except (InvariantViolation, PreconditionError) as exc:
        return type(exc), str(exc), getattr(exc, "witnesses", None)


def hide_lifted_tail(monkeypatch, LG, s, hidden):
    """Drop the lifted s-tail `hidden` from the pool source of the
    subdivision LG, `lift._lifted_pool`, its `_unmarked_k_tails`, which its
    families, the synchronization table and `LG.k_tails` all read; other
    graphs and levels are left alone.  LG's pool must not have been read
    yet."""
    source = lift._lifted_pool

    def corrupted(lg, kk):
        got = source(lg, kk)
        return tuple(e for e in got if e[0] != hidden) if lg is LG and kk == s else got

    monkeypatch.setattr(lift, "_lifted_pool", corrupted)


@cache
def oracle_corpus():
    """Seeded draws at the verify defaults (<= 6 components, <= 4 extra
    edges) and at the larger synchronization size (<= 8, <= 5), loops
    allowed; the fast paths are compared with their oracles on these."""
    return tuple(
        [instance_graph(23, i, 6, 4, True) for i in range(60)]
        + [instance_graph(23, i, 8, 5, True) for i in range(20)]
    )


@st.composite
def graphs(draw):
    """Connected multigraphs on 1..5 components: a random spanning tree plus
    up to four extra nodes, which may be loops or parallel nodes."""
    p = draw(st.integers(1, 5))
    edges = []
    for v in range(1, p):
        edges.append((draw(st.integers(0, v - 1)), v))
    extra = draw(
        st.lists(
            st.tuples(st.integers(0, p - 1), st.integers(0, p - 1)), max_size=4
        )
    )
    edges.extend(extra)
    marked = draw(st.integers(0, p - 1))
    return CurveGraph(
        [f"C{i + 1}" for i in range(p)],
        [Node(f"e{t}", min(a, b), max(a, b)) for t, (a, b) in enumerate(edges)],
        marked,
    )


_FLOATS = st.floats() | st.sampled_from([-0.0, float("nan"), float("inf"), float("-inf")])
_INTS = st.integers() | st.integers(min_value=2**64) | st.integers(max_value=-2**64)
# every code point, control characters and lone surrogates included
_TEXT = st.text(st.characters(exclude_categories=()))


def json_values():
    """Arbitrary values of the kinds `json.dumps` writes: null, bools, ints
    past 64 bits, floats (-0.0, nan and infinities included), strings with
    non-ASCII text, control characters and lone surrogates, lists, tuples,
    and dicts whose keys are str, int, float, bool or None, mixed types
    included (which a sorting writer rejects); dicts with str keys alone,
    the kind every output is built from, are drawn as often as the rest."""
    keys = _TEXT | _INTS | _FLOATS | st.booleans() | st.none()
    return st.recursive(
        st.none() | st.booleans() | _INTS | _FLOATS | _TEXT,
        lambda inner: (st.lists(inner, max_size=4)
                       | st.lists(inner, max_size=4).map(tuple)
                       | st.dictionaries(_TEXT, inner, max_size=4)
                       | st.dictionaries(keys, inner, max_size=4)),
        max_leaves=12,
    )
