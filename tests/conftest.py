import pytest
from hypothesis import strategies as st

from tailcomb.fixtures import fixture
from tailcomb.graph import CurveGraph, Node


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
