"""Seeded random-instance generation.

Child seeds are derived by hashing, so the stream at any index is portable
and independent of platform entropy; a graph is a uniform random spanning
tree plus extra edges (parallel edges, and loops when allowed).  The SHA-256
comes from CPython's built-in module when there is one, as `random` takes
its SHA-512: `hashlib` maps OpenSSL, which costs more to load than the
digests here cost to compute, and the digest is the same.
"""

from __future__ import annotations

import random

try:
    from _sha2 import sha256  # CPython 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.11 and earlier
    except ImportError:
        from hashlib import sha256

from .graph import CurveGraph, Node


def child_rng(seed: int, tag: int | str) -> random.Random:
    digest = sha256(f"{seed}:{tag}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def random_graph(rng: random.Random, max_components: int, max_extra_edges: int,
                 allow_loops: bool) -> CurveGraph:
    if max_components < 1:
        raise ValueError("max_components must be at least 1")
    p = rng.randint(1, max_components)
    names = [f"C{i + 1}" for i in range(p)]
    nodes = []
    for v in range(1, p):
        nodes.append(Node(f"e{len(nodes) + 1}", rng.randrange(v), v))
    extra = rng.randint(0, max_extra_edges)
    for _ in range(extra):
        u = rng.randrange(p)
        if allow_loops:
            v = rng.randrange(p)
        elif p == 1:
            continue  # no non-loop edge exists on one component
        else:
            v = rng.randrange(p - 1)
            if v >= u:
                v += 1
        a, b = min(u, v), max(u, v)
        nodes.append(Node(f"e{len(nodes) + 1}", a, b))
    marked = rng.randrange(p)
    return CurveGraph(names, nodes, marked)


def instance_graph(seed: int, index: int, max_components: int,
                   max_extra_edges: int, allow_loops: bool) -> CurveGraph:
    """The deterministic graph at one position of the instance stream."""
    return random_graph(
        child_rng(seed, index), max_components, max_extra_edges, allow_loops
    )
