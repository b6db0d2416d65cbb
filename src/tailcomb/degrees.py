"""Multidegrees, quasistability, and the twister tables.

Stability thresholds are half-integers, so every beta value is carried as a
doubled integer and no floats appear anywhere.  The search for a quasistable
representative stays deliberately brute force: it scans a whole twist box and
asserts the hit is unique, serving as an independent oracle for the
nested-tail description of the twister table.  At each coordinate the scan
propagates intervals: it computes the exact range of values that keeps every
tail within reach of its bounds and descends only into that range, so it
visits the same hits, in the same order, as the naive scan of every box
point (kept in the tests as the oracle).
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from typing import NamedTuple

from .errors import (
    InvariantViolation,
    MultipleRepresentatives,
    PreconditionError,
    RepresentativeNotFound,
)
from .graph import CurveGraph, members, per_graph
from .tails import check_components, tail_family

def multidegree(G: CurveGraph, data) -> tuple[int, ...]:
    """A multidegree from a mapping {component name: int} or a sequence.

    Entries must be integers (booleans excluded) and a mapping must name
    every component; nothing is coerced or completed.
    """
    if isinstance(data, dict):
        d = [None] * G.p
        for name, v in data.items():
            d[G.index(name)] = _degree(v)
        missing = [G.names[m] for m in range(G.p) if d[m] is None]
        if missing:
            raise PreconditionError(
                "multidegree map misses component(s) " + ", ".join(missing)
            )
        return tuple(d)
    if not isinstance(data, (list, tuple)):
        raise PreconditionError("multidegree must be a JSON object or array")
    d = tuple(_degree(v) for v in data)
    if len(d) != G.p:
        raise PreconditionError(
            f"multidegree has {len(d)} entries for {G.p} components"
        )
    return d


def _degree(v) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise PreconditionError(f"multidegree entry {v!r} is not an integer")
    return v


def _degree_zero(G: CurveGraph, d) -> tuple[int, ...]:
    """d checked as `multidegree` checks a sequence (a mapping is not read),
    with total 0."""
    if not isinstance(d, (list, tuple)):
        raise PreconditionError("multidegree must be a list or tuple")
    d = multidegree(G, d)
    if sum(d) != 0:
        raise PreconditionError(f"total degree must be 0, got {sum(d)}")
    return d


def multidegree_map(G: CurveGraph, d) -> dict[str, int]:
    return {G.names[m]: d[m] for m in range(G.p)}


def laplacian(G: CurveGraph) -> tuple[tuple[int, ...], ...]:
    """Integer Laplacian of the dual graph; loops are ignored.

    Row m records the component-wise degrees of twisting by the m-th
    component on a regular smoothing, negated: diagonal = non-loop valence,
    off-diagonal = minus the edge count.  Rows sum to zero.
    """
    lap = []
    for m in range(G.p):
        row = [-G.joining(m, n).bit_count() for n in range(G.p)]
        row[m] = -sum(row)
        lap.append(tuple(row))
    return tuple(lap)


def format_half(b2: int) -> str:
    return str(b2 // 2) if b2 % 2 == 0 else f"{b2}/2"


class QSResult(NamedTuple):
    ok: bool
    witness_subcurve: int | None = None
    witness_beta2: int | None = None


def is_quasistable(G: CurveGraph, d) -> QSResult:
    """Quasistability of a degree-0 multidegree, with a witness on failure.

    Checking tails (connected subcurves with connected complement) suffices.
    A subcurve containing the marked component must have beta strictly
    positive and at most k; one avoiding it, nonnegative and strictly below k.
    """
    _degree_zero(G, d)
    marked = G.marked
    for y, ty in zip(*G.tail_table()):
        k = ty.bit_count()
        b2 = 2 * sum([d[m] for m in members(y)]) + k
        if (y >> marked) & 1:
            ok = 0 < b2 <= 2 * k
        else:
            ok = 0 <= b2 < 2 * k
        if not ok:
            return QSResult(False, y, b2)
    return QSResult(True)


class _Box(NamedTuple):
    """Per-graph data of the box scan.

    tails: (k, member indices) of every tail avoiding the marked component
    (the two conditions of a complementary pair are equivalent at total
    degree 0), small k first; positions: the unmarked components, in scan
    order; levels[i]: (tail, doubled weight of twisting position i on it,
    k, reach) for each tail the weight moves, where reach is the summed
    absolute weight of the later positions (times the bound, the most they
    can still move it); entry: the summed absolute weights of all positions.
    """

    lap: tuple[tuple[int, ...], ...]
    tails: tuple[tuple[int, tuple[int, ...]], ...]
    positions: tuple[int, ...]
    levels: tuple[tuple[tuple[int, int, int, int], ...], ...]
    entry: tuple[int, ...]


@per_graph
def _box(G: CurveGraph) -> _Box:
    lap = laplacian(G)
    marked = G.marked
    tails = sorted((ty.bit_count(), members(y)) for y, ty in zip(*G.tail_table())
                   if not (y >> marked) & 1)
    positions = tuple(m for m in range(G.p) if m != marked)
    weights = [[2 * sum(lap[m][x] for x in idx) for _, idx in tails]
               for m in positions]
    reach = [0] * len(tails)
    levels = []
    for wi in reversed(weights):
        levels.append(tuple((t, w, tails[t][0], reach[t])
                            for t, w in enumerate(wi) if w))
        reach = [r + abs(w) for r, w in zip(reach, wi)]
    return _Box(lap, tuple(tails), positions, tuple(reversed(levels)), tuple(reach))


SEARCH_BOUNDS = (2, 4, 8, 16, 32, 64, 128, 256)  # the default doubling search


def quasistable_representative(
    G: CurveGraph, d0, bound: int | None = None
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Brute-force twist search: the unique c with d0 + L.c quasistable.

    c is normalized to 0 on the marked component; it is the coefficient
    vector of the corrective divisor minus-sum-of c_m times component m, so
    the twist changes the multidegree by +L.c and nonnegative c matches the
    tail-count normalization of the twister table.  With an explicit bound
    the box [-bound, bound]^p is scanned once; otherwise the bound doubles
    from 2 until a hit appears.  Exactly one hit may exist, and the whole
    box is always scanned so uniqueness is checked, not assumed.  A bound
    that is not a positive int (a bool included) is a PreconditionError.
    """
    d0 = _degree_zero(G, d0)
    if bound is not None:
        if isinstance(bound, bool) or not isinstance(bound, int):
            raise PreconditionError(f"bound must be an integer, got {bound!r}")
        if bound <= 0:
            raise PreconditionError("bound must be positive")
    bounds = (bound,) if bound is not None else SEARCH_BOUNDS
    hits: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for b in bounds:
        hits = _scan_box(G, d0, b)
        if hits:
            break
    if not hits:
        raise RepresentativeNotFound(
            f"no quasistable twist of {d0} within bound "
            f"{bound if bound is not None else bounds[-1]}"
        )
    if len(hits) > 1:
        raise MultipleRepresentatives(
            "two quasistable twists in one search box",
            first={"c": hits[0][0], "d": hits[0][1]},
            second={"c": hits[1][0], "d": hits[1][1]},
        )
    return hits[0]


def _scan_box(G, d0, b):
    """Every twist c in [-b, b] on the unmarked components, 0 on the marked
    one, with d0 + L.c quasistable, in lexicographic order of c.

    Per tail, 2*deg over the tail must end in [-k, k).  At each coordinate
    the scan intersects, over the tails that coordinate moves, the exact
    range of values that keeps the tail within reach of that window (the
    later coordinates can still move it by at most b times their summed
    weights), and descends only into that range.  These are exactly the
    children a per-child reachability test would accept, so the hits and
    their order are those of the naive scan of the whole box (kept in the
    tests as the oracle).
    """
    box = _box(G)
    lap, positions = box.lap, box.positions
    g = [2 * sum(d0[x] for x in idx) for _, idx in box.tails]
    # A tail the whole box cannot bring into its window empties the box;
    # the first coordinate that moves it would find that too, but only
    # after expanding every coordinate before it.
    for (k, _), gt, r in zip(box.tails, g, box.entry):
        if gt - b * r >= k or gt + b * r < -k:
            return []
    n = len(positions)
    c = [0] * G.p
    if not n:
        return [(tuple(c), d0)]
    levels = [tuple((t, w, k, b * r) for t, w, k, r in lvl) for lvl in box.levels]
    hits = []

    def rec(i):
        lo, hi = -b, b
        for t, w, k, s in levels[i]:
            gt = g[t]
            # -k - s <= gt + v*w <= k - 1 + s, solved for v
            if w > 0:
                a, z = -((k + s + gt) // w), (k - 1 + s - gt) // w
            else:
                a, z = -((k - 1 + s - gt) // -w), (k + s + gt) // -w
            if a > lo:
                lo = a
            if z < hi:
                hi = z
            if lo > hi:
                return
        m = positions[i]
        if i == n - 1:
            for v in range(lo, hi + 1):
                c[m] = v
                d = tuple(d0[x] + sum(lap[y][x] * c[y] for y in positions)
                          for x in range(G.p))
                hits.append((tuple(c), d))
            c[m] = 0
            return
        lvl = levels[i]
        for t, w, _, _ in lvl:
            g[t] += (lo - 1) * w
        for v in range(lo, hi + 1):
            for t, w, _, _ in lvl:
                g[t] += w
            c[m] = v
            rec(i + 1)
        for t, w, _, _ in lvl:
            g[t] -= hi * w
        c[m] = 0

    try:
        rec(0)
    finally:
        del rec  # rec's closure refers to rec: that cycle would keep G alive
    return hits


@per_graph
def twister(G: CurveGraph) -> dict[tuple[int, int], tuple[int, ...]]:
    """The twister table {(g1, g2): alpha}, with both orders of each pair.

    alpha[m] counts the members of the pair's tail multiset that contain
    component m; it is symmetric in the pair and vanishes on the marked
    component.  The rows are checked against the terminal-count identity:
    for every pair and node, +1 per family tail with the node terminal that
    contains its first end, -1 per one containing its second end, must sum
    to the coefficient difference of the two ends, alpha_m - alpha_n (0 = 0
    for a loop).
    """
    table = {}
    for g1, g2 in combinations_with_replacement(range(G.p), 2):
        fam = tail_family(G, g1, g2)
        al = [0] * G.p
        signed = [0] * len(G.nodes)
        for w in fam:
            for m in members(w):
                al[m] += 1
            for t in members(G.term_mask(w)):
                signed[t] += 1 if (w >> G.nodes[t].a) & 1 else -1
        for t, nd in enumerate(G.nodes):
            if signed[t] != al[nd.a] - al[nd.b]:
                raise InvariantViolation(
                    "terminal-count identity of the twister row failed",
                    pair=(G.names[g1], G.names[g2]),
                    node=nd.id,
                    m=G.names[nd.a],
                    n=G.names[nd.b],
                    signed=signed[t],
                    alpha_difference=al[nd.a] - al[nd.b],
                )
        table[(g1, g2)] = table[(g2, g1)] = tuple(al)
    return table


def abel_multidegree(G: CurveGraph, g1: int, g2: int) -> tuple[int, ...]:
    """Degree vector of twice the marked point minus one point on each of
    the two given components (coincidences add up)."""
    check_components(G, g1, g2)
    d = [0] * G.p
    d[G.marked] += 2
    d[g1] -= 1
    d[g2] -= 1
    return tuple(d)


def lemma35_difference(G: CurveGraph, i: int, j: int, k: int) -> int:
    """The level set separating the twister vectors of (i,k) and (j,k).

    The coefficient difference f = alpha_{i,k} - alpha_{j,k} must take at
    most two consecutive values; the upper level set Y (empty when f is
    constant) satisfies f = indicator(Y) - const, contains component i and
    avoids component j whenever nonempty.  Returns the subcurve mask.
    """
    check_components(G, i, j, k)
    if i == j:
        raise PreconditionError("needs distinct components i, j")
    if not G.joining(i, j):
        raise PreconditionError(
            f"components {G.names[i]} and {G.names[j]} share no node"
        )
    tab = twister(G)
    fa, fb = tab[(i, k)], tab[(j, k)]
    f = [fa[m] - fb[m] for m in range(G.p)]
    values = sorted(set(f))
    if len(values) > 2 or (len(values) == 2 and values[1] - values[0] != 1):
        raise InvariantViolation(
            "twister difference is not two consecutive values",
            i=G.names[i],
            j=G.names[j],
            k=G.names[k],
            f=f,
        )
    if len(values) == 1:
        if values[0] != 0:
            raise InvariantViolation(
                "constant twister difference is nonzero at the marked "
                "normalization",
                f=f,
            )
        return 0
    hi = values[1]
    y = 0
    for m in range(G.p):
        if f[m] == hi:
            y |= 1 << m
    if not (y >> i) & 1 or (y >> j) & 1:
        raise InvariantViolation(
            "level set does not separate i from j",
            i=G.names[i],
            j=G.names[j],
            k=G.names[k],
            level_set=G.names_of(y),
        )
    return y
