"""Multidegrees, quasistability, and the twister tables.

Stability thresholds are half-integers, so every beta value is carried as a
doubled integer and no floats appear anywhere.  The search for a quasistable
representative stays deliberately brute force: it scans a whole twist box
(with interval pruning that provably discards only hit-free subtrees) and
asserts the hit is unique, serving as an independent oracle for the
nested-tail description of the twister table.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

from .errors import (
    InvariantViolation,
    MultipleRepresentatives,
    PreconditionError,
    RepresentativeNotFound,
)
from .graph import CurveGraph, members, per_graph
from .tails import joining_nodes_mask, tail_family

def multidegree(G: CurveGraph, data) -> tuple[int, ...]:
    """A multidegree from a mapping {component name: int} or a sequence.

    Entries must be integers (booleans excluded); nothing is coerced.
    """
    if isinstance(data, dict):
        d = [0] * G.p
        for name, v in data.items():
            d[G.index(name)] = _degree(v)
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


def multidegree_map(G: CurveGraph, d) -> dict[str, int]:
    return {G.names[m]: d[m] for m in range(G.p)}


def laplacian(G: CurveGraph) -> tuple[tuple[int, ...], ...]:
    """Integer Laplacian of the dual graph; loops are ignored.

    Row m records the component-wise degrees of twisting by the m-th
    component on a regular smoothing, negated: diagonal = non-loop valence,
    off-diagonal = minus the edge count.  Rows sum to zero.
    """
    p = G.p
    lap = [[0] * p for _ in range(p)]
    for nd in G.nodes:
        if nd.is_loop:
            continue
        lap[nd.a][nd.a] += 1
        lap[nd.b][nd.b] += 1
        lap[nd.a][nd.b] -= 1
        lap[nd.b][nd.a] -= 1
    return tuple(tuple(row) for row in lap)


def beta2(G: CurveGraph, d, Y: int) -> int:
    """Doubled stability value of a subcurve: 2*deg(d over Y) + k(Y)."""
    s = 0
    for m in members(Y):
        s += d[m]
    return 2 * s + G.k(Y)


def format_half(b2: int) -> str:
    return str(b2 // 2) if b2 % 2 == 0 else f"{b2}/2"


@dataclass(frozen=True)
class QSResult:
    ok: bool
    witness_subcurve: int | None = None
    witness_beta2: int | None = None


def is_quasistable(G: CurveGraph, d) -> QSResult:
    """Quasistability of a degree-0 multidegree, with a witness on failure.

    Checking tails (connected subcurves with connected complement) suffices.
    A subcurve containing the marked component must have beta strictly
    positive and at most k; one avoiding it, nonnegative and strictly below k.
    """
    if sum(d) != 0:
        raise PreconditionError(f"total degree must be 0, got {sum(d)}")
    marked = G.marked
    for y in G.tails():
        b2 = beta2(G, d, y)
        k2 = 2 * G.k(y)
        if (y >> marked) & 1:
            ok = 0 < b2 <= k2
        else:
            ok = 0 <= b2 < k2
        if not ok:
            return QSResult(False, y, b2)
    return QSResult(True)


def _qs_profile(G: CurveGraph):
    """Per-tail data for the hot scan: only the sides avoiding the marked
    component (the two conditions of a complementary pair are equivalent at
    total degree 0), ordered small k first so violations exit early."""
    marked = G.marked
    rows = []
    for y in G.tails():
        if (y >> marked) & 1:
            continue
        rows.append((G.k(y), members(y)))
    rows.sort()
    return tuple((idx, kk) for kk, idx in rows)


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
    box is always scanned so uniqueness is checked, not assumed.
    """
    d0 = tuple(d0)
    if sum(d0) != 0:
        raise PreconditionError(f"total degree must be 0, got {sum(d0)}")
    if bound is not None and bound <= 0:
        raise PreconditionError("bound must be positive")
    lap = laplacian(G)
    profile = _qs_profile(G)
    positions = [m for m in range(G.p) if m != G.marked]
    bounds = [bound] if bound is not None else [2, 4, 8, 16, 32, 64, 128, 256]
    hits: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for b in bounds:
        hits = _scan_box(G, d0, b, lap, profile, positions)
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


def _scan_box(G, d0, b, lap, profile, positions):
    """Exhaustive box scan with sound interval pruning.

    Per tail, the doubled degree is tracked incrementally and a subtree is
    skipped only when the remaining coordinates provably cannot bring it
    back into [-k, k); the hit set is identical to the naive scan (kept in
    the tests as the oracle).
    """
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
            gt = g[t]
            kt = ks[t]
            if gt - si[t] > kt - 1 or gt + si[t] < -kt:
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
            g[t] -= b * wi[t]
        c[m] = -b
        rec(i + 1)
        for v in range(-b + 1, b + 1):
            for t in range(nt):
                g[t] += wi[t]
            c[m] = v
            rec(i + 1)
        for t in range(nt):
            g[t] -= b * wi[t]
        c[m] = 0

    rec(0)
    return hits


@dataclass(frozen=True)
class TwisterTable:
    """Tail-count coefficients for every ordered component pair.

    alpha[(g1, g2)][m] counts the members of the pair's tail multiset that
    contain component m; it is symmetric in the pair and vanishes on the
    marked component.
    """

    graph: CurveGraph
    alpha: dict[tuple[int, int], tuple[int, ...]]

    def to_map(self) -> dict:
        G = self.graph
        return {
            G.names[g1]: {
                G.names[g2]: multidegree_map(G, self.alpha[(g1, g2)])
                for g2 in range(G.p)
            }
            for g1 in range(G.p)
        }


@per_graph
def twister(G: CurveGraph) -> TwisterTable:
    """The twister table, with the terminal-count identity of its rows.

    For every pair and node, +1 per family tail with the node terminal that
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
    return TwisterTable(G, table)


def abel_multidegree(G: CurveGraph, g1: int, g2: int) -> tuple[int, ...]:
    """Degree vector of twice the marked point minus one point on each of
    the two given components (coincidences add up)."""
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
    if i == j:
        raise PreconditionError("needs distinct components i, j")
    if not joining_nodes_mask(G, i, j):
        raise PreconditionError(
            f"components {G.names[i]} and {G.names[j]} share no node"
        )
    tab = twister(G).alpha
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
