"""The node subdivision of a dual graph and the synchronization predicate.

Each node of the base graph is replaced by a chain of two exceptional
vertices.  `build_c2(G)` returns the subdivision, a `LiftedGraph`: a
CurveGraph, so the whole tail machinery applies unchanged, that refers to
its base graph weakly as `base` (G's memo holds the subdivision, and a
strong reference back would make a cycle that only the cyclic collector
frees).  Its 1-, 2- and 3-tails are not enumerated: subdividing a node is a
series extension, so its pool, the unmarked s-tails with their terminal
masks, follows in closed form from the base graph's pool (`_lifted_pool`),
each terminal mask read off the lifting steps.  That pool is its one
override of the small-tail hook `_unmarked_k_tails`, which the inherited
`k_tails(s <= 3)` closes under complement as on any graph, while `tails()`
and `k_tails(k > 3)` still read the tail table of `CurveGraph`.  Canonical
liftings, the hat families anchored at exceptional vertices over a
distinguished point, and the multiset comparison that defines
synchronization all live here.
Synchronization compares levels 2 and 3.  It is built for every point of a
graph in one pass (`_sync_reports`), keyed by choice as the verdict table
is, so the suites look both up by choice: hat candidates are selections,
bitset ANDs over the subdivision's pool indices, and points that select the
same candidates share one chain grown from the selection; points with the
same side labels share their base multisets, merged from base families
fetched and keyed once per graph.  The same pass counts the eq. (34)
terminal nodes once per base multiset, from the base pool's terminal masks,
and once per level-2 hat family, from its members' pool entries.  A point's
entry is its `SyncReport`: its verdict, its eq. (34) violations and its
shared hat and base entries, from which each level's hat members and base
multiset are built on read.  The suites read the entries through
`_checked`, and `is_synchronized` looks one up through `blowup._slot`.
The level-1 structure is a separate diagnostic (`one_tail_diagnostic`),
which returns its findings, none when the level-1 families pass; its
expectations come from the base graph's 1-tail pool.

Index layout of the subdivision of a graph with p components and n nodes:
lifted vertex m < p is the strict transform of base component m, vertices
p + 2t and p + 2t + 1 are the exceptional vertices over base node t (sides
a, b or loop slots 1, 2), and lifted edges 3t..3t+2 form the chain over
node t.  This arithmetic is the only record of the layout: the contraction
image of a lifted subcurve is its low p bits (`mu_image`), a lifted
terminal edge e lies over base node e // 3 (`_node_counts`), and a lifting
step at node t leaves one of edges 3t..3t+2 terminal (`_lift_parts`).
"""

from __future__ import annotations

from typing import NamedTuple
from weakref import ref

from .blowup import DistinguishedPoint, _point_labels, _slot, choices
from .errors import InvariantViolation, PreconditionError
from .graph import CurveGraph, Node, canon_key, per_graph, precedes
from .tails import _grow, _pool_index, _terminal_at, nested


class LiftedGraph(CurveGraph):
    """The node subdivision of a base graph, with the contraction bookkeeping.

    Every base node S with endpoints (u, v) becomes the chain
    C_u -- E(S,u) -- E(S,v) -- C_v (loop sides are numbered 1 and 2) with
    edges S:u, S:mid and S:v; a generated name that repeats an earlier one
    (a base component may be called E(S,u)) gets a suffix, #2 or higher.
    The subdivision is itself a CurveGraph, marked at the strict transform
    of the base marked component, and refers to its base graph weakly as
    `base`: the base's memo holds the subdivision, so the base alone decides
    how long both live.  Its unmarked s-tails for s <= 3, the pool that
    `_unmarked_k_tails` supplies and `k_tails` closes under complement, are
    derived from the base graph's rather than enumerated (index layout:
    module docstring).
    """

    __slots__ = ("_base",)

    def __init__(self, base: CurveGraph):
        names = list(base.names)
        ids, ends = [], []
        for nd in base.nodes:
            labels = ("1", "2") if nd.is_loop else (names[nd.a], names[nd.b])
            e1 = len(names)  # p + 2t over node t
            names += [f"E({nd.id},{lab})" for lab in labels]
            ids += [f"{nd.id}:{labels[0]}", f"{nd.id}:mid", f"{nd.id}:{labels[1]}"]
            ends += [(nd.a, e1), (e1, e1 + 1), (e1 + 1, nd.b)]
        edges = [Node(i, a, b) for i, (a, b) in zip(_distinct(ids), ends)]
        super().__init__(_distinct(names), edges, base.marked)
        self._base = ref(base)

    @property
    def base(self) -> CurveGraph:
        """The base graph; PreconditionError once it has been freed."""
        base = self._base()
        if base is None:
            raise PreconditionError("the base graph of this subdivision is gone")
        return base

    @property
    def graph(self) -> LiftedGraph:
        """Itself, for the `build_c2` hook of perfbench/tracer.py only."""
        return self

    def _unmarked_k_tails(self, kk: int) -> tuple[tuple[int, int], ...]:
        return _lifted_pool(self, kk)

    def exceptional(self, node: int, key: int) -> int:
        """Lifted vertex E(node, key) = p + 2 * node, plus 1 for the second
        key; key is the side component for a non-loop node and the slot 1
        or 2 for a loop."""
        base = self.base
        if 0 <= node < len(base.nodes):
            nd = base.nodes[node]
            keys = (1, 2) if nd.is_loop else (nd.a, nd.b)
            if key in keys:
                return base.p + 2 * node + keys.index(key)
        raise PreconditionError(
            f"no exceptional vertex over node index {node} with key {key}"
        )

    def mu_image(self, mask: int) -> int:
        """Base subcurve under the contraction: strict transforms are lifted
        vertices 0..p-1 and exceptional ones p and up, so the image is the
        mask's low p bits, 0 for a purely exceptional mask."""
        return mask & self.base.full_mask

    def _dot_style(self) -> tuple[str, list[str]]:
        _, shapes = super()._dot_style()
        p = self.base.p
        return "lifted", shapes[:p] + ["square, width=0.25, height=0.25"] * (self.p - p)


def _distinct(names: list[str]) -> list[str]:
    """The names with each repeat of an earlier one renamed to name#2 (or #3,
    ...: the first suffix that no name in the list has), so a name changes
    only where it collides."""
    taken = set(names)
    seen = set()
    out = []
    for nm in names:
        if nm in seen:
            i = 2
            while f"{nm}#{i}" in taken:
                i += 1
            nm = f"{nm}#{i}"
            taken.add(nm)
        seen.add(nm)
        out.append(nm)
    return out


def _lift_parts(LG: LiftedGraph, W: int) -> tuple[int, list[tuple]]:
    """The core of a base subcurve's liftings and its terminal steps.

    The core holds the strict transforms of W and both exceptional vertices
    of every node interior to W, loops on W included.  Each terminal node t
    gives one step (near, far, edges): the bits of its exceptional vertices
    on the W side and on the other side, and the lifted edge left terminal
    when the lifting adds none of them, the near one or both.  From side a
    these are edges 3t, 3t + 1 and 3t + 2 of the chain a -- E(t, a) --
    E(t, b) -- b; from side b, the same edges reversed.
    """
    core = W  # strict transforms keep their base indices
    base = LG.base
    p = base.p
    steps = []
    for t, nd in enumerate(base.nodes):
        ea = 1 << (p + 2 * t)  # E(t, a), slot 1 of a loop
        eb = ea << 1
        ina = (W >> nd.a) & 1
        inb = (W >> nd.b) & 1
        if ina and inb:
            core |= ea | eb
        elif ina:
            e = 1 << 3 * t
            steps.append((ea, eb, (e, e << 1, e << 2)))
        elif inb:
            e = 1 << 3 * t
            steps.append((eb, ea, (e << 2, e << 1, e)))
    return core, steps


def _lifted_pool(LG: LiftedGraph, s: int) -> tuple[tuple[int, int], ...]:
    """The s-tails of the subdivision avoiding the marked component, s <= 3,
    each with its terminal mask, canonically ordered: the subdivision's pool.

    A lifted tail that meets a strict transform and misses another contracts
    to a base s-tail W; it is the core of W plus, at each terminal node, no
    exceptional vertex, the near one, or both, so W has 3^s liftings, and
    each choice leaves one lifted edge of the node's chain terminal
    (`_lift_parts`).  The liftings of an unmarked W avoid the marked strict
    transform, and those of its complement are the complements of W's, so
    the unmarked half of the base pool (`tails._pool_index`) lifts to the
    unmarked half here.  The rest are {E1}, {E2} and {E1, E2} over every
    node that is not a bridge (loops included), terminal at their two edges
    of the chain, and their complements, which hold the marked component.
    """
    base = LG.base
    half = []
    for w, _ in _pool_index(base, s)[0]:
        core, steps = _lift_parts(LG, w)
        lifts = [(core, 0)]
        for near, far, (e0, e1, e2) in steps:
            lifts = [pair for y, ty in lifts for pair in
                     ((y, ty | e0), (y | near, ty | e1), (y | near | far, ty | e2))]
        half += lifts
    if s == 2:
        bridges = 0
        for _, tw in _pool_index(base, 1)[0]:
            bridges |= tw
        for t in range(len(base.nodes)):
            if not (bridges >> t) & 1:
                v, e = 1 << (base.p + 2 * t), 1 << 3 * t
                half += ((v, e | e << 1), (v << 1, e << 1 | e << 2), (v | v << 1, e | e << 2))
    half.sort(key=lambda pair: canon_key(pair[0]))
    return tuple(half)


@per_graph
def build_c2(G: CurveGraph) -> LiftedGraph:
    return LiftedGraph(G)


def canonical_liftings(LG: LiftedGraph, W: int) -> tuple[int, int, int]:
    """The three canonical liftings of a proper nonempty base subcurve.

    L0 carries the strict transforms and both exceptional vertices of every
    interior node; L1 adds, per terminal node, the exceptional vertex on the
    W side; L2 adds the far one.  The chain L0 < L1 < L2 (with disjoint
    terminal sets, provided W is connected) is asserted.
    """
    base = LG.base
    if W & ~base.full_mask:
        raise PreconditionError("subcurve outside the component range")
    if not base.is_proper(W):
        raise PreconditionError("canonical liftings need a proper nonempty subcurve")
    l0, steps = _lift_parts(LG, W)
    l1 = l2 = l0
    for near, far, _ in steps:
        l1 |= near
        l2 |= near | far
    if base.connected(W):
        for a, b in ((l0, l1), (l1, l2)):
            if not precedes(LG, a, b):
                raise InvariantViolation(
                    "canonical liftings do not chain",
                    subcurve=base.names_of(W),
                    liftings=[LG.names_of(x) for x in (l0, l1, l2)],
                )
    for l in (l0, l1, l2):
        if LG.mu_image(l) != W:
            raise InvariantViolation(
                "canonical lifting does not contract to its subcurve",
                subcurve=base.names_of(W),
                lifting=LG.names_of(l),
            )
    return (l0, l1, l2)


class LevelSync(NamedTuple):
    """One level of a point's synchronization: the lifted hat members,
    their sorted images and the base multiset they must equal, which no
    purely exceptional member can meet (its image is 0, no base member)."""

    level: int
    ok: bool
    hat_images: tuple[int, ...]  # base masks, sorted
    base_multiset: tuple[int, ...]
    hat_members: tuple[int, ...]  # lifted masks, in family order


class SyncReport(NamedTuple):
    """Levels 2 and 3 of a point's synchronization (level 1 always holds):
    the point's entry of `_sync_reports`.  It keeps the hat and base
    entries it shares with other points and builds its two levels on
    read.

    `eq34` holds the violations of eq. (34), the node-by-node counting
    identity at level 2: for every base node, the number of base level-2
    family members having it terminal must equal the total over its three
    lifted edges of hat family members having that edge terminal (lifted
    edges 3t..3t+2 lie over node t).  Each violation is (node id, base
    count, hat count), in node order; none when the identity holds.
    """

    point: DistinguishedPoint
    synchronized: bool
    eq34: tuple  # the eq. (34) violations
    hat2: tuple  # level-2 members, images, node counts, blocked 3-tails
    hat3: tuple  # level-3 members, images
    base: tuple  # level-2 and level-3 base multisets, level-2 node counts

    @property
    def levels(self) -> tuple[LevelSync, LevelSync]:
        fam2, images2, _, _ = self.hat2
        fam3, images3 = self.hat3
        base2, base3, _ = self.base
        return (LevelSync(2, images2 == base2, images2, base2, fam2),
                LevelSync(3, images3 == base3, images3, base3, fam3))

    def describe(self, G: CurveGraph) -> dict:
        return {
            "point": self.point.describe(G),
            "synchronized": self.synchronized,
            "levels": [
                {
                    "level": l.level,
                    "ok": l.ok,
                    "hat_images": [list(G.names_of(w)) for w in l.hat_images],
                    "base": [list(G.names_of(w)) for w in l.base_multiset],
                }
                for l in self.levels
            ],
        }


def is_synchronized(G: CurveGraph, point: DistinguishedPoint) -> SyncReport:
    """Compare hat families against the base multisets at levels 2 and 3.

    A level synchronizes when the contraction images of the hat family equal
    the base multiset with multiplicity, which already excludes a purely
    exceptional member: its image is 0, and base members are nonempty.
    Level 1 always synchronizes, so it is not compared; its structure is
    checked by `one_tail_diagnostic`.  The report is the point's entry in
    the graph's `_sync_reports` (`blowup._slot`), so an equal point built
    elsewhere gets the same report; a point that is not one of G's raises
    PreconditionError.
    """
    return _checked(_slot(G, _sync_reports(G), point))


def _checked(entry) -> SyncReport:
    """A point's entry of `_sync_reports`, as the suites and
    `is_synchronized` read it: the report itself, or, for a stored
    violation, a fresh copy of it raised (raising the stored one would grow
    its traceback)."""
    if isinstance(entry, InvariantViolation):
        raise type(entry)(entry.args[0], **entry.witnesses)
    return entry


@per_graph
def _sync_reports(G: CurveGraph) -> dict:
    """The synchronization of every point of `choices(G)`, in one pass: a
    dict from each choice to the `SyncReport`s of its two points, in point
    order, keyed as `blowup._point_verdicts` is, so the suites look both
    tables up by choice.  The points are built here from `_point_labels`.

    The hat selections of a point are bitset ANDs over the subdivision's
    pool indices (`tails._pool_index`), so points whose anchors select the
    same candidates share one hat entry: the chain `tails._grow` grows from
    the selection, its images (the low p bits, `mu_image`; the members are
    nested, so the images are in canonical order) and, at level 2, its node
    counts and the level-3 pool members it blocks (`tails._terminal_at`, as
    `tails._selection` blocks them).  Points with the same labels share one
    base entry: both base multisets and the level-2 node counts.  Each
    value is computed once per hat or base entry, each base family fetched
    and keyed by `canon_key` once per graph; a point's own work is two
    comparisons and its eq. (34) violations when the two count vectors
    differ.  A point whose families break an invariant has that violation
    in its slot, kept without its traceback (whose frames hold G), and
    `_checked` raises a fresh copy of it for that point alone.  A choice's
    slots are a list, as `_node_counts` keeps its vectors.
    """
    reports: dict = {}
    chs = choices(G)
    if not chs:
        return reports
    LG = build_c2(G)
    p, nodes, full = G.p, G.nodes, G.full_mask
    hold2 = _pool_index(LG, 2)[1]
    _, hold3, term3 = _pool_index(LG, 3)
    terms2 = dict(_pool_index(G, 2)[0])  # base 2-tail -> its terminal mask
    hats2: dict = {}  # level-2 selection -> hat entry
    hats3: dict = {}  # level-3 selection -> hat entry
    bases: dict = {}  # labels -> base entry
    fams: dict = {2: {}, 3: {}}  # level -> anchors -> the base family
    keys: dict = {}  # base family member -> its canon_key
    for ch in chs:
        # E(r, g) = p + 2r, plus 1 off the first side (`LiftedGraph.exceptional`)
        v1, side1 = p + 2 * ch.r1, nodes[ch.r1].a
        v2, side2 = p + 2 * ch.r2, nodes[ch.r2].a
        slots = reports[ch] = []
        for index, labels in enumerate(_point_labels(ch), 1):  # (g1, g1', g2, g2')
            e1 = v1 + (labels[0] != side1)
            e2 = v2 + (labels[2] != side2)
            anchors = (1 << e1) | (1 << e2)
            try:
                sel = hold2[e1] & hold2[e2]
                hat2 = hats2.get(sel)
                if hat2 is None:
                    fam, terms = _grow(LG, 2, sel, anchors)
                    edges = 0
                    for ty in terms:
                        edges |= ty
                    hat2 = hats2[sel] = (tuple(fam), tuple([y & full for y in fam]),
                                         _node_counts(terms, len(nodes), 3),
                                         _terminal_at(term3, edges))
                sel = hold3[e1] & hold3[e2] & ~hat2[3]
                hat3 = hats3.get(sel)
                if hat3 is None:
                    fam, _ = _grow(LG, 3, sel, anchors)
                    hat3 = hats3[sel] = (tuple(fam), tuple([y & full for y in fam]))
                base = bases.get(labels)
                if base is None:
                    base2, base3 = _base_multisets(G, labels, fams, keys)
                    base = bases[labels] = (base2, base3, _node_counts(
                        [terms2[w] for w in base2], len(nodes), 1))
            except InvariantViolation as exc:
                slots.append(exc.with_traceback(None))
                continue
            counts2, base_counts = hat2[2], base[2]
            slots.append(SyncReport(
                DistinguishedPoint(ch, index, *labels),
                hat2[1] == base[0] and hat3[1] == base[1],
                () if base_counts == counts2 else tuple(
                    (nd.id, lhs, rhs)
                    for nd, lhs, rhs in zip(nodes, base_counts, counts2) if lhs != rhs
                ),
                hat2, hat3, base,
            ))
    return reports


def _node_counts(terms, n: int, per: int) -> list[int]:
    """For each of n base nodes, how many of the terminal masks hold it;
    with per = 3 the masks are over lifted edges, and edge e lies over base
    node e // 3.  The vector stays a list: as tuples, the thousands a table
    holds would be parked in CPython's tuple free lists once the graph is
    freed, which raised peak memory by about 0.12 MB."""
    counts = [0] * n
    for t in terms:
        while t:
            low = t & -t
            counts[(low.bit_length() - 1) // per] += 1
            t ^= low
    return counts


def _base_multisets(G: CurveGraph, labels: tuple, fams: dict, keys: dict) -> tuple:
    """The level-2 and level-3 base multisets of the points with labels
    (g1, g1', g2, g2'): the families of the triple pairs (g1, g2), (g1, g2')
    and (g1', g2), merged in canonical order.  Each family is fetched once
    into fams and its members keyed once into keys."""
    g1, g1p, g2, g2p = labels
    pairs = ((1 << g1) | (1 << g2), (1 << g1) | (1 << g2p), (1 << g1p) | (1 << g2))
    out = []
    for s in (2, 3):
        found = fams[s]
        merged: list[int] = []
        for anchors in pairs:
            fam = found.get(anchors)
            if fam is None:
                fam = found[anchors] = nested(G, s, anchors)
                for w in fam:
                    if w not in keys:
                        keys[w] = canon_key(w)
            merged += fam
        out.append(tuple(sorted(merged, key=keys.__getitem__)))
    return out


# -- level-1 diagnostic -------------------------------------------------------


def one_tail_diagnostic(G: CurveGraph, point: DistinguishedPoint) -> tuple:
    """What is wrong with the level-1 hat families of a point: empty when
    they pass.

    Only facts that hold unconditionally are gated: every member contracts
    to a 1-tail avoiding the marked component; the members whose image
    crosses the anchored node are exactly the three canonical liftings of
    each base 1-tail containing both of its sides; and the leftover members
    match the separating-node pattern.  The level-1 base multiset has two
    possible readings (four or six family terms), so it is deliberately not
    gated.  A point that is not one of G's raises PreconditionError, tested
    as `is_synchronized` tests it.
    """
    _slot(G, _sync_reports(G), point)
    return (_one_tail_side(G, point.choice.r1, point.g1)
            + _one_tail_side(G, point.choice.r2, point.g2))


@per_graph
def _one_tail_side(G: CurveGraph, r: int, g: int) -> tuple:
    """What the level-1 diagnostic finds wrong with the family anchored at
    E(r, g); memoized, since every point with that anchor shares it.

    One pass over the 1-tail pool (`tails._pool_index`) gives the expected
    members: the canonical liftings of each pool tail holding both ends of
    r and, if r is a bridge, L1 and L2 of its unmarked side W (the pool
    tail whose terminal mask is r), or L2 alone when W misses g.
    """
    LG = build_c2(G)
    nd = G.nodes[r]
    detail = []
    crossing = []
    rest = []
    for y in nested(LG, 1, 1 << LG.exceptional(r, g)):
        img = LG.mu_image(y)
        if not G.is_tail(img) or (img >> G.marked) & 1:
            detail.append(("bad-image", nd.id, LG.names_of(y)))
            continue
        both = (img >> nd.a) & 1 and (img >> nd.b) & 1
        (crossing if both else rest).append(y)
    ends = (1 << nd.a) | (1 << nd.b)
    expected = set()
    exp_rest: set[int] = set()
    for w, tw in _pool_index(G, 1)[0]:
        if w & ends == ends:
            expected.update(canonical_liftings(LG, w))
        elif tw == 1 << r:
            _, l1, l2 = canonical_liftings(LG, w)
            exp_rest = {l1, l2} if (w >> g) & 1 else {l2}
    if set(crossing) != expected:
        detail.append(("crossing-mismatch", nd.id))
    if set(rest) != exp_rest:
        detail.append(("separating-mismatch", nd.id))
    return tuple(detail)
