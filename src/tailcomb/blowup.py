"""Local blowup choices at pairs of reducible nodes and the resolution test.

A choice pairs the sides of two distinct non-loop nodes; each choice carries
two distinguished points, encoded by triples of component pairs.  The
quasistable-point predicate runs under a convention profile: the default
"reconstructed" profile conditions on the two diagonal corner pairs, which is
the reading consistent with the banana fixture and the resolution theorem;
"as-displayed" keeps the literally printed pair set so the harness can
demonstrate the discrepancy.
"""

from __future__ import annotations

from itertools import combinations, product
from operator import itemgetter, sub
from typing import NamedTuple

from .errors import GraphError, InvariantViolation, PreconditionError
from .graph import CurveGraph, canon_key, members, per_graph
from .tails import _pool_index, family_terminals, nested
from .degrees import twister

RECONSTRUCTED = "reconstructed"
AS_DISPLAYED = "as-displayed"
PROFILES = (RECONSTRUCTED, AS_DISPLAYED)


def _check_profile(profile: str) -> str:
    if profile not in PROFILES:
        raise PreconditionError(f"unknown profile {profile!r}; use one of {PROFILES}")
    return profile


class BlowupChoice(NamedTuple):
    """An unordered pair of distinct reducible nodes with a side matching.

    r1 < r2 are node indices; the matching is its two (side-of-r1, side-of-r2)
    component pairs covering all four sides, sorted.  Only `pair_matchings`
    builds one.  A tuple, so that hashing it as a dict or memo key stays in C.
    """

    r1: int
    r2: int
    matching: tuple[tuple[int, int], tuple[int, int]]

    def match_names(self, G: CurveGraph) -> list[list[str]]:
        """The matching as written in JSON: its side pairs by component name."""
        return [[G.names[x], G.names[y]] for x, y in self.matching]


def _node_sides(G: CurveGraph, r: int) -> tuple[int, int]:
    if not 0 <= r < len(G.nodes):
        raise PreconditionError("node index out of range")
    nd = G.nodes[r]
    if nd.is_loop:
        raise PreconditionError(f"node {nd.id!r} is a loop, not a reducible node")
    return (nd.a, nd.b)


def make_choice(G: CurveGraph, r1: int, r2: int, matching) -> BlowupChoice:
    """The member of `pair_matchings(G, r1, r2)` whose matching equals the
    given (side-of-r1, side-of-r2) pairs; anything but an iterable of pairs
    of G's component indices (a bool is not one) raises PreconditionError."""
    if r1 == r2:
        raise PreconditionError("a blowup choice needs two distinct nodes")
    try:
        given = [tuple(pair) for pair in matching]
    except TypeError:
        raise PreconditionError(f"matching {matching!r} is not a list of side pairs") from None
    for side in (x for pair in given for x in pair):
        if isinstance(side, bool) or not isinstance(side, int) or not 0 <= side < G.p:
            raise PreconditionError(f"matching side {side!r} is not a component index")
    pairs = tuple(sorted(given if r1 < r2 else (pair[::-1] for pair in given)))
    for choice in pair_matchings(G, r1, r2):
        if choice.matching == pairs:
            return choice
    raise PreconditionError(
        f"matching {[[G.names[x] for x in pair] for pair in given]} does not "
        f"cover the sides of {G.nodes[r1].id!r} and {G.nodes[r2].id!r}"
    )


def pair_matchings(G: CurveGraph, r1: int, r2: int) -> tuple[BlowupChoice, BlowupChoice]:
    """The two possible choices at a pair of distinct reducible nodes, the
    one pairing the nodes' first ends first; the one `BlowupChoice` builder."""
    if r1 > r2:
        r1, r2 = r2, r1
    x, xb = _node_sides(G, r1)
    y, yb = _node_sides(G, r2)
    if x > xb:  # a node's ends differ, so this puts both matchings in order
        x, xb, y, yb = xb, x, yb, y
    return (
        BlowupChoice(r1, r2, ((x, y), (xb, yb))),
        BlowupChoice(r1, r2, ((x, yb), (xb, y))),
    )


class DistinguishedPoint(NamedTuple):
    """One of the two distinguished points of a blowup choice.

    The triple consists of the two matched pairs plus one cross pair; the
    canonical labels read off the repeated first and second coordinates:
    triple = {(g1, g2), (g1, g2p), (g1p, g2)}.  A tuple, so that building
    one and hashing it as a memo key stay cheap on the per-point paths.
    """

    choice: BlowupChoice
    index: int  # 1 or 2, in `_point_labels` order
    g1: int
    g1p: int
    g2: int
    g2p: int

    @property
    def triple(self) -> frozenset:
        return frozenset((*self.choice.matching, (self.g1, self.g2)))

    def describe(self, G: CurveGraph) -> dict:
        n = G.names
        return {
            "pair": [G.nodes[self.choice.r1].id, G.nodes[self.choice.r2].id],
            "matching": self.choice.match_names(G),
            "point": self.index,
            "triple": sorted([n[x], n[y]] for x, y in self.triple),
            "labels": {
                "g1": n[self.g1],
                "g1'": n[self.g1p],
                "g2": n[self.g2],
                "g2'": n[self.g2p],
            },
        }


def _point_labels(choice: BlowupChoice) -> tuple:
    """The labels (g1, g1', g2, g2') of the two distinguished points of a
    choice, in point order.

    For matching ((x,y), (xb,yb)) the triples are the matching plus (x,yb)
    and the matching plus (xb,y); the extra pair is (g1, g2).
    """
    (x, y), (xb, yb) = choice.matching
    return ((x, xb, yb, y), (xb, x, y, yb))


@per_graph
def distinguished_points(
    G: CurveGraph, choice: BlowupChoice
) -> tuple[DistinguishedPoint, DistinguishedPoint]:
    """The two distinguished points of a choice, built once per graph and
    choice for the suites and the CLI."""
    first, second = _point_labels(choice)
    return (DistinguishedPoint(choice, 1, *first), DistinguishedPoint(choice, 2, *second))


@per_graph
def choices(G: CurveGraph) -> tuple[BlowupChoice, ...]:
    """Each blowup choice, once per graph for all suites: the pairs of
    reducible nodes in order, each with both of its matchings in
    `pair_matchings` order.  Their points come from `distinguished_points`,
    or, in the synchronization table and lemma-61, from `_point_labels`
    directly."""
    return tuple(
        ch
        for r1, r2 in combinations(G.reducible_nodes(), 2)
        for ch in pair_matchings(G, r1, r2)
    )


def _condition_pairs(labels: tuple, profile: str) -> tuple:
    """The condition pairs of the point with labels (g1, g1', g2, g2')."""
    g1, g1p, g2, g2p = labels
    if profile == RECONSTRUCTED:
        return ((g1, g2), (g1p, g2p))
    return ((g1, g2), (g1, g2p))


class PointVerdict(NamedTuple):
    ok: bool
    profile: str
    # On failure: the condition pair and, per offending node, the tails
    # whose terminal sets contribute it.
    failing_pair: tuple[int, int] | None = None
    contributing: tuple = ()

    def describe(self, G: CurveGraph) -> dict:
        out = {"quasistable": self.ok, "profile": self.profile}
        if not self.ok:
            a, b = self.failing_pair
            out["condition_pair"] = [G.names[a], G.names[b]]
            out["contributing_tails"] = [
                {"node": G.nodes[r].id, "tails": [list(G.names_of(w)) for w in ws]}
                for r, ws in self.contributing
            ]
        return out


def is_quasistable_point(
    G: CurveGraph, point: DistinguishedPoint, profile: str, /
) -> PointVerdict:
    """Whether at most one of the two nodes is terminal across each condition
    pair's level-2 and level-3 families.

    The verdict is read from the graph's `_point_verdicts` for the profile
    (`_slot`), so an equal point built elsewhere gets the same verdict
    object; a point that is not one of G's raises PreconditionError.
    """
    return _slot(G, _point_verdicts(G, profile), point)


def _slot(G: CurveGraph, table: dict, point: DistinguishedPoint):
    """The point's entry in a per-graph table keyed by `choices(G)`, whose
    values hold each choice's two points' entries in point order (the
    verdict table or `lift._sync_reports`).  A point that is not one of
    G's, an unhashable matching included, raises PreconditionError; so does
    an index that is not the int 1 or 2 (True and 1.0 compare equal to 1)."""
    try:
        entries = table.get(point.choice)
    except TypeError:  # an unhashable matching is none of this graph's
        entries = None
    index = point.index
    if (entries is None or type(index) is not int or not 1 <= index <= 2
            or point not in distinguished_points(G, point.choice)):
        raise PreconditionError("not a distinguished point of this graph")
    return entries[index - 1]


@per_graph
def _point_verdicts(G: CurveGraph, profile: str) -> dict:
    """The verdicts of both points of every choice of `choices(G)` under the
    profile, in one pass: a dict from each choice to its two verdicts, keyed
    as `lift._sync_reports` is, so a suite looks up both by choice.

    Each anchor pair's terminal nodes are fetched once; every passing point
    shares one verdict, and the contributing tails are gathered only for a
    failing one.
    """
    _check_profile(profile)
    passing = PointVerdict(True, profile)
    terminals: dict = {}  # anchors -> nodes terminal at level 2 or 3
    table = {}
    for ch in choices(G):
        r1, r2 = ch.r1, ch.r2
        bits = (1 << r1) | (1 << r2)
        verdicts = []
        for labels in _point_labels(ch):
            verdict = passing
            for a, b in _condition_pairs(labels, profile):
                anchors = (1 << a) | (1 << b)
                covered = terminals.get(anchors)
                if covered is None:
                    covered = terminals[anchors] = (family_terminals(G, 2, anchors)
                                                    | family_terminals(G, 3, anchors))
                if covered & bits == bits:
                    fam = nested(G, 2, anchors) + nested(G, 3, anchors)
                    contributing = tuple(
                        (r, tuple(w for w in fam if G.term_mask(w) & (1 << r)))
                        for r in (r1, r2)
                    )
                    verdict = PointVerdict(False, profile, (a, b), contributing)
                    break
            verdicts.append(verdict)
        table[ch] = tuple(verdicts)
    return table


def _string_pair(value, what: str) -> list[str]:
    if not (isinstance(value, list) and len(value) == 2
            and all(isinstance(v, str) for v in value)):
        raise GraphError(f"{what} must be an array of two strings, got {value!r}")
    return value


class BlowupPlan:
    """Per-pair local blowup choices; pairs may be left unchosen."""

    def __init__(self, choices: dict[tuple[int, int], BlowupChoice] | None = None):
        self.choices = dict(choices or {})

    def get(self, r1: int, r2: int) -> BlowupChoice | None:
        return self.choices.get((min(r1, r2), max(r1, r2)))

    def set(self, choice: BlowupChoice):
        self.choices[(choice.r1, choice.r2)] = choice

    def __len__(self):
        return len(self.choices)

    def __eq__(self, other):
        return isinstance(other, BlowupPlan) and self.choices == other.choices

    def to_spec(self, G: CurveGraph) -> list:
        return [{"pair": [G.nodes[r1].id, G.nodes[r2].id], "match": ch.match_names(G)}
                for (r1, r2), ch in sorted(self.choices.items())]

    @classmethod
    def from_spec(cls, G: CurveGraph, data) -> "BlowupPlan":
        """Read a plan from JSON: an array of objects whose "pair" is an
        array of two node ids and whose "match" is an array of two side
        pairs, each an array of two component names; no pair may appear
        twice, in either order.  Anything else raises GraphError; nothing
        is coerced."""
        if not isinstance(data, list):
            raise GraphError("a plan is a JSON array of pair choices")
        plan = cls()
        for entry in data:
            if not isinstance(entry, dict) or not {"pair", "match"} <= entry.keys():
                raise GraphError(f"malformed plan entry {entry!r}")
            match = entry["match"]
            if not isinstance(match, list) or len(match) != 2:
                raise GraphError(
                    f"plan match must be an array of two side pairs, got {match!r}"
                )
            r1, r2 = map(G.node_index, _string_pair(entry["pair"], "plan pair"))
            if plan.get(r1, r2) is not None:
                raise GraphError(f"plan names node pair {entry['pair']!r} twice")
            pairs = [tuple(map(G.index, _string_pair(sides, "plan side pair")))
                     for sides in match]
            plan.set(make_choice(G, r1, r2, pairs))
        return plan


def _tail_matching(G: CurveGraph, r1: int, r2: int, w: int) -> int:
    """The index in `pair_matchings(G, r1, r2)` of the matching a tail with
    terminal nodes r1 and r2 induces: the two sides on the tail go together,
    and so do the two off it.  Index 0 pairs the first ends, so it is the
    answer exactly when the tail holds both first ends or neither, so a
    tail and its complement induce the same matching."""
    return ((w >> G.nodes[r1].a) ^ (w >> G.nodes[r2].a)) & 1


def plan_from_tails(G: CurveGraph) -> BlowupPlan:
    """The plan that chooses, at every coverable pair, the tail-induced
    matching (the combinatorial shadow of blowing up all 2- and 3-tail
    squares).

    One pass over the unmarked 2- and 3-tails of the pool records, at each
    pair of their terminal nodes, the `_tail_matching` index, which their
    complements share.  All tails covering a pair must agree, which realizes
    the order-independence of the tail-product blowup sequence as a runtime
    assertion; on a conflict the lowest pair is reported with its first two
    disagreeing 2- or 3-tails in canonical order.
    """
    induced: dict[tuple[int, int], int] = {}
    conflicts = set()
    for w, tw in _pool_index(G, 2)[0] + _pool_index(G, 3)[0]:
        for r1, r2 in combinations(members(tw), 2):
            i = _tail_matching(G, r1, r2, w)
            if induced.setdefault((r1, r2), i) != i:
                conflicts.add((r1, r2))
    if conflicts:
        tails = G.k_tails(2) + G.k_tails(3)
        r1, r2 = min(conflicts)
        bits = (1 << r1) | (1 << r2)
        covering = sorted(
            (w for w in tails if G.term_mask(w) & bits == bits), key=canon_key
        )
        first = _tail_matching(G, r1, r2, covering[0])
        other = next(w for w in covering if _tail_matching(G, r1, r2, w) != first)
        raise InvariantViolation(
            "covering tails induce conflicting matchings",
            pair=(G.nodes[r1].id, G.nodes[r2].id),
            tails=[list(G.names_of(covering[0])), list(G.names_of(other))],
        )
    return BlowupPlan(
        {pair: pair_matchings(G, *pair)[i] for pair, i in sorted(induced.items())}
    )


# -- admissibility ----------------------------------------------------------


class IneqInstance(NamedTuple):
    ineq: int  # 18..25
    args: tuple
    value: int
    ok: bool


def _gated_quads(sides: tuple) -> list[tuple[int, int, int, int]]:
    """The 14 side quadruples (a, a', b, b') of (18), in instance order.

    The triples are the matched pairs (g1, g2), (g1', g2') plus one cross
    pair each, so two divisor pairs with no side in common intersect unless
    they are the cross pairs (g1, g2') and (g1', g2): of the 16 quadruples,
    the two that pair those are not gated.
    """
    g1, g1p, g2, g2p = sides
    return [(a, ap, b, bp)
            for a, ap in product((g1, g1p), repeat=2)
            for b, bp in product((g2, g2p), repeat=2)
            if not (a != ap and b != bp and (a == g1) != (b == g2))]


_value = itemgetter(2)  # of an (ineq, args, value) triple


def _rest(sides: tuple, rows: tuple, diagonal: bool) -> list[tuple]:
    """(19)-(25) as (ineq, args, value), in instance order.

    `rows` are the twister rows of (g1, g2), (g1, g2'), (g1', g2) and
    (g1', g2').  With da and db the coefficient differences of the (a, b)
    row across (a, a') and across (b, b'), each value compares one of them
    with the same difference in another row; (23) and (24) are gated.
    """
    g1, g1p, g2, g2p = sides
    gg, gG, Gg, GG = rows
    out = []
    if diagonal:  # g2, g2' = g1', g1: gG is the (g1, g1) row, Gg the (g1', g1')
        for a, ap, aa, aap in ((g1, g1p, gG, gg), (g1p, g1, Gg, GG)):
            out.append((25, (a, ap), aa[a] - aa[ap] - (aap[a] - aap[ap]) - 1))
        return out
    # the rows of (a, b), (a, b'), (a', b) and (a', b') at each quadruple
    for q, ab, abp, apb, apbp in (((g1, g1p, g2, g2p), gg, gG, Gg, GG),
                                  ((g1, g1p, g2p, g2), gG, gg, GG, Gg),
                                  ((g1p, g1, g2, g2p), Gg, GG, gg, gG),
                                  ((g1p, g1, g2p, g2), GG, Gg, gG, gg)):
        a, ap, b, bp = q
        da, db = ab[a] - ab[ap], ab[b] - ab[bp]
        out += ((19, q, da - (abp[a] - abp[ap])),
                (20, q, db - (apb[b] - apb[bp])),
                (21, q, da - (apb[a] - apb[ap]) - 1),
                (22, q, db - (abp[b] - abp[bp]) - 1))
        if (a == g1) == (b == g2):  # (a, b) is a matched pair: gated
            out += ((23, q, da - (apbp[a] - apbp[ap]) - 1),
                    (24, q, db - (apbp[b] - apbp[bp]) - 1))
    return out


class AdmissibilityReport(NamedTuple):
    """The admissibility instances at a node pair (r1 == r2 on the diagonal).

    `count` (the number of instances) and `failures` (the failing ones, in
    instance order) come from the graph's `_admissibility` table.
    `instances`, every instance in order, is built on each read from the
    sides, the four twister rows and the nodes: (18) node by node, each
    node once per gated side quadruple, then (19)-(25).
    """

    r1: int
    r2: int
    count: int
    failures: tuple[IneqInstance, ...]
    sides: tuple  # (g1, g1', g2, g2'); on the diagonal (g1, g1', g1', g1)
    rows: tuple  # the twister rows of (g1, g2), (g1, g2'), (g1', g2), (g1', g2')
    nodes: tuple  # the graph's nodes, for (18)

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def instances(self) -> tuple[IneqInstance, ...]:
        # (18): every other node S joining distinct components m, n, at each
        # gated quadruple, delta(a, b) - delta(a', b') across S, which is
        # the difference of the rows of (a, b) and (a', b') taken across S.
        g1, g1p, g2, g2p = self.sides
        row = dict(zip(product((g1, g1p), (g2, g2p)), self.rows))
        quads = [((a, ap, b, bp), tuple(map(sub, row[(a, b)], row[(ap, bp)])))
                 for a, ap, b, bp in _gated_quads(self.sides)]
        own = (self.r1, self.r2)
        across = [(nd.id, nd.a, nd.b) for t, nd in enumerate(self.nodes)
                  if nd.a != nd.b and t not in own]
        out = [IneqInstance(18, (node, *q), (v := diff[m] - diff[n]), -1 <= v <= 1)
               for node, m, n in across for q, diff in quads]
        out += [IneqInstance(i, q, v, -1 <= v <= 1)
                for i, q, v in _rest(self.sides, self.rows, self.r1 == self.r2)]
        return tuple(out)


@per_graph
def _admissibility(G: CurveGraph) -> dict:
    """The admissibility report of every diagonal node (keyed by its index)
    and of every choice of `choices(G)` (keyed by the choice), in one pass.

    A report's count is closed-form: 14 gated quadruples per non-loop node
    other than the pair's, plus (19)-(25).  Its failures come from an exact
    screen.  An (18) instance at rows R, S and node t fails when R - S moves
    by more than 1 across t, so each unordered pair of rows keeps, once per
    graph, the mask of the nodes it moves across; an entry fails (18)
    exactly when the masks of its five row pairs other than the cross one
    hold a node other than r1 and r2.  Its (19)-(25) values are computed.
    Only a flagged entry enumerates its instances, to list its failures.
    """
    alpha = twister(G)
    spans = [(t, nd.a, nd.b) for t, nd in enumerate(G.nodes) if nd.a != nd.b]
    moves: dict = {}  # (R, S) -> the nodes across which R - S moves by > 1

    def moved(R, S):
        mask = moves.get((R, S))
        if mask is None:
            diff = tuple(map(sub, R, S))
            mask = 0
            if max(diff) - min(diff) > 1:
                for t, m, n in spans:
                    if abs(diff[m] - diff[n]) > 1:
                        mask |= 1 << t
            moves[(R, S)] = moves[(S, R)] = mask
        return mask

    def report(r1, r2, sides):
        g1, g1p, g2, g2p = sides
        rows = gg, gG, Gg, GG = (alpha[(g1, g2)], alpha[(g1, g2p)],
                                 alpha[(g1p, g2)], alpha[(g1p, g2p)])
        rest = _rest(sides, rows, r1 == r2)
        others = len(spans) - (1 if r1 == r2 else 2)
        rep = AdmissibilityReport(r1, r2, 14 * others + len(rest), (),
                                  sides, rows, G.nodes)
        wide = (moved(gg, gG) | moved(gg, Gg) | moved(gg, GG)
                | moved(gG, GG) | moved(Gg, GG))
        own = (1 << r1) | (1 << r2)
        if wide & ~own or max(map(abs, map(_value, rest))) > 1:
            rep = rep._replace(failures=tuple(i for i in rep.instances if not i.ok))
        return rep

    table = {}
    for r in G.reducible_nodes():
        nd = G.nodes[r]
        # the diagonal blowup pairs each side with the other one
        table[r] = report(r, r, (nd.a, nd.b, nd.b, nd.a))
    for ch in choices(G):
        (g1, g2), (g1p, g2p) = ch.matching
        table[ch] = report(ch.r1, ch.r2, (g1, g1p, g2, g2p))
    return table


def admissibility_check(
    G: CurveGraph, r1: int, r2: int, choice: BlowupChoice | None = None
) -> AdmissibilityReport:
    """Evaluate the admissibility inequalities at a node pair.

    For distinct nodes one of `pair_matchings(G, r1, r2)` must be supplied
    (it determines which divisor pairs are treated as intersecting); for
    r1 == r2 the diagonal pairing of the node's two sides is forced, and a
    supplied choice raises PreconditionError.
    Instances of (18), (23) and (24) whose divisor pairs do not intersect
    are not emitted.  Every value is a difference of two coefficient
    differences alpha_m - alpha_n, read directly off the twister table's
    rows.  The report is read from the graph's `_admissibility` table.
    """
    if r1 == r2:
        _node_sides(G, r1)
        if choice is not None:
            raise PreconditionError("a node paired with itself takes no matching")
        return _admissibility(G)[r1]
    if choice is None:
        raise PreconditionError("distinct nodes need a matching")
    if (min(r1, r2), max(r1, r2)) != (choice.r1, choice.r2):
        raise PreconditionError("choice does not describe this node pair")
    table = _admissibility(G)
    try:
        rep = table.get(choice)
    except TypeError:  # an unhashable matching is none of this graph's
        rep = None
    if rep is None:
        pair_matchings(G, choice.r1, choice.r2)  # a bad node raises here
        raise PreconditionError("the plan's choice is not one of this graph's")
    return rep


# -- resolution -------------------------------------------------------------


class MatchingVerdict(NamedTuple):
    choice: BlowupChoice
    points: tuple[PointVerdict, PointVerdict]

    @property
    def ok(self) -> bool:
        return self.points[0].ok and self.points[1].ok


class PairVerdict(NamedTuple):
    r1: int
    r2: int
    chosen: bool
    matchings: tuple[MatchingVerdict, ...]

    @property
    def ok(self) -> bool:
        return all(m.ok for m in self.matchings)


class ResolutionReport(NamedTuple):
    profile: str
    pairs: tuple[PairVerdict, ...]

    @property
    def resolved(self) -> bool:
        return all(p.ok for p in self.pairs)

    def failing_pairs(self) -> tuple[PairVerdict, ...]:
        return tuple(p for p in self.pairs if not p.ok)

    def describe(self, G: CurveGraph) -> dict:
        return {
            "profile": self.profile,
            "resolved": self.resolved,
            "pairs": [
                {
                    "pair": [G.nodes[p.r1].id, G.nodes[p.r2].id],
                    "chosen": p.chosen,
                    "ok": p.ok,
                    "matchings": [
                        {
                            "match": m.choice.match_names(G),
                            "ok": m.ok,
                            "points": [pt.describe(G) for pt in m.points],
                        }
                        for m in p.matchings
                    ],
                }
                for p in self.pairs
            ],
        }


def decide_resolution(
    G: CurveGraph, plan: BlowupPlan, profile: str = RECONSTRUCTED
) -> ResolutionReport:
    """Whether the plan's local choices resolve every pair of distinct
    reducible nodes.

    A chosen pair needs both distinguished points of its matching
    quasistable; an unchosen pair needs that for both matchings, since
    either refinement must remain available.  Same-node pairs and pairs
    involving loops are unconditionally resolved and carry no verdict.  The
    verdicts are read from the graph's `_point_verdicts`; a plan choice that
    is not one of G's raises PreconditionError.
    """
    table = _point_verdicts(G, profile)
    every = choices(G)
    verdicts = []
    # each pair's two matchings sit next to each other in `choices(G)`
    for first, second in zip(every[::2], every[1::2]):
        r1, r2 = first.r1, first.r2
        choice = plan.get(r1, r2)
        if choice is None:
            mats = (MatchingVerdict(first, table[first]),
                    MatchingVerdict(second, table[second]))
        elif choice in (first, second):
            mats = (MatchingVerdict(choice, table[choice]),)
        else:
            raise PreconditionError("the plan's choice is not one of this graph's")
        verdicts.append(PairVerdict(r1, r2, choice is not None, mats))
    return ResolutionReport(profile, tuple(verdicts))


# -- minimality -------------------------------------------------------------

FREE_PAIR = "free"
FORCED_PAIR = "forced"
BLOCKED_PAIR = "blocked"
# a pair's kind by the number of its matchings that pass
_KINDS = (BLOCKED_PAIR, FORCED_PAIR, FREE_PAIR)


class MinimalityReport(NamedTuple):
    profile: str
    classification: tuple  # ((r1, r2), kind, passing choices) per pair
    minimal_plan: BlowupPlan | None
    phi_t: BlowupPlan
    phi_t_minimal: bool

    def describe(self, G: CurveGraph) -> dict:
        return {
            "profile": self.profile,
            "pairs": [
                {
                    "pair": [G.nodes[r1].id, G.nodes[r2].id],
                    "kind": kind,
                    "passing": [ch.match_names(G) for ch in passing],
                }
                for (r1, r2), kind, passing in self.classification
            ],
            "minimal_plan": None
            if self.minimal_plan is None
            else self.minimal_plan.to_spec(G),
            "plan_from_tails": self.phi_t.to_spec(G),
            "plan_from_tails_minimal": self.phi_t_minimal,
        }


def minimality_probe(G: CurveGraph, profile: str = RECONSTRUCTED) -> MinimalityReport:
    """Classify every pair as free, forced or blocked and build the minimal
    resolving plan (choices exactly on the forced pairs).

    The empty plan's resolution evaluates both matchings at every pair; a
    pair is free when both pass, forced when one does, blocked when none.
    """
    classification = []
    minimal = BlowupPlan()
    blocked = False
    for pair in decide_resolution(G, BlowupPlan(), profile).pairs:
        passing = tuple(m.choice for m in pair.matchings if m.ok)
        kind = _KINDS[len(passing)]
        if kind == FORCED_PAIR:
            minimal.set(passing[0])
        blocked |= kind == BLOCKED_PAIR
        classification.append(((pair.r1, pair.r2), kind, passing))
    phi_t = plan_from_tails(G)
    phi_t_minimal = not blocked and phi_t == minimal
    return MinimalityReport(
        profile,
        tuple(classification),
        None if blocked else minimal,
        phi_t,
        phi_t_minimal,
    )
