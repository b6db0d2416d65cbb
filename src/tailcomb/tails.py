"""Nested tail families and their comparison machinery.

One engine serves both the dual graph and its subdivision: a family lives on
a CurveGraph, is anchored at an arbitrary nonempty vertex set, is the tuple
of its members (`NestedFamily`), and is grown by iterated minimum extraction
over the pool of unmarked s-tails, each with its terminal mask, that
`_pool_index` keeps once per graph with two families of bitsets over it
("holds vertex v", "terminal at node t").  The pool comes from the one
small-tail hook, `CurveGraph._unmarked_k_tails`, which `k_tails` also closes
under complement: a read of the tail table on a base graph, a closed form
derived from the base graph's pool on the subdivision (see `tailcomb.lift`).
A family's candidates are a selection, a bitset over the pool
(`_selection`): the AND of the anchors' hold sets, less, at level 3, the
members terminal at the level-2 family's nodes.  Growth (`_grow`) stays in
bitsets too: each step takes the selection's lowest index, checks with the
hold sets of the new vertices that every other candidate contains it, and
narrows by AND, so a step is a few big-int operations.  The closure lemmas
that guarantee a unique minimum at each step are enforced as runtime
assertions rather than trusted.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InvariantViolation, PreconditionError
from .graph import CurveGraph, canon_key, members, per_graph


class NestedFamily(tuple):
    """A chain of s-tails, each strictly preceding the next, as the tuple
    of its members in growth order."""

    __slots__ = ()

    @property
    def members(self) -> NestedFamily:
        """Itself, for the `nested` hook of perfbench/tracer.py only."""
        return self


@per_graph
def nested(G: CurveGraph, s: int, anchors: int) -> NestedFamily:
    """The nested family of s-tails containing the anchors, marked outside,
    as the tuple of its members.

    Each member is the unique inclusion-minimal candidate strictly preceded
    by the previous member; level 3 additionally demands freeness from every
    member of the level-2 family with the same anchors.  Minimum extraction
    asserts that the least candidate is contained in all the others, which
    turns the wedge-closure lemmas into checks.
    """
    if s not in (1, 2, 3):
        raise PreconditionError(f"level must be 1, 2 or 3, got {s}")
    if anchors == 0:
        raise PreconditionError("anchors must be nonempty")
    if anchors & ~G.full_mask:
        raise PreconditionError("anchors outside the component range")
    if (anchors >> G.marked) & 1:
        return NestedFamily(())
    return NestedFamily(_grow(G, s, _selection(G, s, anchors), anchors)[0])


def _grow(G: CurveGraph, s: int, sel: int, anchors: int) -> tuple[list[int], list[int]]:
    """The members of the level-s family drawn from the selection (a bitset
    over `_pool_index(G, s)`), in growth order, and their terminal masks,
    read from the pool; the anchors only name the family in a violation.

    `sup` holds the candidates the last member precedes (all of the
    selection at first).  Pool order is canonical, so its lowest index has
    the least size, and it is the unique minimal candidate exactly when
    every other one contains it: when `sup` lies in `above`, the AND of the
    hold sets over the member's new vertices.  The next `sup` keeps `above`
    less the member itself and the candidates terminal at one of its
    terminal nodes.  A node terminal for an earlier member has both ends in
    the next member, and so in every candidate past it; so dropping the
    candidates terminal at any member so far drops exactly those terminal
    at the last one, and `sup` stays what `precedes` keeps.
    """
    pool, hold, term = _pool_index(G, s)
    chain: list[int] = []
    terms: list[int] = []
    sup, prev = sel, 0
    while sup:
        low = sup & -sup
        z, tz = pool[low.bit_length() - 1]
        above, new = sup, z ^ prev
        while new:
            v = new & -new
            above &= hold[v.bit_length() - 1]
            new ^= v
        if above != sup:
            masks = [pool[i][0] for i in members(sup)]
            minimal = [
                z for z in masks if not any(y != z and y & z == y for y in masks)
            ]
            raise InvariantViolation(
                "no unique minimal candidate during nested-family growth",
                level=s,
                anchors=G.names_of(anchors),
                witnesses=[G.names_of(z) for z in minimal[:2]],
            )
        sup = (above ^ low) & ~_terminal_at(term, tz)
        chain.append(z)
        terms.append(tz)
        prev = z
    if s == 1 and len(chain) != sel.bit_count():
        raise InvariantViolation(
            "1-tail candidates are not totally ordered",
            anchors=G.names_of(anchors),
            chain=[G.names_of(z) for z in chain],
            candidates=[G.names_of(pool[i][0]) for i in members(sel)],
        )
    return chain, terms


def _terminal_at(term: tuple, nodes: int) -> int:
    """The pool members terminal at one of the nodes (a mask over node
    indices), as a bitset over the pool whose per-node term sets are given."""
    out = 0
    while nodes:
        low = nodes & -nodes
        out |= term[low.bit_length() - 1]
        nodes ^= low
    return out


def _selection(G: CurveGraph, s: int, anchors: int) -> int:
    """The s-tails a level-s family at the anchors is drawn from, as a bitset
    over the pool of `_pool_index(G, s)`.

    They contain the anchors and avoid the marked component; at level 3
    their terminal nodes also avoid those of the level-2 family at the same
    anchors.  The selection is the AND of the anchors' hold sets, less the
    members terminal at the blocked nodes (`_terminal_at`).
    """
    pool, hold, term = _pool_index(G, s)
    sel = (1 << len(pool)) - 1
    for v in members(anchors):
        sel &= hold[v]
    if s == 3:
        sel &= ~_terminal_at(term, family_terminals(G, 2, anchors))
    return sel


def _candidates(G: CurveGraph, s: int, anchors: int) -> list[tuple[int, int]]:
    """The members of `_selection(G, s, anchors)`, each paired with its
    terminal mask, in pool order."""
    pool = _pool_index(G, s)[0]
    return [pool[i] for i in members(_selection(G, s, anchors))]


def family_terminals(G: CurveGraph, s: int, anchors: int) -> int:
    """The nodes terminal for some member of the level-s family at the
    anchors, as a mask over node indices."""
    covered = 0
    for w in nested(G, s, anchors):
        covered |= G.term_mask(w)
    return covered


@per_graph
def _pool_index(G: CurveGraph, s: int) -> tuple[tuple, tuple, tuple]:
    """The pool every level-s family on G is drawn from, read once per
    graph: the s-tails avoiding the marked component, each with its
    terminal mask, in canonical order (`CurveGraph._unmarked_k_tails`), and
    two families of bitsets over pool indices: per vertex, the members
    holding it; per node, the members it is terminal for.  It holds one side
    of every s-tail pair, which share their terminal nodes; its readers are
    the families, the synchronization table, the subdivision's closed form,
    the level-1 diagnostic and the tail plan."""
    pool = G._unmarked_k_tails(s)
    hold = [0] * G.p
    term = [0] * len(G.nodes)
    for i, (z, tz) in enumerate(pool):
        bit = 1 << i
        while z:
            low = z & -z
            hold[low.bit_length() - 1] |= bit
            z ^= low
        while tz:
            low = tz & -tz
            term[low.bit_length() - 1] |= bit
            tz ^= low
    return pool, tuple(hold), tuple(term)


def check_components(G: CurveGraph, *indices: int) -> None:
    """Raise PreconditionError unless every index names a component of G."""
    p = len(G.names)
    for c in indices:
        if not 0 <= c < p:
            raise PreconditionError("component index out of range")


def tail_family(G: CurveGraph, g1: int, g2: int) -> tuple[int, ...]:
    """The multiset of tails attached to a component pair.

    Concatenates the two level-1 families (a tail in both is listed twice,
    and g1 == g2 doubles the level-1 family) with the level-2 and level-3
    families anchored at the pair.
    """
    check_components(G, g1, g2)
    pair_anchor = (1 << g1) | (1 << g2)
    return (
        nested(G, 1, 1 << g1)
        + nested(G, 1, 1 << g2)
        + nested(G, 2, pair_anchor)
        + nested(G, 3, pair_anchor)
    )


class SymmDiffReport(NamedTuple):
    """Symmetric difference of two same-level families sharing a component."""

    family: tuple[int, ...]
    difference_nodes: tuple[int, ...]  # node indices; empty or a pair
    condition: str  # "empty" | "condition-i" | "condition-ii"


def symm_diff(G: CurveGraph, s: int, i: int, j: int, k: int) -> SymmDiffReport:
    """Symmetric difference of the level-s families for (i, k) and (j, k).

    Requires component indices in range and i != j with at least one node
    joining them.  For s == 1 the pairwise family is read as the union of
    the two single-component level-1 families.  The report carries the
    structural classification and, at level 2, the two difference nodes
    oriented so the first lies on a node joining i and j.
    """
    check_components(G, i, j, k)
    if i == j:
        raise PreconditionError("symmetric difference needs distinct i, j")
    ij_nodes = G.joining(i, j)
    if not ij_nodes:
        raise PreconditionError(
            f"components {G.names[i]} and {G.names[j]} share no node"
        )
    sd, union = _sd_members(G, s, i, j, k)
    # the chain shape is asserted, not assumed
    for t in range(1, len(sd)):
        if sd[t - 1] & sd[t] != sd[t - 1]:
            raise InvariantViolation(
                "symmetric difference is not totally ordered by inclusion",
                level=s,
                members=[G.names_of(z) for z in sd],
            )
        if not G.term_mask(sd[t - 1]) & G.term_mask(sd[t]):
            raise InvariantViolation(
                "consecutive symmetric-difference members are not terminal",
                level=s,
                members=[G.names_of(z) for z in sd],
            )
    if not sd:
        return SymmDiffReport((), (), "empty")
    condition = _classify(G, s, i, j, k, sd, union)
    diff_nodes: tuple[int, ...] = ()
    if s == 2:
        diff_nodes = _difference_nodes(G, i, j, k, sd, ij_nodes)
    return SymmDiffReport(tuple(sd), diff_nodes, condition)


def _level_families(G, s, i, j, k) -> tuple[set, set]:
    if s == 1:
        fam_a = set(nested(G, 1, 1 << i)) | set(nested(G, 1, 1 << k))
        fam_b = set(nested(G, 1, 1 << j)) | set(nested(G, 1, 1 << k))
    else:
        fam_a = set(nested(G, s, (1 << i) | (1 << k)))
        fam_b = set(nested(G, s, (1 << j) | (1 << k)))
    return fam_a, fam_b


def _sd_members(G, s, i, j, k) -> tuple[list[int], set[int]]:
    """Raw symmetric-difference members at one level, inclusion-ordered,
    and the union of the two families."""
    fam_a, fam_b = _level_families(G, s, i, j, k)
    return sorted(fam_a ^ fam_b, key=canon_key), fam_a | fam_b


def _classify(G, s, i, j, k, sd, union) -> str:
    if s == 1:
        # A nonempty level-1 difference is a single tail terminating exactly
        # in the nodes joining i and j.
        if len(sd) != 1 or G.term_mask(sd[0]) != G.joining(i, j):
            raise InvariantViolation(
                "level-1 symmetric difference is not a single (i,j)-cut tail",
                members=[G.names_of(z) for z in sd],
            )
        return "condition-i"
    cross = (1 << i) | (1 << j)
    non_containing = [w for w in union if w & cross != cross]
    if len(non_containing) == 1 and non_containing[0] == sd[0]:
        return "condition-i"
    if s == 3:
        sd2, _ = _sd_members(G, 2, i, j, k)
        if sd2:
            zterm = G.term_mask(sd2[-1])
            hits = [w for w in union if G.term_mask(w) & zterm]
            if len(hits) == 1 and hits[0] == sd[0]:
                return "condition-ii"
    raise InvariantViolation(
        "nonempty symmetric difference satisfies neither condition",
        level=s,
        members=[G.names_of(z) for z in sd],
    )


def _difference_nodes(G, i, j, k, sd, ij_nodes) -> tuple[int, int]:
    w0, wm = sd[0], sd[-1]
    if len(sd) == 1:
        pair = members(G.term_mask(w0))
        if len(pair) != 2:
            raise InvariantViolation(
                "level-2 symmetric-difference member is not a 2-tail",
                member=G.names_of(w0),
            )
        s1, s2 = pair
    else:
        d1 = G.term_mask(w0) & ~G.term_mask(sd[1])
        d2 = G.term_mask(wm) & ~G.term_mask(sd[-2])
        if d1.bit_count() != 1 or d2.bit_count() != 1:
            raise InvariantViolation(
                "difference nodes are not unique at the chain ends",
                members=[G.names_of(z) for z in sd],
            )
        s1 = d1.bit_length() - 1
        s2 = d2.bit_length() - 1
    def in_ij(t):
        return bool((ij_nodes >> t) & 1)

    if in_ij(s2) and not in_ij(s1):
        s1, s2 = s2, s1
    elif in_ij(s1) and in_ij(s2):
        sd3, _ = _sd_members(G, 3, i, j, k)
        if sd3:
            t3 = G.term_mask(sd3[0])
            if (t3 >> s1) & 1 and not (t3 >> s2) & 1:
                s1, s2 = s2, s1
    return (s1, s2)
