import json
import random
from collections import Counter
from itertools import combinations
from operator import sub

import pytest
from hypothesis import given, settings

from conftest import choices_oracle, delta, graphs, oracle_corpus, outcome
from tailcomb.blowup import (
    AS_DISPLAYED,
    PROFILES,
    RECONSTRUCTED,
    AdmissibilityReport,
    BlowupChoice,
    BlowupPlan,
    IneqInstance,
    MatchingVerdict,
    PairVerdict,
    PointVerdict,
    ResolutionReport,
    _node_sides,
    _point_verdicts,
    admissibility_check,
    choices,
    decide_resolution,
    distinguished_points,
    is_quasistable_point,
    make_choice,
    minimality_probe,
    pair_matchings,
    plan_from_tails,
)
from tailcomb.cli import main
from tailcomb.degrees import twister
from tailcomb.errors import InvariantViolation, PreconditionError
from tailcomb.graph import CurveGraph, Node
from tailcomb.lift import is_synchronized
from tailcomb.randgen import instance_graph
from tailcomb.tails import nested


def pairs_of(G, matching):
    return sorted((G.names[x], G.names[y]) for x, y in matching)


def triple_of(G, pt):
    return sorted((G.names[x], G.names[y]) for x, y in pt.triple)


# -- choices and points ----------------------------------------------------------


def test_make_choice_normalizes(G2):
    ch = make_choice(G2, 1, 0, [(1, 1), (0, 0)])
    assert (ch.r1, ch.r2) == (0, 1)
    assert pairs_of(G2, ch.matching) == [("C1", "C1"), ("C2", "C2")]


def test_make_choice_rejects_bad_sides(G3):
    # C2 is not a side of e13, so the second coordinates cannot cover it
    with pytest.raises(PreconditionError):
        make_choice(G3, 0, 1, [(1, 1), (0, 0)])


@pytest.mark.parametrize("matching", [[("1", "2"), (0, 0)], [(1.0, 2.0), (0, 0)],
                                      [(True, 2), (0, 0)], [("x", 2), (0, 0)]])
def test_make_choice_never_coerces_a_side(G3, matching):
    # the first three once read as G3's choice [(1, 2), (0, 0)] at
    # (e12, e13), their sides cast to int, and the last ended in a bare
    # ValueError; a side is a component index, and a bool is not one
    with pytest.raises(PreconditionError, match="is not a component index"):
        make_choice(G3, 0, 1, matching)


def test_make_choice_misshapen_matching_does_not_cover(G3):
    # only a member of `pair_matchings` is a choice, so a missing, third,
    # repeated or three-sided pair fails the same way as a wrong side, in
    # either node order
    for bad in ([(1, 2), (0, 0), (1, 0)], [(1, 2), (1, 2)], [(1, 2)], [(1, 2, 0), (0, 0)]):
        for r1, r2, match in ((0, 1, bad), (1, 0, [pair[::-1] for pair in bad])):
            with pytest.raises(PreconditionError, match="does not cover the sides"):
                make_choice(G3, r1, r2, match)


@pytest.mark.parametrize("matching", [[1, 2], None, [(0, 1), 5]])
def test_make_choice_rejects_a_matching_that_is_not_pairs(G3, matching):
    # each once ended in a bare TypeError
    with pytest.raises(PreconditionError, match="is not a list of side pairs"):
        make_choice(G3, 0, 1, matching)


@pytest.mark.parametrize("matching", [[(7, 2), (0, 0)], [(1, 2), (0, -1)], [(3, 2), (0, 0)]])
def test_make_choice_side_out_of_range_is_not_a_component(G3, matching):
    # G3 has components 0..2; each once read "does not cover the sides"
    with pytest.raises(PreconditionError, match="is not a component index"):
        make_choice(G3, 0, 1, matching)


def test_uncovered_matching_is_named_as_given(capsys):
    # the error once named the sides by index and in the node order (a, b)
    assert main(["distinguished", "G2", "--pair", "b,a", "--match", "C2:C1"]) == 2
    assert capsys.readouterr().err == (
        "error: matching [['C2', 'C1']] does not cover the sides of 'b' and 'a'\n")


def test_node_indices_range_checked(G3):
    # G3 has nodes 0..3; -1 must not read as the last node, 4 must not
    # end in IndexError
    for bad in (-1, len(G3.nodes)):
        with pytest.raises(PreconditionError, match="node index out of range"):
            make_choice(G3, bad, 0, [(2, 0), (1, 1)])
        with pytest.raises(PreconditionError, match="node index out of range"):
            pair_matchings(G3, bad, 0)
        with pytest.raises(PreconditionError, match="node index out of range"):
            admissibility_check(G3, bad, bad)


def test_two_matchings(G2):
    a, b = pair_matchings(G2, 0, 1)
    assert pairs_of(G2, a.matching) == [("C1", "C1"), ("C2", "C2")]
    assert pairs_of(G2, b.matching) == [("C1", "C2"), ("C2", "C1")]


def test_distinguished_points_banana_aligned(G2):
    ch = make_choice(G2, 0, 1, [(1, 1), (0, 0)])
    a1, a2 = distinguished_points(G2, ch)
    assert {tuple(map(tuple, triple_of(G2, p))) for p in (a1, a2)} == {
        (("C1", "C1"), ("C1", "C2"), ("C2", "C2")),
        (("C1", "C1"), ("C2", "C1"), ("C2", "C2")),
    }
    # canonical labels: the repeated first and second coordinates
    for p in (a1, a2):
        firsts = [x for x, _ in p.triple]
        seconds = [y for _, y in p.triple]
        assert firsts.count(p.g1) == 2 and seconds.count(p.g2) == 2


def test_distinguished_points_g3(G3):
    ch = make_choice(G3, 0, 1, [(1, 2), (0, 0)])  # e12,e13 matched (C2,C3),(C1,C1)
    a1, a2 = distinguished_points(G3, ch)
    assert {tuple(map(tuple, triple_of(G3, p))) for p in (a1, a2)} == {
        (("C1", "C1"), ("C1", "C3"), ("C2", "C3")),
        (("C1", "C1"), ("C2", "C1"), ("C2", "C3")),
    }


def point_order_oracle(choice):
    """The triples of a choice's points 1 and 2, as `_point_labels` states
    them: with (x, y) < (x', y') the matched pairs, point 1 is the matching
    plus (x, y') and point 2 is the matching plus (x', y)."""
    (x, y), (xp, yp) = sorted(choice.matching)
    matched = frozenset(choice.matching)
    return matched | {(x, yp)}, matched | {(xp, y)}


def test_point_order_is_pinned(G1, G2, G3, G4, tmp_path, capsys):
    # which point is number 1 shows in `distinguished` and `sync --point`
    # output; reading the matching in set order instead of sorted order
    # keeps every other test green but reorders the points of about half
    # of these choices
    corpus = list(zip(("G1", "G2", "G3", "G4"), (G1, G2, G3, G4)))
    for i in range(40):
        G = instance_graph(5, i, 6, 4, True)
        path = tmp_path / f"g{i}.json"
        path.write_text(G.to_json())
        corpus.append((str(path), G))
    checked = 0
    for arg, G in corpus:
        for ch in choices(G):
            want = point_order_oracle(ch)
            pts = distinguished_points(G, ch)
            assert [pt.index for pt in pts] == [1, 2]
            assert tuple(pt.triple for pt in pts) == want
            pair = ",".join(G.nodes[r].id for r in (ch.r1, ch.r2))
            match = ",".join(":".join(m) for m in ch.match_names(G))
            assert main(["distinguished", arg, "--json",
                         "--pair", pair, "--match", match]) == 0
            points = json.loads(capsys.readouterr().out)["points"]
            assert [p["point"] for p in points] == [1, 2]
            assert [p["triple"] for p in points] == [
                sorted([G.names[x], G.names[y]] for x, y in t) for t in want]
            checked += 1
    assert checked > 700


# -- quasistable points -----------------------------------------------------------


def test_qs_point_banana(G2):
    aligned = make_choice(G2, 0, 1, [(1, 1), (0, 0)])
    crossed = make_choice(G2, 0, 1, [(1, 0), (0, 1)])
    for pt in distinguished_points(G2, aligned):
        assert is_quasistable_point(G2, pt, RECONSTRUCTED).ok
    for pt in distinguished_points(G2, crossed):
        v = is_quasistable_point(G2, pt, RECONSTRUCTED)
        assert not v.ok
        assert v.failing_pair == (1, 1)  # the (C2, C2) condition pair


def test_qs_point_profiles_disagree(G2):
    aligned = make_choice(G2, 0, 1, [(1, 1), (0, 0)])
    verdicts = [
        is_quasistable_point(G2, pt, AS_DISPLAYED).ok
        for pt in distinguished_points(G2, aligned)
    ]
    # exactly the point whose canonical corner is (C2, C1) fails as printed
    assert sorted(verdicts) == [False, True]


def test_point_verdicts_memoized_per_point_and_profile(G2):
    aligned = make_choice(G2, 0, 1, [(1, 1), (0, 0)])
    first = distinguished_points(G2, aligned)
    assert distinguished_points(G2, make_choice(G2, 1, 0, [(1, 1), (0, 0)])) is first
    # an equal point built outside the memo still hits the verdicts' memo
    again = distinguished_points.__wrapped__(G2, aligned)
    for pt, rebuilt in zip(first, again):
        assert pt is not rebuilt and pt == rebuilt
        assert is_synchronized(G2, rebuilt) is is_synchronized(G2, pt)
        for profile in (RECONSTRUCTED, AS_DISPLAYED):
            verdict = is_quasistable_point(G2, pt, profile)
            assert is_quasistable_point(G2, rebuilt, profile) is verdict
            assert verdict.profile == profile
    # the profiles disagree at one point of G2, so each keeps its own entry
    assert [is_quasistable_point(G2, pt, AS_DISPLAYED).ok for pt in again] != [
        is_quasistable_point(G2, pt, RECONSTRUCTED).ok for pt in again
    ]


def test_point_verdict_profile_is_positional_and_required(G2):
    # the memo keys on positional arguments, so a defaulted profile and an
    # explicit one would be two entries: the profile has no default
    pt = distinguished_points(G2, make_choice(G2, 0, 1, [(1, 1), (0, 0)]))[0]
    with pytest.raises(TypeError):
        is_quasistable_point(G2, pt)
    with pytest.raises(TypeError):
        is_quasistable_point(G2, pt, profile=RECONSTRUCTED)


def test_per_graph_rejects_default_arguments():
    from tailcomb.graph import per_graph

    def with_default(G, profile=RECONSTRUCTED):
        return profile

    def with_keyword_default(G, *, profile=RECONSTRUCTED):
        return profile

    for fn in (with_default, with_keyword_default):
        with pytest.raises(TypeError, match="default arguments"):
            per_graph(fn)


def test_per_graph_wraps_one_to_three_arguments(G2):
    # one wrapper per arity, so a call never packs its arguments; the keys
    # are still (fn,), (fn, a) and (fn, a, b)
    from tailcomb.graph import per_graph

    def four(G, a, b, c):
        return a

    with pytest.raises(TypeError, match="takes 4 arguments, not one to three"):
        per_graph(four)
    one, two, three = (per_graph(fn) for fn in (
        lambda G: 1, lambda G, a: a, lambda G, a, b: (a, b)))
    H = CurveGraph(G2.names, G2.nodes, G2.marked)
    assert (one(H), two(H, 2), three(H, 3, 4)) == (1, 2, (3, 4))
    assert {key[1:]: value for key, value in H._memo.items()} == {
        (): 1, (2,): 2, (3, 4): (3, 4)}
    assert [key[0] for key in H._memo] == [
        fn.__wrapped__ for fn in (one, two, three)]


def test_qs_point_g3_crossed(G3):
    ch = make_choice(G3, 0, 1, [(1, 0), (0, 2)])  # {(C2,C1),(C1,C3)}
    for pt in distinguished_points(G3, ch):
        assert not is_quasistable_point(G3, pt, RECONSTRUCTED).ok


def condition_pairs(point, profile):
    """The condition pairs of a point, written out for each profile:
    (g1, g2) and (g1', g2') reconstructed, (g1, g2) and (g1, g2') as
    displayed."""
    g1, g1p, g2, g2p = point.g1, point.g1p, point.g2, point.g2p
    return {RECONSTRUCTED: ((g1, g2), (g1p, g2p)),
            AS_DISPLAYED: ((g1, g2), (g1, g2p))}[profile]


def point_oracle(G, point, profile):
    """The verdict of one point, judged alone: the oracle of
    `_point_verdicts`, with the terminal masks of every level-2 and level-3
    family member ORed again for each point."""
    r1, r2 = point.choice.r1, point.choice.r2
    bits = (1 << r1) | (1 << r2)
    for (a, b) in condition_pairs(point, profile):
        anchors = (1 << a) | (1 << b)
        fam = nested(G, 2, anchors) + nested(G, 3, anchors)
        covered = 0
        for w in fam:
            covered |= G.term_mask(w) & bits
        if covered.bit_count() > 1:
            contributing = tuple(
                (r, tuple(w for w in fam if G.term_mask(w) & (1 << r)))
                for r in (r1, r2)
            )
            return PointVerdict(False, profile, (a, b), contributing)
    return PointVerdict(True, profile)


def table_entries(G, profile):
    """(point, verdict) for every entry of G's verdict table, whose choices
    are `choices(G)` in order."""
    table = _point_verdicts(G, profile)
    assert tuple(table) == choices(G)
    for ch, verdicts in table.items():
        yield from zip(distinguished_points(G, ch), verdicts)


def test_point_verdicts_match_oracle_corpus(G1, G2, G3, G4):
    failing = 0
    for G in (G1, G2, G3, G4) + oracle_corpus():
        for profile in PROFILES:
            for pt, verdict in table_entries(G, profile):
                assert verdict == point_oracle(G, pt, profile)
                assert is_quasistable_point(G, pt, profile) is verdict
                failing += not verdict.ok
    assert failing > 100


@settings(max_examples=100, deadline=None)
@given(graphs())
def test_point_verdicts_match_oracle_property(G):
    for profile in PROFILES:
        for pt, verdict in table_entries(G, profile):
            assert verdict == point_oracle(G, pt, profile)


def test_foreign_point_rejected(G2, G3):
    pt = distinguished_points(G3, make_choice(G3, 0, 1, [(1, 2), (0, 0)]))[0]
    foreign = [
        pt._replace(g2=pt.g2p, g2p=pt.g2),  # a relabelled point
        pt._replace(index=2),
        # a choice of another graph, whose sides G3's nodes do not have
        distinguished_points(G2, make_choice(G2, 0, 1, [(1, 1), (0, 0)]))[0],
    ]
    for point in foreign:
        for profile in PROFILES:
            with pytest.raises(PreconditionError, match="not a distinguished point"):
                is_quasistable_point(G3, point, profile)


def test_choice_is_one_value_from_every_source(G2, G3):
    # make_choice in both node orders, pair_matchings, plan_from_tails and
    # BlowupPlan.from_spec build equal choices with equal hashes, which
    # find the same verdict-table entry
    covered = 0
    for G in (G2, G3) + oracle_corpus()[:20]:
        plan = plan_from_tails(G)
        read = BlowupPlan.from_spec(G, plan.to_spec(G))
        table = _point_verdicts(G, RECONSTRUCTED)
        for (r1, r2), ch in plan.choices.items():
            pairs = sorted(ch.matching)
            same = [
                make_choice(G, r1, r2, pairs),
                make_choice(G, r2, r1, [(y, x) for x, y in pairs]),
                next(m for m in pair_matchings(G, r1, r2) if m.matching == ch.matching),
                read.get(r1, r2),
            ]
            for other in same:
                assert isinstance(other, tuple)
                assert other == ch and hash(other) == hash(ch)
                assert table[other] is table[ch]
            covered += 1
    assert covered > 50


def test_every_source_stores_the_matching_sorted(G2, G3):
    # `choices`, `make_choice` in both node orders, `plan_from_tails` and
    # `BlowupPlan.from_spec` all hand out a member of `pair_matchings`
    seen = 0
    for G in (G2, G3) + oracle_corpus()[:20]:
        plan = plan_from_tails(G)
        made = [make_choice(G, *rs, pairs)
                for ch in choices(G)
                for rs, pairs in (((ch.r1, ch.r2), ch.matching),
                                  ((ch.r2, ch.r1), [(y, x) for x, y in ch.matching]))]
        for ch in (*choices(G), *made, *plan.choices.values(),
                   *BlowupPlan.from_spec(G, plan.to_spec(G)).choices.values()):
            assert type(ch.matching) is tuple
            assert ch.matching == tuple(sorted(ch.matching))
            seen += 1
    assert seen > 500


def resolution_oracle(G, plan, profile):
    """`decide_resolution` pair by pair, each point judged by `point_oracle`."""
    pairs = []
    for r1, r2 in combinations(G.reducible_nodes(), 2):
        choice = plan.get(r1, r2)
        mats = tuple(
            MatchingVerdict(ch, tuple(point_oracle(G, pt, profile)
                                      for pt in distinguished_points(G, ch)))
            for ch in (pair_matchings(G, r1, r2) if choice is None else (choice,))
        )
        pairs.append(PairVerdict(r1, r2, choice is not None, mats))
    return ResolutionReport(profile, tuple(pairs))


def test_resolution_matches_oracle_corpus(G1, G2, G3, G4):
    for G in (G1, G2, G3, G4) + oracle_corpus():
        for plan in (BlowupPlan(), plan_from_tails(G)):
            for profile in PROFILES:
                assert (decide_resolution(G, plan, profile)
                        == resolution_oracle(G, plan, profile))


def test_resolution_rejects_a_foreign_choice(G2, G3):
    plan = BlowupPlan({(0, 1): make_choice(G2, 0, 1, [(1, 1), (0, 0)])})
    with pytest.raises(PreconditionError):
        decide_resolution(G3, plan)


# -- plan from tails ---------------------------------------------------------------


def choice_from_tails(G, r1, r2):
    """Oracle for `plan_from_tails`, one pair at a time: the matching that
    the 2- and 3-tails with both nodes terminal induce, read off a scan of
    every tail in canonical order; covering tails must agree."""
    if r1 > r2:
        r1, r2 = r2, r1
    bits = (1 << r1) | (1 << r2)
    induced = witness = None
    for w in G.tails():
        if G.k(w) not in (2, 3) or G.term_mask(w) & bits != bits:
            continue
        n1, n2 = G.nodes[r1], G.nodes[r2]
        x = n1.a if (w >> n1.a) & 1 else n1.b
        y = n2.a if (w >> n2.a) & 1 else n2.b
        xo = n1.a if n1.b == x else n1.b
        yo = n2.a if n2.b == y else n2.b
        cand = BlowupChoice(r1, r2, tuple(sorted(((x, y), (xo, yo)))))
        if induced is None:
            induced, witness = cand, w
        elif cand.matching != induced.matching:
            raise InvariantViolation(
                "covering tails induce conflicting matchings",
                pair=(G.nodes[r1].id, G.nodes[r2].id),
                tails=[list(G.names_of(witness)), list(G.names_of(w))],
            )
    return induced


def plan_oracle(G):
    plan = BlowupPlan()
    for r1, r2 in combinations(G.reducible_nodes(), 2):
        ch = choice_from_tails(G, r1, r2)
        if ch is not None:
            plan.set(ch)
    return plan


def assert_plan_matches_oracle(G):
    plan, oracle = plan_from_tails(G), plan_oracle(G)
    assert plan == oracle
    assert list(plan.choices) == list(oracle.choices)


def test_choice_from_tails_examples(G2, G3):
    ch = choice_from_tails(G2, 0, 1)
    assert pairs_of(G2, ch.matching) == [("C1", "C1"), ("C2", "C2")]
    ch = choice_from_tails(G3, 0, 2)  # (e12, f)
    assert pairs_of(G3, ch.matching) == [("C1", "C3"), ("C2", "C2")]
    ch = choice_from_tails(G3, 2, 3)  # (f, g)
    assert pairs_of(G3, ch.matching) == [("C2", "C2"), ("C3", "C3")]
    ch = choice_from_tails(G3, 0, 1)  # (e12, e13)
    assert pairs_of(G3, ch.matching) == [("C1", "C1"), ("C2", "C3")]


def test_choice_from_tails_none_when_uncovered():
    from tailcomb.graph import CurveGraph, Node

    # path C1 - C2 - C3, marked C2: no 2/3-tail covers both bridges
    path = CurveGraph(["C1", "C2", "C3"], [Node("a", 0, 1), Node("b", 1, 2)], 1)
    assert choice_from_tails(path, 0, 1) is None


def test_plan_from_tails_matches_oracle_fixtures(G1, G2, G3, G4):
    for G in (G1, G2, G3, G4):
        assert_plan_matches_oracle(G)


def test_plan_from_tails_matches_oracle_corpus():
    covered = 0
    for i in range(420):
        G = instance_graph(41, i, 7, 5, i % 2 == 0)
        assert_plan_matches_oracle(G)
        covered += len(plan_from_tails(G))
    assert covered > 1000  # the corpus exercises many coverable pairs


@settings(max_examples=100, deadline=None)
@given(graphs())
def test_plan_from_tails_matches_oracle_property(G):
    assert_plan_matches_oracle(G)


def test_plan_from_tails_conflict_names_lowest_pair(G3, monkeypatch):
    # Claim that f is terminal on the 2-tail {C2,C3}: on the pair (e13, f)
    # that tail pairs C3 with C2, while {C3} and {C1,C2} pair C3 with C3.
    # The error names the lowest conflicting pair and its first two
    # disagreeing tails in canonical order, as the per-pair oracle does.
    # The claim goes into G's tail table, which the pool reads, and into
    # term_mask, which the report and the oracle read.
    G = CurveGraph(G3.names, G3.nodes, G3.marked)
    G.k_tails(2), G.k_tails(3)
    w0, f = G.subcurve(["C2", "C3"]), 1 << G.node_index("f")
    key = (CurveGraph.tail_table.__wrapped__,)
    masks, terms = G._memo[key]
    i = masks.index(w0)
    G._memo[key] = masks, terms[:i] + (terms[i] | f,) + terms[i + 1:]
    term_mask = CurveGraph.term_mask

    def miscounted(self, mask):
        t = term_mask(self, mask)
        return t | f if self is G and mask == w0 else t

    monkeypatch.setattr(CurveGraph, "term_mask", miscounted)
    with pytest.raises(InvariantViolation, match="conflicting") as exc:
        plan_from_tails(G)
    assert exc.value.witnesses == {
        "pair": ("e13", "f"), "tails": [["C3"], ["C2", "C3"]]
    }
    with pytest.raises(InvariantViolation) as expected:
        plan_oracle(G)
    assert exc.value.witnesses == expected.value.witnesses


def test_plan_round_trip(G3):
    plan = plan_from_tails(G3)
    spec = plan.to_spec(G3)
    again = BlowupPlan.from_spec(G3, json.loads(json.dumps(spec)))
    assert again == plan


# -- admissibility ------------------------------------------------------------------


def test_admissibility_banana_values(G2):
    ch = make_choice(G2, 0, 1, [(1, 1), (0, 0)])
    rep = admissibility_check(G2, 0, 1, ch)
    assert rep.ok
    vals = {(i.ineq, i.args): i.value for i in rep.instances}
    # indices: C1=0, C2=1; the worked instances
    assert vals[(19, (1, 0, 1, 0))] == 1
    assert vals[(21, (1, 0, 1, 0))] == 0


def test_admissibility_diagonal(G4):
    rep = admissibility_check(G4, 0, 0)
    assert rep.ok
    assert {i.ineq for i in rep.instances} == {25}
    assert all(i.value == 0 for i in rep.instances)


def test_admissibility_needs_matching(G2):
    with pytest.raises(PreconditionError):
        admissibility_check(G2, 0, 1)


def test_admissibility_rejects_a_foreign_choice(G3):
    # a matching of another graph at the same node indices: it names a
    # fourth component, which G3 lacks, and once ended in a KeyError
    H = CurveGraph(["C1", "C2", "C3", "C4"],
                   [Node("x", 0, 3), Node("y", 0, 1), Node("z", 1, 2)], 0)
    with pytest.raises(PreconditionError, match="not one of this graph's"):
        admissibility_check(G3, 0, 1, pair_matchings(H, 0, 1)[0])


def test_admissibility_rejects_another_pairs_matching(G3):
    # G3's matching at nodes (0, 2), relabelled as nodes (0, 1): it once
    # returned a report for sides the pair does not have
    m = pair_matchings(G3, 0, 2)[0].matching
    with pytest.raises(PreconditionError, match="not one of this graph's"):
        admissibility_check(G3, 0, 1, BlowupChoice(0, 1, m))


def test_admissibility_rejects_a_choice_on_the_diagonal(G3):
    # a pair's matching passed with one node twice once returned that
    # node's diagonal report
    ch = pair_matchings(G3, 0, 1)[0]
    for r in G3.reducible_nodes():
        with pytest.raises(PreconditionError, match="takes no matching"):
            admissibility_check(G3, r, r, ch)


def admissibility_oracle(G, r1, r2, choice=None):
    """`admissibility_check` with every value a difference of two
    `delta` calls and the intersection gate tested per instance."""
    diagonal = r1 == r2
    if diagonal:
        g1, g1p = _node_sides(G, r1)
        g2, g2p = g1p, g1
        matched = frozenset(((g1, g2), (g1p, g2p)))
        if choice is not None:
            raise PreconditionError("a node paired with itself takes no matching")
    else:
        if choice is None:
            raise PreconditionError("distinct nodes need a matching")
        if (min(r1, r2), max(r1, r2)) != (choice.r1, choice.r2):
            raise PreconditionError("choice does not describe this node pair")
        r1, r2 = choice.r1, choice.r2
        (g1, g2), (g1p, g2p) = sorted(choice.matching)
        matched = frozenset(choice.matching)
    triples = (matched | {(g1, g2p)}, matched | {(g1p, g2)})

    def gate(pa, pb):
        return (pa[0] == pb[0] or pa[1] == pb[1]
                or any(pa in t and pb in t for t in triples))

    out = []

    def emit(ineq, args, value):
        out.append(IneqInstance(ineq, args, value, abs(value) <= 1))

    for t, nd in enumerate(G.nodes):
        if nd.is_loop or t in (r1, r2):
            continue
        for a in (g1, g1p):
            for ap in (g1, g1p):
                for b in (g2, g2p):
                    for bp in (g2, g2p):
                        if gate((a, b), (ap, bp)):
                            emit(18, (nd.id, a, ap, b, bp),
                                 delta(G, a, b, nd.a, nd.b)
                                 - delta(G, ap, bp, nd.a, nd.b))
    if not diagonal:
        for a, ap in ((g1, g1p), (g1p, g1)):
            for b, bp in ((g2, g2p), (g2p, g2)):
                q = (a, ap, b, bp)
                emit(19, q, delta(G, a, b, a, ap) - delta(G, a, bp, a, ap))
                emit(20, q, delta(G, a, b, b, bp) - delta(G, ap, b, b, bp))
                emit(21, q, delta(G, a, b, a, ap) - delta(G, ap, b, a, ap) - 1)
                emit(22, q, delta(G, a, b, b, bp) - delta(G, a, bp, b, bp) - 1)
                if gate((a, b), (ap, bp)):
                    emit(23, q,
                         delta(G, a, b, a, ap) - delta(G, ap, bp, a, ap) - 1)
                    emit(24, q,
                         delta(G, a, b, b, bp) - delta(G, ap, bp, b, bp) - 1)
    else:
        for a, ap in ((g1, g1p), (g1p, g1)):
            emit(25, (a, ap), delta(G, a, a, a, ap) - delta(G, a, ap, a, ap) - 1)
    return min(r1, r2), max(r1, r2), tuple(out)


def assert_report_is(rep, expected):
    """The report holds the oracle's node pair and instances (in order),
    and its count, failures (in order) and verdict follow from them."""
    r1, r2, instances = expected
    assert type(rep) is AdmissibilityReport and (rep.r1, rep.r2) == (r1, r2)
    assert rep.count == len(instances)
    assert rep.failures == tuple(i for i in instances if not i.ok)
    assert rep.ok == all(i.ok for i in instances)
    assert rep.instances == instances
    assert all(type(i) is IneqInstance for i in rep.instances)


def assert_admissibility_matches_oracle(G):
    """Equal reports or equal errors: at every node (loops raise), at every
    pair of reducible nodes under both matchings, without a matching, and
    with a matching of another pair, and at every node with a pair's
    matching; returns the number of instances compared."""
    calls = [(r, r) for r in range(len(G.nodes))]
    red = G.reducible_nodes()
    if len(red) >= 2:
        ch = pair_matchings(G, red[0], red[1])[0]
        calls += [(r, r, ch) for r in range(len(G.nodes))]
    for r1, r2 in combinations(red, 2):
        calls.append((r2, r1))
        calls += [(r1, r2, ch) for ch in pair_matchings(G, r1, r2)]
    if len(red) >= 3:
        calls.append((red[0], red[2], pair_matchings(G, red[0], red[1])[0]))
    n = 0
    for args in calls:
        got = outcome(admissibility_check, G, *args)
        want = outcome(admissibility_oracle, G, *args)
        if isinstance(got, AdmissibilityReport):
            assert_report_is(got, want)
            n += got.count
        else:
            assert got == want
    return n


def test_admissibility_matches_oracle_fixtures(G1, G2, G3, G4):
    for G in (G1, G2, G3, G4):
        assert_admissibility_matches_oracle(G)


def test_admissibility_matches_oracle_corpus():
    compared = sum(assert_admissibility_matches_oracle(G) for G in oracle_corpus())
    assert compared > 100_000


@settings(max_examples=100, deadline=None)
@given(graphs())
def test_admissibility_matches_oracle_property(G):
    assert_admissibility_matches_oracle(G)


def test_admissibility_failures_match_oracle(G3):
    # No real graph fails, so a copy of G3 gets a table whose (C1, C2) row
    # reads (0, 2, 2) instead of (0, 0, 0).  Against the (C2, C3) row,
    # (0, 1, 1), it then differs by a range of 1, where every (18) instance
    # passes unscanned; against the (C1, C1) row by a range of 2, which
    # fails across the nodes joining C1 to C2 and C3.  The check and the
    # oracle read the same table from the memo.
    G = CurveGraph(G3.names, G3.nodes, G3.marked)
    alpha = dict(twister(G3))
    alpha[(0, 1)] = alpha[(1, 0)] = (0, 2, 2)
    G._memo[(twister.__wrapped__,)] = alpha
    spans, failing = set(), set()
    calls = [(r, r) for r in range(len(G.nodes))] + [
        (r1, r2, ch) for r1, r2 in combinations(G.reducible_nodes(), 2)
        for ch in pair_matchings(G, r1, r2)]
    for args in calls:
        rep = admissibility_check(G, *args)
        assert_report_is(rep, admissibility_oracle(G, *args))
        # the report's rows are those of (g1, g2), (g1, g2'), (g1', g2) and
        # (g1', g2'); (18) compares every two of them but the cross pair
        for i, j in ((0, 1), (0, 2), (0, 3), (1, 3), (2, 3)):
            diff = list(map(sub, rep.rows[i], rep.rows[j]))
            spans.add(max(diff) - min(diff))
        failing |= {i.ineq for i in rep.failures}
    assert {1, 2} <= spans
    assert failing == set(range(18, 26))
    e12 = G.node_index("e12")
    assert [(i.ineq, i.args, i.value)
            for i in admissibility_check(G, e12, e12).failures] == [
        (18, ("e13", 0, 0, 1, 0), -2), (18, ("e13", 0, 0, 0, 1), 2),
        (18, ("e13", 0, 1, 0, 0), 2), (18, ("e13", 1, 0, 0, 0), -2),
        (25, (1, 0), -2),
    ]


def planted(G, rng):
    """A copy of G whose twister table has two rows moved by up to 1 per
    coefficient (both orders of each pair alike), planted in its memo: small
    moves, so that one compared row pair alone can make an entry fail."""
    H = CurveGraph(G.names, G.nodes, G.marked)
    alpha = dict(twister(G))
    for g, h in rng.sample(sorted(k for k in alpha if k[0] <= k[1]), 2):
        row = tuple(v + rng.randint(-1, 1) for v in alpha[(g, h)])
        alpha[(g, h)] = alpha[(h, g)] = row
    H._memo[(twister.__wrapped__,)] = alpha
    return H


def test_admissibility_matches_oracle_on_planted_tables():
    # No real graph fails, so every corpus graph gets a table with two moved
    # rows, and each report must equal the oracle's.  The draws reach an
    # entry whose (18) failures lie across one third node while a compared
    # row pair also moves by more than 1 across r1 or r2 (which the check
    # must not count), a compared row pair that spans more than 1 with no
    # failing node, and failing diagonal entries.
    rng = random.Random(32)
    third = wide_passing = diagonal = 0
    for G in oracle_corpus():
        if G.p < 2 or len(G.reducible_nodes()) < 2:
            continue
        H = planted(G, rng)
        assert_admissibility_matches_oracle(H)
        entries = [(r, r, None) for r in H.reducible_nodes()]
        entries += [(ch.r1, ch.r2, ch) for ch in choices(H)]
        for r1, r2, ch in entries:
            rep = admissibility_check(H, r1, r2, ch)
            failing = {i.args[0] for i in rep.failures if i.ineq == 18}
            diffs = [list(map(sub, rep.rows[i], rep.rows[j]))
                     for i, j in ((0, 1), (0, 2), (0, 3), (1, 3), (2, 3))]
            own = [H.nodes[r] for r in {r1, r2}]
            if len(failing) == 1 and any(abs(d[nd.a] - d[nd.b]) > 1
                                         for d in diffs for nd in own):
                third += 1
            if not failing and any(max(d) - min(d) > 1 for d in diffs):
                wide_passing += 1
            diagonal += r1 == r2 and not rep.ok
    assert min(third, wide_passing, diagonal) > 0, (third, wide_passing, diagonal)


# -- resolution ----------------------------------------------------------------------


def test_resolution_fixtures(G3):
    assert decide_resolution(G3, plan_from_tails(G3)).resolved
    empty = decide_resolution(G3, BlowupPlan())
    assert not empty.resolved
    failing = empty.failing_pairs()
    assert [(G3.nodes[p.r1].id, G3.nodes[p.r2].id) for p in failing] == [
        ("e12", "e13")
    ]
    phi_s = BlowupPlan()
    phi_s.set(make_choice(G3, 0, 1, [(1, 2), (0, 0)]))
    assert decide_resolution(G3, phi_s).resolved


def test_resolution_as_displayed_fails_on_banana(G2):
    plan = plan_from_tails(G2)
    assert decide_resolution(G2, plan, RECONSTRUCTED).resolved
    assert not decide_resolution(G2, plan, AS_DISPLAYED).resolved


def test_resolution_no_pairs(G1, G4):
    for G in (G1, G4):
        assert decide_resolution(G, BlowupPlan()).resolved


# -- minimality ----------------------------------------------------------------------


def test_minimality_g3(G3):
    rep = minimality_probe(G3)
    assert [(p, kind) for p, kind, _ in rep.classification if kind != "free"] == [
        ((0, 1), "forced")
    ]
    phi_s = BlowupPlan()
    phi_s.set(make_choice(G3, 0, 1, [(1, 2), (0, 0)]))
    assert rep.minimal_plan == phi_s
    assert not rep.phi_t_minimal


def test_minimality_banana(G2):
    rep = minimality_probe(G2)
    assert [(p, kind) for p, kind, _ in rep.classification] == [((0, 1), "forced")]
    ch = rep.minimal_plan.get(0, 1)
    assert pairs_of(G2, ch.matching) == [("C1", "C1"), ("C2", "C2")]
    assert rep.phi_t_minimal  # the single forced pair carries the same choice


def test_minimality_single_node(G4):
    rep = minimality_probe(G4)
    assert rep.classification == ()
    assert rep.phi_t_minimal


def minimality_oracle(G, profile):
    """`minimality_probe`'s classification, minimal plan and plan-from-tails
    verdict, read pair by pair off both matchings' distinguished points."""
    classification = []
    minimal = BlowupPlan()
    for r1, r2 in combinations(G.reducible_nodes(), 2):
        passing = tuple(
            ch for ch in pair_matchings(G, r1, r2)
            if all(is_quasistable_point(G, pt, profile).ok
                   for pt in distinguished_points(G, ch))
        )
        kind = {2: "free", 1: "forced", 0: "blocked"}[len(passing)]
        if kind == "forced":
            minimal.set(passing[0])
        classification.append(((r1, r2), kind, passing))
    blocked = any(kind == "blocked" for _, kind, _ in classification)
    phi_t_minimal = not blocked and plan_from_tails(G) == minimal
    return tuple(classification), None if blocked else minimal, phi_t_minimal


def test_minimality_matches_oracle_corpus(G1, G2, G3, G4):
    seen = Counter()
    for G in (G1, G2, G3, G4) + oracle_corpus():
        assert choices(G) == choices_oracle(G)
        for profile in PROFILES:
            rep = minimality_probe(G, profile)
            got = (rep.classification, rep.minimal_plan, rep.phi_t_minimal)
            assert got == minimality_oracle(G, profile)
            seen.update(kind for _, kind, _ in rep.classification)
            seen[rep.phi_t_minimal] += 1
    # every kind and both plan-from-tails verdicts occur
    assert all(seen[key] > 20 for key in ("free", "forced", "blocked", True, False))


def test_no_blocked_pairs_reconstructed_fuzz():
    from tailcomb.randgen import instance_graph

    for i in range(30):
        G = instance_graph(31, i, 5, 3, True)
        rep = minimality_probe(G, RECONSTRUCTED)
        assert all(kind != "blocked" for _, kind, _ in rep.classification)


def test_matching_points_share_condition_pairs_fuzz():
    # under the default profile the two points of one matching carry the
    # same condition-pair set, hence the same quasistability status
    from tailcomb.randgen import instance_graph
    from itertools import combinations

    for i in range(30):
        G = instance_graph(32, i, 5, 3, True)
        for r1, r2 in combinations(G.reducible_nodes(), 2):
            for ch in pair_matchings(G, r1, r2):
                a1, a2 = distinguished_points(G, ch)
                assert set(condition_pairs(a1, RECONSTRUCTED)) == set(
                    condition_pairs(a2, RECONSTRUCTED)
                )
                assert (
                    is_quasistable_point(G, a1, RECONSTRUCTED).ok
                    == is_quasistable_point(G, a2, RECONSTRUCTED).ok
                )
