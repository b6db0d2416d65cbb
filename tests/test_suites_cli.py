import gc
import json
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from conftest import graphs
from tailcomb import cli, degrees, suites
from tailcomb.blowup import (PROFILES, RECONSTRUCTED, AdmissibilityReport, choices,
                             distinguished_points, is_quasistable_point,
                             minimality_probe, plan_from_tails)
from tailcomb.cli import main
from tailcomb.errors import PreconditionError, RepresentativeNotFound
from tailcomb.fixtures import fixture
from tailcomb.graph import CurveGraph, Node, members, validate, write_json
from tailcomb.lift import is_synchronized, one_tail_diagnostic
from tailcomb.randgen import child_rng, instance_graph, random_graph
from tailcomb.suites import (
    ALL_SUITES,
    SuiteConfig,
    SUITES,
    replay,
    run_suite,
    suite_thm64,
)


# -- generator -----------------------------------------------------------------


def test_generator_deterministic():
    g1 = instance_graph(7, 3, 6, 4, True)
    g2 = instance_graph(7, 3, 6, 4, True)
    assert g1 == g2
    assert instance_graph(7, 4, 6, 4, True) != g1 or True  # streams differ freely


def test_generator_bounds():
    for i in range(40):
        G = instance_graph(11, i, 4, 2, False)
        assert 1 <= G.p <= 4
        assert all(not nd.is_loop for nd in G.nodes)
        assert len(G.nodes) <= (G.p - 1) + 2
        assert G.connected(G.full_mask)


def test_generator_single_component_loops():
    rng = child_rng(5, 0)
    G = random_graph(rng, max_components=1, max_extra_edges=3, allow_loops=True)
    assert G.p == 1
    assert all(nd.is_loop for nd in G.nodes)


def test_generator_two_component_outcomes():
    # with two components, no loops and at most one extra edge, the only
    # shapes are the single bridge and the double edge
    seen = set()
    for i in range(60):
        rng = child_rng(21, i)
        G = random_graph(rng, max_components=2, max_extra_edges=1,
                         allow_loops=False)
        if G.p != 2:
            continue
        assert all(not nd.is_loop for nd in G.nodes)
        seen.add(len(G.nodes))
    assert seen == {1, 2}


def test_child_rng_stream_is_pinned():
    # the SHA-256 that derives child seeds may come from any module, but
    # never changes a stream: these values were drawn with `hashlib`'s
    assert child_rng(1, "degree").random() == 0.3745413849042002
    assert child_rng(5, 3).random() == 0.5612048055784049
    assert child_rng(1, "7:prop-31").random() == 0.2903022731892775


# -- runner ---------------------------------------------------------------------


def test_run_suite_empty_config():
    rep = run_suite(SuiteConfig(instances=0))
    assert rep.ok
    assert all(rep.checks[s] == 0 for s in ALL_SUITES)


def test_run_suite_deterministic_json():
    cfg = dict(seed=3, instances=4, suites=("closure-22/23", "prop-31"))
    a = run_suite(SuiteConfig(**cfg)).to_json(include_timing=False)
    b = run_suite(SuiteConfig(**cfg)).to_json(include_timing=False)
    assert a == b


def test_unknown_suite_rejected():
    with pytest.raises(Exception):
        SuiteConfig(suites=("no-such-suite",))


@pytest.mark.parametrize("field, values", [
    ("seed", [1.5, "1", True]),
    ("instances", [2.5, "3", False]),
    ("max_components", [2.5, "3", True]),
    ("max_extra_edges", [1.0, "2", True]),
    ("jobs", [1.0, "2", True]),
    ("allow_loops", [1, 0, "yes", None]),
])
def test_suite_config_rejects_wrong_types(field, values):
    # the counts are ints and not bools, allow_loops is a bool, and nothing
    # is coerced: a float, a string or a bool never reaches `range`,
    # `randrange` or the pool, and no value runs as something else
    for value in values:
        with pytest.raises(PreconditionError, match=f"^{field} must be an? "):
            SuiteConfig(**{field: value})
    default = SuiteConfig()
    assert SuiteConfig(**{field: getattr(default, field)}) == default


def test_parallel_matches_serial():
    base = dict(seed=2, instances=6, suites=("prop-31", "thm-64-resolution"))
    serial = run_suite(SuiteConfig(**base)).to_dict(include_timing=False)
    parallel = run_suite(SuiteConfig(jobs=2, **base)).to_dict(include_timing=False)
    assert serial["suites"] == parallel["suites"]
    assert serial["ok"] == parallel["ok"]


def test_expected_failure_dump_and_replay(G2):
    # the as-displayed profile is the documented discrepancy: the resolution
    # suite must fail on the banana and the dump must replay to the same
    checks, bad = suite_thm64(G2, None, "as-displayed")
    assert bad, "expected the displayed profile to fail on the banana"
    dump = {
        "suite": "thm-64-resolution",
        "instance": 0,
        "seed": 1,
        "profile": "as-displayed",
        "graph": G2.to_spec(),
        "context": bad[0],
    }
    rep = replay(dump)
    assert not rep.ok
    again = rep.violations["thm-64-resolution"][0]["context"]
    assert again["failing_pairs"] == bad[0]["failing_pairs"]


def test_crashing_suite_becomes_replayable_violation(monkeypatch):
    def crash(G, rng, profile):
        return 1 // 0

    cfg = dict(seed=2, instances=3,
               suites=("closure-22/23", "prop-31", "thm-64-resolution"))
    healthy = run_suite(SuiteConfig(**cfg))
    monkeypatch.setitem(SUITES, "prop-31", crash)
    rep = run_suite(SuiteConfig(**cfg))
    for s in ("closure-22/23", "thm-64-resolution"):
        assert rep.checks[s] == healthy.checks[s] > 0
        assert rep.violations[s] == healthy.violations[s] == []
    bad = rep.violations["prop-31"]
    assert rep.checks["prop-31"] == 3
    assert [(v["suite"], v["instance"], v["seed"]) for v in bad] == [
        ("prop-31", i, 2) for i in range(3)
    ]
    assert bad[1]["context"] == {
        "check": "prop-31",
        "error": "ZeroDivisionError: integer division or modulo by zero",
    }
    assert bad[1]["graph"] == instance_graph(2, 1, 6, 4, True).to_spec()
    again = replay(bad[1])
    assert again.violations["prop-31"] == [bad[1]]


def test_all_suites_green_small_batch():
    rep = run_suite(SuiteConfig(seed=9, instances=6))
    assert rep.ok, rep.to_json()


# The check counts of `run_suite(SuiteConfig(seed=1, instances=10))`
DEFAULT_CHECKS = {
    "closure-22/23": 275, "prop-31": 615, "thm-24-oracle": 74,
    "lemma-35": 172, "thm-36-admissibility": 5284, "lemma-61": 164,
    "prop-62": 302, "thm-63-pairwise": 82, "thm-64-resolution": 10,
    "qs-uniqueness": 44,
}


def test_run_suite_check_counts_pinned():
    # Counts measured before the sync suites shared one per-graph point list;
    # a point list any suite could exhaust would leave the others at 0.
    default = run_suite(SuiteConfig(seed=1, instances=10))
    assert default.ok
    assert default.checks == DEFAULT_CHECKS
    sync = run_suite(SuiteConfig(
        seed=1, instances=10, max_components=8, max_extra_edges=5,
        suites=("lemma-61", "prop-62", "thm-63-pairwise"),
    ))
    assert sync.ok
    assert sync.checks == {"lemma-61": 636, "prop-62": 1218, "thm-63-pairwise": 318}


def test_admissibility_counts_without_enumerating_instances(monkeypatch):
    # The admissibility table counts in closed form and screens for
    # failures, so on graphs where nothing fails no report enumerates its
    # instances: a run with enumeration disabled keeps the pinned counts.
    def refuse(self):
        raise AssertionError("admissibility instances enumerated")

    monkeypatch.setattr(AdmissibilityReport, "instances", property(refuse))
    default = run_suite(SuiteConfig(seed=1, instances=10))
    assert default.ok
    assert default.checks == DEFAULT_CHECKS


# -- relabelling -----------------------------------------------------------------


def relabelled(G, rng):
    """G with its component indices permuted (names follow), its node order
    shuffled and each node's two ends swapped at random, with the map from
    G's component indices to the copy's."""
    perm = list(range(G.p))
    rng.shuffle(perm)
    names = [""] * G.p
    for m, name in enumerate(G.names):
        names[perm[m]] = name
    nodes = []
    for nd in G.nodes:
        ends = (perm[nd.a], perm[nd.b])
        nodes.append(Node(nd.id, *(ends[::-1] if rng.random() < 0.5 else ends)))
    rng.shuffle(nodes)
    return CurveGraph(names, nodes, perm[G.marked]), perm


def test_relabelling_keeps_tails_and_suite_counts():
    # Relabelling is an isomorphism: the tails correspond, and every suite
    # makes as many checks and finds as many violations on either copy.
    rng = random.Random(7)
    for i in range(50):
        G = instance_graph(11, i, 6, 4, True)
        H, perm = relabelled(G, rng)
        moved = sorted(sum(1 << perm[m] for m in members(w)) for w in G.tails())
        assert moved == sorted(H.tails())
        for profile in PROFILES:
            for name in ALL_SUITES:
                (n, bad), (n2, bad2) = (suites._check(X, name, 1, i, profile)
                                        for X in (G, H))
                assert (n, len(bad)) == (n2, len(bad2)), (i, profile, name)


def minimality_kinds(G, profile):
    """Each pair's minimality kind, keyed by the pair's node ids."""
    return {(G.nodes[r1].id, G.nodes[r2].id): kind
            for (r1, r2), kind, _ in minimality_probe(G, profile).classification}


def choice_by_name(G, ch):
    """A choice as the pair of its node ids in id order and its side pairs
    by component name, read in that order."""
    ids, match = (G.nodes[ch.r1].id, G.nodes[ch.r2].id), ch.match_names(G)
    if ids[0] > ids[1]:
        ids, match = ids[::-1], [pair[::-1] for pair in match]
    return ids, tuple(sorted(map(tuple, match)))


def tail_plan_by_name(G):
    """`plan_from_tails(G)` keyed by the pair of node ids in id order, each
    choice as its side pairs by component name (`choice_by_name`)."""
    return dict(choice_by_name(G, ch) for ch in plan_from_tails(G).choices.values())


def point_values_by_name(G):
    """Per choice, keyed by `choice_by_name`, the multisets over its two
    points of the quasistability verdict under each profile, of
    synchronization and of the level-1 diagnostic's pass; multisets, since
    the two points of a choice may swap under relabelling."""
    out = {}
    for ch in choices(G):
        values = [(*(is_quasistable_point(G, pt, prof).ok for prof in PROFILES),
                   is_synchronized(G, pt).synchronized, not one_tail_diagnostic(G, pt))
                  for pt in distinguished_points(G, ch)]
        out[choice_by_name(G, ch)] = [sorted(col) for col in zip(*values)]
    return out


def assert_relabelling_keeps_values(G, H, perm):
    """Relation 1 on values: with perm the map from G's component indices to
    H's, the twister rows, each pair's minimality kind (keyed by its node ids,
    in either order) under both profiles, the tail plan and each choice's
    point values (`point_values_by_name`) correspond."""
    moved = sorted(sum(1 << perm[m] for m in members(w)) for w in G.tails())
    assert moved == sorted(H.tails())
    alpha, beta = degrees.twister(G), degrees.twister(H)
    for (g1, g2), row in alpha.items():
        assert [beta[(perm[g1], perm[g2])][perm[m]] for m in range(G.p)] == list(row)
    for profile in PROFILES:
        kinds = [{frozenset(ids): kind for ids, kind in minimality_kinds(X, profile).items()}
                 for X in (G, H)]
        assert kinds[0] == kinds[1], profile
    assert tail_plan_by_name(G) == tail_plan_by_name(H)
    assert point_values_by_name(G) == point_values_by_name(H)


def test_relabelling_keeps_twister_minimality_and_tail_plan():
    rng = random.Random(7)
    for i in range(50):
        G = instance_graph(11, i, 6, 4, True)
        assert_relabelling_keeps_values(G, *relabelled(G, rng))


@settings(max_examples=100, deadline=None)
@given(graphs(), st.randoms(use_true_random=False))
def test_relabelling_property(G, rng):
    H, perm = relabelled(G, rng)
    assert_relabelling_keeps_values(G, H, perm)
    for profile in PROFILES:
        for name in ALL_SUITES:
            (n, bad), (n2, bad2) = (suites._check(X, name, 1, 0, profile) for X in (G, H))
            assert (n, len(bad)) == (n2, len(bad2)), (profile, name)


def test_deleting_loops_keeps_tails_twister_and_minimality():
    # A loop is never terminal, so deleting every loop changes no tail, no
    # twister row and no pair's minimality kind (its node indices shift, its
    # ids do not).
    with_loops = 0
    for i in range(400):
        G = instance_graph(4, i, 7, 5, True)
        kept = [nd for nd in G.nodes if not nd.is_loop]
        if len(kept) == len(G.nodes):
            continue
        with_loops += 1
        H = CurveGraph(G.names, kept, G.marked)
        assert H.tails() == G.tails(), i
        assert degrees.twister(H) == degrees.twister(G), i
        for profile in PROFILES:
            assert minimality_kinds(H, profile) == minimality_kinds(G, profile), (i, profile)
    assert with_loops == 204


@settings(max_examples=100, deadline=None)
@given(graphs(), st.lists(st.integers(0, 4), min_size=1, max_size=3),
       st.randoms(use_true_random=False))
def test_loop_deletion_property(G, ends, rng):
    # Relation 2 on a drawn graph given at least one more loop, each at a
    # random place in the node order.
    nodes = list(G.nodes)
    for t, m in enumerate(ends):
        nodes.insert(rng.randrange(len(nodes) + 1), Node(f"l{t}", m % G.p, m % G.p))
    L = CurveGraph(G.names, nodes, G.marked)
    H = CurveGraph(G.names, [nd for nd in nodes if not nd.is_loop], G.marked)
    assert H.tails() == L.tails()
    assert degrees.twister(H) == degrees.twister(L)
    for profile in PROFILES:
        assert minimality_kinds(H, profile) == minimality_kinds(L, profile), profile


# -- CLI ------------------------------------------------------------------------


def test_cli_validate_and_tails(tmp_path, capsys):
    g3 = tmp_path / "g3.json"
    assert main(["fixture", "G3"]) == 0
    g3.write_text(capsys.readouterr().out)
    assert main(["validate", str(g3)]) == 0
    capsys.readouterr()
    assert main(["tails", str(g3), "--k", "2", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["tails"] == [["C1"], ["C2", "C3"]]


def test_cli_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"components": ["C1", "C2"], "marked": "C1", "nodes": []}')
    assert main(["validate", str(bad)]) == 2
    assert main(["qs-check", "G2", "not-json"]) == 2


def test_cli_resolve_exit_codes(tmp_path, capsys):
    assert main(["resolve", "G3"]) == 1
    out = capsys.readouterr().out
    assert "not resolved" in out and "e12" in out
    assert main(["resolve", "G3", "--from-tails"]) == 0
    plan = tmp_path / "phiS.json"
    plan.write_text(
        json.dumps([{"pair": ["e12", "e13"], "match": [["C2", "C3"], ["C1", "C1"]]}])
    )
    assert main(["resolve", "G3", "--plan", str(plan)]) == 0


def test_cli_qs_commands(capsys):
    assert main(["qs-check", "G2", '{"C1": 2, "C2": -2}', "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["quasistable"] is False
    assert data["witness"]["subcurve"] == ["C1"]
    assert main(["qs-reduce", "G2", '{"C1": 2, "C2": -2}', "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["twist"] == {"C1": 0, "C2": 1}
    assert data["result"] == {"C1": 0, "C2": 0}


def test_cli_qs_check_witness(tmp_path, capsys):
    # On the triangle marked at C1 with d = (0, -1, 1), the first failing
    # tail in canonical order is the unmarked {C3}, at b2 == 2k; its
    # complement {C1, C2} fails too, but comes later.
    g = tmp_path / "triangle.json"
    g.write_text(json.dumps({
        "components": ["C1", "C2", "C3"], "marked": "C1",
        "nodes": [{"id": "a", "ends": ["C1", "C2"]}, {"id": "b", "ends": ["C2", "C3"]},
                  {"id": "c", "ends": ["C1", "C3"]}]}))
    assert main(["qs-check", str(g), '{"C1": 0, "C2": -1, "C3": 1}', "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["quasistable"] is False
    assert data["witness"] == {"subcurve": ["C3"], "beta": "2", "k": 2}


def test_cli_twister_oracle(capsys):
    assert main(["twister", "G2", "--oracle"]) == 0
    assert "agree" in capsys.readouterr().out


def test_cli_verify_small(capsys):
    rc = main(["verify", "--instances", "3", "--suite", "prop-31",
               "--suite", "thm-64-resolution"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "verdict: pass" in out


def test_cli_verify_rejects_negative_extra_edges(capsys):
    assert main(["verify", "--instances", "1", "--max-extra-edges", "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("flag, field, value, least", [
    ("--instances", "instances", -1, 0),
    ("--max-components", "max_components", 0, 1),
    ("--max-extra-edges", "max_extra_edges", -2, 0),
    ("--jobs", "jobs", 0, 1),
])
def test_cli_verify_names_the_count_out_of_range(capsys, flag, field, value, least):
    # one bad count names its field, its bound and the value, in the library
    # and as the CLI's one error line
    message = f"{field} must be at least {least}, got {value}"
    with pytest.raises(PreconditionError, match=f"^{message}$"):
        SuiteConfig(**{field: value})
    assert SuiteConfig(**{field: least}).to_dict()[field] == least
    assert main(["verify", "--instances", "1", flag, str(value)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


def test_cli_verify_discrepancy(capsys, G2):
    assert main(["verify", "--discrepancy"]) == 0
    assert capsys.readouterr().out == (
        "as-displayed discrepancy demonstrated on the banana fixture: True\n"
    )
    assert main(["verify", "--discrepancy", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["discrepancy_demonstrated"] is True
    assert data["suites"]["thm-64-resolution"]["checks"] == 1
    # the report is the replay's: one instance, its violation and reproducer
    assert data["config"]["instances"] == 1 and data["ok"] is False
    (bad,) = data["suites"]["thm-64-resolution"]["violations"]
    assert bad["graph"] == G2.to_spec() and bad["profile"] == "as-displayed"
    assert bad["context"]["failing_pairs"] == [["a", "b"]]
    del data["discrepancy_demonstrated"], data["wall_time_s"]
    assert data == json.loads(replay(bad).to_json(include_timing=False))


def test_cli_verify_discrepancy_needs_the_resolution_failure(monkeypatch, capsys):
    # a crash inside the suite is a violation too, but not the demonstration
    def crash(G, rng, profile):
        raise TypeError("broken plan")

    monkeypatch.setitem(SUITES, "thm-64-resolution", crash)
    assert main(["verify", "--discrepancy"]) == 1
    assert capsys.readouterr().out.endswith(" banana fixture: False\n")
    assert main(["verify", "--discrepancy", "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["discrepancy_demonstrated"] is False and data["ok"] is False


@pytest.mark.parametrize("flags, named", [
    (["--suite", "prop-31", "--seed", "9", "--instances", "4",
      "--profile", "as-displayed"], "--seed, --instances, --profile, --suite"),
    (["--no-loops"], "--no-loops"),
    (["--max-components", "3", "--max-extra-edges", "1", "--jobs", "2"],
     "--max-components, --max-extra-edges, --jobs"),
])
def test_cli_verify_replay_and_discrepancy_reject_ignored_flags(flags, named,
                                                              tmp_path, capsys):
    # a replay runs the dump's suite on its graph, the demonstration a fixed
    # dump: a run flag given with either would be ignored, so it is an error
    path = tmp_path / "dump.json"
    path.write_text(json.dumps({"suite": "lemma-35", "graph": G2_SPEC}))
    for mode in (["--replay", str(path)], ["--discrepancy"]):
        assert main(["verify", *mode, *flags, "--json"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        ignored = named.replace("--seed, ", "") if "--discrepancy" in mode else named
        assert err == f"error: {mode[0]} ignores {ignored}\n"
    # the demonstration takes a seed; --json and --dump are valid with both
    assert main(["verify", "--discrepancy", "--seed", "4"]) == 0
    assert main(["verify", "--replay", str(path), "--json",
                 "--dump", str(tmp_path / "unused.json")]) == 0


def test_cli_verify_discrepancy_dump(tmp_path, capsys):
    text, js = tmp_path / "text.json", tmp_path / "json.json"
    assert main(["verify", "--discrepancy", "--dump", str(text)]) == 0
    assert capsys.readouterr().out == (
        "as-displayed discrepancy demonstrated on the banana fixture: True\n"
        f"first counterexample written to {text}\n"
    )
    assert main(["verify", "--discrepancy", "--json", "--dump", str(js)]) == 0
    (bad,) = json.loads(capsys.readouterr().out)["suites"]["thm-64-resolution"][
        "violations"]
    assert json.loads(js.read_text()) == bad and js.read_text() == text.read_text()
    # the dump is the failure's reproducer, as every other mode writes it
    assert main(["verify", "--replay", str(js)]) == 1
    capsys.readouterr()
    assert main(["verify", "--discrepancy", "--dump",
                 str(tmp_path / "no" / "d.json")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


_FAILING_RUN = ["verify", "--instances", "3", "--suite", "thm-64-resolution",
                "--profile", "as-displayed"]


def test_cli_verify_dump_written_under_json(tmp_path, capsys):
    text, js = tmp_path / "text.json", tmp_path / "json.json"
    assert main(_FAILING_RUN + ["--dump", str(text)]) == 1
    assert capsys.readouterr().out.endswith(f"written to {text}\n")
    assert main(_FAILING_RUN + ["--json", "--dump", str(js)]) == 1
    assert json.loads(capsys.readouterr().out)["ok"] is False
    assert js.read_text() == text.read_text()
    assert replay(json.loads(js.read_text())).ok is False


def test_cli_verify_unwritable_dump_prints_nothing(tmp_path, capsys):
    assert main(_FAILING_RUN + ["--dump", str(tmp_path / "no" / "d.json")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def _cli_calls(G, path):
    """Every command that builds G's derived data, on the graph file path."""
    d0 = [0] * G.p
    d0[0] += 1
    d0[-1] -= 1  # all zero on one component
    degree = json.dumps(dict(zip(G.names, d0)))
    calls = [["qs-reduce", path, degree], ["minimal", path],
             ["resolve", path, "--from-tails"], ["export-dot", path, "--c2"]]
    for ch in choices(G)[:1]:
        where = ["--pair", ",".join(G.nodes[r].id for r in (ch.r1, ch.r2)),
                 "--match", ",".join(":".join(sides) for sides in ch.match_names(G))]
        calls += [["distinguished", path, *where],
                  ["sync", path, *where, "--point", "1"]]
    return calls


def test_graphs_are_freed_by_reference_counting(tmp_path, monkeypatch, capsys):
    # With the cyclic collector off, a graph is freed as soon as its last
    # user drops it, after every suite and after every command: nothing its
    # memo holds (the subdivision, a box scan, a stored violation) refers
    # back to it strongly.  G1 takes the box scan's one-component branch.
    loaded = []
    load = cli._graph

    def tracked(arg):
        G = load(arg)
        loaded.append(weakref.ref(G))
        return G

    monkeypatch.setattr(cli, "_graph", tracked)
    specs = [fixture(name).to_spec() for name in ("G1", "G2", "G3", "G4")]
    specs += [instance_graph(5, i, 6, 4, True).to_spec() for i in range(40)]
    enabled = gc.isenabled()
    gc.disable()
    try:
        for i, spec in enumerate(specs):
            path = tmp_path / f"g{i}.json"
            path.write_text(write_json(spec), encoding="utf-8")
            G = validate(spec)
            for name in ALL_SUITES:
                suites._check(G, name, 5, i, RECONSTRUCTED)
            calls = _cli_calls(G, str(path))
            dropped = weakref.ref(G)
            del G
            assert dropped() is None, i
            for argv in calls:
                assert main(argv) == 0, argv
            assert all(ref() is None for ref in loaded), i
        assert len(loaded) >= 4 * len(specs)
    finally:
        if enabled:
            gc.enable()
    capsys.readouterr()


def test_cli_verify_jobs_pool_sized_by_instances(monkeypatch, capsys):
    # the fake pool maps in this process: no worker process is ever started
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
    argv = ["verify", "--instances", "2", "--suite", "prop-31", "--json"]
    assert main(argv) == 0
    serial = json.loads(capsys.readouterr().out)
    assert main(argv + ["--jobs", "5000"]) == 0
    pooled = json.loads(capsys.readouterr().out)
    assert sizes == [2]
    assert pooled["suites"] == serial["suites"]
    assert main(argv[:2] + ["1"] + argv[3:] + ["--jobs", "5000"]) == 0
    assert sizes == [2]


def test_cli_twister_oracle_error_is_a_disagreement(monkeypatch, capsys):
    def not_found(G, d0, bound=None):
        raise RepresentativeNotFound("box exhausted")

    monkeypatch.setattr(degrees, "quasistable_representative", not_found)
    assert main(["twister", "G4", "--oracle"]) == 1
    out, err = capsys.readouterr()
    *pairs, verdict = out.splitlines()
    assert [line.split(" = ")[0] for line in pairs] == [
        "alpha[C1,C1]", "alpha[C1,C2]", "alpha[C2,C2]"
    ]
    assert all(line.endswith(")  ORACLE DISAGREES: box exhausted") for line in pairs)
    assert verdict == "oracle agreement: DISAGREE"
    assert err.startswith("invariant violation: ")


def test_cli_verify_replay(tmp_path, capsys, G2):
    checks, bad = suite_thm64(G2, None, "as-displayed")
    dump = {
        "suite": "thm-64-resolution",
        "instance": 0,
        "seed": 1,
        "profile": "as-displayed",
        "graph": G2.to_spec(),
        "context": bad[0],
    }
    f = tmp_path / "dump.json"
    f.write_text(json.dumps(dump))
    assert main(["verify", "--replay", str(f)]) == 1


G2_SPEC = fixture("G2").to_spec()


@pytest.mark.parametrize("dump", [
    [],
    ["thm-64-resolution"],
    {},
    {"suite": ["x"], "graph": G2_SPEC},
    {"suite": "no-such-suite", "graph": G2_SPEC},
    {"suite": "prop-62"},
    {"suite": "prop-62", "graph": []},
    {"suite": "prop-62", "graph": {"components": ["C1"]}},
    {"suite": "prop-62", "graph": G2_SPEC, "seed": "x"},
    {"suite": "prop-62", "graph": G2_SPEC, "seed": True},
    {"suite": "prop-62", "graph": G2_SPEC, "seed": 1.5},
    {"suite": "prop-62", "graph": G2_SPEC, "instance": [1]},
    {"suite": "prop-62", "graph": G2_SPEC, "instance": None},
    {"suite": "prop-62", "graph": G2_SPEC, "profile": 5},
    {"suite": "prop-62", "graph": G2_SPEC, "profile": "literal"},
])
def test_cli_verify_replay_rejects_malformed_dump(tmp_path, capsys, dump):
    f = tmp_path / "dump.json"
    f.write_text(json.dumps(dump))
    assert main(["verify", "--replay", str(f)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_replay_takes_a_missing_seed_and_profile_from_suite_config():
    # a dump without "seed" or "profile" runs under SuiteConfig's defaults
    report = replay({"suite": "thm-64-resolution", "graph": G2_SPEC})
    default = SuiteConfig()
    assert (report.config.seed, report.config.profile) == (default.seed,
                                                           default.profile)
    explicit = replay({"suite": "thm-64-resolution", "graph": G2_SPEC,
                       "seed": default.seed, "profile": default.profile})
    assert (report.to_json(include_timing=False)
            == explicit.to_json(include_timing=False))


def test_cli_sync_and_distinguished(capsys):
    assert main(["distinguished", "G2", "--pair", "a,b",
                 "--match", "C2:C2,C1:C1", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["points"]) == 2
    assert all(p["quasistable"]["quasistable"] for p in data["points"])
    assert main(["sync", "G2", "--pair", "a,b", "--match", "C2:C1,C1:C2",
                 "--point", "1", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["synchronized"] is False
    assert data["one_tail_diagnostic_ok"] is True


def test_cli_minimal(capsys):
    assert main(["minimal", "G3", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["plan_from_tails_minimal"] is False
    assert data["minimal_plan"] == [
        {"pair": ["e12", "e13"], "match": [["C1", "C1"], ["C2", "C3"]]}
    ]
