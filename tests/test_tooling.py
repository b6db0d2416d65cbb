"""Guards on the benchmark tooling under perfbench/, which these tests only read."""

import ast
import importlib
import importlib.util
import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import tailcomb
from tailcomb import blowup, cli, degrees, lift, suites, tails
from tailcomb.graph import CurveGraph

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_target():
    # A target the tracer cannot find is listed in `missing` and its
    # per-layer metrics read 0, so a rename would silently empty them.
    tracer = load_tracer()
    layers = {
        "tails.nested": (tails, "nested"),
        "lift.one_tail_diagnostic": (lift, "one_tail_diagnostic"),
        "degrees.twister": (degrees, "twister"),
        "blowup.admissibility_check": (blowup, "admissibility_check"),
        "degrees.lemma35_difference": (degrees, "lemma35_difference"),
    }
    assert set(layers) <= {stem for _, _, stem, _ in tracer.TARGETS}
    originals = {stem: getattr(mod, attr) for stem, (mod, attr) in layers.items()}
    t = tracer.Tracer()
    t.install()
    try:
        # `degrees.delta` is a test helper now (admissibility reads the
        # twister rows), and the hat families and eq. (34) violations are
        # read from a point's `SyncReport`, so these three targets are
        # expected to be missing
        assert t.missing == ["degrees.delta", "lift.hat_families", "lift.eq34_level2"]
        for stem, (mod, attr) in layers.items():
            assert getattr(mod, attr).__wrapped__ is originals[stem]
        assert tailcomb.nested.__wrapped__ is originals["tails.nested"]
    finally:
        t.remove()
    for stem, (mod, attr) in layers.items():
        assert getattr(mod, attr) is originals[stem]
    assert tailcomb.nested is originals["tails.nested"]


def test_traced_operations_run_and_fill_the_counters():
    # The tracer's hooks read `build_c2(G).graph`, `.instances` of an
    # admissibility report, `.members` of a nested family and the twist of
    # `quasistable_representative(...)[0]`; reshaping any of these results
    # would fail every traced operation, which this run catches.
    tracer = load_tracer()
    graph_methods = {m: CurveGraph.__dict__[m] for m in tracer.GRAPH_METHODS}
    homes = {home: importlib.import_module(f"tailcomb.{home}")
             for home, _, _, _ in tracer.TARGETS}
    targets = {(home, attr): getattr(homes[home], attr)
               for home, attr, _, _ in tracer.TARGETS if hasattr(homes[home], attr)}
    registry = dict(suites.SUITES)
    t = tracer.Tracer()
    t.install()
    try:
        suites.run_suite(suites.SuiteConfig(seed=1, instances=3))
        # the suites read the subdivision's pool, never its `k_tails`
        G3 = tailcomb.fixture("G3")
        lift.build_c2(G3).k_tails(2)
        with redirect_stdout(io.StringIO()):
            assert cli.main(["qs-reduce", "G3", '{"C1": 1, "C2": 0, "C3": -1}']) == 0
            assert cli.main(["minimal", "G3"]) == 0
            assert cli.main(["resolve", "G3", "--from-tails"]) == 0
        # a usage error returns 2 like any malformed input: a measured
        # operation, which catches Exception but not SystemExit, counts it
        # as one failed operation instead of ending the run
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            assert cli.main(["resolve", "G3", "--profile", "nope"]) == 2
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        counters = {
            "lifted_vertices": t.lifted_vertices,
            "lifted_tails": t.value("graph.lifted_tails", "count"),
            "instances": t.value("blowup.admissibility_check", "instances"),
            "members": t.value("tails.nested", "members"),
            "twist_l1": t.value("degrees.qs_representative", "twist_l1"),
        }
        assert all(v > 0 for v in counters.values()), counters
    finally:
        t.remove()
    assert {m: CurveGraph.__dict__[m] for m in graph_methods} == graph_methods
    for (home, attr), orig in targets.items():
        assert getattr(homes[home], attr) is orig
    assert suites.SUITES == registry
    assert cli.suite_oracle is registry["thm-24-oracle"]


def test_tracer_properties_are_identities_and_unread_by_the_package():
    # `LiftedGraph.graph` and `NestedFamily.members` return the object
    # itself and exist only for the tracer's hooks: the package reads no
    # attribute `members`, and no attribute `graph` but the CLI's
    # `args.graph`, so both go once the hooks read the values directly.
    for name in ("G1", "G2", "G3", "G4"):
        G = tailcomb.fixture(name)
        assert lift.build_c2(G).graph is lift.build_c2(G)
        for s in (1, 2, 3):
            for anchors in range(1, G.full_mask + 1):
                fam = tails.nested(G, s, anchors)
                assert fam.members is fam
    reads = []
    for path in sorted((TRACER_PATH.parents[1] / "src" / "tailcomb").glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and node.attr in ("members", "graph"):
                    reads.append((path.stem, getattr(top, "name", None),
                                  ast.unparse(node)))
    assert reads == [("cli", "main", "args.graph")]


def test_serial_run_loads_no_pool_openssl_or_dataclasses():
    # What every benchmark process imports, the CLI and the runner, loads
    # neither the process pool (imported only when jobs > 1), nor
    # `hashlib`'s OpenSSL (`randgen` takes CPython's built-in SHA-256), nor
    # `dataclasses` and the `inspect` it pulls in (results are NamedTuples,
    # and the runner's two mutable records are plain slotted classes).
    src = TRACER_PATH.parents[1] / "src"
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
             "import tailcomb.cli, tailcomb.suites; "
             "print(sorted({'_hashlib', 'concurrent.futures.process', 'multiprocessing',"
             " 'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    run = subprocess.run([sys.executable, "-S", "-c", probe, str(src)],
                         capture_output=True, text=True, check=True)
    assert run.stdout == "[]\n"


def test_only_pair_matchings_builds_a_choice():
    # A choice's matching is stored sorted because only `pair_matchings`
    # builds one; every other source selects one of its two members, and
    # nothing re-sorts a matching on read.
    builders, reads = [], []
    for path in sorted((TRACER_PATH.parents[1] / "src" / "tailcomb").glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call)
                        and ast.unparse(node.func).split(".")[-1] == "BlowupChoice"):
                    builders.append((path.stem, getattr(top, "name", None)))
                if "matched_pairs" in (getattr(node, "attr", None), getattr(node, "name", None)):
                    reads.append((path.stem, getattr(top, "name", None)))
    assert builders == [("blowup", "pair_matchings")] * 2
    assert reads == []


def test_small_tails_have_one_hook():
    # `_unmarked_k_tails` is the one source of a graph's s-tails, s <= 3:
    # `CurveGraph.k_tails` closes it under complement on every graph, and
    # the subdivision overrides the hook alone, never `k_tails` itself or
    # a second hook beside it.
    owners, derived = {}, []
    for path in sorted((TRACER_PATH.parents[1] / "src" / "tailcomb").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and node.name == "_derived_k_tails":
                derived.append(path.stem)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    names = ([item.name] if isinstance(item, ast.FunctionDef) else
                             [t.id for t in getattr(item, "targets", ())
                              if isinstance(t, ast.Name)])
                    for name in names:
                        owners.setdefault(name, []).append((path.stem, node.name))
    assert derived == []
    assert owners["k_tails"] == [("graph", "CurveGraph")]
    assert owners["_unmarked_k_tails"] == [("graph", "CurveGraph"), ("lift", "LiftedGraph")]
    lifted = {name for name, where in owners.items() if ("lift", "LiftedGraph") in where}
    assert {name for name in lifted if "tails" in name} == {"_unmarked_k_tails"}


def test_reports_do_not_depend_on_the_hash_seed():
    # `--jobs` workers fork with the parent's hash secret, so only fresh
    # interpreters show whether a report reads a str-hash order; reports
    # compared byte for byte across changes must not.
    src = TRACER_PATH.parents[1] / "src"
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); "
             "from tailcomb import cli; from tailcomb.suites import SuiteConfig, run_suite; "
             "print(run_suite(SuiteConfig(seed=3, instances=20, profile='as-displayed'))"
             ".to_json(include_timing=False)); "
             "cli.main(['minimal', 'G3', '--json'])")
    outputs = [
        subprocess.run([sys.executable, "-c", probe, str(src)], capture_output=True,
                       text=True, check=True, env={**os.environ, "PYTHONHASHSEED": seed}).stdout
        for seed in ("0", "1")
    ]
    assert '"checks"' in outputs[0] and '"minimal_plan"' in outputs[0]
    assert outputs[0] == outputs[1]


def test_points_are_read_through_one_slot():
    # The per-point tables are keyed by choice, so no per-graph memo takes a
    # point, the per-point entry type, its lookups and the wrappers of a
    # point's report are gone, and every public per-point reader finds its
    # entry through `blowup._slot`.
    readers = ("is_quasistable_point", "is_synchronized", "one_tail_diagnostic")
    gone = ("_SyncEntry", "_sync_entry", "_sync_report", "hat_families", "eq34_level2")
    point_memos, found, slot_calls = [], [], {}
    for path in sorted((TRACER_PATH.parents[1] / "src" / "tailcomb").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name in gone:
                found.append((path.stem, node.name))
            if not isinstance(node, ast.FunctionDef):
                continue
            if any(ast.unparse(d).split(".")[-1] == "per_graph"
                   for d in node.decorator_list):
                for arg in node.args.posonlyargs + node.args.args:
                    hint = ast.unparse(arg.annotation) if arg.annotation else ""
                    if "DistinguishedPoint" in hint or arg.arg in ("point", "pt"):
                        point_memos.append((path.stem, node.name))
            if node.name in readers:
                slot_calls[node.name] = any(
                    isinstance(call, ast.Call)
                    and ast.unparse(call.func).split(".")[-1] == "_slot"
                    for call in ast.walk(node))
    assert point_memos == []
    assert found == [] and not any(hasattr(lift, name) for name in gone)
    assert slot_calls == dict.fromkeys(readers, True)


def test_every_definition_in_the_package_is_named_elsewhere_in_it():
    # A module-level function or class that nothing else in `src/tailcomb`
    # names is read only by the tests or by nothing: a test helper, which
    # belongs in `tests/`, or dead code.  A reference is a name, an
    # attribute or an imported name outside the definition itself.
    defined, used = [], set()
    for path in sorted((TRACER_PATH.parents[1] / "src" / "tailcomb").glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            if own:
                defined.append((path.stem, own))
            for node in ast.walk(top):
                name = (node.id if isinstance(node, ast.Name) else
                        node.attr if isinstance(node, ast.Attribute) else
                        node.name if isinstance(node, ast.alias) else None)
                if name is not None and name != own:
                    used.add(name)
    assert defined
    assert [d for d in defined if d[1] not in used] == []
