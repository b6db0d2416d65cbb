"""Smaller API surfaces: reprs, exports, preconditions, text-mode CLI."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import ModuleType

import pytest
from hypothesis import given, settings

from tailcomb import cli
from tailcomb.blowup import BlowupPlan
from tailcomb.degrees import multidegree
from tailcomb.fixtures import fixture
from tailcomb.cli import build_parser, main
from tailcomb.errors import PreconditionError
from tailcomb.graph import CurveGraph, Node, load, members, read_json, validate
from tailcomb.lift import build_c2
from tailcomb.suites import SuiteConfig, replay
from tailcomb.tails import nested, tail_family

from conftest import json_values, sc


def test_mask_helpers():
    assert members(0b101) == (0, 2)
    assert members(0) == ()


def test_graph_repr(G2):
    text = repr(G2)
    assert "CurveGraph" in text and "'a'" in text and "marked='C1'" in text


def test_nested_family_protocol(G3):
    fam = nested(G3, 2, sc(G3, "C2", "C3"))
    assert fam == (sc(G3, "C2", "C3"),)


def test_nested_anchor_range(G3):
    with pytest.raises(PreconditionError):
        nested(G3, 2, 1 << 5)


def test_tail_family_index_range(G3):
    with pytest.raises(PreconditionError):
        tail_family(G3, 0, 9)


def test_lifted_dot(G1, G4):
    dot = build_c2(G4).to_dot()
    assert "shape=square" in dot and "doublecircle" in dot
    assert '"E(e,C1)" -- "E(e,C2)" [label="e:mid"]' in dot
    assert "E(loop,1)" in build_c2(G1).to_dot()


def test_lifted_exceptional_lookup(G1, G3, G4):
    LG = build_c2(G4)
    assert (LG.exceptional(0, 0), LG.exceptional(0, 1)) == (2, 3)
    bad = [
        (LG, 0, 7),
        (LG, -1, 0),  # must not wrap around to the last node
        (LG, len(G4.nodes), 0),
        (build_c2(G3), 0, 2),  # C3 is not a side of e12
        (build_c2(G1), 0, 3),  # a loop has slots 1 and 2 only
    ]
    for lifted, node, key in bad:
        with pytest.raises(PreconditionError):
            lifted.exceptional(node, key)


def test_generator_bounds_validation():
    import random

    from tailcomb.randgen import random_graph

    with pytest.raises(ValueError):
        random_graph(random.Random(0), max_components=0, max_extra_edges=4,
                     allow_loops=True)


def test_multidegree_length_check(G3):
    from tailcomb.degrees import multidegree

    with pytest.raises(PreconditionError):
        multidegree(G3, (1, -1))


def test_multidegree_map_names_every_component(G3):
    from tailcomb.degrees import multidegree

    with pytest.raises(PreconditionError, match="misses component.*C2, C3$"):
        multidegree(G3, {"C1": 0})
    with pytest.raises(PreconditionError, match="C1, C2, C3$"):
        multidegree(G3, {})
    assert multidegree(G3, {"C3": -1, "C1": 1, "C2": 0}) == (1, 0, -1)


# -- CLI text modes ---------------------------------------------------------


def test_cli_tails_full_list(capsys):
    assert main(["tails", "G3"]) == 0
    out = capsys.readouterr().out
    assert "6 tail(s)" in out and "{C2,C3}  k=2" in out


def test_cli_nested_text(capsys):
    assert main(["nested", "G3", "--s", "2", "--anchors", "C2,C3"]) == 0
    out = capsys.readouterr().out
    assert "{C2,C3}" in out
    assert main(["nested", "G3", "--s", "3", "--anchors", "C2"]) == 0
    assert "(empty)" in capsys.readouterr().out


def test_cli_plan_empty(capsys):
    assert main(["plan", "G3", "--empty"]) == 0
    assert json.loads(capsys.readouterr().out) == []


def test_cli_export_dot_modes(capsys):
    assert main(["export-dot", "G2"]) == 0
    assert "doublecircle" in capsys.readouterr().out
    assert main(["export-dot", "G2", "--c2"]) == 0
    assert "shape=square" in capsys.readouterr().out


def test_dot_escapes_quotes_and_backslashes():
    G = CurveGraph(['C"1', "C\\2"], [Node('a"b', 0, 1), Node("c", 0, 1)], 0)
    lines = G.to_dot().splitlines()
    assert r'  "C\"1" [shape=doublecircle];' in lines
    assert r'  "C\\2" [shape=circle];' in lines
    assert r'  "C\"1" -- "C\\2" [label="a\"b"];' in lines
    lifted = build_c2(G).to_dot().splitlines()
    assert r'  "E(a\"b,C\"1)" [shape=square, width=0.25, height=0.25];' in lifted
    assert r'  "C\"1" -- "E(a\"b,C\"1)" [label="a\"b:C\"1"];' in lifted


def test_cli_export_dot_c2_on_a_graph_named_like_a_lift(tmp_path):
    from test_lift import NAMED_LIKE_A_LIFT

    path = tmp_path / "graph.json"
    path.write_text(json.dumps(NAMED_LIKE_A_LIFT))
    code, out, err = _call(["export-dot", str(path), "--c2"])
    assert (code, err) == (0, "")
    assert '  "E(a,C1)#2" [shape=square, width=0.25, height=0.25];' in out.splitlines()


def test_cli_plan_has_no_from_tails_flag():
    code, out, err = _call(["plan", "G3", "--from-tails"])
    assert (code, out) == (2, "") and "unrecognized arguments" in err


def test_cli_minimal_text(capsys):
    assert main(["minimal", "G2"]) == 0
    out = capsys.readouterr().out
    assert "pair (a,b): forced" in out
    assert "plan-from-tails minimal: True" in out


def test_cli_sync_text(capsys):
    assert main(["sync", "G2", "--pair", "a,b", "--match", "C2:C2,C1:C1",
                 "--point", "1"]) == 0
    out = capsys.readouterr().out
    assert "synchronized=True" in out and "level 2: ok" in out
    assert "  level 1 diagnostic: ok" in out.splitlines()


def test_cli_distinguished_text(capsys):
    assert main(["distinguished", "G3", "--pair", "e12,e13",
                 "--match", "C2:C1,C1:C3"]) == 0
    out = capsys.readouterr().out
    assert "quasistable=False" in out


def test_cli_verify_dump_and_replay_round_trip(tmp_path, capsys):
    # instance 2 of the default stream fails the resolution suite under the
    # displayed profile; the dump must replay to the same negative verdict
    dump = tmp_path / "counterexample.json"
    rc = main(["verify", "--instances", "3", "--profile", "as-displayed",
               "--suite", "thm-64-resolution", "--dump", str(dump)])
    assert rc == 1
    capsys.readouterr()
    assert dump.exists()
    assert main(["verify", "--replay", str(dump)]) == 1
    rc = main(["verify", "--replay", "/nonexistent.json"])
    assert rc == 2


def test_cli_bad_match_syntax(capsys):
    assert main(["distinguished", "G2", "--pair", "a", "--match", "x"]) == 2
    assert main(["distinguished", "G2", "--pair", "a,b", "--match", "bad"]) == 2


@pytest.mark.parametrize("value", [1.7, "x", True, None])
def test_cli_qs_check_rejects_non_integer_degrees(value, capsys):
    arg = json.dumps({"C1": value, "C2": -1})
    assert main(["qs-check", "G3", arg]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


_VALID_GRAPH = {"components": ["C1", "C2"], "marked": "C1",
            "nodes": [{"id": "a", "ends": ["C1", "C2"]}]}


@pytest.mark.parametrize("patch", [
    {"components": "AB", "marked": "A",
     "nodes": [{"id": "a", "ends": ["A", "B"]}]},
    {"components": ["A", "B"], "marked": "A",
     "nodes": [{"id": "a", "ends": "AB"}]},
    {"nodes": 5},
    {"marked": ["C1"]},
    {"nodes": [{"id": "a", "ends": ["C1", {"name": "C2"}]}]},
    {"components": [1, "C2"], "marked": "C2",
     "nodes": [{"id": "a", "ends": ["1", "C2"]}]},
])
def test_cli_validate_rejects_wrong_types(patch, tmp_path, capsys):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({**_VALID_GRAPH, **patch}))
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


_PLAN_PAIR = ["a", "b"]
_PLAN_MATCH = [["C1", "C1"], ["C2", "C2"]]


@pytest.mark.parametrize("entry", [
    {"pair": "ab", "match": _PLAN_MATCH},
    {"pair": _PLAN_PAIR, "match": 5},
    {"pair": _PLAN_PAIR, "match": ["C1C1", "C2C2"]},
    {"pair": 7, "match": _PLAN_MATCH},
    # a whole plan: one pair named twice, in either order
    [{"pair": _PLAN_PAIR, "match": _PLAN_MATCH},
     {"pair": ["b", "a"], "match": [["C1", "C2"], ["C2", "C1"]]}],
])
def test_cli_resolve_plan_rejects_wrong_types(entry, tmp_path, capsys):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps([{"pair": _PLAN_PAIR, "match": _PLAN_MATCH}]))
    assert main(["resolve", "G2", "--plan", str(path)]) == 0
    capsys.readouterr()
    path.write_text(json.dumps(entry if isinstance(entry, list) else [entry]))
    assert main(["resolve", "G2", "--plan", str(path)]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == "" and len(err) == 1 and err[0].startswith("error:")


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_cli_parser_built_once_behaves_like_fresh(monkeypatch):
    calls = [
        ["qs-reduce", "G2", '{"C1": 2, "C2": -2}'],
        ["minimal", "G3", "--json"],
        ["resolve", "G3", "--from-tails"],
        ["plan", "G3"],
        ["tails", "G3", "--k", "3", "--json"],
        ["validate", "G2"],
        ["resolve"],
        ["resolve", "G3", "--profile", "nope"],
        ["--help"],
        ["qs-reduce", "G3", '{"C1": 1, "C2": 0, "C3": -1}', "--json"],
        ["minimal", "G2"],
        ["resolve", "G3"],
        ["plan", "G2", "--empty", "--json"],
        ["tails", "G3"],
        ["validate", "G4", "--json"],
    ]
    assert build_parser() is build_parser()
    cached = [_call(argv) for argv in calls]
    monkeypatch.setattr(cli, "build_parser", build_parser.__wrapped__)
    fresh = [_call(argv) for argv in calls]
    assert cached == fresh
    assert [code for code, _, _ in cached] == [0, 0, 0, 0, 0, 0, 2, 2, 0,
                                                0, 0, 1, 0, 0, 0]
    assert "usage: tailcomb" in cached[8][1]


def test_cli_tails_k_zero_is_named(capsys):
    assert main(["tails", "G3", "--k", "0"]) == 0
    assert capsys.readouterr().out.splitlines()[0].endswith(" tail(s) with k=0")


# -- the CLI error contract: exit 2, one error line, nothing on stdout -----------

_NOT_UTF8 = b'{"components": ["C\xff"]}'
_TOO_DEEP = "[" * 200_000
# integer literals one digit past CPython's default int-conversion limit
_LONG_INT = b"[1" + b"0" * 4300 + b", -1" + b"0" * 4300 + b"]"


def _assert_usage_error(argv):
    code, out, err = _call(argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["qs-reduce", "G2", '{"C1": 6, "C2": -6}', "--bound", "1"],
    ["qs-reduce", "G4", '{"C1": 600, "C2": -600}'],
])
def test_cli_qs_reduce_without_representative(argv):
    _assert_usage_error(argv)


def test_cli_qs_reduce_bound_is_capped():
    # an explicit bound asks for no more work than the default search, whose
    # last box has bound 256; a larger one once ran for seconds
    argv = ["qs-reduce", "G3", "[1, 0, -1]"]
    assert _call(argv + ["--bound", "256"]) == (0, _call(argv)[1], "")
    assert _call(argv + ["--bound", "257"]) == (2, "", (
        "error: --bound must be at most 256, the default search's last bound, "
        "got 257\n"))


@pytest.mark.parametrize("content", [_NOT_UTF8, _TOO_DEEP.encode(), _LONG_INT],
                         ids=["not-utf8", "too-deep", "long-int"])
@pytest.mark.parametrize("argv", [
    ["validate", "PATH"],
    ["resolve", "G2", "--plan", "PATH"],
    ["verify", "--replay", "PATH"],
    ["qs-check", "G2", "PATH"],
], ids=["graph", "plan", "dump", "multidegree"])
def test_cli_json_files_malformed_below_json(argv, content, tmp_path):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    _assert_usage_error([str(path) if a == "PATH" else a for a in argv])


def test_cli_multidegree_text_too_deep():
    _assert_usage_error(["qs-check", "G2", _TOO_DEEP])


def test_cli_tails_negative_k():
    _assert_usage_error(["tails", "G3", "--k", "-1"])


def test_cli_resolve_plan_file_excludes_from_tails(tmp_path):
    # the two flags name different plans (here: resolved, not resolved), so
    # naming both is a usage error rather than a silent pick of the file
    path = tmp_path / "empty.json"
    path.write_text("[]")
    assert _call(["resolve", "G3", "--from-tails"])[0] == 0
    assert _call(["resolve", "G3", "--plan", str(path)])[0] == 1
    code, out, err = _call(["resolve", "G3", "--plan", str(path), "--from-tails"])
    assert (code, out) == (2, "")
    assert "not allowed with argument" in err


def test_cli_verify_replay_excludes_discrepancy(tmp_path, G3):
    path = tmp_path / "dump.json"
    path.write_text(json.dumps({"suite": "lemma-35", "graph": G3.to_spec()}))
    assert _call(["verify", "--replay", str(path)])[0] == 0
    code, out, err = _call(["verify", "--replay", str(path), "--discrepancy"])
    assert (code, out) == (2, "")
    assert "not allowed with argument" in err


def test_suite_named_twice_rejected():
    with pytest.raises(PreconditionError, match=r"more than once: \['lemma-35'\]$"):
        SuiteConfig(suites=("lemma-35", "prop-31", "lemma-35"))
    _assert_usage_error(["verify", "--suite", "lemma-35", "--suite", "lemma-35"])


@pytest.mark.parametrize("argv", [
    ["qs-check", "G3", "{}"],
    ["qs-check", "G3", '{"C1": 0}'],
    ["qs-reduce", "G3", '{"C1": 1, "C2": -1}'],
    ["qs-reduce", "G3", '{"C1": 1, "C2": -1}', "--json"],
])
def test_cli_multidegree_map_missing_component(argv):
    # a component left out of a map is an error, never read as 0
    _assert_usage_error(argv)
    assert "C3" in _call(argv)[2]


_NODE_A = '{"id": "a", "ends": ["C1", "C2"]}'


@pytest.mark.parametrize("text", [
    '{"C1": 5, "C2": -1, "C3": 0, "C1": 1}',
    '{"C1": 5, "C2": -5, "C3": 0, "C2": -5}',
], ids=["last-wins", "same-value"])
def test_cli_multidegree_duplicate_key(text, tmp_path):
    _assert_usage_error(["qs-check", "G3", text])
    path = tmp_path / "degrees.json"
    path.write_text(text)
    _assert_usage_error(["qs-check", "G3", str(path)])


@pytest.mark.parametrize("text", [
    '{"components": ["C1", "C2"], "marked": "C1", "nodes": [], "nodes": [%s]}' % _NODE_A,
    '{"components": ["C1", "C2"], "marked": "C1",'
    ' "nodes": [{"id": "b", "id": "a", "ends": ["C1", "C2"]}]}',
], ids=["top-level", "in-a-node"])
def test_cli_graph_duplicate_key(text, tmp_path):
    path = tmp_path / "graph.json"
    path.write_text(text)
    _assert_usage_error(["validate", str(path)])
    with pytest.raises(PreconditionError, match="duplicate JSON key"):
        read_json(str(path))


# "\ud800" is valid JSON, but a lone surrogate has no UTF-8 form, so text
# output would end in an encoding error part way through
@pytest.mark.parametrize("text", [
    r'{"components": ["C1", "\ud800"], "marked": "C1",'
    r' "nodes": [{"id": "a", "ends": ["C1", "\ud800"]}]}',
    r'{"components": ["C1", "C2"], "marked": "C1",'
    r' "nodes": [{"id": "\ud800", "ends": ["C1", "C2"]}]}',
], ids=["component-name", "node-id"])
@pytest.mark.parametrize("argv", [
    ["validate"], ["tails"], ["export-dot"], ["export-dot", "--c2"],
], ids=["validate", "tails", "export-dot", "export-dot-c2"])
def test_cli_graph_lone_surrogate(argv, text, tmp_path):
    path = tmp_path / "graph.json"
    path.write_text(text)
    _assert_usage_error([argv[0], str(path), *argv[1:]])


@pytest.mark.parametrize("content", [_NOT_UTF8, _TOO_DEEP.encode(), _LONG_INT],
                         ids=["not-utf8", "too-deep", "long-int"])
def test_load_malformed_below_json(content, tmp_path):
    path = tmp_path / "graph.json"
    path.write_bytes(content)
    with pytest.raises(PreconditionError):
        load(str(path))


def _graph_round_trips(value):
    G = validate(value)
    assert validate(G.to_spec()) == G


def _plan_round_trips(value):
    G2 = fixture("G2")
    plan = BlowupPlan.from_spec(G2, value)
    assert BlowupPlan.from_spec(G2, plan.to_spec(G2)) == plan


# each JSON input: the command reading it from PATH, how a drawn value is
# placed in the file, and its reader, which a value must pass to be accepted
_JSON_INPUTS = {
    "graph": (["validate", "PATH"], lambda v: v, _graph_round_trips),
    "multidegree": (["qs-check", "G2", "PATH"], lambda v: v,
                    lambda v: multidegree(fixture("G2"), v)),
    "plan": (["resolve", "G2", "--plan", "PATH"], lambda v: v, _plan_round_trips),
    "plan-match": (["resolve", "G2", "--plan", "PATH"],
                   lambda v: [{"pair": _PLAN_PAIR, "match": v}], _plan_round_trips),
    "dump": (["verify", "--replay", "PATH"], lambda v: v, replay),
    "dump-graph": (["verify", "--replay", "PATH"],
                   lambda v: {"suite": "lemma-35", "graph": v}, replay),
}


@settings(max_examples=100, deadline=None)
@given(json_values())
def test_cli_json_inputs_load_or_take_the_error_path(tmp_path_factory, value):
    # every drawn value, written as each JSON input, is either accepted by
    # its reader or makes `main` exit 2 with one `error:` line and no stdout
    path = tmp_path_factory.getbasetemp() / "fuzzed-input.json"
    for argv, place, reader in _JSON_INPUTS.values():
        placed = place(value)
        path.write_text(json.dumps(placed))
        code, out, err = _call([str(path) if a == "PATH" else a for a in argv])
        if code == 2:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        else:
            reader(read_json(str(path)))


# each subcommand with a complete argument list, and one that leaves out a
# required argument (verify has none, so its --seed lacks a value)
_D3 = '{"C1": 0, "C2": 0, "C3": 0}'
_PAIR = ["--pair", "e12,e13", "--match", "C2:C1,C1:C3"]
_SUBCOMMANDS = {
    "validate": (["G3"], []),
    "tails": (["G3"], []),
    "nested": (["G3", "--s", "2", "--anchors", "C2,C3"], ["G3", "--s", "2"]),
    "twister": (["G3"], []),
    "qs-check": (["G3", _D3], ["G3"]),
    "qs-reduce": (["G3", _D3], ["G3"]),
    "plan": (["G3"], []),
    "resolve": (["G3"], []),
    "distinguished": (["G3", *_PAIR], ["G3", "--pair", "e12,e13"]),
    "sync": (["G3", *_PAIR, "--point", "1"], ["G3", *_PAIR]),
    "minimal": (["G3"], []),
    "verify": ([], ["--seed"]),
    "export-dot": (["G3"], []),
    "fixture": (["G3"], []),
}
# (argv, the parser that catches it): a subcommand's parser catches what
# its own arguments get wrong, the top-level parser anything left over
_USAGE_ERRORS = [
    pytest.param([], "tailcomb", id="no-command"),
    pytest.param(["nope"], "tailcomb", id="unknown-command"),
    pytest.param(["--bogus"], "tailcomb", id="unknown-flag"),
    *(pytest.param([cmd, *missing], f"tailcomb {cmd}", id=f"{cmd}-missing")
      for cmd, (_, missing) in _SUBCOMMANDS.items()),
    *(pytest.param([cmd, *full, "--bogus"], "tailcomb", id=f"{cmd}-unknown-flag")
      for cmd, (full, _) in _SUBCOMMANDS.items()),
    *(pytest.param(argv, f"tailcomb {argv[0]}", id=f"{argv[0]}-bad-choice")
      for argv in (
          ["resolve", "G3", "--profile", "nope"],
          ["distinguished", "G3", *_PAIR, "--profile", "nope"],
          ["minimal", "G3", "--profile", "nope"],
          ["verify", "--profile", "nope"],
          ["nested", "G3", "--s", "4", "--anchors", "C2,C3"],
          ["sync", "G3", *_PAIR, "--point", "3"],
          ["verify", "--suite", "nope"],
          ["fixture", "G9"],
      )),
]


@pytest.mark.parametrize("argv, prog", _USAGE_ERRORS)
def test_cli_usage_errors_take_the_one_error_path(argv, prog):
    # exit 2 and one `error:` line holding the parser's message, which names
    # the (sub)command whose parser caught it
    _assert_usage_error(argv)
    assert _call(argv)[2].startswith(f"error: {prog}: ")


@pytest.mark.parametrize("cmd", [[], *([cmd] for cmd in _SUBCOMMANDS)],
                         ids=["top-level", *_SUBCOMMANDS])
def test_cli_help_still_exits_zero(cmd):
    code, out, err = _call([*cmd, "--help"])
    assert (code, err) == (0, "")
    assert out.startswith(" ".join(["usage: tailcomb", *cmd]))


# -- the public surface -------------------------------------------------------------

README = Path(__file__).resolve().parents[1] / "README.md"


def test_top_level_exports_what_the_readme_uses():
    import tailcomb

    public = {name for name, value in vars(tailcomb).items()
              if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert public == {
        "fixture", "nested", "twister", "quasistable_representative",
        "plan_from_tails", "decide_resolution", "CurveGraph", "load", "validate",
        "GraphError", "InvariantViolation", "MultipleRepresentatives",
        "PreconditionError", "RepresentativeNotFound",
    }


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    scope = {}
    out = io.StringIO()
    with redirect_stdout(out):
        exec(block, scope)
    G = scope["G"]
    assert out.getvalue() == "True\n"
    assert [set(G.names_of(w)) for w in scope["family"]] == [{"C2", "C3"}]
    assert scope["alpha"] == (0, 1, 1)
    assert (scope["c"], scope["d"]) == ((0, 1, 1), (0, 0, 0))
