"""Command-line surface.

Every subcommand except verify and fixture reads a graph from a JSON file
(the built-in fixture names G1..G4 are also accepted), which `main` loads
before the handler runs; each prints human text by default and JSON with
--json.  Every indented JSON output (a --json payload, `plan`'s text, a
fixture, a --dump file) is written by `graph.write_json`.  Exit codes: 0
success, 1 negative verdict where the verdict is the output (resolve,
verify, twister --oracle), 2 malformed input or configuration (the cases
the README lists).  Every exit 2 takes one path,
usage errors the argument parser catches included: one `error:` line on
stderr and nothing on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache

from . import blowup as bw
from . import degrees as dg
from .errors import (GraphError, InvariantViolation, PreconditionError,
                     RepresentativeNotFound)
from .fixtures import FIXTURE_NAMES, fixture
from .graph import CurveGraph, load, read_json, write_json
from .lift import build_c2, is_synchronized, one_tail_diagnostic
from .suites import ALL_SUITES, SuiteConfig, replay, run_suite, suite_oracle
from .tails import nested

USAGE_ERROR = 2
NEGATIVE = 1


def _graph(arg: str) -> CurveGraph:
    if arg in FIXTURE_NAMES:
        return fixture(arg)
    return load(arg)


def _multidegree(G: CurveGraph, arg: str):
    inline = arg.lstrip().startswith("{") or not os.path.exists(arg)
    return dg.multidegree(G, read_json(arg, inline))


def _emit(args, payload: dict, text_lines):
    if args.json:
        print(write_json(payload))
    else:
        for line in text_lines:
            print(line)


def _family_text(G, masks):
    if not masks:
        return "(empty)"
    return " < ".join("{" + ",".join(G.names_of(w)) + "}" for w in masks)


def _parse_match(G, pair_arg: str, match_arg: str):
    ids = pair_arg.split(",")
    if len(ids) != 2:
        raise PreconditionError("--pair needs two node ids, e.g. e12,e13")
    r1, r2 = (G.node_index(x.strip()) for x in ids)
    pairs = []
    for chunk in match_arg.split(","):
        sides = chunk.split(":")
        if len(sides) != 2:
            raise PreconditionError(
                "--match needs side pairs like C2:C3,C1:C1"
            )
        pairs.append((G.index(sides[0].strip()), G.index(sides[1].strip())))
    return bw.make_choice(G, r1, r2, pairs)


# -- subcommand handlers -------------------------------------------------------


def cmd_validate(G, args):
    _emit(args, {"valid": True, "graph": G.to_spec()},
          [f"valid: {G.p} components, {len(G.nodes)} nodes, "
           f"marked {G.names[G.marked]}"])
    return 0


def cmd_tails(G, args):
    if args.k is not None and args.k < 0:
        raise PreconditionError(f"--k must be non-negative, got {args.k}")
    masks = G.k_tails(args.k) if args.k is not None else G.tails()
    ks = ([args.k] * len(masks) if args.k is not None
          else [t.bit_count() for t in G.tail_table()[1]])
    payload = {"tails": [list(G.names_of(w)) for w in masks]}
    lines = [f"{len(masks)} tail(s)"
             + (f" with k={args.k}" if args.k is not None else "")]
    lines += ["  {" + ",".join(G.names_of(w)) + f"}}  k={k}" for w, k in zip(masks, ks)]
    _emit(args, payload, lines)
    return 0


def cmd_nested(G, args):
    anchors = G.subcurve(x.strip() for x in args.anchors.split(","))
    fam = nested(G, args.s, anchors)
    _emit(
        args,
        {"level": args.s, "anchors": list(G.names_of(anchors)),
         "family": [list(G.names_of(w)) for w in fam]},
        [f"nested level-{args.s} family at {{{','.join(G.names_of(anchors))}}}:",
         "  " + _family_text(G, fam)],
    )
    return 0


def cmd_twister(G, args):
    table = dg.twister(G)
    # the thm-24-oracle suite's disagreements: the oracle's twist or its error
    disagree = {}
    if args.oracle:
        _, bad = suite_oracle(G, None, bw.RECONSTRUCTED)
        disagree = {tuple(b["pair"]): str(tuple(b["oracle"])) if "oracle" in b
                    else b["error"] for b in bad}
    agree = not disagree
    lines = []
    for (g1, g2), alpha in sorted(table.items()):
        if g1 > g2:
            continue
        line = (f"alpha[{G.names[g1]},{G.names[g2]}] = "
                f"({', '.join(str(a) for a in alpha)})")
        if (G.names[g1], G.names[g2]) in disagree:
            line += f"  ORACLE DISAGREES: {disagree[G.names[g1], G.names[g2]]}"
        lines.append(line)
    if args.oracle:
        lines.append("oracle agreement: " + ("agree" if agree else "DISAGREE"))
    payload = {"alpha": {
        G.names[g1]: {G.names[g2]: dg.multidegree_map(G, table[g1, g2])
                      for g2 in range(G.p)}
        for g1 in range(G.p)}}
    if args.oracle:
        payload["oracle_agrees"] = agree
    _emit(args, payload, lines)
    if args.oracle and not agree:
        raise InvariantViolation("twister table disagrees with the oracle")
    return 0


def cmd_qs_check(G, args):
    d = _multidegree(G, args.multidegree)
    res = dg.is_quasistable(G, d)
    payload = {"multidegree": dg.multidegree_map(G, d), "quasistable": res.ok}
    lines = [f"quasistable: {res.ok}"]
    if not res.ok:
        payload["witness"] = {
            "subcurve": list(G.names_of(res.witness_subcurve)),
            "beta": dg.format_half(res.witness_beta2),
            "k": G.k(res.witness_subcurve),
        }
        lines.append(
            "witness: {"
            + ",".join(G.names_of(res.witness_subcurve))
            + f"}} with beta={dg.format_half(res.witness_beta2)}"
            + f", k={G.k(res.witness_subcurve)}"
        )
    _emit(args, payload, lines)
    return 0


def cmd_qs_reduce(G, args):
    cap = dg.SEARCH_BOUNDS[-1]
    if args.bound is not None and args.bound > cap:
        # an explicit bound asks for no more work than the default search
        raise PreconditionError(
            f"--bound must be at most {cap}, the default search's last bound, "
            f"got {args.bound}")
    d0 = _multidegree(G, args.multidegree)
    c, d = dg.quasistable_representative(G, d0, bound=args.bound)
    _emit(
        args,
        {"twist": dg.multidegree_map(G, c), "result": dg.multidegree_map(G, d)},
        [f"twist c = {dg.multidegree_map(G, c)}",
         f"quasistable result = {dg.multidegree_map(G, d)}"],
    )
    return 0


def cmd_plan(G, args):
    plan = bw.BlowupPlan() if args.empty else bw.plan_from_tails(G)
    _emit(args, {"plan": plan.to_spec(G)},
          [write_json(plan.to_spec(G))])
    return 0


def cmd_resolve(G, args):
    if args.plan:
        plan = bw.BlowupPlan.from_spec(G, read_json(args.plan))
    elif args.from_tails:
        plan = bw.plan_from_tails(G)
    else:
        plan = bw.BlowupPlan()
    report = bw.decide_resolution(G, plan, args.profile)
    lines = [("resolved" if report.resolved else "not resolved")]
    for p in report.failing_pairs():
        lines.append(f"  failing pair ({G.nodes[p.r1].id},{G.nodes[p.r2].id})")
    _emit(args, report.describe(G), lines)
    return 0 if report.resolved else NEGATIVE


def cmd_distinguished(G, args):
    choice = _parse_match(G, args.pair, args.match)
    pts = bw.distinguished_points(G, choice)
    payload = {"points": []}
    lines = []
    for pt in pts:
        verdict = bw.is_quasistable_point(G, pt, args.profile)
        desc = pt.describe(G)
        desc["quasistable"] = verdict.describe(G)
        payload["points"].append(desc)
        lines.append(
            f"point {pt.index}: triple "
            + " ".join("(" + ",".join(G.names[c] for c in pr) + ")"
                       for pr in sorted(pt.triple))
            + f"  quasistable={verdict.ok} [{args.profile}]"
        )
    _emit(args, payload, lines)
    return 0


def cmd_sync(G, args):
    choice = _parse_match(G, args.pair, args.match)
    pts = bw.distinguished_points(G, choice)
    pt = pts[args.point - 1]
    report = is_synchronized(G, pt)
    diagnostic_ok = not one_tail_diagnostic(G, pt)
    lines = [f"point {pt.index}: synchronized={report.synchronized}"]
    for l in report.levels:
        lines.append(
            f"  level {l.level}: {'ok' if l.ok else 'MISMATCH'}  "
            f"hat images {[','.join(G.names_of(w)) or '(exceptional)' for w in l.hat_images]}"
            f" vs base {[','.join(G.names_of(w)) for w in l.base_multiset]}"
        )
    lines.append(f"  level 1 diagnostic: {'ok' if diagnostic_ok else 'FAIL'}")
    _emit(args, {**report.describe(G), "one_tail_diagnostic_ok": diagnostic_ok},
          lines)
    return 0


def cmd_minimal(G, args):
    rep = bw.minimality_probe(G, args.profile)
    lines = []
    for (r1, r2), kind, _ in rep.classification:
        lines.append(f"pair ({G.nodes[r1].id},{G.nodes[r2].id}): {kind}")
    if rep.minimal_plan is not None:
        lines.append("minimal plan: " + json.dumps(rep.minimal_plan.to_spec(G)))
    lines.append(f"plan-from-tails minimal: {rep.phi_t_minimal}")
    _emit(args, rep.describe(G), lines)
    return 0


def cmd_verify(args):
    # the run flags default to SUPPRESS, so `args` holds only those given
    given = {name: getattr(args, name) for name in SuiteConfig.__slots__
             if name in args}
    if args.replay or args.discrepancy:
        # a replay takes its run from the dump; the demonstration takes a seed
        ignored = [_RUN_FLAG.get(k, "--" + k.replace("_", "-")) for k in given
                   if args.replay or k != "seed"]
        if ignored:
            mode = "--replay" if args.replay else "--discrepancy"
            raise PreconditionError(f"{mode} ignores {', '.join(ignored)}")
    if args.discrepancy:
        # The as-displayed reading breaks the resolution suite on the banana
        # fixture; replaying that failure is the demonstration, and finding
        # it is the pass.
        report = replay({"suite": "thm-64-resolution", "profile": bw.AS_DISPLAYED,
                         "graph": fixture("G2").to_spec(), **given})
        ok = any("failing_pairs" in v["context"]
                 for v in report.violations["thm-64-resolution"])
        payload = {**report.to_dict(), "discrepancy_demonstrated": ok}
        lines = ["as-displayed discrepancy demonstrated on the banana fixture:"
                 f" {ok}"]
    else:
        report = (replay(read_json(args.replay)) if args.replay
                  else run_suite(SuiteConfig(**given)))
        ok = report.ok
        payload = report.to_dict()
        lines = []
        for s in report.config.suites:
            n = len(report.violations[s])
            lines.append(f"{s:24s} checks={report.checks[s]:7d} "
                         f"{'ok' if n == 0 else f'VIOLATIONS={n}'}")
        lines.append(f"verdict: {'pass' if ok else 'FAIL'}")
    if not report.ok and args.dump:
        # written before anything is printed, so that an unwritable path
        # leaves stdout empty
        with open(args.dump, "w", encoding="utf-8") as fh:
            first = next(
                v for s in report.config.suites for v in report.violations[s]
            )
            fh.write(write_json(first))
        lines.append(f"first counterexample written to {args.dump}")
    _emit(args, payload, lines)
    return 0 if ok else NEGATIVE


def cmd_export_dot(G, args):
    print(build_c2(G).to_dot() if args.c2 else G.to_dot())
    return 0


def cmd_fixture(args):
    print(write_json(fixture(args.name).to_spec()))
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors take `main`'s one error path:
    argparse's message, named by the (sub)command that caught it."""

    def error(self, message):
        raise PreconditionError(f"{self.prog}: {message}")


# verify's run flags whose SuiteConfig field is not named after the flag
_RUN_FLAG = {"allow_loops": "--no-loops", "suites": "--suite"}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every
    later `main` call in the process (parsing never mutates it)."""
    p = _Parser(
        prog="tailcomb",
        description="Exact dual-graph combinatorics for nodal curves.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, handler, graph=True, **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(handler=handler)
        sp.add_argument("--json", action="store_true", help="emit JSON")
        if graph:
            sp.add_argument("graph")
        return sp

    add("validate", cmd_validate, help="check a graph description")

    sp = add("tails", cmd_tails, help="enumerate tails")
    sp.add_argument("--k", type=int, default=None)

    sp = add("nested", cmd_nested, help="nested tail family")
    sp.add_argument("--s", type=int, required=True, choices=(1, 2, 3))
    sp.add_argument("--anchors", required=True,
                    help="comma-separated component names")

    sp = add("twister", cmd_twister, help="twister coefficient table")
    sp.add_argument("--oracle", action="store_true",
                    help="cross-check against the brute-force search")

    sp = add("qs-check", cmd_qs_check, help="quasistability of a multidegree")
    sp.add_argument("multidegree", help="JSON map or path to one")

    sp = add("qs-reduce", cmd_qs_reduce, help="quasistable representative")
    sp.add_argument("multidegree")
    sp.add_argument("--bound", type=int, default=None)

    sp = add("plan", cmd_plan, help="emit a blowup plan")
    sp.add_argument("--empty", action="store_true", help="the plan with no pairs")

    sp = add("resolve", cmd_resolve, help="test whether a plan resolves")
    source = sp.add_mutually_exclusive_group()
    source.add_argument("--plan", default=None, help="plan JSON file")
    source.add_argument("--from-tails", action="store_true")
    sp.add_argument("--profile", default=bw.RECONSTRUCTED, choices=bw.PROFILES)

    sp = add("distinguished", cmd_distinguished,
             help="distinguished points of a matching")
    sp.add_argument("--pair", required=True, help="two node ids, e.g. e12,e13")
    sp.add_argument("--match", required=True, help="side pairs, e.g. C2:C3,C1:C1")
    sp.add_argument("--profile", default=bw.RECONSTRUCTED, choices=bw.PROFILES)

    sp = add("sync", cmd_sync, help="synchronization of a distinguished point")
    sp.add_argument("--pair", required=True)
    sp.add_argument("--match", required=True)
    sp.add_argument("--point", type=int, required=True, choices=(1, 2))

    sp = add("minimal", cmd_minimal, help="forced pairs and minimal plans")
    sp.add_argument("--profile", default=bw.RECONSTRUCTED, choices=bw.PROFILES)

    sp = add("verify", cmd_verify, graph=False, help="run the property suites")
    # the run flags: SuiteConfig's fields, defaulted by SuiteConfig alone
    run = {"default": argparse.SUPPRESS}
    sp.add_argument("--seed", type=int, **run)
    sp.add_argument("--instances", type=int, **run)
    sp.add_argument("--max-components", type=int, **run)
    sp.add_argument("--max-extra-edges", type=int, **run)
    sp.add_argument("--no-loops", dest="allow_loops", action="store_false", **run)
    sp.add_argument("--profile", choices=bw.PROFILES, **run)
    sp.add_argument("--suite", dest="suites", action="append", choices=ALL_SUITES,
                    **run)
    sp.add_argument("--jobs", type=int, **run)
    source = sp.add_mutually_exclusive_group()
    source.add_argument("--replay", default=None, help="re-run a counterexample dump")
    source.add_argument("--discrepancy", action="store_true",
                        help="demonstrate the as-displayed profile failure")
    sp.add_argument("--dump", default=None,
                    help="write the first counterexample to this file")

    sp = add("export-dot", cmd_export_dot, help="DOT rendering")
    sp.add_argument("--c2", action="store_true", help="render the subdivision")

    sp = add("fixture", cmd_fixture, graph=False,
             help="emit a built-in fixture as JSON")
    sp.add_argument("name", choices=FIXTURE_NAMES)

    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if "graph" in args:
            return args.handler(_graph(args.graph), args)
        return args.handler(args)
    except (GraphError, PreconditionError, RepresentativeNotFound,
            json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        for key, val in exc.witnesses.items():
            print(f"  {key}: {val}", file=sys.stderr)
        return NEGATIVE


if __name__ == "__main__":
    sys.exit(main())
