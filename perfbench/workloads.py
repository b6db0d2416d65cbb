"""Workload definitions, input generation, the measured loops and output checks.

All inputs come from the benchmark seed.  Each verify operation is one
``run_suite`` call with ``instances=1`` on a config seed found by scanning
``seed * 1_000_000 + j``; each commands operation is one in-process
``tailcomb.cli.main`` call on a graph written to disk during set-up.

Why the draws are stratified: suite cost grows steeply with the number of
components and extra edges, so a plain stream of 50 instances varies 2x
between seeds at the defaults and 13x at the larger sizes.  Operations are
therefore drawn in rounds; each round holds one graph per (components,
extra edges) cell of the workload, and across the rounds the loop counts of
each cell follow its Binomial(extra, 1/components) law.  With equally likely
cells, as the generator draws them, a run has the generator's own mix of
graphs (less the rarest loop counts), and most between-seed variance is gone.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import time
from math import comb
from pathlib import Path

ALL = None  # every suite
SYNC_SUITES = ("lemma-61", "prop-62", "thm-63-pairwise")

# round_s: measured seconds per round at the commit that defined the
# benchmark (2-CPU Xeon, Python 3.11); rounds = seconds / round_s, so the
# work of a run is fixed by --seconds and its counts repeat exactly.
WORKLOADS = {
    "verify-default": {
        "kind": "verify",
        "max_components": 6,
        "max_extra_edges": 4,
        "suites": ALL,
        "cells": [(p, x) for p in range(1, 7) for x in range(5)],
        "round_s": 2.7,
    },
    "verify-lifted": {
        "kind": "verify",
        "max_components": 8,
        "max_extra_edges": 5,
        "suites": SYNC_SUITES,
        "cells": [(4, 4), (4, 5), (5, 4)],
        "round_s": 0.43,
    },
    "commands": {
        "kind": "commands",
        "max_components": 7,
        "max_extra_edges": 4,
        "cells": [(p, x) for p in range(1, 8) for x in range(5)],
        "degree_range": 2,
        "round_s": 0.7,
    },
}
COMMANDS = ("qs-reduce", "minimal", "resolve")
MAX_CANDIDATES = 1_000_000
MIN_LOOP_SHARE = 0.05


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / WORKLOADS[workload]["round_s"]))


def loop_quota(p: int, x: int, rounds: int) -> list[int]:
    """Loop count per round for one cell, in the proportions of
    Binomial(x, 1/p) by largest remainder.  Counts rarer than MIN_LOOP_SHARE
    are left out: waiting for them would make set-up time depend on luck."""
    probs = {k: comb(x, k) * (1 / p) ** k * (1 - 1 / p) ** (x - k) for k in range(x + 1)}
    probs = {k: q for k, q in probs.items() if q >= MIN_LOOP_SHARE}
    total = sum(probs.values())
    exact = {k: rounds * q / total for k, q in probs.items()}
    counts = {k: int(v) for k, v in exact.items()}
    short = rounds - sum(counts.values())
    for k in sorted(exact, key=lambda k: counts[k] - exact[k])[:short]:
        counts[k] += 1
    return [k for k in sorted(counts) for _ in range(counts[k])]


def draw_seeds(workload: str, seed: int, rounds: int) -> list[dict]:
    """Config seeds whose first instance fills each (cell, round) slot."""
    from tailcomb.randgen import instance_graph

    spec = WORKLOADS[workload]
    mc, mx, cells = spec["max_components"], spec["max_extra_edges"], spec["cells"]
    quotas = [loop_quota(p, x, rounds) for p, x in cells]
    slots = [{"round": r, "p": p, "extra": x, "loops": quotas[c][r], "seed": None}
             for r in range(rounds) for c, (p, x) in enumerate(cells)]
    pending: dict[tuple, list[int]] = {}
    for i in reversed(range(len(slots))):  # pop() then fills the earliest slot
        s = slots[i]
        pending.setdefault((s["p"], s["extra"], s["loops"]), []).append(i)
    remaining = len(slots)
    for j in range(MAX_CANDIDATES):
        if not remaining:
            break
        cand = seed * MAX_CANDIDATES + j
        G = instance_graph(cand, 0, mc, mx, True)
        key = (G.p, len(G.nodes) - G.p + 1, sum(nd.is_loop for nd in G.nodes))
        q = pending.get(key)
        if q:
            slots[q.pop()]["seed"] = cand
            remaining -= 1
    if remaining:
        raise RuntimeError(f"{remaining} slots unfilled after {MAX_CANDIDATES} candidates")
    return slots


def build_inputs(workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    """Everything a measured run needs; graph files are written for commands."""
    spec = WORKLOADS[workload]
    rounds = rounds_for(workload, seconds)
    slots = draw_seeds(workload, seed, rounds)
    inputs = {"workload": workload, "seed": seed, "seconds": seconds,
              "rounds": rounds, "config": spec}
    if spec["kind"] == "verify":
        inputs["instances"] = slots
        return inputs
    from tailcomb.randgen import child_rng, instance_graph

    gdir = workdir / f"graphs-{workload}"
    gdir.mkdir(parents=True, exist_ok=True)
    calls = []
    span = spec["degree_range"]
    for i, slot in enumerate(slots):
        G = instance_graph(slot["seed"], 0, spec["max_components"],
                           spec["max_extra_edges"], True)
        path = gdir / f"{i}.json"
        text = G.to_json()
        # Rewriting unchanged files would make set-up time follow the disk.
        if not path.exists() or path.read_text(encoding="utf-8") != text:
            path.write_text(text, encoding="utf-8")
        rng = child_rng(slot["seed"], "degree")
        while True:  # every entry in [-span, span], the last one included
            d = [rng.randint(-span, span) for _ in range(G.p - 1)]
            if abs(sum(d)) <= span:
                break
        d.append(-sum(d))
        d0 = {G.names[m]: d[m] for m in range(G.p)}
        argvs = {"qs-reduce": ["qs-reduce", str(path), json.dumps(d0)],
                 "minimal": ["minimal", str(path)],
                 "resolve": ["resolve", str(path), "--from-tails"]}
        for cmd in COMMANDS:
            calls.append({"command": cmd, "argv": argvs[cmd] + ["--json"], "graph": str(path),
                          "d0": d0, "seed": slot["seed"], "p": slot["p"],
                          "extra": slot["extra"]})
    inputs["calls"] = calls
    return inputs


# -- measured loops ------------------------------------------------------------


def run_ops(ops, digest, tracer=None):
    """Run the operations back to back; returns (seconds, output, error) per op.

    Only the call itself is timed; `digest` reduces each raw output to what
    the checks need, after the clock has stopped.
    """
    results = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.start_op(i)
        t0 = time.perf_counter()
        try:
            out, err = op(), None
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            out, err = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.end_op()
        if err is None:
            try:
                out = digest(out)
            except Exception as exc:  # unreadable output fails its check
                out, err = None, f"{type(exc).__name__}: {exc}"
        results.append((t1 - t0, out, err))
    return results


def verify_ops(inputs):
    from tailcomb import suites

    spec = inputs["config"]
    base = {"instances": 1, "max_components": spec["max_components"],
            "max_extra_edges": spec["max_extra_edges"], "jobs": 1}
    if spec["suites"]:
        base["suites"] = tuple(spec["suites"])
    ops = []
    for inst in inputs["instances"]:
        cfg = suites.SuiteConfig(seed=inst["seed"], **base)
        ops.append(lambda cfg=cfg: suites.run_suite(cfg))
    return ops


def digest_verify(report):
    return {"ok": report.ok,
            "violations": sum(len(v) for v in report.violations.values()),
            "checks": dict(report.checks)}


def command_ops(inputs):
    import tailcomb.cli

    def call(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = tailcomb.cli.main(list(argv))
        return code, out.getvalue(), err.getvalue()

    return [lambda argv=c["argv"]: call(argv) for c in inputs["calls"]]


def digest_command(out):
    code, stdout, stderr = out
    if code not in (0, 1):
        return code, None, stderr
    data = json.loads(stdout)
    keep = ("twist", "result", "resolved", "minimal_plan", "profile")
    return code, {k: data[k] for k in keep if k in data}, stderr


# -- output checks (outside the timed region) ------------------------------------


def check_verify(inputs, results) -> tuple[list[str], dict]:
    failures = []
    checks: dict[str, int] = {}
    for inst, (_, out, err) in zip(inputs["instances"], results):
        if err is not None:
            failures.append(f"seed {inst['seed']}: {err}")
            continue
        for name, n in out["checks"].items():
            checks[name] = checks.get(name, 0) + n
        if not out["ok"] or out["violations"]:
            failures.append(f"seed {inst['seed']}: {out['violations']} violations")
    return failures, checks


def _laplacian_twist(G, d0, c):
    """d0 + L.c with the Laplacian built here, independently of the package."""
    d = list(d0)
    for nd in G.nodes:
        if nd.a == nd.b:
            continue
        for u, v in ((nd.a, nd.b), (nd.b, nd.a)):
            d[v] += c[v] - c[u]
    return d


def check_command(call, out, err) -> str | None:
    from tailcomb import blowup, degrees, graph

    if err is not None:
        return err
    code, data, stderr = out
    if code != 0:
        return f"exit {code}: {stderr.strip()[:200]}"
    G = graph.load(call["graph"])
    if call["command"] == "qs-reduce":
        c = [data["twist"][n] for n in G.names]
        d = [data["result"][n] for n in G.names]
        d0 = [call["d0"][n] for n in G.names]
        if c[G.marked] != 0:
            return "twist not normalized at the marked component"
        if d != _laplacian_twist(G, d0, c):
            return "result is not d0 + L.c"
        if not degrees.is_quasistable(G, tuple(d)).ok:
            return "result is not quasistable"
    elif call["command"] == "resolve":
        if data["resolved"] is not True:
            return "plan from tails does not resolve (Thm 6.4)"
    elif data["minimal_plan"] is not None:
        plan = blowup.BlowupPlan.from_spec(G, data["minimal_plan"])
        if not blowup.decide_resolution(G, plan, data["profile"]).resolved:
            return "minimal plan does not resolve"
    return None


def check_commands(inputs, results) -> list[str]:
    failures = []
    for call, (_, out, err) in zip(inputs["calls"], results):
        try:
            why = check_command(call, out, err)
        except Exception as exc:  # malformed output is a failed check
            why = f"{type(exc).__name__}: {exc}"
        if why:
            failures.append(f"{call['command']} {call['graph']}: {why}")
    return failures


def percentile(values, q: float) -> float:
    """Inclusive-method quantile; q in (0, 1)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]
