"""Child process of the benchmark: one set-up or one measured run.

    python3 perfbench/worker.py setup   WORKLOAD SEED SECONDS WORKDIR
    python3 perfbench/worker.py measure WORKLOAD WORKDIR OUT [--trace]

`setup` imports tailcomb from the checkout's ``src`` and writes the inputs
(and, for commands, the graph files) under WORKDIR.  `measure` reads them,
runs the workload, checks every output after the clock stops and writes its
figures as JSON to OUT.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
from pathlib import Path

import metrics
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent


def import_tailcomb():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import tailcomb

    if Path(tailcomb.__file__).resolve().parent != src / "tailcomb":
        raise ImportError(f"tailcomb imported from {tailcomb.__file__}, not from {src}")


def inputs_path(workdir: Path, workload: str) -> Path:
    return workdir / f"inputs-{workload}.json"


def setup(workload: str, seed: int, seconds: float, workdir: Path):
    import_tailcomb()
    inputs = workloads.build_inputs(workload, seed, seconds, workdir)
    inputs_path(workdir, workload).write_text(json.dumps(inputs), encoding="utf-8")


def measure(workload: str, workdir: Path, out: Path, trace: bool):
    import_tailcomb()
    inputs = json.loads(inputs_path(workdir, workload).read_text(encoding="utf-8"))
    verify = inputs["config"]["kind"] == "verify"
    if verify:
        ops, digest = workloads.verify_ops(inputs), workloads.digest_verify
    else:
        ops, digest = workloads.command_ops(inputs), workloads.digest_command
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    try:
        results = workloads.run_ops(ops, digest, tracer)
    finally:
        if tracer is not None:
            tracer.remove()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    times = [t for t, _, _ in results]
    record = {
        "attempted": len(results),
        "wall_s": sum(times),
        "call_p50_ms": 1e3 * statistics.median(times),
        "call_p90_ms": 1e3 * workloads.percentile(times, 0.9),
        "peak_rss_mb": peak_rss_mb,
    }
    if verify:
        failures, checks = workloads.check_verify(inputs, results)
        record["checks"] = checks
    else:
        failures = workloads.check_commands(inputs, results)
        per_cmd: dict[str, list[float]] = {}
        for call, (t, _, _) in zip(inputs["calls"], results):
            per_cmd.setdefault(call["command"], []).append(t)
        record["per_command"] = {
            cmd: {"calls": len(ts), "p50_ms": 1e3 * statistics.median(ts),
                  "p90_ms": 1e3 * workloads.percentile(ts, 0.9)}
            for cmd, ts in per_cmd.items()
        }
    record["failed"] = len(failures)
    record["failures"] = failures[:20]
    if tracer is not None:
        record["trace"] = trace_summary(tracer, inputs, results, workdir)
    out.write_text(json.dumps(record), encoding="utf-8")


def trace_summary(tracer, inputs, results, workdir: Path) -> dict:
    values = {}
    for name, _, _, _ in metrics.PER_LAYER:
        stem, _, field = name.rpartition(".")
        if field in ("calls", "self_s", "count", "members", "twist_l1", "instances"):
            values[name] = tracer.value(stem, field)
    values["lift.lifted_vertices"] = tracer.lifted_vertices
    summary = {"values": values, "missing_targets": tracer.missing,
               "wall_s": sum(t for t, _, _ in results)}
    by_op = [tracer.op_suite_s(op) for op in range(len(results))]
    if any(by_op):
        totals = [sum(v.values()) for v in by_op]
        values["suites.instance_p50_ms"] = 1e3 * statistics.median(totals)
        values["suites.instance_p80_ms"] = 1e3 * workloads.percentile(totals, 0.8)
        slow = max(range(len(totals)), key=totals.__getitem__)
        values["suites.slowest_instance_s"] = totals[slow]
        summary["slowest_instance"] = slowest_instance(inputs, tracer, slow, by_op[slow])
    header = tracer.write_spans(workdir / f"spans-{inputs['workload']}")
    summary["spans"] = {"stored": header["count"], "dropped": header["dropped"],
                        "file": f"spans-{inputs['workload']}.bin"}
    return summary


def slowest_instance(inputs, tracer, op: int, suite_s: dict) -> dict:
    """Everything needed to re-run the slowest instance on its own."""
    from tailcomb.randgen import instance_graph

    inst = inputs["instances"][op]
    cfg = inputs["config"]
    G = instance_graph(inst["seed"], 0, cfg["max_components"], cfg["max_extra_edges"], True)
    suite = max(suite_s, key=suite_s.get)
    argv = ["tailcomb", "verify", "--seed", str(inst["seed"]), "--instances", "1",
            "--max-components", str(cfg["max_components"]),
            "--max-extra-edges", str(cfg["max_extra_edges"])]
    for s in cfg["suites"] or ():
        argv += ["--suite", s]
    layers = tracer.op_self_s(op)
    return {
        "seed": inst["seed"], "index": 0, "suite": suite.removeprefix("suites."),
        "suite_s": suite_s, "graph": G.to_spec(), "replay": " ".join(argv),
        "layer_self_s": dict(sorted(layers.items(), key=lambda kv: -kv[1])[:8]),
    }


def main(argv):
    mode, workload, *rest = argv
    if mode == "setup":
        seed, seconds, workdir = rest
        setup(workload, int(seed), float(seconds), Path(workdir))
    elif mode == "measure":
        workdir, out, *flags = rest
        measure(workload, Path(workdir), Path(out), "--trace" in flags)
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    os.chdir(ROOT)
    main(sys.argv[1:])
