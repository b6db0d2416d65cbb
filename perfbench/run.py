"""Benchmark of tailcomb: suite throughput, command latency, per-layer self time.

    python3 perfbench/run.py --workload verify-default --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The set-up is run several times, each in a
fresh process, and `setup_s` is their median; the measured run is one more
child process, killed when it overruns its budget (every operation then
counts as failed).  With ``--trace 1`` an untraced run and a traced run of the
same operations are made, and the per-layer metrics come from the traced one.
The last line of standard output is the result as one JSON object; the full
record, with run metadata and the slowest instance, is also written to
``.perfbench/result-<workload>-<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
DEADLINE_S = 170  # the whole invocation, set-up included


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def child(args: list[str], timeout: float) -> tuple[int | None, float, str]:
    """Run one worker; returns (exit code or None on timeout, seconds, stderr)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        return None, time.perf_counter() - t0, ""
    return proc.returncode, time.perf_counter() - t0, proc.stderr


def measure(args, workdir: Path, trace: bool, budget: float, attempted: int) -> dict:
    out = workdir / f"run-{args.workload}-{int(trace)}.json"
    out.unlink(missing_ok=True)
    argv = ["measure", args.workload, str(workdir), str(out)] + (["--trace"] if trace else [])
    code, elapsed, err = child(argv, budget)
    if code == 0 and out.exists():
        return json.loads(out.read_text(encoding="utf-8"))
    why = "over budget" if code is None else f"exit {code}: {err.strip()[-400:]}"
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return {"attempted": attempted, "failed": attempted, "failures": [why],
            "wall_s": elapsed, "call_p50_ms": 1e3 * elapsed, "call_p90_ms": 1e3 * elapsed,
            "peak_rss_mb": rss, "aborted": why}


def per_layer(plain: dict, traced: dict, failed: int) -> dict:
    values = dict.fromkeys((name for name, *_ in metrics.PER_LAYER), 0)
    values.update(traced.get("trace", {}).get("values", {}))
    values["suites.checks"] = sum(traced.get("checks", {}).values())
    for cmd in workloads.COMMANDS:
        stats = plain.get("per_command", {}).get(cmd)
        if stats:
            key = cmd.replace("-", "_")
            values[f"cli.{key}_p50_ms"] = stats["p50_ms"]
            if f"cli.{key}_p90_ms" in values:
                values[f"cli.{key}_p90_ms"] = stats["p90_ms"]
    values["failed_ratio"] = failed / traced["attempted"]
    values["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.perf_counter()

    if not (ROOT / "src" / "tailcomb" / "__init__.py").is_file():
        print(f"error: no tailcomb sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    manifest_path = ROOT / "BENCHMARK.json"
    problems = metrics.check_manifest(json.loads(manifest_path.read_text(encoding="utf-8")))
    if problems:
        print("error: " + "; ".join(problems), file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench"
    workdir.mkdir(exist_ok=True)

    setup_times = []
    for _ in range(SETUP_REPEATS):
        code, elapsed, err = child(["setup", args.workload, str(args.seed),
                                    str(args.seconds), str(workdir)], DEADLINE_S / 4)
        if code != 0:
            print(f"error: set-up failed ({code}): {err.strip()[-2000:]}", file=sys.stderr)
            return 2
        setup_times.append(elapsed)
    inputs = json.loads((workdir / f"inputs-{args.workload}.json").read_text())
    attempted = len(inputs.get("instances") or inputs.get("calls"))

    left = DEADLINE_S - (time.perf_counter() - start)
    if args.trace:
        plain = measure(args, workdir, False, 0.4 * left, attempted)
        left = DEADLINE_S - (time.perf_counter() - start)
        run = measure(args, workdir, True, left, attempted)
        failed = max(run["failed"], plain["failed"])
        values = per_layer(plain, run, failed)
    else:
        plain = run = measure(args, workdir, False, left, attempted)
        values = {"setup_s": statistics.median(setup_times)}
        values.update({name: run[name] for name, *_ in metrics.END_TO_END if name in run})
        failed = run["failed"]
    result = {
        "correct": failed == 0,
        "attempted": run["attempted"],
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit, *_ in (metrics.PER_LAYER if args.trace
                                           else metrics.END_TO_END)},
    }
    record = {
        "result": result,
        "meta": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "cpu_count": os.cpu_count(),
            "cpu_model": cpu_model(),
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "config": inputs["config"],
            "rounds": inputs["rounds"],
            "operations": attempted,
            "setup_s_samples": setup_times,
        },
        "counts": {k: run[k] for k in ("checks", "per_command") if k in run},
        "failures": run.get("failures", []) + (plain.get("failures", []) if args.trace else []),
    }
    if args.trace:
        record["trace"] = run.get("trace", {})
        record["untraced_wall_s"] = plain["wall_s"]
    path = workdir / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True), encoding="utf-8")
    summary = {k: record[k] for k in ("meta", "counts")}
    if args.trace:
        summary["slowest_instance"] = record["trace"].get("slowest_instance")
    print(json.dumps(summary, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
