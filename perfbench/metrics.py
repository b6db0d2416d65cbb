"""The benchmark's metrics, with what each per-layer metric is expected to move.

BENCHMARK.json lists the same names (its entries may carry only name, unit,
better and bound), so the predictions live here; `check_manifest` keeps the
two in step.  A "call" is one public call a workload makes: one ``run_suite``
(one instance) on the verify workloads, one ``tailcomb.cli.main`` on commands.
"""

from __future__ import annotations

from tracer import suite_stem

SUITE_NAMES = ("closure-22/23", "prop-31", "thm-24-oracle", "lemma-35",
               "thm-36-admissibility", "lemma-61", "prop-62", "thm-63-pairwise",
               "thm-64-resolution", "qs-uniqueness")

# name, unit, better, bound
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("call_p50_ms", "ms", "lower", 0.25),
    ("call_p90_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
)

VD, VL, CM = "verify-default", "verify-lifted", "commands"
_TAILS = "wall_s on verify-lifted (most of it) and verify-default (~20%); not commands"

# name, unit, better, what it should move (end-to-end metric on workload)
PER_LAYER = (
    ("graph.tails.calls", "count", "lower", f"wall_s on {VD}"),
    ("graph.tails.self_s", "s", "lower", f"wall_s on {VD}; call_p50_ms on {CM}"),
    ("graph.tails.count", "count", "lower", f"wall_s on {VD}"),
    ("graph.lifted_tails.calls", "count", "lower", _TAILS),
    ("graph.lifted_tails.self_s", "s", "lower", _TAILS),
    ("graph.lifted_tails.count", "count", "lower", _TAILS),
    ("tails.nested.calls", "count", "lower", f"wall_s on {VD} and {VL}"),
    ("tails.nested.self_s", "s", "lower", f"wall_s on {VD} and {VL}; call_p50_ms on {CM} (minimal, resolve)"),
    ("tails.nested.members", "count", "lower", f"wall_s on {VD} and {VL}"),
    ("tails.symm_diff.calls", "count", "lower", f"wall_s on {VD}"),
    ("tails.symm_diff.self_s", "s", "lower", f"wall_s on {VD}"),
    ("tails.tail_family.self_s", "s", "lower", f"wall_s on {VD}"),
    ("degrees.delta.calls", "count", "lower", f"wall_s on {VD}"),
    ("degrees.delta.self_s", "s", "lower", f"wall_s on {VD}"),
    ("degrees.twister.self_s", "s", "lower", f"wall_s on {VD}"),
    ("degrees.qs_representative.calls", "count", "lower", f"call_p90_ms on {CM}; wall_s on {VD}"),
    ("degrees.qs_representative.self_s", "s", "lower", f"call_p90_ms and wall_s on {CM}"),
    ("degrees.qs_representative.twist_l1", "count", "lower", f"call_p90_ms on {CM}"),
    ("degrees.lemma35_difference.self_s", "s", "lower", f"wall_s on {VD}"),
    ("degrees.is_quasistable.self_s", "s", "lower", f"wall_s on {VD}"),
    ("blowup.admissibility_check.calls", "count", "lower", f"wall_s on {VD}"),
    ("blowup.admissibility_check.self_s", "s", "lower", f"wall_s on {VD}"),
    ("blowup.admissibility_check.instances", "count", "lower", f"wall_s on {VD}"),
    ("blowup.is_quasistable_point.calls", "count", "lower", f"wall_s on {VD} and {VL}; call_p50_ms on {CM}"),
    ("blowup.is_quasistable_point.self_s", "s", "lower", f"wall_s on {VD} and {VL}; call_p50_ms on {CM}"),
    ("blowup.plan_from_tails.self_s", "s", "lower", f"call_p50_ms on {CM} (resolve, minimal)"),
    ("blowup.decide_resolution.self_s", "s", "lower", f"call_p50_ms on {CM} (resolve)"),
    ("blowup.minimality_probe.self_s", "s", "lower", f"call_p50_ms on {CM} (minimal)"),
    ("lift.build_c2.calls", "count", "lower", f"wall_s on {VD} and {VL}; zero on {CM}"),
    ("lift.build_c2.self_s", "s", "lower", f"wall_s on {VD} and {VL}; zero on {CM}"),
    ("lift.lifted_vertices", "count", "lower", f"wall_s on {VL}; zero on {CM}"),
    ("lift.is_synchronized.calls", "count", "lower", f"wall_s on {VD} and {VL}; zero on {CM}"),
    ("lift.is_synchronized.self_s", "s", "lower", f"wall_s on {VD} and {VL}; zero on {CM}"),
    ("lift.one_tail_diagnostic.calls", "count", "lower", f"wall_s on {VD} and {VL}; zero on {CM}"),
    ("lift.one_tail_diagnostic.self_s", "s", "lower", f"wall_s on {VD} and {VL}; zero on {CM}"),
    ("lift.hat_families.self_s", "s", "lower", f"wall_s on {VD} and {VL}; zero on {CM}"),
    ("lift.eq34_level2.self_s", "s", "lower", f"wall_s on {VD} and {VL}; zero on {CM}"),
    *((f"{suite_stem(s)}.self_s", "s", "lower", f"wall_s on {VD}" + (f" and {VL}" if s in (
        "lemma-61", "prop-62", "thm-63-pairwise") else "")) for s in SUITE_NAMES),
    ("suites.checks", "count", "higher", "no time metric; must repeat exactly"),
    ("suites.instance_p50_ms", "ms", "lower", f"call_p50_ms on {VD} and {VL}"),
    ("suites.instance_p80_ms", "ms", "lower", f"call_p90_ms on {VD} and {VL}"),
    ("suites.slowest_instance_s", "s", "lower", f"call_p90_ms and wall_s on {VD} and {VL}"),
    ("cli.main.calls", "count", "lower", f"none (one per {CM} call)"),
    ("cli.main.self_s", "s", "lower", f"call_p50_ms on {CM}"),
    ("cli.qs_reduce_p50_ms", "ms", "lower", f"call_p50_ms on {CM}"),
    ("cli.qs_reduce_p90_ms", "ms", "lower", f"call_p90_ms on {CM}"),
    ("cli.minimal_p50_ms", "ms", "lower", f"call_p50_ms on {CM}"),
    ("cli.resolve_p50_ms", "ms", "lower", f"call_p50_ms on {CM}"),
    ("failed_ratio", "ratio", "lower", "every metric; must read 0"),
    ("trace.overhead_ratio", "ratio", "lower", "none (traced over untraced wall_s)"),
)


def check_manifest(manifest: dict) -> list[str]:
    """Differences between BENCHMARK.json and the tables above."""
    problems = []
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        want = [(n, u, b) for n, u, b, _ in table]
        have = [(m.get("name"), m.get("unit"), m.get("better"))
                for m in manifest.get(key, [])]
        if want != have:
            problems.append(f"{key} in BENCHMARK.json differs from perfbench/metrics.py")
    return problems
