"""The pinned verify runs: each suite's check count and the SHA-256 of the
timing-stripped `verify --json` text, per (config, seed), at the sizes where
the size-selected paths (the tail search, lemma 2.7, the box scan) run.

`tests/test_pinned_runs.py` recomputes every entry of `pinned_runs.json`.
This script writes that file; pytest does not collect it.  Rerun it only when
an output is meant to change, and say why:

    PYTHONPATH=src python tests/pinned_runs.py
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

from tailcomb.suites import ALL_SUITES, SuiteConfig, run_suite

DATA = Path(__file__).with_name("pinned_runs.json")

_WITHOUT_ORACLE = tuple(s for s in ALL_SUITES if s != "thm-24-oracle")
_WITHOUT_CLOSURE_AND_ORACLE = tuple(s for s in _WITHOUT_ORACLE if s != "closure-22/23")

# name -> the SuiteConfig settings of the run, seed aside
CONFIGS = {
    "50x(6,4)": {"instances": 50, "max_components": 6, "max_extra_edges": 4},
    "10x(20,14)": {"instances": 10, "max_components": 20, "max_extra_edges": 14,
                   "suites": _WITHOUT_ORACLE},
    "10x(30,20)": {"instances": 10, "max_components": 30, "max_extra_edges": 20,
                   "suites": _WITHOUT_CLOSURE_AND_ORACLE},
}
SEEDS = (1, 2, 3)


def pinned_run(config: str, seed: int) -> dict:
    """The check counts and the digest of one run."""
    report = run_suite(SuiteConfig(seed=seed, **CONFIGS[config]))
    text = report.to_json(include_timing=False)
    return {"checks": report.checks,
            "sha256": hashlib.sha256(text.encode("ascii")).hexdigest()}


def all_runs() -> dict:
    """Every pinned run, {config: {seed: run}}, computed in two worker
    processes: the runs are independent, and the largest take a second."""
    keys = [(config, seed) for config in CONFIGS for seed in SEEDS]
    with ProcessPoolExecutor(2, mp_context=get_context("spawn")) as pool:
        runs = dict(zip(keys, pool.map(pinned_run, *zip(*keys))))
    return {config: {str(seed): runs[config, seed] for seed in SEEDS}
            for config in CONFIGS}


if __name__ == "__main__":
    DATA.write_text(json.dumps(all_runs(), indent=2) + "\n", encoding="ascii")
    print(f"wrote {DATA}")
