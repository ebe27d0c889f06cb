#!/usr/bin/env python3
"""Self-test of the benchmark, run in one process.

    python3 perfbench/selftest.py [--seed 1] [--seconds 7] [--workloads report,paths]

For each workload: one untraced run and two traced runs at one seed.  It
checks that the two traced runs give identical exact counts (calls, the
marginalize cases, max_vars, dense_bytes and the record counts), that no
wrapper is left on any mdclab module or class after a traced run, that
every run is correct, and that the printed metric names match
BENCHMARK.json.  It prints the tracing overhead per workload: traced over
untraced wall_s.  Exits 1 on any failed check.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
from tracer import COUNTERS, leftover_wrappers

EXACT_SUFFIXES = (".calls",)
EXACT_NAMES = set(COUNTERS) | {"harness.records.total", "harness.records.failed"}


def exact_counts(metrics: dict) -> dict:
    return {
        name: m["value"] for name, m in metrics.items()
        if name.endswith(EXACT_SUFFIXES) or name in EXACT_NAMES
    }


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=7.0)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()
    sys.path.insert(0, str(run.SRC))
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    failures = []

    def quiet(_line: str) -> None:
        pass

    for workload in args.workloads.split(","):
        plain = run.run_workload(workload, args.seed, args.seconds, False, log=quiet)
        traced = []
        for _ in range(2):
            traced.append(run.run_workload(workload, args.seed, args.seconds, True, log=quiet))
            left = leftover_wrappers()
            if left:
                failures.append(f"{workload}: wrappers left after a traced run: {left}")
        for result in (plain, *traced):
            if not result["correct"]:
                failures.append(f"{workload}: a run was not correct")
        if set(plain["metrics"]) != end_to_end:
            failures.append(f"{workload}: end-to-end names {sorted(plain['metrics'])}")
        if set(traced[0]["metrics"]) != per_layer:
            failures.append(f"{workload}: per-layer names differ: "
                            f"{sorted(set(traced[0]['metrics']) ^ per_layer)}")
        first, second = (exact_counts(t["metrics"]) for t in traced)
        differ = sorted(k for k in first if first[k] != second.get(k))
        if differ:
            failures.append(f"{workload}: exact counts differ between traced runs: {differ}")
        untraced_wall = plain["metrics"]["wall_s"]["value"]
        traced_wall = traced[0]["metrics"]["trace.wall_s"]["value"]
        print(f"{workload}: {len(first)} exact counts {'differ' if differ else 'identical'}; "
              f"tracing overhead {100 * (traced_wall / untraced_wall - 1):+.1f}% "
              f"(wall_s {untraced_wall:.4g} s untraced, {traced_wall:.4g} s traced)", flush=True)
    for msg in failures:
        print(f"FAIL {msg}")
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
