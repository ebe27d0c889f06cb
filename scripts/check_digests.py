#!/usr/bin/env python3
"""Check the report bodies against the digests in perfbench/expected.json.

For each (workload, harness seed) entry of expected.json, recompute
run(SuiteConfig(seed=seed, trials=trials)).to_json(), the body that
`mdclab run --out` writes, and compare its sha256 with the recorded one.
`report` runs at the default trials and `sweep` at perfbench/run.py's
SWEEP_TRIALS.  Both perfbench files are only read.  Prints each mismatch
and a summary line, and exits 1 on any mismatch.

Usage: python scripts/check_digests.py
"""

import ast
import hashlib
import json
import sys
from pathlib import Path

from mdclab.harness import SuiteConfig, run

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
EXPECTED = PERFBENCH / "expected.json"


def sweep_trials() -> int:
    """SWEEP_TRIALS of perfbench/run.py, parsed from its source, not run."""
    for node in ast.parse((PERFBENCH / "run.py").read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "SWEEP_TRIALS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError("perfbench/run.py defines no SWEEP_TRIALS")


def main(workloads=None, seeds=None) -> int:
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    trials = {"sweep": sweep_trials()}
    checked = mismatched = 0
    for workload in workloads or sorted(expected):
        for seed, entry in sorted(expected[workload].items(), key=lambda item: int(item[0])):
            if seeds and int(seed) not in seeds:
                continue
            config = SuiteConfig(seed=int(seed), **({"trials": trials[workload]} if workload in trials else {}))
            digest = hashlib.sha256(run(config).to_json().encode("utf-8")).hexdigest()
            checked += 1
            if digest != entry["sha256"]:
                mismatched += 1
                print(f"MISMATCH {workload} seed {seed}: sha256 {digest}, expected {entry['sha256']}")
    print(f"{mismatched} of {checked} report digests differ")
    return int(mismatched > 0)


if __name__ == "__main__":
    sys.exit(main())
