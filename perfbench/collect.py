#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py [--workloads report,paths] [--seeds 1-10]
                                 [--seconds 25] [--traced] [--out FILE]

Each run is a fresh `perfbench/run.py` process.  For every workload and
end-to-end metric this prints the median, the quartiles and the spread
(q3 - q1) / median next to a third of the metric's bound in BENCHMARK.json,
and the spread of the unscaled values.  --traced adds one traced run per
workload at the first seed.  --out writes every run's result, the
environment and the summary as JSON (a BENCH_*.json file).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}")
    info = {"seed": seed, "trace": trace, "result": json.loads(lines[-1]), "log": lines[:-1],
            "measured": {}}
    for line in lines:
        if line.startswith("metric ") and "(measured " in line:
            info["measured"][line.split()[1]] = float(line.rsplit("(measured ", 1)[1].rstrip(")"))
        if line.startswith("env "):
            info["env"] = json.loads(line[4:])
        elif line.startswith("input_digest "):
            info["input_digest"] = line.split()[1]
    return info


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)

    out = {"seconds": args.seconds, "seeds": seeds, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            info = run_once(workload, seed, args.seconds, 0)
            runs.append(info)
            metrics = info["result"]["metrics"]
            print(f"{workload} seed {seed}: correct={info['result']['correct']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in sorted(metrics.items())), flush=True)
        summary = {}
        for name in bounds:
            values = [r["result"]["metrics"][name]["value"] for r in runs if name in r["result"]["metrics"]]
            if len(values) < 2:
                continue
            summary[name] = spread(values)
            s = summary[name]["spread"]
            steady = name == "setup_s" or (s is not None and s < bounds[name] / 3)
            ok &= steady
            measured = [r["measured"][name] for r in runs if name in r["measured"]]
            raw = f", unscaled {spread(measured)['spread']:.4f}" if len(measured) > 1 else ""
            print(f"  {workload:9s} {name:13s} median {summary[name]['median']:.6g} "
                  f"spread {s if s is None else round(s, 4)} (bound/3 {bounds[name] / 3:.4f}{raw})"
                  f"{'' if steady else '  NOT STEADY'}")
        entry = {"summary": summary, "runs": runs}
        if args.traced:
            entry["traced"] = run_once(workload, seeds[0], args.seconds, 1)
            per_layer = entry["traced"]["result"]["metrics"]
            overhead = per_layer["trace.wall_s"]["value"] / runs[0]["result"]["metrics"]["wall_s"]["value"] - 1
            entry["trace_overhead"] = overhead
            print(f"  {workload} traced at seed {seeds[0]}: wall_s overhead {100 * overhead:.1f}%")
        out["workloads"][workload] = entry
        out.setdefault("env", runs[0].get("env"))
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
