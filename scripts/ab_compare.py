#!/usr/bin/env python3
"""Time two trees of mdclab against each other in one process.

    python3 scripts/ab_compare.py BASE_TREE NEW_TREE [--workloads report sweep paths surfaces]
                                  [--seed 1] [--rounds 20]

Each tree's src/mdclab is copied into a temporary directory under its own
package name, mdclab_a for BASE_TREE and mdclab_b for NEW_TREE, and both are
imported side by side; every import inside mdclab is relative, so the copies
do not see each other.  For each workload, the items of perfbench's workload
of that name are built at --seed, once per side, through perfbench/run.py's
own builders and runners, which are only read.  Each round times one pass of
the items on each side, the side that goes first alternating from round to
round, so both sides see the same host state.

Prints, per workload, each side's median pass time, the median of the
per-round ratios new / base and their quartiles (inclusive method; with one
round, the ratio itself), and whether both sides gave the same outputs:
the report bodies of `report` and `sweep` byte for byte, and the repr of
each path's and surface's result.  Timings from separate processes on a
shared host drift by up to 2x over minutes; the per-round ratio in one
process does not.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
WORKLOADS = ("report", "sweep", "paths", "surfaces")


def load_perfbench():
    """perfbench/run.py as a module, with the tracer.py beside it that it
    imports; no bytecode is written under perfbench/, and neither module is
    left in sys.modules."""
    before, write = set(sys.modules), sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = write
        for name in set(sys.modules) - before:
            del sys.modules[name]


def import_tree(tree: Path, package: str, into: Path, modules) -> SimpleNamespace:
    """Copy tree/src/mdclab to into/package and import its modules."""
    shutil.copytree(tree / "src" / "mdclab", into / package, ignore=shutil.ignore_patterns("__pycache__"))
    return SimpleNamespace(**{n: importlib.import_module(f"{package}.{n}") for n in modules})


def output_key(workload: str, result) -> object:
    """What two sides must agree on: a report's body and exit code (`report`
    and `sweep` both run `mdclab run`), else the repr of the result."""
    if workload in ("report", "sweep"):
        out, code, printed = result
        return out.read_bytes(), code
    return repr(result)


def compare(bench, sides, workload: str, seed: int, rounds: int, tmp: Path) -> dict:
    run = bench.RUNNERS[workload][0]
    contexts, items = [], []
    for name, m in sides:
        (tmp / f"{workload}-{name}").mkdir()
        contexts.append(bench.Context(workload, m, tmp / f"{workload}-{name}", {}))
        items.append(bench.INPUTS[workload](m, np.random.default_rng(seed)))
    same = [[output_key(workload, run(ctx, item)) for item in its] for ctx, its in zip(contexts, items)]
    times = [[], []]
    for r in range(rounds):
        for side in ((0, 1) if r % 2 == 0 else (1, 0)):
            gc.collect()
            t0 = perf_counter()
            for item in items[side]:
                run(contexts[side], item)
            times[side].append(perf_counter() - t0)
    ratios = [b / a for a, b in zip(*times)]
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive") if rounds > 1 else ratios * 3
    return {
        "items": len(items[0]),
        "base_s": statistics.median(times[0]),
        "new_s": statistics.median(times[1]),
        "ratio": median,
        "quartiles": (q1, q3),
        "same": same[0] == same[1],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=20)
    args = parser.parse_args(argv)
    for tree in (args.base, args.new):
        if not (tree / "src" / "mdclab" / "__init__.py").is_file():
            print(f"no mdclab sources under {tree / 'src'}", file=sys.stderr)
            return 2
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    bench = load_perfbench()
    with tempfile.TemporaryDirectory(prefix="mdclab-ab-") as tmp:
        tmp = Path(tmp)
        sys.path.insert(0, str(tmp))
        try:
            sides = [(name, import_tree(tree.resolve(), f"mdclab_{name}", tmp, bench.MODULES))
                     for name, tree in (("a", args.base), ("b", args.new))]
            print(f"seed {args.seed}, {args.rounds} rounds; ratio = new / base, median and quartiles over rounds")
            for workload in args.workloads:
                row = compare(bench, sides, workload, args.seed, args.rounds, tmp)
                print(f"{workload:9s} {row['items']:2d} items  base {1e3 * row['base_s']:9.3f} ms"
                      f"  new {1e3 * row['new_s']:9.3f} ms  ratio {row['ratio']:.4f}"
                      f" (quartiles {row['quartiles'][0]:.4f}-{row['quartiles'][1]:.4f})"
                      f"  outputs {'same' if row['same'] else 'DIFFER'}")
        finally:
            sys.path.remove(str(tmp))
            for name in [n for n in sys.modules if n.startswith(("mdclab_a", "mdclab_b"))]:
                del sys.modules[name]
    return 0


if __name__ == "__main__":
    sys.exit(main())
