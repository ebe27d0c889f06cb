#!/usr/bin/env python3
"""Time the `surfaces` workload's four steps on deformed patches of growing size.

    PYTHONPATH=src python3 scripts/scale_surfaces.py [K ...] [--seed 1] [--pops-per-cell F] [--perimeter]

For each k given (default 16 24 32 48 96), perfbench's deformed_patch(k, 2k)
at --seed, a flat k-by-k patch after 2k pop-ups at random fresh sites, goes
through the steps of the `surfaces` workload at the point (3, 2, 1), each
timed once: surface_from_dict, surface_kernel, compare against the flat
patch's kernel (built before the timing) and to_json.  With
--pops-per-cell F the patch takes round(F k^2) pop-ups instead of 2k, the
dense deformations of larger surfaces.  perfbench/run.py is only read, as
scripts/ab_compare.py reads it; nothing is written under perfbench/.

With --perimeter, the patch of each k (default 16 24 32) is instead the
flat k-by-k patch whose perimeter is its boundary and whose (k-1)^2 other
vertices are interior, the case where the elimination fills its rows in;
--seed and --pops-per-cell are not used.  Its compare step compares the
kernel with a first build of the same description, made before the
timing, so its diff reads 0 whenever two builds agree.

Each k runs in a process of its own, one k at a time, which imports the
mdclab that this process imports.  The peak memory printed is that
process's ru_maxrss: the interpreter, numpy and the flat patch's kernel
included.  Per k, the row gives the number of boundary variables, the four
times, the peak memory, compare's exponent_diff, the kernel's vol_pow (its
volume factors), and the length and the first 16 hex digits of the sha256
of the JSON text, so that two builds' texts can be compared.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from ab_compare import load_perfbench

SIZES = (16, 24, 32, 48, 96)
PERIMETER_SIZES = (16, 24, 32)
POINT = (3.0, 2.0, 1.0)
STEPS = ("surface_from_dict", "surface_kernel", "compare", "to_json")


def perimeter_patch(k: int) -> dict:
    """The description of the flat k-by-k patch whose boundary is its
    perimeter, every other vertex interior."""
    from mdclab import qsurface

    flat = qsurface.flat_patch(k, k)
    boundary = {v for v in flat.boundary if v[0] in (0, k) or v[1] in (0, k)}
    return qsurface.surface_to_dict(qsurface.Surface(flat.plaquettes, flat.boundary - boundary, boundary))


def measure(k: int, seed: int, perimeter: bool, pops_per_cell: float | None = None) -> dict:
    """The four steps on deformed_patch(k, 2k), or round(F k^2) pop-ups for
    F = pops_per_cell, or with `perimeter` on perimeter_patch(k), their
    seconds, the peak memory of this process in MB, the kernel's vol_pow and
    the JSON text's length and digest."""
    from mdclab import oscgauss, qsurface

    coeffs = qsurface.canonical_lattice_coeffs(*POINT)
    if perimeter:
        description = perimeter_patch(k)
        reference = qsurface.surface_kernel(qsurface.surface_from_dict(description), coeffs)
    else:
        pops = 2 * k if pops_per_cell is None else round(pops_per_cell * k * k)
        description = load_perfbench().deformed_patch(k, pops, np.random.default_rng(seed))
        reference = qsurface.surface_kernel(qsurface.flat_patch(k, k), coeffs)
    seconds = []

    def timed(step, *args):
        t0 = perf_counter()
        out = step(*args)
        seconds.append(perf_counter() - t0)
        return out

    surface = timed(qsurface.surface_from_dict, description)
    kernel = timed(qsurface.surface_kernel, surface, coeffs)
    diff = timed(oscgauss.compare, kernel, reference)
    text = timed(kernel.to_json)
    return {
        "vars": len(kernel.vars),
        "seconds": seconds,
        "exponent_diff": diff.exponent_diff,
        "vol_pow": kernel.vol_pow,
        # ru_maxrss is in kB on Linux
        "peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "json_len": len(text),
        "json_sha": hashlib.sha256(text.encode("utf-8")).hexdigest()[:16],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sizes", nargs="*", type=int, metavar="K")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pops-per-cell", type=float, metavar="F",
                        help="round(F k^2) pop-ups per patch instead of 2k")
    parser.add_argument("--perimeter", action="store_true",
                        help="time flat patches whose perimeter is the boundary, the rest interior")
    # the per-k process: measure one k and print its row as JSON
    parser.add_argument("--one", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sizes = args.sizes or list(PERIMETER_SIZES if args.perimeter else SIZES)
    if any(k < 1 for k in sizes):
        parser.error("each K must be at least 1")
    if args.pops_per_cell is not None and not 0.0 <= args.pops_per_cell < float("inf"):
        parser.error("F must be a finite number at least 0")
    if args.one:
        print(json.dumps(measure(sizes[0], args.seed, args.perimeter, args.pops_per_cell)))
        return 0
    import mdclab

    src = str(Path(mdclab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    if args.perimeter:
        patches = "perimeter patches"
    else:
        patches = f"seed {args.seed}, " + ("2k pop-ups" if args.pops_per_cell is None
                                           else f"round({args.pops_per_cell:g} k^2) pop-ups")
    print(f"{patches}, point {POINT}; seconds per step, peak = the per-k process's ru_maxrss")
    print(f"{'k':>4} {'vars':>6} " + " ".join(f"{name:>17}" for name in STEPS)
          + f" {'peak MB':>8} {'diff':>9} {'vol_pow':>7}  json")
    for k in sizes:
        child = subprocess.run([sys.executable, __file__, str(k), "--seed", str(args.seed), "--one",
                                *(["--perimeter"] if args.perimeter else []),
                                *([] if args.pops_per_cell is None else ["--pops-per-cell", repr(args.pops_per_cell)])],
                               env=env, capture_output=True, text=True, check=True)
        row = json.loads(child.stdout)
        print(f"{k:4d} {row['vars']:6d} " + " ".join(f"{s:17.4f}" for s in row["seconds"])
              + f" {row['peak_mb']:8.1f} {row['exponent_diff']:9.2e} {row['vol_pow']:7d}"
              + f"  {row['json_len']} B {row['json_sha']}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
