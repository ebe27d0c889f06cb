#!/usr/bin/env python3
"""Residual landscape over a grid of lattice parameters.

Sweeps (p, q) at fixed r and records the parameter-identity residual, the
closure residual of a random on-shell cube and the one-step factorization
mismatch.  Output is a CSV for external plotting.

Usage: python scripts/sweep_residuals.py [out.csv] [grid_points]
"""

import csv
import sys

import numpy as np

from mdclab import lattice, qprop1d
from mdclab.errors import MdcError
from mdclab.oscgauss import compare
from mdclab.params import LatticeParams, check_stt_identity, derive


def main(out: str = "residual_sweep.csv", n: int = 15) -> int:
    rng = np.random.default_rng(0)
    r = 1.0
    grid = np.linspace(0.6, 3.0, n)
    rows = []
    for p in grid:
        for q in grid:
            if min(abs(p - q), abs(p - r), abs(q - r)) < 0.1:
                continue
            d = derive(LatticeParams(float(p), float(q), r))
            u, u1, u2, u3 = rng.normal(size=4)
            cube = lattice.complete_cube(u, u1, u2, u3, d.p, d.q, d.r)
            row = {
                "p": d.p, "q": d.q, "r": d.r, "b": d.b, "a": d.a, "P": d.P,
                "stt_residual": check_stt_identity(d.p, d.q, d.r),
                "closure_residual": lattice.closure_residual(cube, d.p, d.q, d.r),
            }
            try:
                diff = compare(
                    qprop1d.momentum_factorized_kernel(d), qprop1d.one_step_kernel("hat", d)
                )
                row["factorized_step_mismatch"] = diff.exponent_diff
            except MdcError:
                row["factorized_step_mismatch"] = ""
            rows.append(row)
    with open(out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"{len(rows)} rows written to {out}")
    return 0


if __name__ == "__main__":
    out = sys.argv[1] if len(sys.argv) > 1 else "residual_sweep.csv"
    n = int(sys.argv[2]) if len(sys.argv) > 2 else 15
    sys.exit(main(out, n))
