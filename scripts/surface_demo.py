#!/usr/bin/env python3
"""End-to-end demo of the surface description format.

Builds a 2x2 patch, pops two cubes out of it, writes the JSON description,
then recomputes the boundary kernel from the file and confirms the exponent
matches the flat patch (the surface independence property).

Usage: python scripts/surface_demo.py [surface.json]
"""

import json
import sys

import numpy as np

from mdclab.oscgauss import compare
from mdclab.qsurface import (
    canonical_lattice_coeffs,
    flat_patch,
    pop_up,
    pop_up_sites,
    surface_from_dict,
    surface_kernel,
    surface_to_dict,
)


def main(path: str = "surface.json") -> int:
    rng = np.random.default_rng(1)
    coeffs = canonical_lattice_coeffs(3.0, 2.0, 1.0)
    patch = flat_patch(2, 2)
    deformed = patch
    for _ in range(2):
        sites = pop_up_sites(deformed)
        deformed = pop_up(deformed, int(sites[rng.integers(0, len(sites))]))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(surface_to_dict(deformed), fh, indent=2, sort_keys=True)
    print(f"surface with {len(deformed.plaquettes)} plaquettes written to {path}")

    with open(path, encoding="utf-8") as fh:
        loaded = surface_from_dict(json.load(fh))
    kernel = surface_kernel(loaded, coeffs)
    reference = surface_kernel(patch, coeffs)
    diff = compare(kernel, reference)
    print(f"boundary kernel exponent differs from the flat patch by {diff.exponent_diff:.3e}")
    print(f"bookkeeping: vol_pow={kernel.vol_pow}, pihbar_pow={kernel.pihbar_pow}, "
          f"|amp|={abs(kernel.amp):.6g}")
    return 0 if diff.exponent_diff < 1e-10 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else "surface.json"))
