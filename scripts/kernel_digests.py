#!/usr/bin/env python3
"""Print two sha256 digests of every kernel in a fixed set: one of its
fields, bit for bit, and one of its canonical JSON.

One line per kernel: `name fields json`, or `name error:Type:message` when
building the kernel or its JSON raises.  `fields` hashes what does not
depend on the JSON layout: the sorted vars, the float64 bits of A, amp and
the constraint coefficients (`kernel_bits`), pihbar_pow, vol_pow, the names
each delta constraint ties and, for a walk's surface, its `surface_order`.
`json` hashes `to_json()`.  The set, at the points (3, 2, 1) and
(2.7, 1.35, 0.55):

- n_step_kernel at n = 1-200, hat and bar;
- the kernels of one n_step_kernels chain over the lengths 1-200, hat and
  bar; each `chain` line equals the `nstep` line of the same length;
- one_step_kernel, hat and bar, and multi_time_closed_form(n, m) at
  0 <= n, m <= 12 (a caustic angle, such as n = m = 0, is an error line);
- path_kernel on monotone paths of 1-300 steps, and on the same paths with a
  unit loop, 5-300 steps in all;
- path_kernel on seeded walks of 60-300 steps in the shape of perfbench's
  `paths` workload: backward pairs and unit loops among the forward steps,
  all in a random order;
- surface_kernel on flat k-by-k patches after 2k pop-ups at stride-picked
  sites, k = 4-12, each read back through its description
  (surface_from_dict of surface_to_dict), so the reader is covered too;
- surface_kernel on every surface of seeded random_deformation walks of 4k
  pops and undos from flat k-by-k patches, k = 3-6; the site a walk pops
  depends on the plaquette order, so these `fields` digests also cover each
  surface's plaquettes in stored order and its interior (`surface_order`);
- the four momentum kernels (hat and bar, with and without the potential);
- the 24 elementary-move kernels: moves a, b and c, both configurations, at
  the canonical coefficients and three one-sided bumps;
- path_kernel with explicit coefficients, the route of
  uniqueness_scan_1form, on the two corner paths and the seeded walks, at
  path_independent_coeffs(a, b) and at the same with b0 moved to make the
  hat-then-bar corner a delta kernel (`explicit_coeffs`).

Two builds of the library make the same kernels bit for bit exactly when
their outputs are equal:

    python scripts/kernel_digests.py > before.txt   # on one commit
    python scripts/kernel_digests.py > after.txt    # on the other
    diff before.txt after.txt

The JSON rounds every number to 15 decimal places, so `fields` covers the
bits it rounds away; a one-ulp change anywhere moves its line.  A change
of the canonical form, such as `kernel_format` 4, which dropped the `hbar`
label that no kernel computed with, moves every `json` column once and no
`fields` column.  To check such a change, run this script on both commits'
`src/` and compare the outputs: the `fields` column and every error line
must be equal, and only the `json` column may move.

    PYTHONPATH=old/src python scripts/kernel_digests.py > before.txt
    PYTHONPATH=new/src python scripts/kernel_digests.py > after.txt
    diff <(sed -E 's/ [0-9a-f]{64}$//' before.txt) <(sed -E 's/ [0-9a-f]{64}$//' after.txt)

A later change of how a field such as `amp` is stored can be checked the
same way, as long as `fields` hashes the value that both forms hold.

Usage: python scripts/kernel_digests.py
"""

import hashlib
import itertools
import sys
from dataclasses import replace
from functools import cache, partial

import numpy as np

from mdclab.errors import MdcError
from mdclab.params import LatticeParams, derive
from mdclab.qprop1d import (
    TimePath,
    momentum_factorized_kernel,
    multi_time_closed_form,
    n_step_kernel,
    n_step_kernels,
    one_step_kernel,
    path_independent_coeffs,
    path_kernel,
)
from mdclab.qsurface import (
    canonical_lattice_coeffs,
    elementary_move_surfaces,
    flat_patch,
    pop_up,
    pop_up_sites,
    random_deformation,
    surface_from_dict,
    surface_kernel,
    surface_to_dict,
)

POINTS = {"p321": (3.0, 2.0, 1.0), "pgen": (2.7, 1.35, 0.55)}
MAX_STEPS = 200
MAX_CLOSED_FORM = 12
MAX_PATH = 300
#: seeded walks per length, at lengths 60, 80, ..., 300
WALK_LENGTHS = range(60, 301, 20)
WALK_SEEDS = range(4)
PATCH_SIZES = range(4, 13)
#: random_deformation walks of 4k steps from flat k-by-k patches, one rng per (k, seed)
DEFORM_PATCH_SIZES = range(3, 7)
DEFORM_SEEDS = range(4)
#: the two corner paths of uniqueness_scan_1form
CORNERS = {"hb": ("+hat", "+bar"), "bh": ("+bar", "+hat")}
#: one-sided coefficient bumps that bring delta steps into the elementary moves
BUMPS = {"canonical": None, "c12": ("c", (1, 2), 1e-2), "c31": ("c", (3, 1), 1e-2), "b12": ("b", (1, 2), 1e-2)}


def stride_patch(k: int):
    """flat_patch(k, k) after 2k pop-ups at sites picked by a fixed stride,
    read back from its description."""
    surface = flat_patch(k, k)
    for n in range(2 * k):
        sites = pop_up_sites(surface)
        surface = pop_up(surface, sites[(7 * n + k) % len(sites)])
    return surface_from_dict(surface_to_dict(surface))


def _monotone_path(length: int, loop: bool) -> TimePath:
    """The monotone path of `length` steps, hats then bars; with `loop`, a
    unit loop a third of the way along and four steps fewer before it."""
    base = length - 4 if loop else length
    path = TimePath.monotone((base + 1) // 2, base // 2)
    return path.with_loop(base // 3) if loop else path


def _walk(length: int, seed: int) -> TimePath:
    """A walk of `length` steps in the shape of perfbench's `paths` inputs:
    length // 60 unit loops and length // 12 backward pairs (+d, -d), the
    forward rest split at random between hat and bar, the steps and pairs
    shuffled together, then the loops inserted at random visits."""
    rng = np.random.default_rng([length, seed])
    loops, pairs = length // 60, length // 12
    forward = length - 4 * loops - 2 * pairs
    n = int(rng.integers(forward // 4, 3 * forward // 4 + 1))
    steps = ["+hat"] * n + ["+bar"] * (forward - n)
    for _ in range(pairs):
        d = ("hat", "bar")[int(rng.integers(0, 2))]
        steps += ["+" + d, "-" + d]
    steps = [steps[i] for i in rng.permutation(len(steps))]
    for _ in range(loops):
        at = int(rng.integers(0, len(steps) + 1))
        steps[at:at] = ["+hat", "+bar", "-hat", "-bar"]
    return TimePath(tuple(steps))


def deformation_walk(k: int, seed: int):
    """The surfaces of a random_deformation walk of 4k single steps from
    flat_patch(k, k), in order."""
    rng = np.random.default_rng([k, seed])
    surface = flat_patch(k, k)
    for _ in range(4 * k):
        surface = random_deformation(surface, rng, 1)
        yield surface


def explicit_coeffs(derived) -> dict:
    """The explicit coefficients path_kernel takes on the route of
    uniqueness_scan_1form, by setting name: the path-independent family at
    the point's (a, b), and the same with b0 moved to zero the middle pivot
    of a hat-then-bar corner exactly, which makes delta steps."""
    cf = path_independent_coeffs(derived.a, derived.b)
    return {"pindep": cf, "cornerdelta": replace(cf, b0=-cf.alpha * (cf.a - cf.a0) / cf.beta)}


def surface_order(surface) -> bytes:
    """The plaquettes in stored order, then the sorted interior, as text."""
    return repr(([(p.base, p.plane, p.sign) for p in surface.plaquettes], sorted(surface.interior))).encode("utf-8")


def cases():
    """(name, build) for each kernel of the set, in a fixed order; build()
    returns the kernel.  A walk's surface comes as (name, build, order), its
    `surface_order` hashed after the kernel's bits."""
    for tag, point in POINTS.items():
        derived = derive(LatticeParams(*point))
        coeffs = canonical_lattice_coeffs(*point)
        for direction in ("hat", "bar"):
            for n in range(1, MAX_STEPS + 1):
                yield f"{tag}-nstep-{direction}-{n}", partial(n_step_kernel, n, derived, direction)
            yield f"{tag}-onestep-{direction}", partial(one_step_kernel, direction, derived)
        for direction in ("hat", "bar"):
            chain = cache(partial(n_step_kernels, range(1, MAX_STEPS + 1), derived, direction))
            for n in range(1, MAX_STEPS + 1):
                yield f"{tag}-chain-{direction}-{n}", lambda chain=chain, n=n: chain()[n - 1]
        for n, m in itertools.product(range(MAX_CLOSED_FORM + 1), repeat=2):
            yield f"{tag}-closed-{n}-{m}", partial(multi_time_closed_form, n, m, derived)
        for loop, shortest in ((False, 1), (True, 5)):
            for length in range(shortest, MAX_PATH + 1):
                name = f"{tag}-path-{'looped' if loop else 'monotone'}-{length}"
                yield name, lambda length=length, loop=loop: path_kernel(_monotone_path(length, loop), derived)
        for length, seed in itertools.product(WALK_LENGTHS, WALK_SEEDS):
            walk = partial(_walk, length, seed)
            yield f"{tag}-walk-{length}-{seed}", lambda walk=walk: path_kernel(walk(), derived)
        for k in PATCH_SIZES:
            yield f"{tag}-patch-{k}", lambda k=k: surface_kernel(stride_patch(k), coeffs)
        for direction in ("hat", "bar"):
            for zero in (False, True):
                name = f"{tag}-momentum-{direction}{'-free' if zero else ''}"
                yield name, partial(momentum_factorized_kernel, derived, direction, zero_potential=zero)
        for bump, spec in BUMPS.items():
            table = coeffs if spec is None else coeffs.perturbed(*spec)
            for move in "abc":
                for side, surface in enumerate(elementary_move_surfaces(move), 1):
                    yield f"{tag}-move-{move}{side}-{bump}", partial(surface_kernel, surface, table)
        for k, seed in itertools.product(DEFORM_PATCH_SIZES, DEFORM_SEEDS):
            for step, surface in enumerate(deformation_walk(k, seed), 1):
                name = f"{tag}-deform-{k}-{seed}-{step}"
                yield name, partial(surface_kernel, surface, coeffs), surface_order(surface)
        for setting, cf in explicit_coeffs(derived).items():
            for corner, steps in CORNERS.items():
                yield f"{tag}-{setting}-corner-{corner}", partial(path_kernel, TimePath(steps), derived, cf)
            for length, seed in itertools.product(WALK_LENGTHS, WALK_SEEDS):
                walk = partial(_walk, length, seed)
                yield f"{tag}-{setting}-walk-{length}-{seed}", lambda walk=walk, cf=cf: path_kernel(walk(), derived, cf)


def kernel_bits(kernel) -> bytes:
    """The float64 bits, little-endian, of A in sorted-name order, then amp's
    real and imaginary parts, and each delta constraint's coefficients in
    stored order."""
    order = np.argsort(np.array(kernel.vars))
    numbers = [kernel.A[np.ix_(order, order)].ravel(), [kernel.amp.real, kernel.amp.imag]]
    numbers += [[cv for _, cv in con.coeffs] for con in kernel.constraints]
    return np.concatenate(numbers).astype("<f8").tobytes()


def field_bytes(kernel) -> bytes:
    """The sorted vars, pihbar_pow, vol_pow and the names each delta
    constraint ties, in stored order, as text, then kernel_bits."""
    names = sorted(kernel.vars), str(kernel.pihbar_pow), kernel.vol_pow, [con.variables() for con in kernel.constraints]
    return repr(names).encode("utf-8") + kernel_bits(kernel)


def digest_line(name: str, build, *order: bytes) -> str:
    """The output line of one case."""
    try:
        kernel = build()
        text = kernel.to_json()
    except (MdcError, ValueError, ArithmeticError) as exc:
        return f"{name} error:{type(exc).__name__}:{exc}"
    fields = hashlib.sha256(field_bytes(kernel) + b"".join(order)).hexdigest()
    return f"{name} {fields} {hashlib.sha256(text.encode('utf-8')).hexdigest()}"


def digest_lines(limit: int | None = None):
    """The output lines of the first `limit` cases (all of them by default)."""
    for case in itertools.islice(cases(), limit):
        yield digest_line(*case)


def main() -> int:
    for line in digest_lines():
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
