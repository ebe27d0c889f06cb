"""Acceptance gate: every criterion at its stated tolerance, one line each."""
from dataclasses import replace

import numpy as np
import pytest

from mdclab import lattice, p3, qprop1d, qsurface, reduction
from mdclab.errors import DeltaConstraintError
from mdclab.oscgauss import compare
from mdclab.params import (
    LatticeParams,
    bar_matrix,
    check_sij_identity,
    check_stt_identity,
    derive,
    edge_params,
    hat_matrix,
)

from conftest import sample_triples, square_corners

SEED = 321


def nan_max(*values) -> float:
    """The largest value, iterable arguments unpacked; a NaN anywhere is the
    result.  The builtin max drops one: max(0.0, nan) is 0.0, and a max over
    a generator keeps a NaN only when it comes first."""
    return float(np.max([v for arg in values for v in (arg if np.iterable(arg) else (arg,))]))


def announce(number: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def d321():
    return derive(LatticeParams(3.0, 2.0, 1.0))


def test_criterion_01_parameter_identities():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for p, q, r in sample_triples(rng, 1000):
        worst = nan_max(worst, check_stt_identity(p, q, r))
        worst = nan_max(worst, check_sij_identity(p, q, r))
    s, t, tp = 0.2, 0.5, 1.0 / 3.0
    exact = (
        abs(s * t * tp - 1.0 / 30.0)
        + abs(s - t + tp - 1.0 / 30.0)
        + abs(edge_params(3, 2, 1).s[(1, 2)] - 5.0)
        + abs(edge_params(3, 2, 1).s[(2, 3)] - 3.0)
        + abs(edge_params(3, 2, 1).s[(3, 1)] + 2.0)
    )
    announce(1, worst <= 1e-12 and exact <= 1e-15,
             f"identity sweep max {worst:.2e}, worked values off by {exact:.2e}")


def test_criterion_02_consistency_and_closure():
    rng = np.random.default_rng(SEED)
    triples = sample_triples(rng, 50)
    worst_mdc = 0.0
    worst_closure = 0.0
    offshell = []
    for k in range(1000):
        p, q, r = triples[k % len(triples)]
        u, u1, u2, u3 = rng.normal(size=4)
        cube = lattice.complete_cube(u, u1, u2, u3, p, q, r)
        worst_mdc = nan_max(worst_mdc, lattice.mdc_spread(cube, p, q, r))
        worst_closure = nan_max(worst_closure, lattice.closure_residual(cube, p, q, r))
        offshell.append(lattice.closure_residual(replace(cube, u12=cube.u12 + 0.1), p, q, r))
    median_off = float(np.median(offshell))
    ok = worst_mdc <= 1e-12 and worst_closure <= 1e-10 and median_off >= 1e-3
    announce(2, ok,
             f"cube spread {worst_mdc:.2e}, closure {worst_closure:.2e}, "
             f"off-shell median {median_off:.2e}")


def test_criterion_03_reduction_structure(d321):
    rng = np.random.default_rng(SEED)
    points = [d321] + [derive(LatticeParams(*t)) for t in sample_triples(rng, 10)]
    worst_det = worst_comm = worst_orbit = worst_mom = worst_common = 0.0
    for d in points:
        S, T = hat_matrix(d.s), bar_matrix(d.t, d.tprime)
        worst_det = nan_max(worst_det, abs(np.linalg.det(S) - 1), abs(np.linalg.det(T) - 1))
        worst_comm = nan_max(worst_comm, reduction.commutator_residual(S, T))
        z = rng.normal(size=2)
        for M, coeff in ((S, d.b), (T, d.a)):
            orb = reduction.orbit(M, z, 100)
            vals = [reduction.invariant_eval(orb[k, 0], orb[k + 1, 0], coeff) for k in range(100)]
            worst_orbit = nan_max(worst_orbit, (abs(v - vals[0]) for v in vals))
        # each invariant is also preserved along the *other* map's orbit
        for M, other, coeff in ((S, T, d.a), (T, S, d.b)):
            orb = reduction.orbit(M, z, 100)
            vals = [
                reduction.invariant_eval(orb[k, 0], (other @ orb[k])[0], coeff)
                for k in range(101)
            ]
            worst_orbit = nan_max(worst_orbit, (abs(v - vals[0]) for v in vals))
        xh, xb = (S @ z)[0], (T @ z)[0]
        worst_mom = nan_max(worst_mom, abs(
            reduction.momentum(z[0], xh, d, "hat") - reduction.momentum(z[0], xb, d, "bar")
        ))
        orb = reduction.orbit(S, z, 50)
        const = reduction.match_invariant_constant([(orb[0, 0], orb[1, 0])], d)
        for k in (9, 27, 44):
            X = reduction.momentum(orb[k, 0], orb[k + 1, 0], d, "hat")
            lhs = reduction.invariant_eval(orb[k, 0], orb[k + 1, 0], d.b)
            worst_common = nan_max(
                worst_common, abs(lhs - const * reduction.invariant_common(orb[k, 0], X, d.P))
            )
    ok = (worst_det <= 1e-12 and worst_comm <= 1e-12 and worst_orbit <= 1e-9
          and worst_mom <= 1e-10 and worst_common <= 1e-10)
    announce(3, ok,
             f"det {worst_det:.2e}, commutator {worst_comm:.2e}, orbit {worst_orbit:.2e}, "
             f"momenta {worst_mom:.2e}, common invariant {worst_common:.2e}")


def test_criterion_04_oneform_closure(d321):
    rng = np.random.default_rng(SEED)
    co = reduction.closure_coeffs(d321)
    worst = nan_max(
        reduction.oneform_closure_residual(*square_corners(rng.normal(size=2), d321), co) for _ in range(200)
    )
    floors = []
    for name in ("alpha", "beta", "a0", "b0"):
        vals = [
            reduction.oneform_closure_residual(
                *square_corners(rng.normal(size=2), d321), replace(co, **{name: getattr(co, name) + 1e-2})
            )
            for _ in range(51)
        ]
        floors.append(float(np.median(vals)))
    ok = worst <= 1e-10 and np.min(floors) > 1e-4
    announce(4, ok, f"on-shell box {worst:.2e}, perturbed medians >= {np.min(floors):.2e}")


def test_criterion_05_period3(d321):
    rng = np.random.default_rng(SEED)
    H = p3.p3_hat_matrix(d321.s)
    B = p3.p3_bar_matrix(d321.t, d321.tprime)
    worst_comm = reduction.commutator_residual(H, B)
    bracket = p3.poisson_bracket(
        p3.QuadraticObservable.invariant_one(), p3.QuadraticObservable.invariant_two(d321.s)
    )
    z = rng.normal(size=4)
    i0 = p3.p3_invariants(z, d321.s)
    zh = z.copy()
    zb = z.copy()
    for _ in range(100):
        zh = H @ zh
        zb = B @ zb
    drift = nan_max(
        abs(v - w) for zz in (zh, zb) for v, w in zip(p3.p3_invariants(zz, d321.s), i0)
    )
    joint = p3.p3_joint_solution_residual(p3.p3_joint_modes(H, B), d321, tuple(rng.normal(size=4)))
    ok = worst_comm <= 1e-12 and bracket == 0.0 and drift <= 1e-9 and joint <= 1e-8
    announce(5, ok,
             f"commutator {worst_comm:.2e}, bracket {bracket:.1e}, "
             f"invariant drift {drift:.2e}, joint grid {joint:.2e}")


def test_criterion_06_propagators(d321):
    worst_tri = nan_max(
        abs(qprop1d.tridiagonal_det(n, d321, 1.0) - qprop1d.tridiagonal_det_closed_form(n, d321, 1.0))
        / abs(qprop1d.tridiagonal_det_closed_form(n, d321, 1.0))
        for n in range(1, 21)
    )
    n2 = abs(qprop1d.tridiagonal_det(2, d321, 1.0) + 8.5j)
    worst_nstep = nan_max(
        compare(qprop1d.n_step_kernel(n, d321), qprop1d.multi_time_closed_form(n, 0, d321)).exponent_diff
        for n in range(1, 21)
    )
    worst_ub = nan_max(
        err
        for diff in (
            compare(qprop1d.momentum_factorized_kernel(d321, dd), qprop1d.one_step_kernel(dd, d321))
            for dd in ("hat", "bar")
        )
        for err in (diff.exponent_diff, diff.amp_ratio_error)
    )
    ok = worst_tri <= 1e-12 and n2 <= 1e-12 and worst_nstep <= 1e-9 and worst_ub <= 1e-11
    announce(6, ok,
             f"tridiagonal rel {worst_tri:.2e}, two-step value off {n2:.2e}, "
             f"iterated-vs-closed {worst_nstep:.2e}, factorized step {worst_ub:.2e}")


def test_criterion_07_path_independence(d321):
    rng = np.random.default_rng(SEED)
    checks = []
    swap = compare(
        qprop1d.path_kernel(qprop1d.TimePath(("+hat", "+bar")), d321),
        qprop1d.path_kernel(qprop1d.TimePath(("+bar", "+hat")), d321),
    )
    checks.append(swap)
    square = compare(
        qprop1d.path_kernel(qprop1d.TimePath(("+bar", "+hat", "-bar")), d321),
        qprop1d.one_step_kernel("hat", d321),
    )
    checks.append(square)
    base = qprop1d.TimePath(("+hat", "+hat"))
    checks.append(compare(qprop1d.path_kernel(base.with_loop(1), d321), qprop1d.path_kernel(base, d321)))
    worst_elem = nan_max(c.exponent_diff for c in checks)
    worst_amp = nan_max(c.amp_ratio_error for c in checks)
    worst_path = 0.0
    for endpoint in ((3, 2), (2, 3)):
        target = qprop1d.multi_time_closed_form(*endpoint, d321)
        for _ in range(50):
            path = qprop1d.random_path(rng, *endpoint)
            diff = compare(qprop1d.path_kernel(path, d321), target)
            worst_path = nan_max(worst_path, diff.exponent_diff)
            worst_amp = nan_max(worst_amp, diff.amp_ratio_error)
    ok = worst_elem <= 1e-10 and worst_amp <= 1e-10 and worst_path <= 1e-9
    announce(7, ok,
             f"elementary checks {worst_elem:.2e}, amp ratio off {worst_amp:.2e}, "
             f"100 random paths {worst_path:.2e}")


def test_criterion_08_oneform_uniqueness(d321):
    co = qprop1d.path_independent_coeffs(d321.a, d321.b)
    base = qprop1d.uniqueness_scan_1form(d321, co).exponent_diff
    floors = []
    for name in ("alpha", "beta", "a0", "b0"):
        bumped = replace(co, **{name: getattr(co, name) + 1e-3})
        floors.append(qprop1d.uniqueness_scan_1form(d321, bumped).exponent_diff)
    ok = base <= 1e-9 and np.min(floors) > 1e-5
    announce(8, ok, f"canonical mismatch {base:.2e}, perturbed floor {np.min(floors):.2e}")


def test_criterion_09_surface_independence(d321):
    rng = np.random.default_rng(SEED)
    co = qsurface.canonical_lattice_coeffs(3.0, 2.0, 1.0)
    flat = qsurface.flat_patch(1, 1)
    pop = compare(
        qsurface.surface_kernel(qsurface.pop_up(flat, 0), co),
        qsurface.surface_kernel(flat, co),
    ).exponent_diff
    worst_move = nan_max(
        qsurface.elementary_move_check(move, co).exponent_diff for move in "abc"
    )
    patch = qsurface.flat_patch(3, 3)
    reference = qsurface.surface_kernel(patch, co)
    worst_deform = 0.0
    for _ in range(20):
        deformed = qsurface.random_deformation(patch, rng, int(rng.integers(2, 8)))
        worst_deform = nan_max(
            worst_deform, compare(qsurface.surface_kernel(deformed, co), reference).exponent_diff
        )
    ok = pop <= 1e-12 and worst_move <= 1e-12 and worst_deform <= 1e-10
    announce(9, ok,
             f"pop-up {pop:.2e}, moves {worst_move:.2e}, 20 deformations {worst_deform:.2e}")


def test_criterion_10_twoform_uniqueness():
    co = qsurface.canonical_lattice_coeffs(3.0, 2.0, 1.0)
    base = qsurface.uniqueness_scan_2form(co)
    floors = []
    for table, pair in (
        ("a", (1, 2)), ("a", (2, 3)), ("a", (3, 1)),
        ("b", (1, 2)), ("b", (2, 3)), ("b", (3, 1)),
        ("d", (1, 2)), ("d", (2, 3)), ("d", (3, 1)),
    ):
        res = qsurface.uniqueness_scan_2form(co.perturbed(table, pair, 1e-2))
        floors.append(float("inf") if res["delta_rejected"] else res["exponent_diff"])
    sym = co.perturbed("c", (1, 2), 1e-2)
    sym = sym.perturbed("c", (2, 1), 1e-2)
    res_sym = qsurface.uniqueness_scan_2form(sym)
    floors.append(float("inf") if res_sym["delta_rejected"] else res_sym["exponent_diff"])
    asym = co.perturbed("c", (1, 2), 1e-2)
    ok_delta = qsurface.uniqueness_scan_2form(asym)["delta_rejected"]
    try:
        qsurface.surface_kernel(qsurface.elementary_move_surfaces("a")[1], asym)
        raised = False
    except DeltaConstraintError:
        raised = True
    ok = base["critical"] and np.min(floors) > 1e-5 and ok_delta and raised
    announce(10, ok,
             f"canonical critical={base['critical']}, perturbation floor {np.min(floors):.2e}, "
             f"asymmetric c rejected={ok_delta and raised}")


def test_criterion_11_operator_invariant(d321):
    worst = nan_max(
        qprop1d.invariant_kernel_residual(n, d321, direction, 1.0)
        for n in range(1, 11)
        for direction in ("hat", "bar")
    )
    announce(11, worst <= 1e-12, f"kernel identity coefficient residual {worst:.2e}")


def test_criterion_12_continuous_flows(d321):
    worst_flow = nan_max(
        r
        for par in (d321.b, d321.a)
        for m in (1, 2, 3)
        for r in reduction.continuous_flow_residual(par, m, 1.0, 0.7)
    )
    fd5 = reduction.continuous_flow_fd_error(d321.b, 3, 1.0, 0.7, h=1e-5)
    fd4 = reduction.continuous_flow_fd_error(d321.b, 3, 1.0, 0.7, h=1e-4)
    second_order = fd5 <= 1e-8 and fd4 <= 1e-6
    worst_multi = nan_max(
        r
        for m in (1, 2)
        for n in (2, 3)
        for r in reduction.continuous_multiform_residual(d321.a, d321.b, m, n, 0.9, -0.4)
    )
    ok = worst_flow <= 1e-10 and second_order and worst_multi <= 1e-8
    announce(12, ok,
             f"flow residuals {worst_flow:.2e}, fd(1e-5) {fd5:.2e}, multiform {worst_multi:.2e}")
