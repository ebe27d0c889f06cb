"""Seeded suite orchestration with deterministic JSON reports.

A SuiteConfig names a seed, a trial count, a parameter source (explicit
triples or a sampling range with degeneracy guards) and the suites to run;
`run` executes every selected suite and returns a SuiteReport whose canonical
JSON body is a pure function of the configuration.  Three record kinds occur:

  check   residual must stay at or below its tolerance;
  probe   a deliberately broken input, the residual must *exceed* the
          tolerance (expected failures count as passes);
  report  informational residuals with no pass/fail semantics, e.g. how far
          the quoted one-line constants sit from the derived values.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import operator
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import lattice, p3, qprop1d, qsurface, reduction
from .errors import ConfigError, DegenerateCoeffs, DegenerateParams, DeltaConstraintError, OutOfRegime
from .oscgauss import compare
from .params import (
    LatticeParams,
    bar_matrix,
    check_sij_identity,
    check_stt_identity,
    derive,
    edge_params,
    hat_matrix,
    mu_identity_residual,
    printed_constant_residuals,
)

DEFAULT_TOLERANCES: dict[str, float] = {
    "stt": 1e-12,
    "sij": 1e-12,
    "mu_identity": 1e-12,
    "mdc": 1e-12,
    "closure_onshell": 1e-10,
    "closure_offshell_min": 1e-3,
    "det_unit": 1e-12,
    "commutator": 1e-12,
    "corner": 1e-10,
    "orbit_invariant": 1e-9,
    "momenta_match": 1e-10,
    "invariant_common": 1e-10,
    "oneform_onshell": 1e-10,
    "oneform_perturbed_min": 1e-4,
    "solution_grid": 1e-10,
    "contflow": 1e-10,
    # central differences at h = 1e-5 carry an O(h^2) truncation whose
    # prefactor grows near |b| -> 1; 1e-7 leaves room across the sweep range
    "contflow_fd": 1e-7,
    "multiform": 1e-8,
    "p3_commutator": 1e-12,
    "p3_bracket": 0.0,
    "p3_orbit_invariant": 1e-9,
    "p3_joint": 1e-8,
    "p3_joint_perturbed_min": 1e-5,
    "tridiag_rel": 1e-12,
    "nstep_exponent": 1e-9,
    "ub_exponent": 1e-11,
    "path_exponent": 1e-9,
    "corner_swap": 1e-10,
    "amp_ratio": 1e-10,
    "uniq1d_pass": 1e-9,
    "uniq1d_perturbed_min": 1e-5,
    "qinvariant": 1e-12,
    "popup": 1e-12,
    "move": 1e-12,
    "deformation": 1e-10,
    "uniq2d_perturbed_min": 1e-5,
}

#: Rejection guards for random parameter triples.
GUARD_GAP = 0.1
GUARD_SUM = 0.1
#: Rejection rounds `sample_triples` takes at most before it refuses a range.
SAMPLE_ROUNDS = 20_000
#: The largest trial count a config takes: the params suite holds about 100 bytes per trial; --csv streams its rows,
#: holding about 40 bytes per trial, and writes about 480 bytes of file per trial.
MAX_TRIALS = 1_000_000


def _guards_satisfiable(low: float, high: float) -> bool:
    """Whether the triples in [low, high] that clear both guards have positive
    measure, that is whether `sample_triples` can ever return.

    Sort a triple x < y < z.  Its sums are then sorted too, so either all
    three exceed GUARD_SUM, or only x + y lies below -GUARD_SUM, or only
    y + z lies above GUARD_SUM, or all three lie below -GUARD_SUM; v -> -v
    maps the last two cases onto the first two.  Each case is a strict linear
    system whose solvability reduces to one comparison of the bounds.
    """
    g, s = GUARD_GAP, GUARD_SUM

    def all_sums_above(lo: float, hi: float) -> bool:
        return max(lo + g, (s + g) / 2) + g < hi

    def one_sum_below(lo: float, hi: float) -> bool:
        return max(lo, s - hi) < min(hi - 2 * g, -(s + g) / 2)

    return any(
        case(lo, hi) for case in (all_sums_above, one_sum_below) for lo, hi in ((low, high), (-high, -low))
    )


def _is_a(value, kind: type) -> bool:
    """isinstance that does not take a bool (a JSON true) for the number 1."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """A real number, not a bool, that a float holds finitely: an int past the float range is not one."""
    try:
        return _is_a(value, numbers.Real) and math.isfinite(value)
    except OverflowError:
        return False


@dataclass(frozen=True)
class SuiteConfig:
    seed: int = 42
    trials: int = 1000
    params: tuple[tuple[float, float, float], ...] = ()
    range_low: float = 0.5
    range_high: float = 3.0
    hbar: float = 1.0
    tolerances: dict[str, float] = field(default_factory=dict)
    suites: tuple[str, ...] = field(default_factory=lambda: tuple(SUITES))

    def __post_init__(self):
        if not _is_a(self.seed, numbers.Integral) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not _is_a(self.trials, numbers.Integral) or not 1 <= self.trials <= MAX_TRIALS:
            raise ConfigError(f"trials must be an integer in [1, {MAX_TRIALS}], got {self.trials!r}")
        if not isinstance(self.params, (tuple, list)):
            raise ConfigError(f"params must be a list of [p, q, r] rows, got {self.params!r}")
        for row in self.params:
            if not (isinstance(row, (tuple, list)) and len(row) == 3 and all(map(_is_finite, row))):
                raise ConfigError(f"params row {row!r} is not a [p, q, r] triple of finite numbers")
        object.__setattr__(self, "params", tuple(tuple(float(x) for x in row) for row in self.params))
        if not (_is_finite(self.hbar) and self.hbar > 0):
            raise ConfigError(f"hbar must be finite and positive, got {self.hbar!r}")
        if not (isinstance(self.suites, (tuple, list)) and all(isinstance(name, str) for name in self.suites)):
            raise ConfigError(f"suites must be a list of suite names, got {self.suites!r}")
        if not self.suites:
            raise ConfigError("suites must name at least one suite, got none")
        unknown = set(self.suites) - set(SUITES)
        if unknown:
            raise ConfigError(f"unknown suites: {sorted(unknown)}; pick from {tuple(SUITES)}")
        if not isinstance(self.tolerances, dict):
            raise ConfigError(f"tolerances must map names to values, got {self.tolerances!r}")
        unknown = set(self.tolerances) - set(DEFAULT_TOLERANCES)
        if unknown:
            raise ConfigError(f"unknown tolerance names: {sorted(unknown)}")
        for name, value in sorted(self.tolerances.items()):
            if not (_is_finite(value) and value >= 0):
                raise ConfigError(f"tolerance {name} must be a finite number >= 0, got {value!r}")
        for name, value in (("range_low", self.range_low), ("range_high", self.range_high)):
            if not _is_finite(value):
                raise ConfigError(f"{name} must be a finite number, got {value!r}")
        if not _is_finite(self.range_high - self.range_low):  # numpy cannot sample a range this wide
            raise ConfigError(f"range [{self.range_low}, {self.range_high}] is too wide: its width overflows")
        if not _guards_satisfiable(self.range_low, self.range_high):
            raise ConfigError(
                f"no triples in [{self.range_low}, {self.range_high}] clear the degeneracy guards"
            )

    def tol(self, name: str) -> float:
        return self.tolerances.get(name, DEFAULT_TOLERANCES[name])

    @staticmethod
    def from_dict(data: dict) -> "SuiteConfig":
        unknown = set(data) - {f.name for f in fields(SuiteConfig)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        data = dict(data)
        try:
            if isinstance(data.get("suites"), list):
                data["suites"] = tuple(data["suites"])
            return SuiteConfig(**data)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc

    @staticmethod
    def from_file(path: str) -> "SuiteConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: not UTF-8 JSON, or an integer of over 4300 digits
            raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        return SuiteConfig.from_dict(data)


@dataclass(frozen=True)
class CheckRecord:
    name: str
    ref: str
    residual: float
    tolerance: float | None
    passed: bool
    kind: str = "check"


@dataclass
class SuiteReport:
    schema: int
    config: dict
    records: list[CheckRecord]

    @property
    def failed(self) -> list[CheckRecord]:
        return [r for r in self.records if not r.passed]

    def summary(self) -> dict:
        kinds = {"check": 0, "probe": 0, "report": 0}
        for r in self.records:
            kinds[r.kind] += 1
        return {
            "total": len(self.records),
            "passed": sum(r.passed for r in self.records),
            "failed": len(self.failed),
            **kinds,
        }

    def to_dict(self) -> dict:
        return {
            "schema": self.schema,
            "config": self.config,
            "summary": self.summary(),
            # each record's fields as they are: asdict would deep-copy the strings and numbers
            "records": [
                {"name": r.name, "ref": r.ref, "residual": r.residual, "tolerance": r.tolerance, "passed": r.passed,
                 "kind": r.kind}
                for r in self.records
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def _rng(config: SuiteConfig, suite: str) -> np.random.Generator:
    return np.random.default_rng([config.seed, list(SUITES).index(suite)])


def sample_triples(rng: np.random.Generator, count: int, low: float, high: float) -> np.ndarray:
    """Rejection-sample parameter triples clear of the degeneracy guards, as
    a (count, 3) array.

    Each round draws only the triples still missing, so no draw is wasted:
    the triples and the rng state after the call are those of drawing and
    testing one triple at a time.  A range still short after SAMPLE_ROUNDS
    rounds, a sliver too thin to fill, raises ConfigError.
    """
    chunks, found, rounds = [np.empty((0, 3))], 0, 0
    while found < count:
        if rounds == SAMPLE_ROUNDS:
            raise ConfigError(f"range [{low}, {high}]: only {found} of {count} triples cleared the degeneracy guards "
                              f"in {rounds} rounds of sampling")
        rounds += 1
        draws = rng.uniform(low, high, size=(count - found, 3))
        ok = np.ones(len(draws), dtype=bool)
        for i, j in ((0, 1), (0, 2), (1, 2)):
            a, b = draws[:, i], draws[:, j]
            ok &= (abs(a - b) >= GUARD_GAP) & (abs(a + b) >= GUARD_SUM)
        chunks.append(draws[ok])
        found += len(chunks[-1])
    return np.concatenate(chunks)


def _work_points(config: SuiteConfig, rng: np.random.Generator):
    """Canonical (3,2,1), any explicit triples, plus four sampled ones."""
    triples = [(3.0, 2.0, 1.0), *config.params]
    triples += sample_triples(rng, 4, config.range_low, config.range_high).tolist()
    return [derive(LatticeParams(p, q, r)) for p, q, r in triples]


class _Residuals:
    """One suite's residuals by key, turned into records in call order.

    A check records the largest residual of its key, a probe the median or
    the minimum; a key with none records 0.0.  A non-finite residual always
    wins, so a NaN fails its record instead of vanishing in max, min or median,
    and a check or probe passes only on a finite value.
    """

    def __init__(self, config: SuiteConfig):
        self.config = config
        self.records: list[CheckRecord] = []
        # per key, its residuals in order as chunks: each array flattened, each run of scalars one list of floats
        self._by_key: dict[str, list[np.ndarray | list[float]]] = {}

    def add(self, key: str, *residuals: float | np.ndarray) -> None:
        """Add residuals under key; an array adds its entries in order."""
        chunks = self._by_key.setdefault(key, [])
        for r in residuals:
            if isinstance(r, np.ndarray):
                chunks.append(r.ravel())
            elif chunks and type(chunks[-1]) is list:
                chunks[-1].append(float(r))
            else:
                chunks.append([float(r)])

    def _value(self, residual: str | float, stat) -> float:
        if not isinstance(residual, str):
            return float(residual)
        values = np.concatenate(self._by_key.get(residual) or [()], dtype=float)
        bad = ~np.isfinite(values)
        if bad.any():
            return float(values[bad.argmax()])
        return float(stat(values)) if values.size else 0.0

    def _tol(self, tol: str | float) -> float:
        return self.config.tol(tol) if isinstance(tol, str) else tol

    def check(self, name: str, ref: str, residual: str | float, tol: str | float) -> None:
        value, tol = self._value(residual, lambda values: max(0.0, float(values.max()))), self._tol(tol)
        self.records.append(CheckRecord(name, ref, value, tol, bool(math.isfinite(value) and value <= tol)))

    def probe(self, name: str, ref: str, residual: str | float, floor: str | float, stat=np.median) -> None:
        value, floor = self._value(residual, stat), self._tol(floor)
        passed = bool(math.isfinite(value) and value > floor)
        self.records.append(CheckRecord(name, ref, value, floor, passed, kind="probe"))

    def report(self, name: str, ref: str, residual: float) -> None:
        self.records.append(CheckRecord(name, ref, float(residual), None, True, kind="report"))


# -- Suites ---------------------------------------------------------------------

def _params_suite(config: SuiteConfig, rng: np.random.Generator, res: _Residuals) -> None:
    p, q, r = sample_triples(rng, config.trials, config.range_low, config.range_high).T
    points = _work_points(config, rng)
    res.add("stt", check_stt_identity(p, q, r))
    res.add("sij", check_sij_identity(p, q, r))
    res.check("stt-identity-sweep", "stt-identity", "stt", "stt")
    res.check("sij-identity-sweep", "edge-identity", "sij", "sij")

    d = points[0]  # (3, 2, 1); s, t and t' do not depend on hbar
    stt = abs(d.s * d.t * d.tprime - 1.0 / 30.0) + abs((d.s - d.t + d.tprime) - 1.0 / 30.0)
    res.check("stt-identity-321", "stt-identity", stt, "stt")
    ep = edge_params(3.0, 2.0, 1.0)
    exact = abs(ep.s[(1, 2)] - 5.0) + abs(ep.s[(2, 3)] - 3.0) + abs(ep.s[(3, 1)] + 2.0)
    res.check("sij-values-321", "edge-identity", exact, 0.0)

    for d in points:
        if not d.hyperbolic:
            res.add("mu", mu_identity_residual(d))
        for name, value in printed_constant_residuals(d).items():
            res.report(f"printed-{name}-p{d.p:g}q{d.q:g}r{d.r:g}", "printed-constants", value)
    res.check("sin-mu-identity", "combined-parameters", "mu", "mu_identity")


def _lattice_suite(config: SuiteConfig, rng: np.random.Generator, res: _Residuals) -> None:
    points = _work_points(config, rng)
    n = min(config.trials, 1000)
    # cube k takes points[k % len(points)] and the k-th draw of four normals
    u, u1, u2, u3 = rng.normal(size=(n, 4)).T
    p1, p2, p3 = np.array([(d.p, d.q, d.r) for d in points])[np.arange(n) % len(points)].T
    cube = lattice.complete_cube(u, u1, u2, u3, p1, p2, p3)
    res.add("mdc", lattice.mdc_spread(cube, p1, p2, p3))
    res.add("closure", lattice.closure_residual(cube, p1, p2, p3))
    bumped = replace(cube, u12=cube.u12 + 0.1)
    res.add("offshell", lattice.closure_residual(bumped, p1, p2, p3))
    res.check("cube-consistency-spread", "cube-consistency", "mdc", "mdc")
    res.check("closure-on-shell", "2form-closure", "closure", "closure_onshell")
    res.probe("closure-off-shell-median", "2form-closure", "offshell", "closure_offshell_min")

    d = points[0]
    u, u1, u2 = rng.normal(size=3)
    u12 = lattice.quad_solve(u, u1, u2, d.p, d.q)
    res.check("corner-el-on-shell", "corner-el", lattice.el_corner_residual(u, u1, u2, u12, d.p, d.q), 1e-12)
    good = lattice.classify_general_quad_lagrangian(
        qsurface.canonical_lattice_coeffs(d.p, d.q, d.r, gauge=(0.3, -0.7, 0.2)), seed=config.seed
    )
    closes = good["symmetric_quad"] and good["closure_ok"]
    res.check("general-quad-canonical", "2form-closure", 0.0 if closes else 1.0, 0.0)


def _reduction_suite(config: SuiteConfig, rng: np.random.Generator, res: _Residuals) -> None:
    for d in _work_points(config, rng):
        S = hat_matrix(d.s)
        T = bar_matrix(d.t, d.tprime)
        res.add("det", abs(np.linalg.det(S) - 1.0), abs(np.linalg.det(T) - 1.0))
        res.add("comm", reduction.commutator_residual(S, T))
        z = rng.normal(size=2)
        xh = (S @ z)[0]
        xb = (T @ z)[0]
        xhb = (T @ S @ z)[0]
        res.add("corner", *reduction.corner_residuals(z[0], xh, xb, xhb, d))
        co = reduction.closure_coeffs(d)
        res.add("box", reduction.oneform_closure_residual(z[0], xh, xb, xhb, co))
        res.add("box_perturbed", reduction.oneform_closure_residual(z[0], xh, xb, xhb, replace(co, a0=co.a0 + 1e-2)))
        res.add("mom", abs(reduction.momentum(z[0], xh, d, "hat") - reduction.momentum(z[0], xb, d, "bar")))
        orb = reduction.orbit(S, z, 100)
        for x, coeff in ((orb[:, 0], d.b), (reduction.orbit(T, z, 100)[:, 0], d.a)):
            vals = reduction.invariant_eval(x[:-1], x[1:], coeff)
            res.add("orbit", abs(vals - vals[0]))
        const = reduction.match_invariant_constant([(orb[0, 0], orb[1, 0])], d)
        x, xh = orb[[7, 23, 61], 0], orb[[8, 24, 62], 0]
        X = reduction.momentum(x, xh, d, "hat")
        lhs = reduction.invariant_eval(x, xh, d.b)
        res.add("common", abs(lhs - const * reduction.invariant_common(x, X, d.P)))
        if not d.hyperbolic:
            res.add("grid", *reduction.solution_residuals(d, float(rng.normal()), float(rng.normal())).values())
            res.add("flow", *reduction.continuous_flow_residual(d.b, 3, 1.0, 0.5))
            res.add("flow", *reduction.continuous_flow_residual(d.a, 2, -0.3, 1.1))
            res.add("flow_fd", reduction.continuous_flow_fd_error(d.b, 3, 1.0, 0.5))
            res.add("multi", *reduction.continuous_multiform_residual(d.a, d.b, 2, 3, 0.8, -0.4))
    res.check("map-determinants", "map-determinant", "det", "det_unit")
    res.check("map-commutator", "map-commutator", "comm", "commutator")
    res.check("corner-equations", "corner-equations", "corner", "corner")
    res.check("orbit-invariants-100", "two-point-invariant", "orbit", "orbit_invariant")
    res.check("momenta-match", "momentum-match", "mom", "momenta_match")
    res.check("common-invariant", "common-invariant", "common", "invariant_common")
    res.check("oneform-closure", "1form-closure", "box", "oneform_onshell")
    res.probe("oneform-perturbed-median", "1form-closure", "box_perturbed", "oneform_perturbed_min")
    res.check("joint-solution-grid", "explicit-solution", "grid", "solution_grid")
    res.check("parameter-flows", "parameter-flow", "flow", "contflow")
    res.check("parameter-flow-fd", "parameter-flow", "flow_fd", "contflow_fd")
    res.check("continuous-multiform", "multiform-compat", "multi", "multiform")


def _p3_suite(config: SuiteConfig, rng: np.random.Generator, res: _Residuals) -> None:
    for d in _work_points(config, rng):
        H = p3.p3_hat_matrix(d.s)
        B = p3.p3_bar_matrix(d.t, d.tprime)
        res.add("det", abs(np.linalg.det(H) - 1.0), abs(np.linalg.det(B) - 1.0))
        res.add("comm", reduction.commutator_residual(H, B))
        one, two = p3.QuadraticObservable.invariant_one(), p3.QuadraticObservable.invariant_two(d.s)
        res.add("bracket", p3.poisson_bracket(one, two))
        z = rng.normal(size=4)
        i0 = p3.p3_invariants(z, d.s)
        orb_h = reduction.orbit(H, z, 100)
        orb_b = reduction.orbit(B, z, 100)
        i1, i2 = p3.p3_invariants(np.column_stack((orb_h[-1], orb_b[-1])), d.s)
        res.add("orbit", abs(i1 - i0[0]), abs(i2 - i0[1]))
        # the equations at steps 1 to 98: slice k holds the states k to k + 97 as columns
        hat = p3.p3_hat_equation_residual(*(orb_h[k:k + 98].T for k in range(3)), d.s)
        res.add("eqn", hat, p3.p3_bar_equation_residual(*(orb_b[k:k + 98].T for k in range(3)), d.t, d.tprime))
        amps = tuple(rng.normal(size=4))
        try:
            modes = p3.p3_joint_modes(H, B)
            joint = p3.p3_joint_solution_residual(modes, d, amps)
            perturbed = p3.p3_joint_solution_residual(modes, d, (1.0, 0.2, -0.4, 0.7), nu_shift=(1e-3, 0.0))
            angles = p3.printed_angle_residuals(modes, d)
        except OutOfRegime:
            continue  # no period-3 modes at this point
        res.add("joint", joint)
        res.add("joint_perturbed", perturbed)
        for name, value in angles.items():
            res.report(f"p3-{name}-p{d.p:g}q{d.q:g}r{d.r:g}", "p3-angles", value)
    res.check("p3-determinants", "map-determinant", "det", "det_unit")
    res.check("p3-commutator", "p3-commutator", "comm", "p3_commutator")
    res.check("p3-involution", "p3-involution", "bracket", "p3_bracket")
    res.check("p3-orbit-invariants", "p3-orbit", "orbit", "p3_orbit_invariant")
    res.check("p3-second-order-orbits", "p3-evolution", "eqn", "orbit_invariant")
    res.check("p3-joint-solution", "p3-joint-solution", "joint", "p3_joint")
    res.probe("p3-joint-perturbed-median", "p3-joint-solution", "joint_perturbed", "p3_joint_perturbed_min")


def _prop1d_suite(config: SuiteConfig, rng: np.random.Generator, res: _Residuals) -> None:
    def amplitude(diff):
        """The amplitude error and the (2 pi hbar) and volume power differences."""
        return diff.amp_ratio_error, abs(diff.pihbar_diff), abs(diff.vol_diff)

    # the propagators need an elliptic point whose one-step prefactors (P+W)/w are positive
    points = [d for d in _work_points(config, rng) if not d.hyperbolic
              and all(plus / w > 0 for plus, _, w in (reduction.direction_constants(d, s) for s in ("hat", "bar")))]
    for d in points:
        for n in range(2, 21):
            # the determinants scale as hbar^(1 - n): near hbar = 0 they overflow, and at a huge hbar the closed
            # form underflows to 0; a check that float64 cannot carry out fails on a NaN residual
            try:
                rec = qprop1d.tridiagonal_det(n, d, config.hbar)
                cf = qprop1d.tridiagonal_det_closed_form(n, d, config.hbar)
                res.add("tri", abs(rec - cf) / abs(cf))
            except (OverflowError, ZeroDivisionError):
                res.add("tri", math.nan)
        lengths = (1, 2, 5, 12, 20)
        for n, kernel in zip(lengths, qprop1d.n_step_kernels(lengths, d, "hat")):
            diff = compare(kernel, qprop1d.multi_time_closed_form(n, 0, d))
            res.add("nstep", diff.exponent_diff)
            res.add("amp", *amplitude(diff))
        steps = {direction: qprop1d.one_step_kernel(direction, d) for direction in ("hat", "bar")}
        for direction, step in steps.items():
            if (factorized := qprop1d.momentum_factorized_kernel(d, direction)).constraints:
                raise DegenerateCoeffs("momentum pivot vanished exactly: delta kernel")
            diff = compare(factorized, step)
            res.add("ub", diff.exponent_diff, *amplitude(diff))
            for n in range(1, 11):
                res.add("qinv", qprop1d.invariant_kernel_residual(n, d, direction, config.hbar))
        swap = compare(
            qprop1d.path_kernel(qprop1d.TimePath(("+hat", "+bar")), d),
            qprop1d.path_kernel(qprop1d.TimePath(("+bar", "+hat")), d),
        )
        square = compare(qprop1d.path_kernel(qprop1d.TimePath(("+bar", "+hat", "-bar")), d), steps["hat"])
        base = qprop1d.TimePath(("+hat", "+hat"))
        looped = compare(qprop1d.path_kernel(base.with_loop(1), d), qprop1d.path_kernel(base, d))
        for diff in (swap, square, looped):
            res.add("corner", diff.exponent_diff)
            res.add("amp", *amplitude(diff))
    # random path sweep at the canonical point
    d = points[0]
    n_paths = max(10, min(config.trials, 50))
    for endpoint in ((3, 2), (2, 3)):
        target = qprop1d.multi_time_closed_form(*endpoint, d)
        for _ in range(n_paths):
            diff = compare(qprop1d.path_kernel(qprop1d.random_path(rng, *endpoint), d), target)
            res.add("path", diff.exponent_diff)
            res.add("amp", *amplitude(diff))
    res.check("tridiagonal-recursion", "fluctuation-determinant", "tri", "tridiag_rel")
    # at (3, 2, 1) the n = 2 determinant i (P+Q) cos(mu) / (hbar q) is -8.5j / hbar
    try:
        n2 = abs(qprop1d.tridiagonal_det(2, points[0], config.hbar) + 8.5j / config.hbar)
    except OverflowError:
        n2 = math.nan
    res.check("tridiagonal-n2-value", "fluctuation-determinant", n2, 1e-12)
    res.check("n-step-vs-closed-form", "n-step-closed-form", "nstep", "nstep_exponent")
    res.check("factorized-step", "factorized-step", "ub", "ub_exponent")
    res.check("corner-square-loop", "path-independence", "corner", "corner_swap")
    res.check("random-paths", "multi-time", "path", "path_exponent")
    res.check("amplitude-ratios", "path-independence", "amp", "amp_ratio")
    res.check("operator-invariant", "operator-invariant", "qinv", "qinvariant")


def _uniqueness1d_suite(config: SuiteConfig, rng: np.random.Generator, res: _Residuals) -> None:
    perturbed = ("alpha", "beta", "a0", "b0")
    for d in _work_points(config, rng):
        if d.hyperbolic:
            continue
        co = qprop1d.path_independent_coeffs(d.a, d.b, gamma=1.0)
        co_f = qprop1d.path_independent_coeffs(d.a, d.b, gamma=0.8, f=0.31)
        for coeffs in (co, co_f):
            res.add("pass", qprop1d.uniqueness_scan_1form(d, coeffs).exponent_diff)
        for name in perturbed:
            bumped = replace(co, **{name: getattr(co, name) + 1e-3})
            res.add(name, qprop1d.uniqueness_scan_1form(d, bumped).exponent_diff)
    res.check("closure-coeffs-pass", "1form-uniqueness", "pass", "uniq1d_pass")
    for name in perturbed:
        res.probe(f"perturbed-{name}", "1form-uniqueness", name, "uniq1d_perturbed_min", stat=min)


def _surface_suite(config: SuiteConfig, rng: np.random.Generator, res: _Residuals) -> None:
    points = _work_points(config, rng)
    flat = qsurface.flat_patch(1, 1)
    popped = qsurface.pop_up(flat, 0)
    for d in points:
        co = qsurface.canonical_lattice_coeffs(d.p, d.q, d.r)
        diff = compare(
            qsurface.surface_kernel(popped, co),
            qsurface.surface_kernel(flat, co),
        )
        res.add("pop", diff.exponent_diff)
        for move in "abc":
            res.add("move", qsurface.elementary_move_check(move, co).exponent_diff)
    d = points[0]
    co = qsurface.canonical_lattice_coeffs(d.p, d.q, d.r)
    patch = qsurface.flat_patch(3, 3)
    reference = qsurface.surface_kernel(patch, co)
    for _ in range(20):
        deformed = qsurface.random_deformation(patch, rng, int(rng.integers(2, 8)))
        diff = compare(qsurface.surface_kernel(deformed, co), reference)
        res.add("deform", diff.exponent_diff)
    res.check("pop-up-exponent", "pop-up", "pop", "popup")
    res.check("elementary-moves", "elementary-moves", "move", "move")
    res.check("random-deformations", "surface-deformation", "deform", "deformation")


def _uniqueness2d_suite(config: SuiteConfig, rng: np.random.Generator, res: _Residuals) -> None:
    co = qsurface.canonical_lattice_coeffs(3.0, 2.0, 1.0)
    base = qsurface.uniqueness_scan_2form(co)
    res.check("canonical-critical", "2form-uniqueness", 0.0 if base["critical"] else 1.0, 0.0)
    for table, pair in (("a", (1, 2)), ("a", (2, 3)), ("b", (1, 2)), ("b", (2, 3)), ("d", (1, 2)), ("d", (3, 1))):
        bumped = qsurface.uniqueness_scan_2form(co.perturbed(table, pair, 1e-2))
        mism = float("inf") if bumped["delta_rejected"] else bumped["exponent_diff"]
        res.add("grid", min(mism, 1.0))
    res.probe("coefficient-grid-scan", "2form-uniqueness", "grid", "uniq2d_perturbed_min", stat=min)
    sym_c = co.perturbed("c", (1, 2), 1e-2).perturbed("c", (2, 1), 1e-2)
    scan = qsurface.uniqueness_scan_2form(sym_c)
    detuned = scan["delta_rejected"] or scan["exponent_diff"] > config.tol("uniq2d_perturbed_min")
    res.check("c-detune-rejected", "2form-uniqueness", 0.0 if detuned else 1.0, 0.0)
    asym_c = co.perturbed("c", (1, 2), 1e-2)
    scan = qsurface.uniqueness_scan_2form(asym_c)
    res.check("c-asymmetric-delta", "2form-uniqueness", 0.0 if scan["delta_rejected"] else 1.0, 0.0)
    try:
        qsurface.surface_kernel(qsurface.elementary_move_surfaces("a")[1], asym_c)
        delta_raised = False
    except DeltaConstraintError:
        delta_raised = True
    res.check("delta-error-raised", "2form-uniqueness", 0.0 if delta_raised else 1.0, 0.0)


#: Suite name -> body, in run order; the position seeds the suite's rng.
SUITES = {
    "params": _params_suite,
    "lattice": _lattice_suite,
    "reduction": _reduction_suite,
    "p3": _p3_suite,
    "prop1d": _prop1d_suite,
    "uniqueness1d": _uniqueness1d_suite,
    "surface": _surface_suite,
    "uniqueness2d": _uniqueness2d_suite,
}


def run(config: SuiteConfig) -> SuiteReport:
    """Execute the selected suites; the report is deterministic in config."""
    records: list[CheckRecord] = []
    for suite, body in SUITES.items():
        if suite in config.suites:
            res = _Residuals(config)
            body(config, _rng(config, suite), res)
            records.extend(res.records)
    config_dict = {
        "seed": config.seed,
        "trials": config.trials,
        "params": [list(t) for t in config.params],
        "range": [config.range_low, config.range_high],
        "hbar": config.hbar,
        "suites": list(config.suites),
        "tolerances": {k: config.tol(k) for k in sorted(DEFAULT_TOLERANCES)},
        "version": 1,
    }
    return SuiteReport(schema=1, config=config_dict, records=records)


def sweep_rows(config: SuiteConfig) -> Iterator[dict]:
    """The params suite's sampled triples with their derived constants, one
    row per identity residual, yielded one trial at a time; none unless the
    params suite is selected.  Each residual column comes from one array call
    of its check, which gives the scalar calls' values bit for bit.  A trial
    whose b or a derive refuses, which no suite check derives, has its
    derived columns blank, as mu and nu are at a hyperbolic point."""
    if "params" not in config.suites:
        return
    triples = sample_triples(_rng(config, "params"), config.trials, config.range_low, config.range_high)
    p, q, r = triples.T
    stt, sij = check_stt_identity(p, q, r), check_sij_identity(p, q, r)
    for triple, stt_residual, sij_residual in zip(triples, stt, sij):
        try:
            d = derive(LatticeParams(*triple.tolist()))
            row = {"p": d.p, "q": d.q, "r": d.r, "s": d.s, "t": d.t, "tprime": d.tprime, "b": d.b, "a": d.a, "P": d.P,
                   "mu": "" if d.mu is None else d.mu, "nu": "" if d.nu is None else d.nu}
        except DegenerateParams:
            row = dict(zip("pqr", triple.tolist()), **dict.fromkeys(CSV_COLUMNS[3:11], ""))
        yield {**row, "residual_name": "stt-identity", "residual": float(stt_residual)}
        yield {**row, "residual_name": "edge-identity", "residual": float(sij_residual)}


CSV_COLUMNS = ["p", "q", "r", "s", "t", "tprime", "b", "a", "P", "mu", "nu", "residual_name", "residual"]


def write_csv(path: str, rows: Iterable[dict]) -> None:
    """The header and each row's values in CSV_COLUMNS order, the bytes
    csv.DictWriter writes, without its per-row key check."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        writer.writerows(map(operator.itemgetter(*CSV_COLUMNS), rows))
