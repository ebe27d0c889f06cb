#!/usr/bin/env python3
"""The mdclab benchmark: four closed-loop workloads in one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-expected

Each workload builds a fixed list of items (one pass) from --seed, then runs
whole passes, one item after the other, for at least --seconds seconds and
at least MIN_ITEMS items.  Every output is checked against its oracle.  With
--trace 0 the last stdout line carries the end-to-end metrics; with --trace 1
the per-layer metrics from spans around mdclab's public functions (see
tracer.py).  --write-expected regenerates expected.json, the pass/fail set
and report digest of every harness seed in the pool.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"
SPAN_DIR = ROOT / ".perfbench-out"

from tracer import Tracer, leftover_wrappers, per_layer_metrics  # noqa: E402

WORKLOADS = ("report", "sweep", "paths", "surfaces")

#: Harness seeds for `report` and `sweep`; expected.json covers all of them.
HARNESS_SEED_POOL = tuple(range(1, 21))
REPORT_SEEDS_PER_PASS = 8
SWEEP_SEEDS_PER_PASS = 3
#: Large enough that the params suite takes most of a report's time.
SWEEP_TRIALS = 10000
#: One path per length and pass: the median item is the middle length.
PATH_LENGTHS = (60, 120, 180, 240, 300)
#: flat_patch(k, k) with 2k pop-ups, the net pop count of a 4k-step
#: pop/unpop walk at random_deformation's 70/30 mix.
SURFACE_SIZES = (4, 6, 8, 10, 12)
#: The closed-form path oracle scales as 1/sin(theta); the absolute
#: tolerances hold only away from caustics, so displacements keep
#: |sin(theta)| at or above this.
CAUSTIC_MARGIN = 0.1
CANONICAL = (3.0, 2.0, 1.0)

SETUP_REPEATS = 9
MIN_ITEMS = 21
TAIL_BEYOND = 10
#: A run stops after this multiple of --seconds even below MIN_ITEMS.
MAX_STRETCH = 3.0
#: Times are reported at the machine speed where one `calibration()` call
#: takes this long (its fastest time on the baseline machine).
CALIBRATION_REF_S = 0.003
CALIBRATION_REPEATS = 2

SUITES = ("params", "lattice", "reduction", "p3", "prop1d", "uniqueness1d", "surface", "uniqueness2d")
MODULES = ("cli", "harness", "oscgauss", "qprop1d", "qsurface", "params", "lattice", "errors")


# -- machine speed -------------------------------------------------------------

def calibration() -> int:
    """Fixed interpreter and small-array work, like mdclab's own mix.

    Never change it: every reported time is scaled by its speed.
    """
    total = 0
    table = {}
    for i in range(20000):
        total += i * i
        table[i & 255] = total
    a = np.arange(64.0).reshape(8, 8)
    for _ in range(300):
        a = 0.5 * (a + a.T) - np.outer(a[0], a[1]) * 1e-9
    return total


def calibrate() -> float:
    """Fastest of CALIBRATION_REPEATS calibration() calls, in seconds.

    The host of a shared VM slows all work in a process by up to 1.8x for
    seconds to minutes at a time.  Mdclab items and `calibration()` slow
    down by the same factor, so a time measured next to a calibration is
    scaled by CALIBRATION_REF_S / calibrate() to cancel the host's state.
    """
    best = float("inf")
    for _ in range(CALIBRATION_REPEATS):
        t0 = perf_counter()
        calibration()
        best = min(best, perf_counter() - t0)
    return best


# -- set-up -------------------------------------------------------------------

def import_mdclab() -> SimpleNamespace:
    """Import mdclab afresh from this checkout's src/."""
    for name in [n for n in sys.modules if n == "mdclab" or n.startswith("mdclab.")]:
        del sys.modules[name]
    mods = SimpleNamespace(**{n: importlib.import_module(f"mdclab.{n}") for n in MODULES})
    where = Path(mods.cli.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"mdclab imported from {where}, not from {SRC}")
    return mods


@dataclass
class Item:
    inputs: dict
    #: Built from the inputs at set-up: a path's DerivedParams, a surface's flat-patch kernel.
    prepared: object = None


def sample_points(m, rng: np.random.Generator, count: int) -> list[tuple[float, float, float]]:
    """Elliptic parameter triples in [0.5, 3] clear of the harness guards."""
    out = []
    while len(out) < count:
        p, q, r = (round(float(x), 6) for x in rng.uniform(0.5, 3.0, size=3))
        pairs = ((p, q), (p, r), (q, r))
        if any(abs(a - b) < m.harness.GUARD_GAP or a + b < m.harness.GUARD_SUM for a, b in pairs):
            continue
        if m.params.derive(m.params.LatticeParams(p, q, r)).hyperbolic:
            continue
        out.append((p, q, r))
    return out


def build_report(m, rng: np.random.Generator, per_pass: int, trials: int | None) -> list[Item]:
    seeds = sorted(int(s) for s in rng.choice(HARNESS_SEED_POOL, size=per_pass, replace=False))
    return [Item({"seed": s, "trials": trials}) for s in seeds]


def make_path(rng: np.random.Generator, length: int, mu: float, nu: float):
    """Steps of a walk with backward pairs and unit loops, and its net (n, m).

    Returns None when no split of the forward steps keeps the closed form
    CAUSTIC_MARGIN away from a caustic.
    """
    loops, pairs = length // 60, length // 12
    forward = length - 4 * loops - 2 * pairs
    splits = [n for n in range(forward // 4, 3 * forward // 4 + 1)
              if abs(np.sin(n * mu + (forward - n) * nu)) >= CAUSTIC_MARGIN]
    if not splits:
        return None
    n = splits[int(rng.integers(0, len(splits)))]
    steps = ["+hat"] * n + ["+bar"] * (forward - n)
    for _ in range(pairs):
        d = ("hat", "bar")[int(rng.integers(0, 2))]
        steps += ["+" + d, "-" + d]
    steps = [steps[i] for i in rng.permutation(len(steps))]
    for _ in range(loops):
        at = int(rng.integers(0, len(steps) + 1))
        steps[at:at] = ["+hat", "+bar", "-hat", "-bar"]
    return " ".join(steps), n, forward - n


def build_paths(m, rng: np.random.Generator) -> list[Item]:
    points = [CANONICAL, *sample_points(m, rng, 2)]
    items = []
    for k, length in enumerate(PATH_LENGTHS):
        while True:
            point = points[k % len(points)]
            derived = m.params.derive(m.params.LatticeParams(*point))
            path = make_path(rng, length, derived.mu, derived.nu)
            if path is not None:
                break
            points[k % len(points)] = sample_points(m, rng, 1)[0]
        steps, n, mm = path
        items.append(Item({"point": list(point), "steps": steps, "n": n, "m": mm}, derived))
    return items


_UNIT = {1: (1, 0, 0), 2: (0, 1, 0), 3: (0, 0, 1)}


def _shift(v, d):
    e = _UNIT[d]
    return (v[0] + e[0], v[1] + e[1], v[2] + e[2])


def _pop(plq):
    """Faces and new top vertices of the unit cube popped out of a plaquette."""
    v, (i, j), s = plq
    (k,) = {1, 2, 3} - {i, j}
    faces = [
        (_shift(v, i), (j, k), s), (_shift(v, j), (k, i), s), (_shift(v, k), (i, j), s),
        (v, (j, k), -s), (v, (k, i), -s),
    ]
    top = _shift(v, k)
    return faces, (top, _shift(top, i), _shift(top, j), _shift(_shift(top, i), j))


def deformed_patch(size: int, pops: int, rng: np.random.Generator) -> dict:
    """Surface description of flat_patch(size, size) after `pops` pop-ups at random fresh sites."""
    plaqs = [((a, b, 0), (1, 2), 1) for a in range(size) for b in range(size)]
    boundary = {(a, b, 0) for a in range(size + 1) for b in range(size + 1)}
    interior: set = set()
    for _ in range(pops):
        occupied = boundary | interior
        sites = [n for n, plq in enumerate(plaqs) if not occupied.intersection(_pop(plq)[1])]
        plq = plaqs.pop(sites[int(rng.integers(0, len(sites)))])
        faces, top = _pop(plq)
        plaqs.extend(faces)
        interior.update(top)
    return {
        "plaquettes": [{"base": list(v), "plane": list(p), "sign": s} for v, p, s in plaqs],
        "interior": [list(v) for v in sorted(interior)],
        "boundary": [list(v) for v in sorted(boundary)],
    }


def build_surfaces(m, rng: np.random.Generator) -> list[Item]:
    points = [CANONICAL, *sample_points(m, rng, 2)]
    items = []
    for k, size in enumerate(SURFACE_SIZES):
        point = points[k % len(points)]
        surface = deformed_patch(size, 2 * size, rng)
        flat = m.qsurface.surface_kernel(
            m.qsurface.flat_patch(size, size), m.qsurface.canonical_lattice_coeffs(*point)
        )
        items.append(Item({"point": list(point), "surface": surface}, flat))
    return items


INPUTS = {
    "report": lambda m, rng: build_report(m, rng, REPORT_SEEDS_PER_PASS, None),
    "sweep": lambda m, rng: build_report(m, rng, SWEEP_SEEDS_PER_PASS, SWEEP_TRIALS),
    "paths": build_paths,
    "surfaces": build_surfaces,
}


def setup(workload: str, seed: int):
    t0 = perf_counter()
    m = import_mdclab()
    items = INPUTS[workload](m, np.random.default_rng(seed))
    return perf_counter() - t0, m, items


# -- items ----------------------------------------------------------------------

@dataclass
class Outcome:
    """Verdict on one item: `ok` is the benchmark's check of the output,
    `passed`/`total` count the verified results it holds (records or 1)."""

    ok: bool
    passed: int
    total: int
    problems: list[str] = field(default_factory=list)


class Context:
    def __init__(self, workload: str, m, tmpdir: Path, expected: dict):
        self.workload = workload
        self.m = m
        self.tmpdir = tmpdir
        self.expected = expected.get(workload, {})
        self.report_digests: dict[int, str] = {}
        self.flags: set[str] = set()


def report_argv(inputs: dict, out: Path | None, suite: str | None = None) -> list[str]:
    argv = ["run", "--quiet", "--seed", str(inputs["seed"])]
    if inputs["trials"] is not None:
        argv += ["--trials", str(inputs["trials"])]
    if suite is not None:
        argv += ["--suite", suite]
    if out is not None:
        argv += ["--out", str(out)]
    return argv


def call_cli(m, argv: list[str]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = m.cli.main(argv)
    return code, buf.getvalue()


def run_report_item(ctx: Context, item: Item):
    out = ctx.tmpdir / f"report-{item.inputs['seed']}.json"
    return (out, *call_cli(ctx.m, report_argv(item.inputs, out)))


def check_report(body: bytes, inputs: dict, code: int, printed: str) -> tuple[dict, list[str]]:
    """Parse a report and check it against itself and the CLI's exit code and summary."""
    report = json.loads(body)
    records = report["records"]
    failed = sorted(r["name"] for r in records if not r["passed"])
    problems = []
    for r in records:
        if r["kind"] == "check":
            want = r["residual"] <= r["tolerance"]
        elif r["kind"] == "probe":
            want = r["residual"] > r["tolerance"]
        else:
            want = True
        if r["passed"] != want:
            problems.append(f"record {r['name']} passed={r['passed']} disagrees with its residual")
    summary = report["summary"]
    if summary["total"] != len(records) or summary["failed"] != len(failed):
        problems.append("summary counts disagree with the records")
    if code != (1 if failed else 0):
        problems.append(f"exit code {code} with {len(failed)} failed records")
    if f"{len(records) - len(failed)}/{len(records)} records passed" not in printed:
        problems.append("printed summary disagrees with the report")
    if report["config"]["seed"] != inputs["seed"] or report["config"]["trials"] != (inputs["trials"] or 1000):
        problems.append("report config carries another seed or trial count")
    return {"records": len(records), "failed": failed}, problems


def verify_report(ctx: Context, item: Item, result) -> Outcome:
    out, code, printed = result
    body = out.read_bytes()
    seed = item.inputs["seed"]
    digest = hashlib.sha256(body).hexdigest()
    info, problems = check_report(body, item.inputs, code, printed)
    first = ctx.report_digests.setdefault(seed, digest)
    if digest != first:
        problems.append(f"harness seed {seed}: report body differs between passes")
    expected = ctx.expected.get(str(seed))
    if expected is None:
        problems.append(f"harness seed {seed}: no expected pass/fail set")
    else:
        if info["failed"] != expected["failed"]:
            problems.append(
                f"harness seed {seed}: failed records {info['failed']} != expected {expected['failed']}"
            )
        if digest != expected["sha256"]:
            ctx.flags.add(f"REPORT DIGEST CHANGED: harness seed {seed} body sha256 {digest}")
    passed = info["records"] - len(info["failed"])
    return Outcome(not problems, passed, info["records"], problems)


def run_path_item(ctx: Context, item: Item):
    m, inp = ctx.m, item.inputs
    kernel = m.qprop1d.path_kernel(m.qprop1d.TimePath(tuple(inp["steps"].split())), item.prepared)
    target = m.qprop1d.multi_time_closed_form(inp["n"], inp["m"], item.prepared)
    return m.oscgauss.compare(kernel, target)


def verify_path(ctx: Context, item: Item, diff) -> Outcome:
    tol = ctx.m.harness.DEFAULT_TOLERANCES
    problems = []
    if not diff.exponent_diff <= tol["path_exponent"]:
        problems.append(f"path exponent off by {diff.exponent_diff:.3e}")
    if not diff.amp_ratio_error <= tol["amp_ratio"]:
        problems.append(f"path amplitude ratio off by {diff.amp_ratio_error:.3e}")
    return Outcome(not problems, int(not problems), 1, problems)


def run_surface_item(ctx: Context, item: Item):
    qs = ctx.m.qsurface
    surface = qs.surface_from_dict(item.inputs["surface"])
    kernel = qs.surface_kernel(surface, qs.canonical_lattice_coeffs(*item.inputs["point"]))
    diff = ctx.m.oscgauss.compare(kernel, item.prepared)
    return diff, kernel.to_json()


def verify_surface(ctx: Context, item: Item, result) -> Outcome:
    diff, text = result
    problems = []
    if not diff.exponent_diff <= ctx.m.harness.DEFAULT_TOLERANCES["deformation"]:
        problems.append(f"surface exponent off by {diff.exponent_diff:.3e}")
    if len(json.loads(text)["vars"]) != len(item.inputs["surface"]["boundary"]):
        problems.append("kernel JSON does not list every boundary vertex")
    return Outcome(not problems, int(not problems), 1, problems)


RUNNERS = {
    "report": (run_report_item, verify_report),
    "sweep": (run_report_item, verify_report),
    "paths": (run_path_item, verify_path),
    "surfaces": (run_surface_item, verify_surface),
}


def run_item(ctx: Context, item: Item, tracer: Tracer | None):
    """Time one item after a calibration; returns (seconds, calibration
    seconds, Outcome).  A raise fails the item."""
    run, verify = RUNNERS[ctx.workload]
    calib = calibrate()
    t0 = perf_counter()
    try:
        result = tracer.span("bench.item", run, ctx, item) if tracer else run(ctx, item)
    except Exception:
        dt = perf_counter() - t0
        return dt, calib, Outcome(False, 0, 1, [traceback.format_exc()])
    dt = perf_counter() - t0
    return dt, calib, verify(ctx, item, result)


# -- measurement -------------------------------------------------------------------

def environment() -> dict:
    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "mdclab").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


def pass_factors(passes: list[list[tuple]]) -> list[float]:
    """Speed factor of each pass: the median of its items' factors."""
    return [statistics.median(CALIBRATION_REF_S / c for _, c, _ in p) for p in passes]


def item_times(passes: list[list[tuple]], scaled: bool) -> list[float]:
    """Each item's time: the median over passes of its time, scaled by the
    calibration taken just before it when `scaled`."""
    return [
        statistics.median(
            p[i][0] * (CALIBRATION_REF_S / p[i][1] if scaled else 1.0) for p in passes
        )
        for i in range(len(passes[0]))
    ]


def timing(times: list[float], n_passes: int) -> dict[str, tuple[float, str]]:
    """wall_s, item_p50_ms and item_tail_ms from per-item times.

    Each item counts once per pass, as the loop ran it.
    """
    spread = sorted(t for t in times for _ in range(n_passes))
    out = {
        "wall_s": (sum(times), "s"),
        "item_p50_ms": (1e3 * statistics.median(spread), "ms"),
    }
    if tail(spread) is not None:
        out["item_tail_ms"] = (1e3 * tail(spread)[1], "ms")
    return out


def tail(times: list[float]) -> tuple[float, float] | None:
    """The highest percentile with TAIL_BEYOND items beyond it, and its value."""
    n = len(times)
    if n <= TAIL_BEYOND:
        return None
    k = n - TAIL_BEYOND - 1
    return 100.0 * k / (n - 1), times[k]


def suite_seconds(ctx: Context, items: list[Item]) -> dict[str, float]:
    """Each suite run on its own with --suite, scaled, summed over one pass of items."""
    out = {suite: 0.0 for suite in SUITES}
    if ctx.workload not in ("report", "sweep"):
        return out
    for item in items:
        for suite in SUITES:
            factor = CALIBRATION_REF_S / calibrate()
            t0 = perf_counter()
            call_cli(ctx.m, report_argv(item.inputs, None, suite))
            out[suite] += (perf_counter() - t0) * factor
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool, log=print) -> dict:
    setups = []
    for _ in range(1 if trace else SETUP_REPEATS):
        gc.collect()  # garbage of the previous set-up is not this one's cost
        calib = calibrate()
        dt, m, items = setup(workload, seed)
        setups.append((dt, calib))
    inputs_digest = hashlib.sha256(
        json.dumps([it.inputs for it in items], sort_keys=True).encode()
    ).hexdigest()
    log("env " + json.dumps(environment(), sort_keys=True))
    log(f"workload {workload} seed {seed} trace {int(trace)}: {len(items)} items per pass")
    log(f"input_digest {inputs_digest}")
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}

    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=ROOT) as tmp:
        ctx = Context(workload, m, Path(tmp), expected)
        suites = suite_seconds(ctx, items) if trace else {}
        run_item(ctx, items[0], None)  # warm-up, not counted
        tracer = Tracer() if trace else None
        passes: list[list[tuple[float, float, Outcome]]] = []
        summaries = []
        if tracer:
            tracer.install()
        try:
            start = perf_counter()
            while True:
                first = tracer.mark() if tracer else 0
                passes.append([run_item(ctx, item, tracer) for item in items])
                if tracer:
                    summaries.append(tracer.pass_summary(first))
                elapsed = perf_counter() - start
                n_items = len(passes) * len(items)
                if elapsed >= MAX_STRETCH * seconds or (elapsed >= seconds and n_items >= MIN_ITEMS):
                    break
        finally:
            if tracer:
                tracer.uninstall()
        leftovers = leftover_wrappers()

    outcomes = [o for p in passes for _, _, o in p]
    factors = pass_factors(passes)
    times = item_times(passes, scaled=True)
    raw_times = item_times(passes, scaled=False)
    problems = sorted({msg for o in outcomes for msg in o.problems})
    if leftovers:
        problems.append(f"wrappers left after the run: {leftovers}")
    failed = sum(not o.ok for o in outcomes)
    passed = sum(o.passed for o in outcomes)
    total = sum(o.total for o in outcomes)
    for msg in problems:
        log(f"PROBLEM {msg}")
    for msg in sorted(ctx.flags):
        log(f"FLAG {msg}")
    for s, digest in sorted(ctx.report_digests.items()):
        log(f"report_digest harness_seed {s} {digest}")
    log(f"{len(outcomes)} items in {len(passes)} passes; fail_frac {(total - passed) / total:.6g}"
        f" ({total - passed} failed of {total} {'records' if workload in ('report', 'sweep') else 'items'})")

    if trace:
        metrics = per_layer_metrics(summaries, factors)
        for suite in SUITES:
            metrics[f"harness.{suite}.s"] = (suites[suite], "s")
        first_pass = [o for _, _, o in passes[0]]
        harness_runs = workload in ("report", "sweep")
        metrics["harness.records.total"] = (
            sum(o.total for o in first_pass) if harness_runs else 0, "count")
        metrics["harness.records.failed"] = (
            sum(o.total - o.passed for o in first_pass) if harness_runs else 0, "count")
        metrics["trace.wall_s"] = (sum(times), "s")
        unscaled = {"trace.wall_s": sum(raw_times)}
        SPAN_DIR.mkdir(exist_ok=True)
        span_file = SPAN_DIR / f"spans-{workload}.tsv"
        tracer.write(str(span_file))
        log(f"spans {len(tracer.names)} written to {span_file.relative_to(ROOT)}")
    else:
        n = len(outcomes)
        metrics = {
            "setup_s": (statistics.median(dt * CALIBRATION_REF_S / c for dt, c in setups), "s"),
            **timing(times, len(passes)),
            "pass_frac": (passed / total, "fraction"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        unscaled = {"setup_s": statistics.median(dt for dt, _ in setups)}
        unscaled.update({k: v for k, (v, _) in timing(raw_times, len(passes)).items()})
        if n > TAIL_BEYOND:
            log(f"item_tail_ms is p{100.0 * (n - TAIL_BEYOND - 1) / (n - 1):.1f}:"
                f" {TAIL_BEYOND} of {n} items beyond it")
        log(f"item_p50_ms over {n} items")
    log(f"speed factor per pass: median {statistics.median(factors):.4f},"
        f" range {min(factors):.4f}-{max(factors):.4f} (calibration reference {1e3 * CALIBRATION_REF_S:g} ms)")
    for name, (value, unit) in metrics.items():
        raw = f" (measured {unscaled[name]:.6g})" if name in unscaled else ""
        log(f"metric {name} {value:.6g} {unit}{raw}")
    return {
        "correct": not problems and len(outcomes) > 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def write_expected() -> None:
    """Record the failing records and body digest of every pool seed's report."""
    m = import_mdclab()
    table = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=ROOT) as tmp:
        for workload, trials in (("report", None), ("sweep", SWEEP_TRIALS)):
            table[workload] = {}
            for seed in HARNESS_SEED_POOL:
                inputs = {"seed": seed, "trials": trials}
                out = Path(tmp) / "report.json"
                code, printed = call_cli(m, report_argv(inputs, out))
                body = out.read_bytes()
                info, problems = check_report(body, inputs, code, printed)
                if problems:
                    raise SystemExit(f"{workload} seed {seed}: {problems}")
                table[workload][str(seed)] = {
                    "failed": info["failed"], "sha256": hashlib.sha256(body).hexdigest(),
                }
                print(workload, seed, info["failed"])
    EXPECTED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-expected", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "mdclab" / "__init__.py").is_file():
        print(f"no mdclab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.write_expected:
        write_expected()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
