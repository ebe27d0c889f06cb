import hashlib
import json
import math

import numpy as np
import pytest

from mdclab import cli, lattice, qprop1d
from mdclab.errors import ConfigError
from mdclab.harness import (
    CSV_COLUMNS,
    SUITES,
    SuiteConfig,
    _Residuals,
    run,
    sample_triples,
    sweep_rows,
    write_csv,
)

SMALL = SuiteConfig(seed=7, trials=40)


@pytest.fixture(scope="module")
def small_report():
    return run(SMALL)


def test_default_run_passes(small_report):
    assert small_report.failed == []
    summary = small_report.summary()
    assert summary["failed"] == 0
    assert summary["check"] > 0 and summary["probe"] > 0 and summary["report"] > 0


def test_probes_mark_expected_failures_as_passes(small_report):
    probes = [r for r in small_report.records if r.kind == "probe"]
    assert probes
    for rec in probes:
        assert rec.passed
        assert rec.residual > rec.tolerance


def test_reports_are_byte_identical_for_identical_config():
    a = run(SuiteConfig(seed=11, trials=25, suites=("params", "lattice")))
    b = run(SuiteConfig(seed=11, trials=25, suites=("params", "lattice")))
    assert a.to_json() == b.to_json()


def test_reports_depend_on_the_seed():
    a = run(SuiteConfig(seed=11, trials=25, suites=("params",)))
    b = run(SuiteConfig(seed=12, trials=25, suites=("params",)))
    assert a.to_json() != b.to_json()


def test_report_schema_and_refs(small_report):
    data = json.loads(small_report.to_json())
    assert data["schema"] == 1
    assert set(data["config"]["suites"]) == set(SUITES)
    for rec in data["records"]:
        assert rec["ref"]
        assert rec["kind"] in ("check", "probe", "report")


#: sha256 of the default-config report body: one clean seed and three with
#: known failing records (elementary-moves, tridiagonal-recursion, and
#: closure-on-shell with cube-consistency-spread).
GOLDEN_REPORTS = {
    1: "b54c90a3d6c5c7a8748a1e3407b3040b1a1a3ccfda09aaa62ef050984b4a0345",
    2: "352ce615850506ac45a7b52cd098281a0eca66d96bb0c1eb06c25f09a3007fdc",
    9: "aa203fc8d3caae652d4c383486984d9ce50eb5458c61bcfeb4340540722cc0bd",
    14: "b58fa3c21bf6849de1e77dc431c0ebd23fa89d3eb2386d347905812b329af77b",
}


#: sha256 of the `--csv` file at seed 7 and 40 trials.
GOLDEN_CSV = "cd3cd5c88af8566ca2d13115c74dcc94d26c83e3ae5b88d6742143a1b67104bf"


@pytest.mark.parametrize("seed", sorted(GOLDEN_REPORTS))
def test_default_report_is_byte_identical_to_golden(seed):
    body = run(SuiteConfig(seed=seed)).to_json()
    assert hashlib.sha256(body.encode()).hexdigest() == GOLDEN_REPORTS[seed]


def test_csv_is_byte_identical_to_golden(tmp_path):
    path = tmp_path / "sweep.csv"
    argv = ["run", "--suite", "params", "--seed", "7", "--trials", "40", "--quiet", "--csv", str(path)]
    assert cli.main(argv) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_CSV


def test_nan_residual_fails_a_max_check(monkeypatch):
    monkeypatch.setattr(lattice, "closure_residual", lambda *args: float("nan"))
    report = run(SuiteConfig(seed=7, trials=40, suites=("lattice",)))
    rec = next(r for r in report.records if r.name == "closure-on-shell")
    assert not math.isfinite(rec.residual)
    assert not rec.passed


def test_nan_residual_fails_a_min_probe(monkeypatch):
    # min([1.0, nan]) is 1.0, so a NaN after a finite mismatch used to vanish
    scan = qprop1d.uniqueness_scan_1form
    calls = []

    def scan_with_one_nan(*args, **kwargs):
        calls.append(None)
        out = scan(*args, **kwargs)
        # six scans per point; the third one at the second point bumps alpha
        return {**out, "mismatch": float("nan")} if len(calls) == 9 else out

    monkeypatch.setattr(qprop1d, "uniqueness_scan_1form", scan_with_one_nan)
    report = run(SuiteConfig(seed=7, trials=40, suites=("uniqueness1d",)))
    rec = next(r for r in report.records if r.name == "perturbed-alpha")
    assert math.isnan(rec.residual)
    assert not rec.passed
    assert all(r.passed for r in report.records if r.name != "perturbed-alpha")


def test_params_suite_passes_on_a_negative_range():
    report = run(SuiteConfig(range_low=-3, range_high=-0.5, suites=("params",), trials=50))
    assert [r.name for r in report.records if not r.passed] == []


def test_residuals_keep_the_first_non_finite_value_and_a_positive_zero():
    res = _Residuals(SMALL)
    res.add("zero", -0.0, -1.0)
    res.add("bad", np.array([1.0, math.inf]))
    res.add("bad", math.nan)
    res.check("zero", "ref", "zero", 0.0)
    res.check("bad", "ref", "bad", 1.0)
    res.probe("min", "ref", "zero", -2.0, stat=min)
    # one call may mix scalars and arrays of any shape
    res.add("mixed", np.zeros((2, 2)), 3.0, np.array([-1.0]))
    res.check("mixed", "ref", "mixed", 5.0)
    zero, bad, low, mixed = res.records
    assert math.copysign(1.0, zero.residual) == 1.0 and zero.residual == 0.0 and zero.passed
    assert bad.residual == math.inf and not bad.passed
    assert low.residual == -1.0
    assert mixed.residual == 3.0 and mixed.passed


def test_non_finite_residuals_fail_checks_and_probes_of_either_sign():
    res = _Residuals(SMALL)
    res.add("low", np.array([1.0, -math.inf]))
    res.add("high", 1.0, math.inf)
    res.check("low", "ref", "low", 1.0)
    res.probe("high", "ref", "high", 0.5)
    res.report("info", "ref", -math.inf)
    low, high, info = res.records
    assert low.residual == -math.inf and not low.passed
    assert high.residual == math.inf and not high.passed
    # a report record is informational and never fails
    assert info.passed


def test_sampling_respects_degeneracy_guards():
    rng = np.random.default_rng(3)
    for p, q, r in sample_triples(rng, 200, 0.5, 3.0):
        assert min(abs(p - q), abs(p - r), abs(q - r)) >= 0.1
        assert min(abs(p + q), abs(p + r), abs(q + r)) >= 0.1


def test_config_validation():
    with pytest.raises(ConfigError):
        SuiteConfig(trials=0)
    with pytest.raises(ConfigError):
        SuiteConfig(hbar=-1.0)
    with pytest.raises(ConfigError):
        SuiteConfig(suites=("nope",))
    with pytest.raises(ConfigError):
        SuiteConfig(tolerances={"unknown": 1.0})
    with pytest.raises(ConfigError):
        SuiteConfig.from_dict({"bad_key": 1})


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seed": 9, "trials": 33, "suites": ["params"]}))
    config = SuiteConfig.from_file(str(path))
    assert config.seed == 9
    assert config.trials == 33
    assert config.suites == ("params",)
    with pytest.raises(ConfigError):
        SuiteConfig.from_file(str(tmp_path / "missing.json"))


def test_csv_columns(tmp_path):
    path = tmp_path / "sweep.csv"
    write_csv(str(path), sweep_rows(SMALL))
    header = path.read_text().splitlines()[0]
    assert header.split(",") == CSV_COLUMNS


def test_cli_run_writes_report_and_exits_zero(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli.main([
        "run", "--suite", "params", "--trials", "30", "--seed", "5",
        "--out", str(out), "--quiet",
    ])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["summary"]["failed"] == 0
    assert "records passed" in capsys.readouterr().out


def test_cli_tolerance_override_can_fail_the_run(tmp_path):
    code = cli.main([
        "run", "--suite", "lattice", "--trials", "10",
        "--tol", "mdc=1e-30", "--quiet",
    ])
    assert code == 1


def test_cli_rejects_bad_tolerance_syntax():
    assert cli.main(["run", "--tol", "nonsense"]) == 2


def test_cli_rejects_bad_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2, 3]")
    assert cli.main(["run", "--config", str(bad)]) == 2


@pytest.mark.parametrize(
    "low,high,feasible",
    [
        (-0.16, 0.16, False),  # passed the old width check, then sampling never returned
        (0.0, 0.2, False),  # only {0, 0.1, 0.2} clears both guards: measure zero
        (0.2, 0.1, False),
        (0.5, 3.0, True),
        (-0.3, 0.3, True),
        (-0.25, 0.02, True),  # narrower than 3 * GUARD_GAP, yet (-0.24, -0.12, 0.01) clears
        (-1.0, -0.75, True),
    ],
)
def test_config_decides_whether_the_sampling_range_can_clear_the_guards(tmp_path, capsys, low, high, feasible):
    # only builds the config: an infeasible range must never reach the sampler
    if feasible:
        SuiteConfig(range_low=low, range_high=high)
        return
    with pytest.raises(ConfigError):
        SuiteConfig(range_low=low, range_high=high)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"range_low": low, "range_high": high, "suites": ["params"]}))
    assert cli.main(["run", "--config", str(config), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize("triple", [[1, 1, 2], [3, 2, -1], [1e-13, 2, 1]])
def test_cli_rejects_inadmissible_explicit_params(tmp_path, capsys, triple):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"params": [triple], "trials": 10}))
    assert cli.main(["run", "--config", str(config), "--quiet"]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("config error:")
    assert "\n" not in err


def test_cli_rejects_explicit_caustic_point(tmp_path, capsys):
    # (1, 1, 2) passes the prop1d guards but its n-step angle hits a caustic
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"params": [[1, 1, 2]], "trials": 10}))
    assert cli.main(["run", "--config", str(config), "--suite", "prop1d", "--quiet"]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("config error:")
    assert "\n" not in err


def test_p3_suite_skips_points_without_period3_modes(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"params": [[-3, 2, 1]], "trials": 10}))
    out = tmp_path / "report.json"
    assert cli.main(["run", "--config", str(config), "--out", str(out), "--quiet"]) != 2
    records = {r["name"]: r for r in json.loads(out.read_text())["records"]}
    for name in ("p3-determinants", "p3-commutator", "p3-involution", "p3-joint-solution"):
        assert records[name]["passed"]
    assert "p3-joint-perturbed-median" in records
    assert not [name for name in records if name.startswith("p3-") and name.endswith("p-3q2r1")]


def test_cli_surface_kernel_round_trip(tmp_path, capsys):
    from mdclab import qsurface as qs
    from mdclab.oscgauss import OscKernel, compare

    popped = qs.pop_up(qs.flat_patch(1, 1), 0)
    surf_path = tmp_path / "surface.json"
    surf_path.write_text(json.dumps(qs.surface_to_dict(popped)))
    out_path = tmp_path / "kernel.json"
    code = cli.main([
        "surface-kernel", "--surface", str(surf_path),
        "--params", "3", "2", "1", "--out", str(out_path),
    ])
    assert code == 0
    kernel = OscKernel.from_json(out_path.read_text())
    expected = qs.surface_kernel(popped, qs.canonical_lattice_coeffs(3, 2, 1))
    assert compare(kernel, expected).exponent_diff <= 1e-14


def test_cli_surface_kernel_rejects_inadmissible(tmp_path):
    from mdclab import qsurface as qs

    # an open fan with the apex declared interior deltas its boundary when
    # the coefficients are detuned; with canonical coefficients at equal
    # parameters the edge coefficient itself degenerates first
    flat = qs.flat_patch(1, 1)
    surf_path = tmp_path / "surface.json"
    surf_path.write_text(json.dumps(qs.surface_to_dict(flat)))
    assert cli.main([
        "surface-kernel", "--surface", str(surf_path), "--params", "2", "2", "1",
    ]) == 2
    assert cli.main([
        "surface-kernel", "--surface", str(tmp_path / "nope.json"), "--params", "3", "2", "1",
    ]) == 2


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("args", [
    ["--params", "nan", "2", "1"],
    ["--params", "3", "inf", "1"],
    ["--params", "3", "2", "1", "--hbar", "nan"],
    ["--params", "1e308", "1.7e308", "1"],  # finite, but p1 + p2 overflows
])
def test_cli_surface_kernel_never_publishes_a_non_finite_kernel(tmp_path, capsys, args):
    from mdclab import qsurface as qs

    surf_path = tmp_path / "surface.json"
    surf_path.write_text(json.dumps(qs.surface_to_dict(qs.flat_patch(1, 1))))
    assert cli.main(["surface-kernel", "--surface", str(surf_path), *args]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("surface error:") and err.count("\n") == 1
