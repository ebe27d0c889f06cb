import hashlib
import io
import json
import math
import os
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mdclab import cli, harness, lattice, p3, qprop1d
from mdclab.errors import ConfigError, DegenerateParams
from mdclab.harness import (
    CSV_COLUMNS,
    DEFAULT_TOLERANCES,
    MAX_TRIALS,
    SAMPLE_ROUNDS,
    SUITES,
    CheckRecord,
    SuiteConfig,
    _Residuals,
    _rng,
    run,
    sample_triples,
    sweep_rows,
    write_csv,
)
from mdclab.params import LatticeParams, check_sij_identity, check_stt_identity, derive, printed_constant_residuals

from conftest import with_fields

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


def test_report_json_equals_the_asdict_serialization(small_report):
    # to_dict reads each record's fields directly; the bytes must be those of dataclasses.asdict's deep copy
    extra = [CheckRecord("nan-residual", "test", math.nan, 1e-9, False),
             CheckRecord("inf-residual", "test", math.inf, 1e-9, False, "probe"),
             CheckRecord("no-tolerance", "test", 0.5, None, True, "report")]
    report = replace(small_report, records=small_report.records + extra)
    data = {"schema": report.schema, "config": report.config, "summary": report.summary(),
            "records": [asdict(r) for r in report.records]}
    assert report.to_json() == json.dumps(data, sort_keys=True, indent=2) + "\n"
    text = report.to_json()
    assert all(token in text for token in ('"residual": NaN', '"residual": Infinity', '"tolerance": null'))


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
        return replace(out, exponent_diff=float("nan")) if len(calls) == 9 else out

    monkeypatch.setattr(qprop1d, "uniqueness_scan_1form", scan_with_one_nan)
    report = run(SuiteConfig(seed=7, trials=40, suites=("uniqueness1d",)))
    rec = next(r for r in report.records if r.name == "perturbed-alpha")
    assert math.isnan(rec.residual)
    assert not rec.passed
    assert all(r.passed for r in report.records if r.name != "perturbed-alpha")


def test_a_wrong_normalization_power_fails_amplitude_ratios(monkeypatch):
    closed_form = qprop1d.multi_time_closed_form

    def one_power_off(*args, **kwargs):
        k = closed_form(*args, **kwargs)
        return with_fields(k, pihbar_pow=k.pihbar_pow + 1)

    monkeypatch.setattr(qprop1d, "multi_time_closed_form", one_power_off)
    report = run(SuiteConfig(seed=7, trials=40, suites=("prop1d",)))
    rec = next(r for r in report.records if r.name == "amplitude-ratios")
    assert rec.residual == 1.0
    assert not rec.passed


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
    for bad in ({"seed": -1}, {"seed": 1.5}, {"seed": True}, {"hbar": math.nan}, {"hbar": math.inf},
                {"tolerances": {"stt": "x"}}, {"tolerances": {"stt": math.nan}}, {"tolerances": {"stt": -1.0}}):
        with pytest.raises(ConfigError):
            SuiteConfig.from_dict(bad)


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


def _scalar_sweep_rows(config):
    """The --csv rows as a list, each residual from a scalar call of its check."""
    rows = []
    for p, q, r in sample_triples(_rng(config, "params"), config.trials, config.range_low, config.range_high).tolist():
        d = derive(LatticeParams(p, q, r))
        row = {
            "p": d.p, "q": d.q, "r": d.r, "s": d.s, "t": d.t, "tprime": d.tprime,
            "b": d.b, "a": d.a, "P": d.P,
            "mu": "" if d.mu is None else d.mu,
            "nu": "" if d.nu is None else d.nu,
        }
        rows.append({**row, "residual_name": "stt-identity", "residual": check_stt_identity(p, q, r)})
        rows.append({**row, "residual_name": "edge-identity", "residual": check_sij_identity(p, q, r)})
    return rows


def test_sweep_rows_stream_the_scalar_rows():
    config = SuiteConfig(seed=3, trials=2000, suites=("params",))
    rows = sweep_rows(config)
    assert iter(rows) is rows
    # repr tells -0.0 from 0.0, and a numpy float from a Python one
    assert list(map(repr, rows)) == list(map(repr, _scalar_sweep_rows(config)))
    assert list(sweep_rows(replace(config, suites=("lattice",)))) == []


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


@pytest.mark.parametrize("flag", ["--out", "--csv"])
def test_cli_run_exits_2_on_an_unwritable_output(tmp_path, capsys, flag):
    target = tmp_path / "missing" / "out.file"
    code = cli.main(["run", "--suite", "params", "--trials", "30", "--quiet", flag, str(target)])
    err = capsys.readouterr().err
    assert code == 2 and not target.exists()
    assert err.startswith("output error: ") and err.count("\n") == 1 and str(target) in err


def test_sweep_rows_blank_the_derived_columns_of_a_trial_derive_refuses(monkeypatch):
    # trial 58610 of seed 17 over [-5, 5] clears the sampling guards, but its b = 0.9999999999999074 is refused by
    # derive, which only the --csv rows call on the trial triples
    degenerate = [4.52340160833724, 9.7355539629973e-07, -0.7022038503288242]
    with pytest.raises(DegenerateParams, match="b=0.9999999999999074"):
        derive(LatticeParams(*degenerate))
    monkeypatch.setattr(harness, "sample_triples", lambda rng, count, low, high: np.array([degenerate]))
    rows = list(sweep_rows(SuiteConfig(trials=1, suites=("params",))))
    p, q, r = np.array(degenerate)
    assert rows == [
        {"p": p, "q": q, "r": r, "s": "", "t": "", "tprime": "", "b": "", "a": "", "P": "", "mu": "", "nu": "",
         "residual_name": name, "residual": float(check(p, q, r))}
        for name, check in (("stt-identity", check_stt_identity), ("edge-identity", check_sij_identity))]
    assert [type(rows[0][column]) for column in CSV_COLUMNS] == [float] * 3 + [str] * 9 + [float]


def test_cli_tolerance_override_can_fail_the_run(tmp_path):
    code = cli.main([
        "run", "--suite", "lattice", "--trials", "10",
        "--tol", "mdc=1e-30", "--quiet",
    ])
    assert code == 1


def test_cli_rejects_bad_tolerance_syntax():
    assert cli.main(["run", "--tol", "nonsense"]) == 2


def test_cli_rejects_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    # (config text, extra arguments, the key the message names or None)
    cases = [
        ("[1, 2, 3]", [], None),
        ('{"seed": 1.5}', [], "seed"),
        ('{"tolerances": {"stt": "x"}}', [], "tolerance stt"),
        ('{"tolerances": ["stt"]}', [], "tolerances"),
        ('{"trials": 1.5}', [], "trials"),
        ('{"params": [[1, 2]]}', [], "params"),
        ('{"params": [[3, 2, "x"]]}', [], "params row [3, 2, 'x']"),
        ('{"params": [3, 2, 1]}', [], "params row 3 "),
        ('{"params": [[3, 2, true]]}', [], "params row [3, 2, True]"),
        ('{"params": [[3, 2, NaN]]}', [], "params row [3, 2, nan]"),
        ('{"params": {"p": 3}}', [], "params"),
        ('{"suites": []}', [], "suites"),
        ('{"suites": "params"}', [], "suites"),
        ('{"suites": [1]}', [], "suites"),
        ('{"range_low": "x"}', [], "range_low"),
        ('{"range_high": null}', [], "range_high"),
        ('{"range_high": Infinity}', [], "range_high"),
        ('{"hbar": "1"}', [], "hbar must be finite and positive, got '1'"),
        ("{}", ["--seed", "-1"], "seed"),
        ("{}", ["--tol", "stt=nan"], "tolerance stt"),
        ("{}", ["--tol", "stt=-1"], "tolerance stt"),
        ("{}", ["--hbar", "inf"], "hbar"),
    ]
    for text, args, key in cases:
        bad.write_text(text)
        assert cli.main(["run", "--quiet", "--config", str(bad), *args]) == 2, (text, args)
        err = capsys.readouterr().err.strip()
        assert err.startswith("config error:") and "\n" not in err, err
        assert key is None or key in err, (key, err)


@pytest.mark.parametrize("row", [[math.nan, 2, 1], [True, 2, 1], [3, 2, -math.inf], [3, 2], [3, 2, "1"]])
def test_a_bad_params_row_is_refused_on_both_paths(row):
    # SuiteConfig checks each row itself: a NaN no longer reaches run() as DegenerateParams, nor True as p = 1
    for build in (lambda: SuiteConfig(params=(tuple(row),)), lambda: SuiteConfig.from_dict({"params": [row]})):
        with pytest.raises(ConfigError, match="params row"):
            build()


def test_params_rows_come_out_as_float_triples():
    rows = ((3, 2, 1), [2.5, np.float64(0.7), -1.3])
    for config in (SuiteConfig(params=rows), SuiteConfig.from_dict({"params": [list(row) for row in rows]})):
        assert config.params == ((3.0, 2.0, 1.0), (2.5, 0.7, -1.3))
        assert all(type(x) is float for row in config.params for x in row)
        assert replace(config, seed=1).params == config.params


@pytest.mark.parametrize("point,failed", [
    ((3, 2, -1), []),
    ((2.5, 0.7, -1.3), []),
    # elliptic, but its p3 orbits grow: those two records fail on their own
    ((3, -1, 2), ["p3-orbit-invariants", "p3-second-order-orbits"]),
])
def test_prop1d_skips_a_point_with_a_negative_step_prefactor(point, failed):
    # (P+Q)/q or (P+R)/r is negative here, so no one-step propagator exists
    report = run(SuiteConfig(params=(point,)))
    assert sorted(rec.name for rec in report.failed) == failed


@pytest.mark.parametrize("hbar", [0.5, 2.0])
def test_every_record_passes_away_from_unit_hbar(hbar):
    report = run(SuiteConfig(hbar=hbar))
    assert not report.failed, [(rec.name, rec.residual) for rec in report.failed]


@pytest.mark.parametrize("hbar, failed", [
    # the determinants grow as hbar^(1 - n) past the float range; the n = 2 value's round-off grows as 1/hbar
    ("1e-30", {"tridiagonal-recursion", "tridiagonal-n2-value"}),
    # the closed-form determinant underflows to 0, so its relative error has no value
    ("1e30", {"tridiagonal-recursion"}),
])
def test_an_extreme_hbar_fails_the_determinant_check_without_a_traceback(capsys, hbar, failed):
    assert cli.main(["run", "--hbar", hbar]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    lines = [line.split("] ", 1)[1] for line in out.splitlines() if line.startswith("  [FAIL] ")]
    assert {line.split(":")[0] for line in lines} == failed
    assert "tridiagonal-recursion: residual=nan (want <= 1.000e-12)" in lines


def _outcomes(report):
    return {rec.name: (float(rec.residual).hex(), rec.passed) for rec in report.records}


@pytest.mark.parametrize("hbar", [1e-6, 0.37, 1e6])
def test_hbar_reaches_only_the_determinant_and_invariant_records(hbar):
    # hbar is no lattice parameter: it enters only the three checks that take it as an argument, so every
    # other record keeps the residual bits and the verdict of hbar = 1
    scaled = {"tridiagonal-recursion", "tridiagonal-n2-value", "operator-invariant"}
    want, got = _outcomes(run(SuiteConfig())), _outcomes(run(SuiteConfig(hbar=hbar)))
    assert got.keys() == want.keys() and scaled <= want.keys() and len(want) == 105
    assert {name: got[name] for name in got.keys() - scaled} == {name: want[name] for name in want.keys() - scaled}


@pytest.mark.parametrize("low, high", [(-1e308, 1e308), (-9e307, 9e307)])
def test_cli_refuses_a_range_whose_width_overflows(tmp_path, capsys, low, high):
    # both ends are finite, but numpy cannot draw from a range whose width high - low is inf
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"range_low": low, "range_high": high, "trials": 10}))
    assert cli.main(["run", "--quiet", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1 and "width overflows" in err
    # the widest ranges whose width is finite stay accepted
    SuiteConfig(range_low=-1e308, range_high=0.0)
    SuiteConfig(range_low=0.0, range_high=1.7e308)


any_hbar = st.one_of(st.floats(5e-324, 1.7e308), st.floats(max_value=0.0) | st.sampled_from([math.nan, math.inf]))
finite = st.floats(allow_nan=False, allow_infinity=False)


# numpy warns of the overflowing arithmetic at far-out points, as the command prints
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=25, deadline=None)
@example(hbar=1.0, bounds=[-1e308, 1e308], row=(3.0, 2.0, 1.0), trials=10)
# far out, float64 rounds a kernel pivot away: the factorized step, then a surface move, used to end in a traceback
@example(hbar=1.0, bounds=[2.0, 9362445280043740.0], row=(2.0, 9362445280043740.0, 1e-11), trials=93)
@example(hbar=5e-324, bounds=[-1.6103020372623722e147, 1e7], row=(1e7, -1.6103020372623722e147, -5.026e16), trials=64)
@given(hbar=any_hbar, bounds=st.tuples(finite, finite).map(sorted), row=st.tuples(finite, finite, finite),
       trials=st.integers(1, 200))
def test_mdclab_run_ends_without_a_traceback_at_any_number(tmp_path_factory, hbar, bounds, row, trials):
    # non-finite bounds or rows and reversed bounds are refused before any suite runs (test_cli_rejects_bad_config);
    # a trial count in the billions asks numpy for gigabytes, so trials stays at a few hundred
    path = tmp_path_factory.mktemp("config") / "config.json"
    path.write_text(json.dumps({"range_low": bounds[0], "range_high": bounds[1], "params": [row], "trials": trials}))
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = cli.main(["run", "--quiet", "--config", str(path), f"--hbar={hbar!r}"])
    assert code in (0, 1, 2)
    text = err.getvalue()
    assert (text.startswith("config error: ") and text.count("\n") == 1) if code == 2 else text == ""


# numpy warns of the overflowing arithmetic at these points, as the command prints
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("point", [
    [3e160, 2e160, 1e160],  # Q = q**2 overflows; the 1-form checks then refuse a non-finite pivot
    [1.4e154, -6.9e153, 3e153],  # Q, P and R are finite, but p**2 is not
])
def test_a_finite_point_whose_square_overflows_runs_without_a_traceback(tmp_path, capsys, point):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"params": [point]}))
    assert cli.main(["run", "--config", str(path), "--quiet"]) in (1, 2)
    assert "Traceback" not in capsys.readouterr().err
    d = derive(LatticeParams(*point))
    residuals = printed_constant_residuals(d)
    assert math.isnan(residuals["P_no_cross_term"]) and math.isnan(residuals["P_with_cross_term"])
    assert all(math.isfinite(residuals[name]) for name in ("b_unhalved", "b_halved", "a_ratio"))


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


def test_cli_refuses_a_sliver_sampling_range_after_the_round_budget(tmp_path):
    # the triples of [0, 0.2000001] that clear both guards have positive measure, so the config is accepted, but
    # each lies within about 1e-7 of (0, 0.1, 0.2); sampling gives up after SAMPLE_ROUNDS rounds instead of never
    # returning.  A subprocess with a timeout keeps a hang from stalling the suite
    SuiteConfig(range_low=0.0, range_high=0.2000001)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"range_low": 0.0, "range_high": 0.2000001}))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-m", "mdclab.cli", "run", "--config", str(config), "--quiet"],
                          capture_output=True, text=True, timeout=60, env=env)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == (f"config error: range [0.0, 0.2000001]: only 0 of 1000 triples cleared the degeneracy "
                           f"guards in {SAMPLE_ROUNDS} rounds of sampling\n")


#: An elliptic point with mu + nu = pi.  The middle pivot of the hat-then-bar corner is proportional to
#: sin(mu + nu): it vanishes exactly here, and sits in the NearCaustic band with r raised by 1e-8.
MU_PLUS_NU_PI = [-2.367028322578623, 0.7746489092382554, 2.4986690620264893]


@pytest.mark.parametrize("triple", [[1, 1, 2], [3, 2, 0], [1e-13, 2, 1], MU_PLUS_NU_PI])
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


def test_cli_rejects_a_corner_pivot_in_the_refusal_band(tmp_path, capsys):
    # the prop1d corner swap used to end here in a NearCaustic traceback and exit 1
    p, q, r = MU_PLUS_NU_PI
    d = derive(LatticeParams(p, q, r + 1e-8))
    assert abs(d.mu + d.nu - math.pi) <= 1e-8
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"params": [[p, q, r + 1e-8]], "trials": 10}))
    assert cli.main(["run", "--config", str(config), "--suite", "prop1d", "--quiet"]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("config error: parameter point not admissible:")
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


def test_suites_build_each_object_once_per_point(monkeypatch):
    # the suites hand on what they built: the period-3 matrices and modes, the batch of cubes and each step kernel
    calls = {}
    for module, name in ((p3, "p3_joint_modes"), (p3, "p3_hat_matrix"), (lattice, "complete_cube"),
                         (qprop1d, "one_step_kernel")):
        def counted(*args, f=getattr(module, name), seen=calls.setdefault(name, []), **kwargs):
            seen.append(args)
            return f(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    run(SuiteConfig(suites=("lattice", "p3", "prop1d")))
    points = 5  # (3, 2, 1) and four sampled triples
    assert 0 < len(calls["p3_joint_modes"]) <= points
    assert 0 < len(calls["p3_hat_matrix"]) <= points
    assert len(calls["complete_cube"]) == 1
    per_point = Counter(id(d) for _, d in calls["one_step_kernel"])
    assert per_point and set(per_point.values()) == {2}  # hat and bar


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


def test_cli_surface_kernel_output_round_trips(tmp_path, capsys):
    from mdclab import qsurface as qs
    from mdclab.oscgauss import OscKernel, compare

    surface = qs.flat_patch(3, 3)
    for n in range(6):
        sites = qs.pop_up_sites(surface)
        surface = qs.pop_up(surface, sites[(7 * n + 3) % len(sites)])
    surf_path = tmp_path / "surface.json"
    surf_path.write_text(json.dumps(qs.surface_to_dict(surface)))
    assert cli.main(["surface-kernel", "--surface", str(surf_path), "--params", "3", "2", "1"]) == 0
    text = capsys.readouterr().out.strip()
    data = json.loads(text)
    assert data["kernel_format"] == 4 and not {"B", "c", "hbar"} & data.keys()
    # what the command prints reads back to a kernel that prints the same text
    kernel = OscKernel.from_json(text)
    assert kernel.to_json() == text
    assert compare(kernel, qs.surface_kernel(surface, qs.canonical_lattice_coeffs(3, 2, 1))).exponent_diff <= 1e-14


def test_cli_surface_kernel_exits_2_on_an_unwritable_output(tmp_path, capsys):
    from mdclab import qsurface as qs

    surf_path = tmp_path / "surface.json"
    surf_path.write_text(json.dumps(qs.surface_to_dict(qs.pop_up(qs.flat_patch(1, 1), 0))))
    target = tmp_path / "missing" / "kernel.json"
    code = cli.main(["surface-kernel", "--surface", str(surf_path), "--params", "3", "2", "1", "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 2 and not target.exists() and captured.out == ""
    assert captured.err.startswith("output error: ") and captured.err.count("\n") == 1 and str(target) in captured.err


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


def _flat_description(**changes):
    """surface_to_dict(flat_patch(1, 1)) with its first plaquette's fields and
    the vertex lists replaced as given."""
    from mdclab import qsurface as qs

    data = qs.surface_to_dict(qs.flat_patch(1, 1))
    for key in ("base", "plane", "sign"):
        if key in changes:
            data["plaquettes"][0][key] = changes.pop(key)
    data.update(changes)
    return data


@pytest.mark.parametrize("data", [
    _flat_description(base=[0.5, 0, 0]),
    _flat_description(boundary=[[0.9, 0, 0], [0, 1, 0], [1, 0, 0], [1, 1, 0]]),
    _flat_description(base=[True, 0, 0]),
    _flat_description(base=["1", 0, 0]),
    _flat_description(sign="-1"),
    _flat_description(sign=True),
    _flat_description(plane=[1, "2"]),
    _flat_description(plane=[1, 2, 3]),
    _flat_description(interior=[[0, 0, 0, 1]]),
], ids=["fractional-base", "fractional-vertex", "bool-coordinate", "string-coordinate", "string-sign",
        "bool-sign", "string-plane", "three-entry-plane", "four-entry-vertex"])
def test_cli_surface_kernel_refuses_a_malformed_description(tmp_path, capsys, data):
    # each of these once read as another surface: int() made [0.5, 0, 0] the origin, and the interior
    # vertex [0, 0, 0, 1] took the origin's label u0_0_0, so the boundary origin was integrated (exit 1)
    surf_path = tmp_path / "surface.json"
    surf_path.write_text(json.dumps(data))
    assert cli.main(["surface-kernel", "--surface", str(surf_path), "--params", "3", "2", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("surface error: malformed surface description:") and err.count("\n") == 1


#: what a description may hold where an integer, a list or an object is due: bools for ints among them
junk = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.integers(-10**30, 10**30), st.floats(),
                 st.text(max_size=3), st.just([]), st.just({}))
vertex = st.one_of(st.lists(st.integers(-1, 3), min_size=3, max_size=3), st.lists(junk, max_size=4), junk)


@st.composite
def surface_descriptions(draw):
    """A flat 1-2 by 1-2 patch after up to two pop-ups, as surface_to_dict
    writes it, then up to three edits: a key dropped, a plaquette field
    replaced by junk or a drawn vertex, a vertex list replaced by drawn
    vertices, or a boundary vertex moved to the interior; or, a fifth of the
    time, junk in place of the whole description."""
    from mdclab import qsurface as qs

    if draw(st.integers(0, 4)) == 0:
        return draw(st.one_of(junk, st.lists(junk, max_size=3), st.dictionaries(st.sampled_from(
            ["plaquettes", "interior", "boundary"]), st.one_of(junk, st.lists(junk, max_size=3)))))
    surface = qs.flat_patch(draw(st.integers(1, 2)), draw(st.integers(1, 2)))
    for _ in range(draw(st.integers(0, 2))):
        sites = qs.pop_up_sites(surface)
        surface = qs.pop_up(surface, sites[draw(st.integers(0, len(sites) - 1))])
    data = qs.surface_to_dict(surface)
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["drop", "junk", "vertex", "vertices", "move"]))
        plaquette = draw(st.sampled_from(data["plaquettes"])) if data.get("plaquettes") else {}
        if edit == "drop":
            if target := draw(st.sampled_from([plaquette, data])):
                del target[draw(st.sampled_from(sorted(target)))]
        elif edit in ("junk", "vertex"):
            plaquette[draw(st.sampled_from(["base", "plane", "sign"]))] = draw(junk if edit == "junk" else vertex)
        elif edit == "vertices":
            data[draw(st.sampled_from(["interior", "boundary"]))] = draw(st.lists(vertex, max_size=5))
        elif boundary := data.get("boundary"):
            data.setdefault("interior", []).append(boundary.pop(draw(st.integers(0, len(boundary) - 1))))
    return data


@settings(max_examples=150, deadline=None)
@given(data=surface_descriptions())
def test_mdclab_surface_kernel_ends_without_a_traceback_on_any_description(tmp_path_factory, data):
    # exit 0 publishes the kernel, exit 2 is one `surface error:` line, exit 1 one `inadmissible surface:` line
    path = tmp_path_factory.mktemp("surface") / "surface.json"
    path.write_text(json.dumps(data))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["surface-kernel", "--surface", str(path), "--params", "3", "2", "1"])
    text = err.getvalue()
    if code == 0:
        assert text == "" and json.loads(out.getvalue())["kernel_format"] == 4
    else:
        lead = {1: "inadmissible surface: ", 2: "surface error: "}[code]
        assert out.getvalue() == "" and text.startswith(lead) and text.count("\n") == 1


@pytest.mark.parametrize("text", [b"\xff\xfe{}", b'{"plaquettes": [{"base": [1' + b"0" * 5000 + b', 0, 0]}]}'],
                         ids=["not-utf-8", "5001-digit-integer"])
@pytest.mark.parametrize("argv, lead", [
    (["surface-kernel", "--params", "3", "2", "1", "--surface"], "surface error: "),
    (["run", "--quiet", "--config"], "config error: cannot read config "),
], ids=["surface-kernel", "run"])
def test_cli_refuses_a_file_json_cannot_read(tmp_path, capsys, text, argv, lead):
    # json.load raises a plain ValueError here, not the JSONDecodeError of malformed JSON
    path = tmp_path / "input.json"
    path.write_bytes(text)
    assert cli.main([*argv, str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(lead) and err.count("\n") == 1


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("args", [
    ["--params", "nan", "2", "1"],
    ["--params", "3", "inf", "1"],
    ["--params", "3", "2", "infinity"],
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


def test_cli_surface_kernel_takes_no_hbar(tmp_path, capsys):
    # a kernel carries no hbar, so the command has no --hbar for argparse to accept
    from mdclab import qsurface as qs

    surf_path = tmp_path / "surface.json"
    surf_path.write_text(json.dumps(qs.surface_to_dict(qs.flat_patch(1, 1))))
    with pytest.raises(SystemExit) as exc:
        cli.main(["surface-kernel", "--surface", str(surf_path), "--params", "3", "2", "1", "--hbar", "1"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "unrecognized arguments: --hbar 1" in err


def test_cli_surface_kernel_refuses_an_overflowing_pivot(tmp_path, capsys):
    from mdclab import qsurface as qs

    # at these finite parameters the popped cube's interior diagonals overflow
    # to inf; the engine refuses such a pivot instead of taking it for a volume
    # factor and then recording a delta that ties boundary values
    surf_path = tmp_path / "surface.json"
    surf_path.write_text(json.dumps(qs.surface_to_dict(qs.pop_up(qs.flat_patch(1, 1), 0))))
    assert cli.main(["surface-kernel", "--surface", str(surf_path), "--params", "1e308", "1.7e308", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("surface error: pivot for") and "is not finite" in err and err.count("\n") == 1


@pytest.mark.parametrize("negative", ["-5e-1", "-.5e-0", "-0.05E+1", "-5e-01"])
def test_cli_surface_kernel_reads_a_negative_number_in_exponent_form(tmp_path, capsys, negative):
    # argparse on Python 3.11 takes only -5 and -0.5 for negative numbers; -5e-1 was an unknown option there
    from mdclab import qsurface as qs

    surf_path = tmp_path / "surface.json"
    surf_path.write_text(json.dumps(qs.surface_to_dict(qs.pop_up(qs.flat_patch(1, 1), 0))))
    assert cli.main(["surface-kernel", "--surface", str(surf_path), "--params", "3", "-0.5", "2"]) == 0
    want = capsys.readouterr().out
    assert cli.main(["surface-kernel", "--surface", str(surf_path), "--params", "3", negative, "2"]) == 0
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("hbar", ["-1e-5", "-1E+3", "-.5e2"])
def test_cli_run_reads_a_negative_hbar_in_exponent_form(capsys, hbar):
    assert cli.main(["run", "--quiet", "--hbar", hbar]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"config error: hbar must be finite and positive, got {float(hbar)!r}\n"


def test_cli_still_parses_an_option_after_exponent_form_numbers(tmp_path, capsys):
    from mdclab import qsurface as qs

    surf_path = tmp_path / "surface.json"
    surf_path.write_text(json.dumps(qs.surface_to_dict(qs.flat_patch(1, 1))))
    out_path = tmp_path / "kernel.json"
    assert cli.main(["surface-kernel", "--params", "3e0", "-1e-0", "2", "--surface", str(surf_path),
                     "--out", str(out_path)]) == 0
    assert out_path.exists()
    with pytest.raises(SystemExit) as exc:
        cli.main(["surface-kernel", "--surface", str(surf_path), "--params", "3", "-5e-1", "-x"])
    assert exc.value.code == 2
    assert "expected 3 arguments" in capsys.readouterr().err


@pytest.mark.parametrize("trials", [MAX_TRIALS + 1, 2**63])
def test_a_trial_count_past_the_cap_is_a_config_error(tmp_path, capsys, trials):
    # numpy cannot even shape a sample of 2**63 triples; one near 10**12 would ask for terabytes.  Only the
    # refusals are run: a run at the cap takes seconds and about 130 MB
    want = f"config error: trials must be an integer in [1, {MAX_TRIALS}], got {trials}\n"
    assert cli.main(["run", "--trials", str(trials), "--suite", "params"]) == 2
    assert capsys.readouterr() == ("", want)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"trials": trials, "suites": ["params"]}))
    assert cli.main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr() == ("", want)


#: What a config file can hold where a key wants something else: null, booleans, strings, nested lists and
#: objects, floats where integers belong, NaN and infinity (json.dumps writes them as NaN and Infinity), integers
#: past int64 and past the float range
junk = st.one_of(
    st.none(), st.booleans(), st.text(max_size=4), st.sampled_from(["params", "1", "NaN"]),
    st.lists(st.lists(st.integers(-3, 3), max_size=3), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([1.5, 3.0, math.nan, math.inf, -math.inf, 2**63, -(2**63), 10**30, 10**400]),
)
#: Each key's valid values, kept cheap: at most 200 trials, suites that run in milliseconds, and sampling ranges
#: so wide that the first round of sampling fills them
config_values = {
    "seed": st.integers(0, 2**32),
    "trials": st.integers(1, 200),
    "params": st.lists(st.tuples(*[st.floats(-4.0, 4.0)] * 3).map(list), max_size=1),
    "range_low": st.floats(-3.0, 0.0),
    "range_high": st.floats(1.0, 4.0),
    "hbar": st.floats(0.1, 10.0),
    "tolerances": st.dictionaries(st.sampled_from(sorted(DEFAULT_TOLERANCES)), st.floats(0.0, 1.0), max_size=2),
    "suites": st.lists(st.sampled_from(["params", "lattice", "uniqueness2d"]), min_size=1, max_size=2),
}


@st.composite
def config_files(draw):
    """A config object: each key absent, valid or junk, suites always there; sometimes an unknown key."""
    data = {}
    for key, valid in config_values.items():
        if key == "suites" or draw(st.booleans()):
            data[key] = draw(valid if draw(st.integers(0, 3)) else junk)
    if draw(st.integers(0, 7)) == 0:
        data[draw(st.sampled_from(["trial", "Seed", "", "suites "]))] = draw(junk)
    return data


# numpy warns of the overflowing arithmetic at far-out points, as the command prints
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@example(data={"trials": 10**30, "suites": ["params"]})
@example(data={"hbar": 10**400, "suites": ["params"]})
@given(data=config_files())
def test_mdclab_run_config_ends_without_a_traceback_on_any_value(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("config") / "config.json"
    path.write_text(json.dumps(data))
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = cli.main(["run", "--quiet", "--config", str(path)])
    assert code in (0, 1, 2)
    text = err.getvalue()
    assert (text.startswith("config error: ") and text.count("\n") == 1) if code == 2 else text == ""
