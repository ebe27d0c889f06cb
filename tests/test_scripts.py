"""Smoke tests: the scripts under scripts/ run against the current library API."""

import csv
import importlib.util
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from mdclab.oscgauss import from_terms

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep_residuals_writes_a_small_grid(tmp_path):
    out = tmp_path / "sweep.csv"
    assert load_script("sweep_residuals").main(str(out), 4) == 0
    with out.open(encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    # 4 x 4 grid minus the diagonal p = q
    assert len(rows) == 12
    assert max(float(row["stt_residual"]) for row in rows) <= 1e-12


def test_surface_demo_round_trips_a_deformed_patch(tmp_path):
    out = tmp_path / "surface.json"
    assert load_script("surface_demo").main(str(out)) == 0
    assert json.loads(out.read_text(encoding="utf-8"))


def test_check_digests_matches_report_seeds_and_flags_a_changed_digest(tmp_path, capsys):
    script = load_script("check_digests")
    assert isinstance(script.sweep_trials(), int)
    assert script.main(["report"], [1, 2]) == 0
    assert "0 of 2 report digests differ" in capsys.readouterr().out
    table = json.loads(script.EXPECTED.read_text(encoding="utf-8"))
    table["report"]["2"]["sha256"] = "0" * 64
    script.EXPECTED = tmp_path / "expected.json"
    script.EXPECTED.write_text(json.dumps(table), encoding="utf-8")
    assert script.main(["report"], [2]) == 1
    out = capsys.readouterr().out
    assert "MISMATCH report seed 2" in out and "1 of 1 report digests differ" in out


def test_kernel_digests_names_each_kernel_once_and_repeats_its_lines():
    script = load_script("kernel_digests")
    lines = list(script.digest_lines(20))
    assert len(lines) == 20
    names = [line.split(" ", 1)[0] for line in lines]
    assert len(set(names)) == len(names)
    assert list(script.digest_lines(20)) == lines


def test_kernel_digests_chain_lines_equal_the_n_step_lines():
    # both points, both directions, lengths 1-60: the kernels of one n_step_kernels chain, and n_step_kernel's
    script = load_script("kernel_digests")
    lines = {}
    for case in script.cases():
        tag, kind, *rest = case[0].split("-")
        if kind in ("nstep", "chain") and int(rest[1]) <= 60:
            lines[tag, kind, *rest] = script.digest_line(*case).split(" ", 1)[1]
    chain = {key[:1] + key[2:]: digest for key, digest in lines.items() if key[1] == "chain"}
    nstep = {key[:1] + key[2:]: digest for key, digest in lines.items() if key[1] == "nstep"}
    assert len(chain) == 2 * 2 * 60
    assert chain == nstep


def test_kernel_digests_hash_the_bits_that_the_json_rounds_away():
    script = load_script("kernel_digests")
    kernel = from_terms(("x", "y"), {("x", "y"): 0.0123})
    nudged = replace(kernel, A=np.nextafter(kernel.A, 1.0) * (kernel.A != 0.0))
    assert nudged.to_json() == kernel.to_json()
    assert script.kernel_bits(nudged) != script.kernel_bits(kernel)
    assert script.kernel_bits(replace(kernel)) == script.kernel_bits(kernel)


def test_ab_compare_times_the_tree_against_itself_and_leaves_no_file(tmp_path, capsys, monkeypatch):
    root = SCRIPTS.parent
    perfbench_files = sorted((root / "perfbench").rglob("*"))
    monkeypatch.setattr("tempfile.tempdir", str(tmp_path))
    modules = set(sys.modules)
    assert load_script("ab_compare").main([str(root), str(root), "--workloads", "paths", "--rounds", "2"]) == 0
    out = capsys.readouterr().out
    assert "seed 1, 2 rounds" in out
    line = next(line for line in out.splitlines() if line.startswith("paths"))
    assert "5 items" in line and "ratio" in line and line.endswith("outputs same")
    assert list(tmp_path.iterdir()) == []
    assert sorted((root / "perfbench").rglob("*")) == perfbench_files
    assert not {name for name in set(sys.modules) - modules if name.startswith(("mdclab_", "perfbench", "tracer"))}
