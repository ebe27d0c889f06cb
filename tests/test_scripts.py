"""Smoke tests: the scripts under scripts/ run against the current library API."""

import csv
import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

from mdclab import qsurface
from mdclab.oscgauss import from_terms

from conftest import dense_fields, from_dense

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
    nudged = from_dense(**{**dense_fields(kernel), "A": np.nextafter(kernel.A, 1.0) * (kernel.A != 0.0)})
    assert nudged.to_json() == kernel.to_json()
    assert script.kernel_bits(nudged) != script.kernel_bits(kernel)
    assert script.kernel_bits(from_dense(**dense_fields(kernel))) == script.kernel_bits(kernel)


def test_kernel_digests_order_names_with_a_trailing_nul_as_the_canonical_form_does():
    # a fixed-width numpy string drops a trailing NUL: one kernel, stored in two orders, had two digests
    script = load_script("kernel_digests")
    A = np.array([[1.0, 0.5, 0.0], [0.5, 2.0, -1.5], [0.0, -1.5, 3.0]])
    k1 = from_dense(("a\x00", "a", "b"), A)
    k2 = from_dense(("a", "a\x00", "b"), A[np.ix_([1, 0, 2], [1, 0, 2])])
    assert k1.to_json() == k2.to_json()
    assert script.field_bytes(k1) == script.field_bytes(k2)


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
    # the per-round ratios' quartiles bracket their median
    ratio, q1, q3 = map(float, re.search(r"ratio (\S+) \(quartiles (\S+)-(\S+)\)", line).groups())
    assert q1 <= ratio <= q3
    assert list(tmp_path.iterdir()) == []
    assert sorted((root / "perfbench").rglob("*")) == perfbench_files
    assert not {name for name in set(sys.modules) - modules if name.startswith(("mdclab_", "perfbench", "tracer"))}


def test_ab_compare_times_sweep_on_its_report_bodies(tmp_path, capsys, monkeypatch):
    root = SCRIPTS.parent
    monkeypatch.setattr("tempfile.tempdir", str(tmp_path))
    script = load_script("ab_compare")
    assert "sweep" in script.WORKLOADS
    assert script.main([str(root), str(root), "--workloads", "sweep", "--rounds", "1"]) == 0
    line = next(line for line in capsys.readouterr().out.splitlines() if line.startswith("sweep"))
    # each side writes its reports into a directory of its own, so only a comparison of the bodies agrees
    assert "3 items" in line and "ratio" in line and line.endswith("outputs same")
    assert list(tmp_path.iterdir()) == []
    body_a, body_b = tmp_path / "a.json", tmp_path / "b.json"
    body_a.write_text("{}"), body_b.write_text("{}")
    assert script.output_key("sweep", (body_a, 0, "a")) == script.output_key("sweep", (body_b, 0, "b"))
    body_b.write_text("{ }")
    assert script.output_key("sweep", (body_a, 0, "a")) != script.output_key("sweep", (body_b, 0, "b"))


def test_scale_surfaces_runs_each_k_in_a_process_of_its_own(tmp_path):
    root = SCRIPTS.parent
    perfbench_files = sorted((root / "perfbench").rglob("*"))
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    out = subprocess.run([sys.executable, str(SCRIPTS / "scale_surfaces.py"), "4", "6"], cwd=tmp_path, env=env,
                         capture_output=True, text=True, check=True).stdout.splitlines()
    assert "ru_maxrss" in out[0] and len(out) == 4
    rows = [line.split() for line in out[2:]]
    assert [row[:2] for row in rows] == [["4", "25"], ["6", "49"]]
    assert all(float(x) >= 0.0 for row in rows for x in row[2:7])
    # the JSON digest is that of the kernel of perfbench's deformed_patch(4, 8) at seed 1, built here
    description = load_script("ab_compare").load_perfbench().deformed_patch(4, 8, np.random.default_rng(1))
    kernel = qsurface.surface_kernel(qsurface.surface_from_dict(description),
                                     qsurface.canonical_lattice_coeffs(3.0, 2.0, 1.0))
    text = kernel.to_json()
    assert rows[0][-3:] == [str(len(text)), "B", hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]]
    assert sorted((root / "perfbench").rglob("*")) == perfbench_files
    assert list(tmp_path.iterdir()) == []


def test_scale_surfaces_times_round_f_k_squared_pop_ups_and_prints_vol_pow(tmp_path):
    root = SCRIPTS.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    out = subprocess.run([sys.executable, str(SCRIPTS / "scale_surfaces.py"), "4", "6", "--pops-per-cell", "0.25"],
                         cwd=tmp_path, env=env, capture_output=True, text=True, check=True).stdout.splitlines()
    assert out[0].startswith("seed 1, round(0.25 k^2) pop-ups") and len(out) == 4
    assert out[1].split()[-2:] == ["vol_pow", "json"]
    rows = [line.split() for line in out[2:]]
    assert [row[:2] for row in rows] == [["4", "25"], ["6", "49"]]
    perfbench = load_script("ab_compare").load_perfbench()
    for k, pops, row in zip((4, 6), (4, 9), rows):
        # perfbench's deformed_patch(k, round(0.25 k^2)) at seed 1, built here
        description = perfbench.deformed_patch(k, pops, np.random.default_rng(1))
        kernel = qsurface.surface_kernel(qsurface.surface_from_dict(description),
                                         qsurface.canonical_lattice_coeffs(3.0, 2.0, 1.0))
        text = kernel.to_json()
        assert row[-4:] == [str(kernel.vol_pow), str(len(text)), "B",
                            hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]]
    assert list(tmp_path.iterdir()) == []


def test_scale_surfaces_times_perimeter_patches(tmp_path):
    root = SCRIPTS.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    out = subprocess.run([sys.executable, str(SCRIPTS / "scale_surfaces.py"), "4", "6", "--perimeter"], cwd=tmp_path,
                         env=env, capture_output=True, text=True, check=True).stdout.splitlines()
    assert out[0].startswith("perimeter patches") and "ru_maxrss" in out[0] and len(out) == 4
    rows = [line.split() for line in out[2:]]
    # the 4k perimeter vertices are the boundary variables; a second build of a kernel equals the first
    assert [row[:2] for row in rows] == [["4", "16"], ["6", "24"]]
    assert all(float(x) >= 0.0 for row in rows for x in row[2:7]) and [row[7] for row in rows] == ["0.00e+00"] * 2
    for k, row in zip((4, 6), rows):
        flat = qsurface.flat_patch(k, k)
        boundary = {v for v in flat.boundary if 0 in v[:2] or k in v[:2]}
        text = qsurface.surface_kernel(qsurface.Surface(flat.plaquettes, flat.boundary - boundary, boundary),
                                       qsurface.canonical_lattice_coeffs(3.0, 2.0, 1.0)).to_json()
        assert row[-3:] == [str(len(text)), "B", hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]]
    assert list(tmp_path.iterdir()) == []
