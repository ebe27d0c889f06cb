"""Smoke tests: the scripts under scripts/ run against the current library API."""

import csv
import importlib.util
import json
from pathlib import Path

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
