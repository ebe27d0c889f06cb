"""The benchmark's tracer names only functions that exist in mdclab."""

import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    # Tracer.install looks each target up as vars(owner)[attr], so a deleted or
    # renamed function breaks the traced benchmark pass
    tracer = load_tracer()
    missing = []
    for span, (module, path) in tracer.TARGETS.items():
        importlib.import_module(module)
        try:
            owner, attr = tracer._resolve(module, path)
        except AttributeError:
            missing.append(span)
            continue
        if not callable(vars(owner).get(attr)):
            missing.append(span)
    assert not missing
