"""In-memory span tracer that wraps mdclab's public functions from outside.

`Tracer.install` replaces each traced function with a wrapper on every
loaded `mdclab.*` module that holds it, so a name imported from another
module (`from .oscgauss import compare`) is traced where it is called.
Methods are wrapped on their class.  `Tracer.uninstall` puts every original
back.  Nothing under `src/` is edited.

A span is (name, start, end, parent); spans stay in memory until `write`.
Self time is a span's duration minus the durations of its direct children,
which on one thread are nested inside it.
"""

from __future__ import annotations

import functools
import statistics
import sys
from collections import Counter
from fractions import Fraction
from time import perf_counter

WRAPPED_MARK = "__perfbench_span__"

#: span name -> (module, attribute path) of the traced callable.
TARGETS = {
    "oscgauss.marginalize": ("mdclab.oscgauss", "marginalize"),
    "oscgauss.marginalize_all": ("mdclab.oscgauss", "marginalize_all"),
    "oscgauss.glue": ("mdclab.oscgauss", "glue"),
    "oscgauss.from_terms": ("mdclab.oscgauss", "from_terms"),
    "oscgauss.compare": ("mdclab.oscgauss", "compare"),
    "oscgauss.to_json": ("mdclab.oscgauss", "OscKernel.to_json"),
    "qprop1d.path_kernel": ("mdclab.qprop1d", "path_kernel"),
    "qprop1d.n_step_kernel": ("mdclab.qprop1d", "n_step_kernel"),
    "qprop1d.closed_form": ("mdclab.qprop1d", "closed_form_kernel"),
    "qprop1d.one_step_kernel": ("mdclab.qprop1d", "one_step_kernel"),
    "qsurface.surface_from_dict": ("mdclab.qsurface", "surface_from_dict"),
    "qsurface.surface_kernel": ("mdclab.qsurface", "surface_kernel"),
    "params.derive": ("mdclab.params", "derive"),
    "params.check_stt_identity": ("mdclab.params", "check_stt_identity"),
    "params.check_sij_identity": ("mdclab.params", "check_sij_identity"),
    "lattice.complete_cube": ("mdclab.lattice", "complete_cube"),
    "lattice.closure_residual": ("mdclab.lattice", "closure_residual"),
    "lattice.mdc_spread": ("mdclab.lattice", "mdc_spread"),
    "harness.run": ("mdclab.harness", "run"),
    "harness.sample_triples": ("mdclab.harness", "sample_triples"),
    "harness.report_json": ("mdclab.harness", "SuiteReport.to_json"),
    "cli.main": ("mdclab.cli", "main"),
}

#: Outcome of one `marginalize` call, read from the kernel before and after.
CASES = ("gaussian", "volume", "delta", "substitute", "refused")

#: Per-pass exact counts besides the per-span call counts.
COUNTERS = tuple(f"oscgauss.marginalize.{c}" for c in CASES) + (
    "oscgauss.max_vars",
    "oscgauss.dense_bytes",
)


def _resolve(module: str, path: str):
    owner = sys.modules[module]
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def leftover_wrappers() -> list[str]:
    """Attributes of loaded mdclab modules and classes that are still wrappers."""
    found = []
    for modname, mod in list(sys.modules.items()):
        if not modname.startswith("mdclab"):
            continue
        for attr, value in vars(mod).items():
            if hasattr(value, WRAPPED_MARK):
                found.append(f"{modname}.{attr}")
            if isinstance(value, type):
                for cattr, cvalue in vars(value).items():
                    if hasattr(cvalue, WRAPPED_MARK):
                        found.append(f"{modname}.{attr}.{cattr}")
    return found


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.counts: Counter = Counter()
        self._near_caustic: type = Exception

    # -- spans -----------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts[idx] = perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span of the benchmark's own."""
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        setattr(wrapper, WRAPPED_MARK, name)
        return wrapper

    def _wrap_marginalize(self, name: str, fn):
        tracer = self
        counts = self.counts
        half, one = Fraction(1, 2), Fraction(1)

        @functools.wraps(fn)
        def wrapper(kernel, *args, **kwargs):
            n = len(kernel.vars)
            if n > counts["oscgauss.max_vars"]:
                counts["oscgauss.max_vars"] = n
            counts["oscgauss.dense_bytes"] += 8 * n * n
            pihbar, vol = kernel.pihbar_pow, kernel.vol_pow
            idx = tracer._open(name)
            try:
                out = fn(kernel, *args, **kwargs)
            except tracer._near_caustic:
                counts["oscgauss.marginalize.refused"] += 1
                raise
            finally:
                tracer._close(idx)
            step = out.pihbar_pow - pihbar
            if step == half:
                case = "gaussian"
            elif out.vol_pow - vol == 1:
                case = "volume"
            elif step == one:
                case = "delta"
            else:
                case = "substitute"
            counts[f"oscgauss.marginalize.{case}"] += 1
            return out

        setattr(wrapper, WRAPPED_MARK, name)
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every target wherever a loaded mdclab module holds it."""
        from mdclab.errors import NearCaustic

        self._near_caustic = NearCaustic
        modules = [m for name, m in sys.modules.items() if name.startswith("mdclab") and m]
        for span_name, (module, path) in TARGETS.items():
            owner, attr = _resolve(module, path)
            original = vars(owner)[attr]
            make = self._wrap_marginalize if span_name == "oscgauss.marginalize" else self._wrap
            wrapper = make(span_name, original)
            holders = [owner] if isinstance(owner, type) else [
                m for m in modules if vars(m).get(attr) is original
            ]
            for holder in holders:
                self._patches.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    # -- aggregation ------------------------------------------------------------

    def mark(self) -> int:
        """Start of a pass: clear the counters and return the next span index."""
        self.counts.clear()
        return len(self.names)

    def pass_summary(self, first: int) -> dict:
        """Calls and self seconds per span name for spans[first:], plus counters."""
        n = len(self.names) - first
        dur = [self.ends[first + k] - self.starts[first + k] for k in range(n)]
        child = [0.0] * n
        for k in range(n):
            p = self.parents[first + k]
            if p >= first:
                child[p - first] += dur[k]
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for k in range(n):
            name = self.names[first + k]
            calls[name] += 1
            self_s[name] += dur[k] - child[k]
        return {"calls": calls, "self_s": self_s, "counts": Counter(self.counts)}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\n")
            t0 = self.starts[0] if self.starts else 0.0
            for k, name in enumerate(self.names):
                fh.write(
                    f"{k}\t{name}\t{self.starts[k] - t0:.9f}\t{self.ends[k] - t0:.9f}\t{self.parents[k]}\n"
                )


def per_layer_metrics(summaries: list[dict], factors: list[float]) -> dict[str, tuple[float, str]]:
    """Exact counts from the first pass; self seconds, each pass's scaled by
    its speed factor, as the median over passes."""
    first = summaries[0]
    out: dict[str, tuple[float, str]] = {}
    for name in TARGETS:
        out[f"{name}.calls"] = (first["calls"][name], "count")
        out[f"{name}.self_s"] = (
            statistics.median(s["self_s"][name] * f for s, f in zip(summaries, factors)), "s")
    for name in COUNTERS:
        out[name] = (first["counts"][name], "B" if name.endswith("dense_bytes") else "count")
    return out
