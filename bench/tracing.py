"""Spans around the calls into each mtcontrol layer, recorded from outside.

`Tracer.install` wraps each traced function once and puts the wrapper in
place of *every* binding of the original inside the package: `transition`
lives in flow but is also imported by gramian, kalman and synth, and a
patch of flow alone would miss those calls.  Methods are patched on their
class.  Spans stay in memory; `write` saves them when the run ends.

A span is (kind, start, end, parent, request, value): `parent` is the index
of the enclosing span (-1 at the top), `value` a per-call measure such as
the column count of an SVD input.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import defaultdict

import numpy as np
from mtcontrol.core import DEFAULT_CONFIG


# Value probes map (args, kwargs, result) to the number stored with a span.
def _cols(args, kwargs, result):
    return args[0].shape[1]


def _grid_rows(args, kwargs, result):
    return len(result)


def _G_cols(args, kwargs, result):
    return result.value.shape[1]


def _built(args, kwargs, result):
    return 1


def _verify_error(args, kwargs, result):
    return result.error or 0.0


def _rk4_steps(args, kwargs, result):
    """Computed, not counted: a time-varying transition integrates RK4 over
    one straight segment of cfg.ode_steps_per_segment steps."""
    system, t, t0 = args[:3]
    if system.M.is_constant or np.array_equal(np.asarray(t, float),
                                              np.asarray(t0, float)):
        return 0
    cfg = args[3] if len(args) > 3 else kwargs.get("cfg", DEFAULT_CONFIG)
    return cfg.ode_steps_per_segment


# (module, attribute, span kind, value probe).  Only functions that a
# per-layer metric reads or that `cli.run` calls directly (their time is
# taken out of cli.self_ms).
FUNCTIONS = [
    ("system", "check_M_commutation", "system.check", None),
    ("system", "check_F_compatibility", "system.check", None),
    ("system", "check_control_compat", "system.check", None),
    ("system", "check_gramian_compat", "system.check", None),
    ("pathint", "integrate_along", "pathint.integrate", None),
    ("flow", "transition", "flow.transition", _rk4_steps),
    ("flow", "expm", "flow.expm", None),
    ("flow", "fundamental_matrix", "flow.solve", None),
    ("flow", "solve_homogeneous", "flow.solve", None),
    ("flow", "solve_adjoint", "flow.solve", None),
    ("flow", "solve_controlled", "flow.solve", None),
    ("gramian", "controllability_gramian", "gramian.build", _built),
    ("gramian", "reachability_gramian", "gramian.build", _built),
    ("gramian", "numerical_rank", "gramian.svd", _cols),
    ("gramian", "image_basis", "gramian.svd", _cols),
    ("gramian", "controllability_space", "gramian.decide", None),
    ("gramian", "decide_transfer", "gramian.decide", None),
    ("gramian", "decide_complete", "gramian.decide", None),
    ("kalman", "controllability_matrix", "kalman.G", _G_cols),
    ("kalman", "rank_G", "kalman.rank", None),
    ("kalman", "autonomous_analysis", "kalman.analysis", None),
    ("synth", "synthesize_transfer", "synth.synthesize", None),
    ("synth", "verify_transfer", "synth.verify", _verify_error),
]
METHODS = [
    ("system", "MatrixFunction", "__call__", "system.matfun", None),
    ("system", "MatrixFunction", "diff", "system.diff", None),
    ("system", "LinearSystem", "grid_points", "system.grid", _grid_rows),
]
# Counted without a span: hot and with no children worth timing.
COUNTED = [
    ("pathint", "OneFormFamily", "__call__", "pathint.integrand"),
    ("system", "CompatibilityError", "__init__", "system.refusal"),
]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.request = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- spans ------------------------------------------------------------------

    def span(self, kind: str, fn, probe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (kind, start, end, parent, self.request, 0)
            if probe is not None:
                spans[index] = spans[index][:5] + (probe(args, kwargs, result),)
            return result

        return traced

    def _matfun(self, fn):
        traced = self.span("system.matfun", fn)

        def call(mf, t):
            # Only expression-valued matrices do evaluation work.
            return fn(mf, t) if mf.is_constant else traced(mf, t)

        return call

    def _counted(self, kind: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[kind] += 1
            return fn(*args, **kwargs)

        return counted

    # -- patching ---------------------------------------------------------------

    def install(self) -> None:
        import mtcontrol  # noqa: F401  (loads every submodule)
        modules = [mod for name, mod in sys.modules.items()
                   if name == "mtcontrol" or name.startswith("mtcontrol.")]
        for owner, attr, kind, probe in FUNCTIONS:
            original = getattr(sys.modules[f"mtcontrol.{owner}"], attr)
            wrapper = self.span(kind, original, probe)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, name, original))
                        setattr(mod, name, wrapper)
        for owner, cls_name, attr, kind, probe in METHODS:
            cls = getattr(sys.modules[f"mtcontrol.{owner}"], cls_name)
            original = cls.__dict__[attr]
            wrapper = (self._matfun(original) if kind == "system.matfun"
                       else self.span(kind, original, probe))
            self._undo.append((cls, attr, original))
            setattr(cls, attr, wrapper)
        for owner, cls_name, attr, kind in COUNTED:
            cls = getattr(sys.modules[f"mtcontrol.{owner}"], cls_name)
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self._counted(kind, original))
        leftover = [f"{mod.__name__}.{name}" for mod in modules
                    for name, value in vars(mod).items()
                    if any(value is orig for _, _, orig in self._undo)]
        if leftover:
            raise RuntimeError(f"untraced bindings remain: {leftover}")

    def uninstall(self) -> None:
        for target, name, original in reversed(self._undo):
            setattr(target, name, original)
        self._undo.clear()

    def write(self, path) -> None:
        """Spans as JSON lines, times in microseconds from the first span."""
        base = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            for kind, start, end, parent, request, value in self.spans:
                fh.write(json.dumps([kind, round((start - base) * 1e6, 1),
                                     round((end - start) * 1e6, 1), parent,
                                     request, value]) + "\n")


# --- per-layer metrics ----------------------------------------------------------

def _top(spans, kind) -> list[tuple]:
    """Spans of one kind that no other span of that kind encloses."""
    out = []
    for span in spans:
        if span[0] != kind:
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] != kind:
            parent = spans[parent][3]
        if parent < 0:
            out.append(span)
    return out


UNITS = {"cli.output_bytes": "bytes", "gramian.per_request": "ratio",
         "synth.verify_err_max": "norm", "trace.overhead": "ratio",
         "trace.rps_untraced": "1/s", "trace.rps_traced": "1/s"}


def unit(name: str) -> str:
    return UNITS.get(name, "ms" if name.endswith("ms") else "count")


def layer_metrics(tracer: Tracer, output_bytes: int) -> dict[str, float]:
    spans = tracer.spans
    by_kind = defaultdict(list)
    for span in spans:
        by_kind[span[0]].append(span)

    def ms(kind):
        return sum(s[2] - s[1] for s in _top(spans, kind)) * 1e3

    def calls(kind):
        return len(by_kind[kind])

    def values(kind):
        return [s[5] for s in by_kind[kind]]

    child_time = defaultdict(float)
    for span in spans:
        if span[3] >= 0 and spans[span[3]][0] == "cli.run":
            child_time[span[3]] += span[2] - span[1]
    cli_self = sum(s[2] - s[1] - child_time[i] for i, s in enumerate(spans)
                   if s[0] == "cli.run")

    # A build refused by the gramian gate raises before the probe runs, so
    # its value stays 0 and it is not counted as a build.
    builds = [s for s in by_kind["gramian.build"] if s[5]]
    gramian_requests = {s[4] for s in builds}
    return {
        "cli.self_ms": cli_self * 1e3,
        "cli.output_bytes": output_bytes,
        "system.matfun_evals": calls("system.matfun"),
        "system.matfun_ms": ms("system.matfun"),
        "system.diff_calls": calls("system.diff"),
        "system.diff_ms": ms("system.diff"),
        "system.check_calls": calls("system.check"),
        "system.check_ms": ms("system.check"),
        "system.grid_points": sum(values("system.grid")),
        "system.refusals": tracer.counts["system.refusal"],
        "pathint.integrate_calls": calls("pathint.integrate"),
        "pathint.integrate_ms": ms("pathint.integrate"),
        "pathint.integrand_evals": tracer.counts["pathint.integrand"],
        "flow.transition_calls": calls("flow.transition"),
        "flow.transition_ms": ms("flow.transition"),
        "flow.expm_calls": calls("flow.expm"),
        "flow.expm_ms": ms("flow.expm"),
        "flow.rk4_steps": sum(values("flow.transition")),
        "gramian.calls": len(builds),
        "gramian.ms": ms("gramian.build"),
        "gramian.per_request": (len(builds) / len(gramian_requests)
                                if gramian_requests else 0.0),
        "gramian.svd_calls": calls("gramian.svd"),
        "gramian.svd_ms": ms("gramian.svd"),
        "gramian.svd_cols_max": max(values("gramian.svd"), default=0),
        "kalman.G_calls": calls("kalman.G"),
        "kalman.G_ms": ms("kalman.G"),
        "kalman.G_cols": sum(values("kalman.G")),
        "kalman.analysis_ms": ms("kalman.analysis"),
        "synth.synthesize_ms": ms("synth.synthesize"),
        "synth.verify_ms": ms("synth.verify"),
        "synth.verify_err_max": max(values("synth.verify"), default=0.0),
    }
