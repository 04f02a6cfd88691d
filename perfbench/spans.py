"""Spans for the traced run, recorded from outside the cutrom package.

Every public function named in ``LAYERS`` is wrapped once.  The wrapper is
bound under every name that refers to the original function in any loaded
``cutrom`` module, so a call through ``pipeline.solve_fom`` (bound by
``from .fom import solve_fom``) is recorded as well as one through
``fom.solve_fom``.  Spans stay in memory; ``layer_metrics`` turns them into
the per-layer metrics once the run has ended.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
import types

# layer name -> (cutrom module, public functions traced there); the estimators
# layer traces every public function its module defines
LAYERS = {
    "geometry": ("geometry", ("build_background_mesh", "build_cut_geometry")),
    "kernels": ("_kernels", ("cut_rules", "volume_contribs", "boundary_contribs")),
    "assembly": ("assembly", ("assemble_system", "evaluate_entries",
                              "assemble_norm_matrix", "assemble_mass_matrix")),
    "fom": ("fom", ("solve_fom", "residual")),
    "pod": ("pod", ("build_pod_basis",)),
    "deim": ("deim", ("build_union_pattern", "build_deim_operator",
                      "deim_coefficients", "reconstruct")),
    "rom": ("rom", ("build_rom_offline", "rom_online_solve", "sample_entries")),
    "estimators": ("estimators", None),
    "artifacts": ("artifacts", ("save_artifacts", "load_artifacts")),
    "pipeline": ("pipeline", ("run_offline", "run_online_sweep", "emit_report")),
}


def _public_functions(module) -> tuple:
    return tuple(sorted(
        name for name, obj in vars(module).items()
        if isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__
        and not name.startswith("_")
    ))


class Tracer:
    """In-memory span recorder for one workload run (single-threaded).

    A span is ``(name, start, end, parent, request)``: ``parent`` is the
    index of the enclosing span or -1, and ``request`` labels the benchmark
    operation (``offline:0``, ``query:17``, ...) the span belongs to.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.request = ""
        self.spans: list = []
        self._stack: list = []
        self._bindings: list = []
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "cutrom" or name.startswith("cutrom."))]
        for layer, (mod_name, funcs) in LAYERS.items():
            module = sys.modules[f"cutrom.{mod_name}"]
            for func in funcs or _public_functions(module):
                orig = getattr(module, func)
                wrapper = self._wrap(f"{layer}.{func}", orig)
                for m in modules:
                    for attr, value in vars(m).items():
                        if value is orig:
                            self._bindings.append((m, attr, orig, wrapper))

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        by_kind = name == "deim.build_deim_operator"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = f"{name}.{kwargs.get('kind', 'vector')}" if by_kind else name
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (label, t0, t1, parent, self.request)

        return wrapper

    def install(self) -> None:
        for module, attr, _orig, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, orig, _wrapper in self._bindings:
            setattr(module, attr, orig)


def _stats(spans):
    """Per span name: list of durations and summed self time."""
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent, _req in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    durs: dict = {}
    self_s: dict = {}
    for i, (name, t0, t1, _parent, _req) in enumerate(spans):
        durs.setdefault(name, []).append(t1 - t0)
        self_s[name] = self_s.get(name, 0.0) + (t1 - t0 - child_time[i])
    return durs, self_s


def _within(spans, ancestor: str) -> list:
    """Flags: span i is ``ancestor`` or runs inside a span of that name."""
    inside = [False] * len(spans)
    for i, (name, _t0, _t1, parent, _req) in enumerate(spans):
        inside[i] = name == ancestor or (parent >= 0 and inside[parent])
    return inside


def layer_metrics(spans, counts: dict) -> dict:
    """Per-layer metrics, name -> (value, unit), from the spans of one run and
    the counts the workload recorded."""
    durs, self_s = _stats(spans)

    def calls(name):
        return len(durs.get(name, ()))

    def busy(name):
        return float(sum(durs.get(name, ())))

    def ms_p50(name):
        d = durs.get(name)
        return 1e3 * statistics.median(d) if d else 0.0

    in_sweep = _within(spans, "pipeline.run_online_sweep")
    sweep_names = [s[0] for s, inside in zip(spans, in_sweep) if inside]
    geom_calls = sweep_names.count("geometry.build_cut_geometry")
    eval_calls = sweep_names.count("assembly.evaluate_entries")
    estimator_s = sum(busy(n) for n in durs if n.startswith("estimators."))

    m = {}
    m["geometry.build_background_mesh.s"] = (busy("geometry.build_background_mesh"), "s")
    for f in ("geometry.build_cut_geometry", "assembly.assemble_system",
              "assembly.evaluate_entries", "fom.solve_fom"):
        m[f"{f}.calls"] = (calls(f), "count")
        m[f"{f}.s"] = (busy(f), "s")
        m[f"{f}.ms_p50"] = (ms_p50(f), "ms")
    m["geometry.cut_elements"] = (counts["cut_elements"], "count")
    for f in ("kernels.cut_rules", "kernels.volume_contribs", "kernels.boundary_contribs",
              "assembly.assemble_norm_matrix", "assembly.assemble_mass_matrix",
              "fom.residual", "pod.build_pod_basis", "deim.build_union_pattern",
              "deim.build_deim_operator.matrix", "deim.build_deim_operator.vector",
              "deim.reconstruct", "rom.build_rom_offline", "rom.sample_entries",
              "artifacts.save_artifacts", "artifacts.load_artifacts", "pipeline.emit_report"):
        m[f"{f}.s"] = (busy(f), "s")
    m["assembly.entries_sampled"] = (counts["entries_sampled"], "count")
    m["assembly.evaluate_entries.calls_per_geometry"] = (
        eval_calls / geom_calls if geom_calls else 0.0, "1")
    m["fom.active_dofs"] = (counts["active_dofs"], "count")
    for key in ("n_max", "n_energy"):
        m[f"pod.{key}"] = (counts[key], "count")
    for key in ("pattern_size", "l_A", "l_f"):
        m[f"deim.{key}"] = (counts[key], "count")
    m["deim.deim_coefficients.calls"] = (calls("deim.deim_coefficients"), "count")
    m["deim.deim_coefficients.s"] = (busy("deim.deim_coefficients"), "s")
    f = "rom.rom_online_solve"
    m[f"{f}.calls"] = (calls(f), "count")
    m[f"{f}.s"] = (busy(f), "s")
    m[f"{f}.self_s"] = (self_s.get(f, 0.0), "s")
    m[f"{f}.ms_p50"] = (ms_p50(f), "ms")
    m["estimators.s"] = (estimator_s, "s")
    m["artifacts.bytes"] = (counts["artifact_bytes"], "count")
    for f in ("pipeline.run_offline", "pipeline.run_online_sweep"):
        m[f"{f}.self_s"] = (self_s.get(f, 0.0), "s")
    return m
