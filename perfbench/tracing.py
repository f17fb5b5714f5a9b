"""In-memory span recorder that wraps nvorient's public functions from outside.

Each layer is a set of module-level functions.  Installing the tracer swaps
every function present for a wrapper that records a span (layer, start, end,
parent span, result id, counters); uninstalling puts the originals back.
Calls inside the package go through module attributes, so the wrappers see
them too.  A call into a layer while that layer's span is already open is
merged into the open span, so `calls` counts entries into the layer.

Only the benchmark imports this module; nothing under `src/` knows about it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

import numpy as np

# layer name -> (module, function) pairs that make up the layer
LAYERS = {
    "spinmodel.eigensystem": [("spinmodel", "eigensystem")],
    "odmrsim.simulate_phi_sweep": [("odmrsim", "simulate_phi_sweep")],
    "odmrsim.shot_noise": [("odmrsim", "noisy_copy_with_subseed"),
                           ("odmrsim", "add_shot_noise")],
    "fitkit.fit_dips": [("fitkit", "fit_dips")],
    "fitkit.fit_cos2": [("fitkit", "fit_cos2")],
    "fitkit.nls_fit": [("fitkit", "nls_fit")],
    "reconstruct.sweep_lp_depths": [("reconstruct", "sweep_lp_depths")],
    "reconstruct.planar_alpha": [("reconstruct", "planar_alpha")],
    "reconstruct.mw_axis_from_two": [("reconstruct", "mw_axis_from_two")],
    "reconstruct.end_to_end": [("reconstruct", "end_to_end_planar"),
                               ("reconstruct", "end_to_end_3d")],
    "cli.run": [("cli", "run")],
}

# layers whose span count is reported as `<layer>.calls` per result
CALLS = ["spinmodel.eigensystem", "odmrsim.shot_noise", "fitkit.fit_dips", "fitkit.fit_cos2",
         "fitkit.nls_fit", "reconstruct.planar_alpha"]
# span counters summed and reported per result, by metric name
FIELDS = {
    "odmrsim.spectrum_points": "spectrum_points",
    "fitkit.lm_iterations": "lm_iterations",
    "fitkit.residual_evals": "residual_evals",
    "fitkit.jacobian_evals": "jacobian_evals",
}
SELF_TIMES = [
    "spinmodel.eigensystem", "odmrsim.simulate_phi_sweep", "odmrsim.shot_noise",
    "fitkit.fit_dips", "fitkit.fit_cos2", "fitkit.nls_fit", "reconstruct.planar_alpha",
    "reconstruct.sweep_lp_depths", "reconstruct.mw_axis_from_two", "cli.run",
]


def _bind(fn, args, kwargs):
    """Bound arguments by name, or None if the signature no longer fits."""
    try:
        bound = inspect.signature(fn).bind(*args, **kwargs)
    except TypeError:
        return None
    bound.apply_defaults()
    return bound


def _count_sweep(bound, counters):
    if bound is not None and "psis" in bound.arguments and "grid" in bound.arguments:
        counters["spectrum_points"] = int(np.size(bound.arguments["psis"])
                                          * np.size(bound.arguments["grid"]))


def _count_nls(bound, counters):
    """Count residual and Jacobian evaluations by wrapping the callables."""
    if bound is None:
        return
    counters["residual_evals"] = 0
    counters["jacobian_evals"] = 0

    def counting(fn, key):
        def call(p):
            counters[key] += 1
            return fn(p)
        return call

    if callable(bound.arguments.get("residuals")):
        bound.arguments["residuals"] = counting(bound.arguments["residuals"], "residual_evals")
    if callable(bound.arguments.get("jacobian")):
        bound.arguments["jacobian"] = counting(bound.arguments["jacobian"], "jacobian_evals")


def _nls_result(result, counters):
    iterations = getattr(result, "iterations", None)
    if iterations is not None:
        counters["lm_iterations"] = int(iterations)
        counters["converged"] = int(bool(getattr(result, "converged", False)))


# function name -> (hook before the call, hook on the return value)
_HOOKS = {
    "simulate_phi_sweep": (_count_sweep, None),
    "nls_fit": (_count_nls, _nls_result),
}


class Tracer:
    """Records spans while installed; `result_id` tags spans of one result."""

    def __init__(self):
        self.spans = []  # [layer, start, end, parent index or -1, result id, counters]
        self.result_id = None
        self._open = []
        self._originals = []
        self.absent = []
        self.missing_functions = []

    def install(self):
        """Wrap every layer function that exists; record the ones that do not."""
        self.absent, self.missing_functions = [], []
        for layer, targets in LAYERS.items():
            found = 0
            for mod_name, fn_name in targets:
                try:
                    module = importlib.import_module(f"nvorient.{mod_name}")
                except ImportError:
                    module = None
                fn = getattr(module, fn_name, None)
                if not callable(fn):
                    self.missing_functions.append(f"{mod_name}.{fn_name}")
                    continue
                self._originals.append((module, fn_name, fn))
                setattr(module, fn_name, self._wrap(layer, fn, _HOOKS.get(fn_name)))
                found += 1
            if not found:
                self.absent.append(layer)

    def uninstall(self):
        for module, fn_name, fn in reversed(self._originals):
            setattr(module, fn_name, fn)
        self._originals = []

    def _wrap(self, layer, fn, hooks):
        before, after = hooks if hooks else (None, None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._open and self.spans[self._open[-1]][0] == layer:
                return fn(*args, **kwargs)
            counters = {}
            if before is not None:
                bound = _bind(fn, args, kwargs)
                before(bound, counters)
                if bound is not None:
                    args, kwargs = bound.args, bound.kwargs
            parent = self._open[-1] if self._open else -1
            span = [layer, time.perf_counter(), None, parent, self.result_id, counters]
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if after is not None:
                after(result, counters)
            return result

        return wrapper

    def dump(self, path):
        """Write spans as JSON lines: [name, start, end, parent, result, counters].

        Times are perf_counter seconds; `parent` is the parent's line index
        or -1.
        """
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def load_spans(path):
    """Spans written by `Tracer.dump`, in the in-memory list layout."""
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def layer_metrics(spans, n_results, count_results=None):
    """Per-result layer metrics from spans of `n_results` traced results.

    Self time is a span's duration minus its direct children's durations.
    Counts use only spans whose result id is in `count_results` (a set), so
    that they do not depend on how many results a timed run reached.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]
    self_s, wall_s = {}, {}
    calls, fields = {}, {}
    for i, (layer, start, end, _, rid, counters) in enumerate(spans):
        self_s[layer] = self_s.get(layer, 0.0) + (end - start) - child_time[i]
        wall_s[layer] = wall_s.get(layer, 0.0) + (end - start)
        if count_results is not None and rid not in count_results:
            continue
        calls[layer] = calls.get(layer, 0) + 1
        for key, val in counters.items():
            fields[key] = fields.get(key, 0) + val
    n_count = len(count_results) if count_results is not None else n_results
    per = lambda v, n: v / n if n else 0.0
    out = {f"{layer}.calls": per(calls.get(layer, 0), n_count) for layer in CALLS}
    out.update({name: per(fields.get(key, 0), n_count) for name, key in FIELDS.items()})
    fits = calls.get("fitkit.nls_fit", 0)
    out["fitkit.lm_converged_frac"] = per(fields.get("converged", 0), fits)
    for layer in SELF_TIMES:
        out[f"{layer}.self_s"] = per(self_s.get(layer, 0.0), n_results)
    out["reconstruct.end_to_end.wall_s"] = per(wall_s.get("reconstruct.end_to_end", 0.0),
                                               n_results)
    return out
