"""Span tracing from outside the library.

The traced run replaces module-level names that one bridgesim layer
calls in another (for example ``bridgesim.bridge.guide_pull``), and the
package-level names the workloads call, with wrappers that record a span
per call.  Spans nest per thread; a span
opened in a pool thread with nothing open on that thread is a child of
the innermost span open on the thread that created the tracer, so the
estimator's own time excludes the chunks its pool runs.  A span's self
time is its duration minus the union of its children's intervals.
"""
from __future__ import annotations

import importlib
import threading
import time
from collections import Counter, defaultdict

# (module, name as looked up there, layer).  Each entry is a call into a
# layer, from another layer or from the benchmark through the package
# namespace; the layer names are bridgesim's module names.
HOOKS = (
    ("bridgesim", "validate", "observations.validate"),
    ("bridgesim", "build_grid", "sde.grid"),
    ("bridgesim", "parse_config", "config.parse"),
    ("bridgesim", "run_ensemble", "estimator.run"),
    ("bridgesim", "conditional_moments", "estimator.functional"),
    ("bridgesim", "estimate", "estimator.functional"),
    ("bridgesim", "joint_law", "oracle"),
    ("bridgesim", "observation_selector", "oracle"),
    ("bridgesim", "condition", "oracle"),
    ("bridgesim.cli", "main", "cli"),
    ("bridgesim.bridge", "normal_increments", "sde.noise"),
    ("bridgesim.bridge", "drift_values", "sde.coef"),
    ("bridgesim.bridge", "diffusion_values", "sde.coef"),
    ("bridgesim.bridge", "guide_pull", "observations.pull"),
    ("bridgesim.weights", "drift_values", "sde.coef"),
    ("bridgesim.weights", "diffusion_values", "sde.coef"),
    ("bridgesim.weights", "channel_precision", "observations.precision"),
    ("bridgesim.estimator", "simulate_batch", "bridge.simulate"),
    ("bridgesim.estimator", "batch_breakdown", "weights.breakdown"),
    ("bridgesim.estimator", "normalize_log_weights", "weights.normalize"),
    ("bridgesim.config", "validate", "observations.validate"),
    ("bridgesim.cli", "parse_config", "config.parse"),
    ("bridgesim.cli", "build_grid", "sde.grid"),
    ("bridgesim.cli", "run_ensemble", "estimator.run"),
    ("bridgesim.cli", "weighted_mean_se", "estimator.functional"),
    ("bridgesim.cli", "normalize_log_weights", "weights.normalize"),
    ("bridgesim.cli", "joint_law", "oracle"),
    ("bridgesim.cli", "condition", "oracle"),
    ("bridgesim.cli", "observation_selector", "oracle"),
)


def _result_counts(name: str, args, result) -> dict:
    """Counts a call adds besides its layer's call count."""
    if name == "normal_increments":
        return {"sde.noise_draws": args[2] * args[3]}
    if name == "batch_breakdown":
        return {"weights.issues": len(result[1])}
    if name == "simulate_batch":
        return {"estimator.chunks": 1}
    if name == "run_ensemble":
        # retained memory, computed from array sizes
        nbytes = (result.states.nbytes + result.path_ids.nbytes
                  + result.log_weights.nbytes
                  + sum(a.nbytes for a in result.breakdown.values())
                  + sum(a.nbytes for a in result.preclamp.values()))
        return {"estimator.retained_mb": nbytes / 2 ** 20,
                "estimator.failed_paths": result.n_failed}
    return {}


class Tracer:
    """Records spans and counts while installed."""

    def __init__(self):
        self.spans: list[list] = []        # [layer, start, end, parent]
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._owner = self._stack()
        self._saved: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, layer: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif stack is not self._owner and self._owner:
            parent = self._owner[-1]
        else:
            parent = -1
        span = [layer, time.perf_counter(), None, parent]
        self.spans.append(span)      # list.append is atomic under the GIL
        index = len(self.spans) - 1
        # a concurrent append may have landed first; find our own entry
        while self.spans[index] is not span:
            index -= 1
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def _wrap(self, fn, name: str, layer: str):
        calls = layer + "_calls"

        def wrapper(*args, **kwargs):
            index = self._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            self.counts[calls] += 1
            for key, value in _result_counts(name, args, result).items():
                self.counts[key] += value
            return result
        return wrapper

    def install(self) -> None:
        for module_name, name, layer in HOOKS:
            module = importlib.import_module(module_name)
            original = getattr(module, name)
            self._saved.append((module, name, original))
            setattr(module, name, self._wrap(original, name, layer))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def top_level_seconds(self) -> float:
        """Wall time covered by spans that have no parent."""
        return sum(end - start for _, start, end, parent in self.spans
                   if parent < 0)

    def layer_times(self) -> tuple[dict, dict]:
        """Inclusive and self seconds per layer over the recorded spans."""
        children = defaultdict(list)
        for span in self.spans:
            if span[3] >= 0:
                children[span[3]].append((span[1], span[2]))
        inclusive: dict = defaultdict(float)
        own: dict = defaultdict(float)
        for index, (layer, start, end, _) in enumerate(self.spans):
            covered = 0.0
            reach = start
            for lo, hi in sorted(children.get(index, ())):
                lo, hi = max(lo, reach), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            inclusive[layer] += end - start
            own[layer] += end - start - covered
        return dict(inclusive), dict(own)
