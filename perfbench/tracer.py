"""In-memory span tracing of acmmd's layers, applied from outside the package.

`Tracer.install()` replaces every public function of the layer modules with
a wrapper that records a span (name, start, end, parent), in every acmmd
module namespace that holds the function, because callers import these by
name (`acmmd.estimator.gram`, `acmmd.sweep.acmmd_test`, ...). Spans nest on
one stack, so the run must stay in one thread and one process. Per-item
helpers stay unwrapped: a span per token tuple or JSON item would cost more
than the work it times, and their time stays in the caller's self time.

`layer_metrics()` turns the spans into per-layer self times (span time minus
the time of its child spans) and counts taken at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

import numpy as np

LAYERS = ("cli", "config", "io", "records", "sequences", "kernels",
          "estimator", "reliability", "testing", "toy", "sweep")

UNWRAPPED = {"records.tokens_of", "io.item_from_json", "io.item_to_json",
             "testing.rademacher_signs"}

# Function -> metric that receives its self time. A function not listed
# here goes to its layer's entry in LAYER_METRIC, or else to
# "<layer>.other_s".
FUNCTION_METRIC = {
    "io.load_triplets": "io.load_s",
    "io.load_reliability_records": "io.load_s",
    "io.write_triplets": "io.write_s",
    "io.write_reliability_records": "io.write_s",
    "io.write_report": "io.write_s",
    "kernels.hamming_gram": "kernels.hamming_s",
    "kernels.sequence_gram": "kernels.lut_s",
    "kernels.gaussian_gram": "kernels.gaussian_s",
    "kernels.median_pairwise_distance": "kernels.median_s",
    "kernels.resolve_spec": "kernels.median_s",
    "kernels.mmd_sq_unbiased": "kernels.mmd_s",
    "kernels.mmd_sq_matrix_encoded": "kernels.mmd_s",
    "kernels.mmd_sq_matrix": "kernels.mmd_s",
    "kernels.distribution_gram": "kernels.distribution_s",
    "estimator.h_matrix": "estimator.h_s",
    "estimator.h_matrix_from_grams": "estimator.h_s",
    "estimator.acmmd_sq": "estimator.stat_s",
    "estimator.sigma_h_sq": "estimator.stat_s",
    "estimator.acmmd_sq_from_triplets": "estimator.stat_s",
    "estimator.g_term": "estimator.stat_s",
    "reliability.rel_h_matrix": "reliability.rel_h_s",
    "reliability.khat_matrix": "reliability.rel_h_s",
    "testing.wild_bootstrap": "testing.bootstrap_s",
    "testing.randomized_decision": "testing.decision_s",
    "testing.quantile_index": "testing.decision_s",
    "testing.min_bootstrap_count": "testing.decision_s",
    "sweep.write_sweep_csv": "sweep.output_s",
    "sweep.summarize_sweep": "sweep.output_s",
}
LAYER_METRIC = {
    "cli": "cli.other_s",
    "config": "config.resolve_s",
    "sequences": "sequences.encode_s",
    "toy": "toy.generate_s",
}
IMPORT_SPAN = "cli.import"
ROOT_SPAN = "cli.main"
SWEEP_SPANS = ("sweep.run_toy_sweep", "sweep.run_group_sweep")


def metric_of(name: str) -> str:
    if name == IMPORT_SPAN:
        return "cli.import_s"
    layer = name.split(".", 1)[0]
    return FUNCTION_METRIC.get(name) or LAYER_METRIC.get(layer) \
        or f"{layer}.other_s"


class Tracer:
    """Spans as [name, start, end, parent index] plus boundary counts."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []
        self.counts: dict[str, float] = {}
        # Arrays whose distinct rows are counted after the run, untimed.
        self._hamming_inputs: list[tuple] = []
        self._mmd_inputs: list = []

    def add_span(self, name: str, start: float, end: float) -> None:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent])

    def _wrap(self, name: str, fn):
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0,
                               self._stack[-1] if self._stack else -1])
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index][1:3] = [start, end]
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public layer function wherever acmmd holds it."""
        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"acmmd.{layer}")
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__
                        and name not in UNWRAPPED):
                    wrapped[id(obj)] = (obj, self._wrap(name, obj))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "acmmd" and not mod_name.startswith("acmmd."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._originals.append((module, attr, obj))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._originals):
            setattr(module, attr, obj)
        self._originals.clear()

    def _add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def _max(self, key: str, value: float) -> None:
        self.counts[key] = max(self.counts.get(key, 0), value)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)

    def layer_metrics(self) -> tuple[dict, list[str]]:
        """Per-layer metrics of the recorded run, and accounting problems.

        Times are self times summed over spans. `trace.wall_s` is the
        traced command (the `cli.main` span, which must be the only one);
        its subtree's self times must add up to it.
        """
        n = len(self.spans)
        self_s = [end - start for _, start, end, _ in self.spans]
        for name, start, end, parent in self.spans:
            if parent >= 0:
                self_s[parent] -= end - start
        metrics: dict[str, float] = {}
        for (name, *_), value in zip(self.spans, self_s):
            key = metric_of(name)
            metrics[key] = metrics.get(key, 0.0) + value
        problems = [f"span {self.spans[i][0]} has negative self time"
                    for i in range(n) if self_s[i] < -1e-9]

        roots = [i for i in range(n) if self.spans[i][0] == ROOT_SPAN]
        if len(roots) != 1:
            problems.append(f"expected one {ROOT_SPAN} span, got {len(roots)}")
            return metrics, problems
        root = roots[0]
        wall = self.spans[root][2] - self.spans[root][1]
        inside = [False] * n
        for i in range(root, n):
            parent = self.spans[i][3]
            inside[i] = i == root or (parent >= 0 and inside[parent])
        accounted = sum(s for s, keep in zip(self_s, inside) if keep)
        if abs(accounted - wall) > 1e-6 * max(wall, 1.0):
            problems.append(f"self times add up to {accounted} s, "
                            f"the traced command took {wall} s")
        metrics["trace.wall_s"] = wall
        metrics["sweep.task_s"] = sum(
            end - start for name, start, end, _ in self.spans
            if name in SWEEP_SPANS)

        metrics.update(self.counts)
        rows = distinct = 0
        for a, b in self._hamming_inputs:
            if a.shape == b.shape and np.array_equal(a, b):
                rows += len(a)
                distinct += _distinct_rows(a)
            else:
                rows += len(a) + len(b)
                distinct += _distinct_rows(a) + _distinct_rows(b)
        metrics["kernels.hamming_distinct_ratio"] = distinct / rows if rows else 0.0
        metrics["kernels.mmd_vocab"] = sum(map(_distinct_rows, self._mmd_inputs))
        return metrics, problems


def _distinct_rows(codes) -> int:
    if codes.shape[1] == 0:
        return min(len(codes), 1)
    flat = np.ascontiguousarray(codes)
    void = flat.view(np.dtype((np.void, flat.dtype.itemsize * flat.shape[1])))
    return len(np.unique(void.ravel()))


# ---------------------------------------------------------------------------
# Counts taken at layer boundaries: (tracer, args, kwargs, result) -> None.


def _count_load(t: Tracer, args, kwargs, result) -> None:
    records, _ = result
    items = 0
    for r in records:
        samples = getattr(r, "model_samples", ())
        items += 2 + len(samples) + (r.x is not None)
    t._add("io.items", items)


def _count_encode(t: Tracer, args, kwargs, result) -> None:
    codes, _ = result
    t._add("sequences.rows", codes.shape[0])
    t._max("sequences.width", codes.shape[1])


def _count_hamming(t: Tracer, args, kwargs, result) -> None:
    a, b = args[0], args[1]
    t._add("kernels.hamming_pairs", len(a) * len(b))
    t._max("kernels.hamming_out_mb", result.nbytes / 2**20)
    t._hamming_inputs.append((a, b))


def _count_mmd(t: Tracer, args, kwargs, result) -> None:
    t._add("kernels.mmd_rows", len(args[0]))
    t._mmd_inputs.append(args[0])


def _count_h(t: Tracer, args, kwargs, result) -> None:
    t._max("estimator.h_mb", result.values.nbytes / 2**20)


def _count_bootstrap(t: Tracer, args, kwargs, result) -> None:
    t._add("testing.bootstrap_draws", len(result.values))


def _count_sweep(t: Tracer, args, kwargs, result) -> None:
    t._add("sweep.tasks", len(result))


_COUNTERS = {
    "io.load_triplets": _count_load,
    "io.load_reliability_records": _count_load,
    "sequences.encode_sequences": _count_encode,
    "kernels.hamming_gram": _count_hamming,
    "kernels.mmd_sq_matrix_encoded": _count_mmd,
    "estimator.h_matrix": _count_h,
    "estimator.h_matrix_from_grams": _count_h,
    "testing.wild_bootstrap": _count_bootstrap,
    "sweep.run_toy_sweep": _count_sweep,
    "sweep.run_group_sweep": _count_sweep,
}
