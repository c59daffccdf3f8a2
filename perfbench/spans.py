"""Spans recorded around calls into driveselect's modules, and the per-layer
metrics derived from them.

Only the traced workload child installs the tracer. It replaces a layer
function at every module attribute bound to it (``loop.score_pool`` and
``cli.score_pool`` are separate names for ``criteria.score_pool``), and wraps
the planner through the ``PredictionProvider`` protocol. Spans stay in memory
until the child ends and writes them out.
"""

from __future__ import annotations

import functools
import os
import resource
import sys
import time
from collections import defaultdict

#: Layer functions wrapped in the traced child, as (module, attribute).
TRACED_FUNCTIONS = (
    ("cli", "main"),
    ("pool", "load_pool"),
    ("pool", "save_pool"),
    ("pool", "load_selection"),
    ("pool", "save_selection"),
    ("synthworld", "generate_pool"),
    ("synthworld", "generate_world"),
    ("synthworld", "save_truth"),
    ("synthworld", "load_truth"),
    ("synthworld", "evaluate_clips"),
    ("diversity", "ego_diversity_init"),
    ("diversity", "stratify"),
    ("criteria", "load_predictions"),
    ("criteria", "score_pool"),
    ("criteria", "rank_and_take"),
    ("criteria", "save_scores"),
    ("criteria", "load_scores"),
    ("loop", "run"),
    ("loop", "run_round"),
    ("report", "emit_report"),
    ("report", "stratified_metrics"),
)
#: Every span name a traced child can record.
SPAN_NAMES = {f"{module}.{attr}" for module, attr in TRACED_FUNCTIONS} | {
    "synthworld.ToyPlanner.train", "synthworld.ToyPlanner.predict"}


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# Counts taken at a span's boundary: span name -> f(args, result) -> {suffix: value}.
_COUNTS = {
    "pool.load_pool": lambda args, result: {"bytes": os.path.getsize(args[0])},
    "pool.save_pool": lambda args, result: {"bytes": os.path.getsize(args[1])},
    # generate_pool writes the pool itself instead of calling save_pool.
    "synthworld.generate_pool": lambda args, result: {"pool.save_pool.bytes": os.path.getsize(args[1])},
    "criteria.load_predictions": lambda args, result: {
        "bytes": os.path.getsize(args[0]), "parsed": len(result)},
    "criteria.score_pool": lambda args, result: {"clips": len(args[0])},
    "synthworld.ToyPlanner.predict": lambda args, result: {
        "clips": len(args[0]), "forecasts": sum(len(p.agents) for p in result.values())},
}
# Spans after which the process high-water mark is recorded.
_MAXRSS = {"synthworld.generate_world", "synthworld.ToyPlanner.predict"}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)
        counter = _COUNTS.get(name)
        if counter is not None:
            for key, value in counter(args, result).items():
                self.counts[key if "." in key else f"{name}.{key}"] += value
        if name in _MAXRSS:
            key = f"{name}.maxrss_mb"
            self.counts[key] = max(self.counts[key], _maxrss_mb())
        return result

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced


class TracedProvider:
    """A ``PredictionProvider`` that records spans around another one."""

    def __init__(self, inner, tracer: Tracer, name: str):
        self._inner = inner
        self._tracer = tracer
        self._name = name

    def train(self, labeled_ids):
        return self._tracer.call(f"{self._name}.train", self._inner.train, labeled_ids)

    def predict(self, ids):
        return self._tracer.call(f"{self._name}.predict", self._inner.predict, ids)


def install(tracer: Tracer) -> None:
    """Wrap every binding of the traced functions in the loaded driveselect modules."""
    modules = [m for n, m in list(sys.modules.items()) if n == "driveselect" or n.startswith("driveselect.")]
    for module_name, attr in TRACED_FUNCTIONS:
        original = getattr(sys.modules[f"driveselect.{module_name}"], attr)
        traced = tracer.wrap(f"{module_name}.{attr}", original)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, traced)

    cli = sys.modules["driveselect.cli"]
    planner_cls = cli.ToyPlanner

    def traced_planner(*args, **kwargs):
        return TracedProvider(planner_cls(*args, **kwargs), tracer, "synthworld.ToyPlanner")

    cli.ToyPlanner = traced_planner


# ---------------------------------------------------------------------------
# Per-layer metrics, computed in the benchmark's parent from a child's spans
# ---------------------------------------------------------------------------

_UNITS = {
    "s": "s", "self_s": "s", "import_s": "s", "overhead_s": "s", "run_s": "s",
    "calls": "count", "clips": "count", "forecasts": "count", "parsed": "count",
    "bytes": "bytes", "maxrss_mb": "MB", "used_ratio": "ratio",
}


def unit_of(metric: str) -> str:
    return _UNITS[metric.rsplit(".", 1)[-1]]


def layer_metrics(spans, counts: dict) -> dict[str, float]:
    """Totals per span name (``.s``, ``.self_s``, ``.calls``) plus the counts."""
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for name, start, end, parent in spans:
        total[name] += end - start
        self_time[name] += end - start
        calls[name] += 1
        if parent >= 0:
            self_time[spans[parent][0]] -= end - start
    metrics = dict(counts)
    for name in total:
        metrics[f"{name}.s"] = total[name]
        metrics[f"{name}.self_s"] = self_time[name]
        metrics[f"{name}.calls"] = calls[name]
    # generate_pool's own time is the pool write (pool_to_lines plus the
    # atomic write); it does not go through save_pool.
    metrics["pool.save_pool.s"] = (
        metrics.get("pool.save_pool.s", 0.0) + metrics.get("synthworld.generate_pool.self_s", 0.0)
    )
    parsed = metrics.get("criteria.load_predictions.parsed", 0)
    metrics["criteria.load_predictions.used_ratio"] = (
        metrics.get("criteria.score_pool.clips", 0) / parsed if parsed else 0.0
    )
    return metrics
