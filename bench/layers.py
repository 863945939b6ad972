"""Which matchbench functions the traced run wraps, and the per-layer metrics
computed from their spans.

Every function named here is wrapped in each ``matchbench`` module that
imports it.
"""

from __future__ import annotations

import os
import statistics

import numpy as np

from spans import OpSummary


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _items_of_result(args, kwargs, result):
    return {"items": int(np.size(result))}


def _sample_size(args, kwargs, result):
    return {"items": int(_arg(args, kwargs, 1, "n"))}


def _csv_written(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


def _csv_read(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _kernel_items(args, kwargs, result):
    points = np.atleast_2d(_arg(args, kwargs, 2, "points"))
    return {"items": int(points.shape[0]) * _arg(args, kwargs, 0, "sample").n}


def _restart_wins(args, kwargs, result):
    # a restart "wins" when its local optimum reaches the returned objective
    restarts = [o for o in result.diagnostics["local_optima"] if str(o["source"]).startswith("restart")]
    return {
        "restarts": len(restarts),
        "restart_wins": sum(1 for o in restarts if o["objective"] >= result.objective),
    }


TARGETS = [
    ("matchbench.distributions", "average_ranks", _items_of_result),
    ("matchbench.distributions", "scaled_cdf", None),
    ("matchbench.distributions", "scaled_quantile", None),
    ("matchbench.market", "simulate_market", _sample_size),
    ("matchbench.market", "MatchedSample.to_csv", _csv_written),
    ("matchbench.market", "MatchedSample.from_csv", _csv_read),
    ("matchbench.estimators", "compute_moments", None),
    ("matchbench.estimators", "cca", None),
    ("matchbench.estimators", "ols_index", None),
    ("matchbench.estimators", "spearman_estimate", _restart_wins),
    ("matchbench.estimators", "mrs_estimate", None),
    ("matchbench.estimators", "kernel_regression", _kernel_items),
    ("matchbench.saliency", "svd_decompose", None),
    ("matchbench.oracle", "numeric_counterexample", None),
    ("matchbench.oracle", "quad_integrate", None),
    ("matchbench.oracle", "monte_carlo_counterexample", None),
    ("matchbench.cli", "main", None),
    ("matchbench.cli", "write_csv", None),
    ("matchbench.cli", "write_json", None),
]

# The command root span and the span that starts each benchmark task.
COMMAND_SPAN = "main"
FIRST_TASK_SPAN = "simulate_market"

COUNT_UNITS = ("count", "B")

# (metric, unit). A "<span>.<field>" metric reads that field of the span's
# totals; the rest are derived in ``cycle_metrics``.
PER_LAYER = [
    ("average_ranks.calls", "count"),
    ("average_ranks.items", "count"),
    ("average_ranks.busy_s", "s"),
    ("scaled_cdf.calls", "count"),
    ("scaled_cdf.busy_s", "s"),
    ("scaled_quantile.calls", "count"),
    ("scaled_quantile.busy_s", "s"),
    ("simulate_market.calls", "count"),
    ("simulate_market.items", "count"),
    ("simulate_market.busy_s", "s"),
    ("to_csv.bytes", "B"),
    ("to_csv.busy_s", "s"),
    ("from_csv.bytes", "B"),
    ("from_csv.busy_s", "s"),
    ("compute_moments.busy_s", "s"),
    ("cca.busy_s", "s"),
    ("ols_index.busy_s", "s"),
    ("spearman_estimate.calls", "count"),
    ("spearman_estimate.busy_s", "s"),
    ("spearman_estimate.self_s", "s"),
    ("spearman_estimate.restart_win_ratio", "ratio"),
    ("mrs_estimate.busy_s", "s"),
    ("kernel_regression.calls", "count"),
    ("kernel_regression.items", "count"),
    ("kernel_regression.busy_s", "s"),
    ("svd_decompose.calls", "count"),
    ("svd_decompose.busy_s", "s"),
    ("numeric_counterexample.calls", "count"),
    ("numeric_counterexample.busy_s", "s"),
    ("quad_integrate.calls", "count"),
    ("quad_integrate.busy_s", "s"),
    ("monte_carlo_counterexample.busy_s", "s"),
    ("main.self_s", "s"),
    ("write_csv.busy_s", "s"),
    ("write_json.busy_s", "s"),
    ("benchmark.parallel_efficiency", "ratio"),
    ("benchmark.queue_wait_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
]

# Ratios of counts: they must repeat exactly, like the counts.
EXACT_RATIOS = ("spearman_estimate.restart_win_ratio",)


def is_exact(metric: str, unit: str) -> bool:
    return unit in COUNT_UNITS or metric in EXACT_RATIOS


def coverage(summary: OpSummary, wall_s: float) -> float:
    """Share of an operation's wall time spent inside spans below its root."""
    return (summary.root_duration_s - summary.root_self_s) / wall_s


def cycle_metrics(ops) -> dict[str, float]:
    """Per-layer metrics of one traced cycle.

    ``ops`` holds ``(summary, wall_s, cut)`` per operation. Counts skip
    operations cut by their deadline, since how far those got depends on
    the machine; times include them.
    """
    values: dict[str, float] = {}
    restarts = wins = 0
    worker_busy = worker_capacity = queue_wait = 0.0
    coverages = []
    for summary, wall_s, cut in ops:
        for span, t in summary.totals.items():
            values[f"{span}.busy_s"] = values.get(f"{span}.busy_s", 0.0) + t.busy_s
            values[f"{span}.self_s"] = values.get(f"{span}.self_s", 0.0) + t.self_s
            if cut:
                continue
            values[f"{span}.calls"] = values.get(f"{span}.calls", 0) + t.calls
            for key in ("items", "bytes"):
                if key in t.counts:
                    values[f"{span}.{key}"] = values.get(f"{span}.{key}", 0) + t.counts[key]
            restarts += t.counts.get("restarts", 0)
            wins += t.counts.get("restart_wins", 0)
        if summary.workers:
            worker_busy += summary.worker_busy_s
            worker_capacity += wall_s * summary.workers
            queue_wait += summary.queue_wait_s
        if summary.root_name == COMMAND_SPAN:
            coverages.append(coverage(summary, wall_s))
    values["spearman_estimate.restart_win_ratio"] = wins / restarts if restarts else 0.0
    values["benchmark.parallel_efficiency"] = worker_busy / worker_capacity if worker_capacity else 0.0
    values["benchmark.queue_wait_s"] = queue_wait
    values["trace.coverage"] = min(coverages) if coverages else 0.0
    return values


def per_layer_metrics(cycles: list[dict[str, float]], overhead_ratio: float):
    """Combine traced cycles: counts must repeat exactly, times take the median.

    Returns ``(metrics, mismatches)`` where ``mismatches`` names every
    count that differed between cycles.
    """
    metrics, mismatches = {}, []
    for name, unit in PER_LAYER:
        if name == "trace.overhead_ratio":
            value = overhead_ratio
        else:
            seen = [c.get(name, 0) for c in cycles]
            if is_exact(name, unit):
                if len(set(seen)) > 1:
                    mismatches.append(f"{name}: {seen}")
                value = seen[0]
            else:
                value = statistics.median(seen)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, mismatches
