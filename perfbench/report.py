"""Metric names, units and how each is computed from a run's records.

Per-layer times are self times (a layer's span minus its children's
spans) averaged per operation, so on one workload they add up to the
operation time.  Per-layer counts are averaged per operation too; every
round repeats the same operations, so on the in-process workloads the
averages repeat exactly however many rounds a run fits in.
"""

from __future__ import annotations

import math
import re
import statistics
from typing import Dict, Iterable, List, Optional, Sequence

#: kernel names as the registry lists them (Table 1 order)
KERNELS = (
    "AMGmk", "CHOLMOD-Supernodal", "SDDMM", "UA(transf)", "CG", "heat-3d",
    "fdtd-2d", "gramschmidt", "syrk", "MG", "IS", "Incomplete-Cholesky",
)

#: the six kernels with paper-scale inputs and a certified-parallel loop
POOL_KERNELS = ("AMGmk", "SDDMM", "UA(transf)", "CG", "syrk", "IS")

#: per-layer time metric -> span names whose self time it sums
LAYER_TIMES: Dict[str, Sequence[str]] = {
    "lang.parse_ms": ("lang.parse",),
    "analysis.normalize_ms": ("analysis.normalize",),
    "analysis.phase1_ms": ("analysis.phase1",),
    "analysis.phase2_ms": ("analysis.phase2",),
    "analysis.other_ms": ("analysis.other",),
    "dependence.test_ms": (
        "dependence.scalars", "dependence.accesses", "dependence.classic", "dependence.extended",
    ),
    "verify.checker_ms": ("verify.checker", "verify.fusion"),
    "verify.staticrace_ms": ("verify.staticrace",),
    "parallelizer.decide_ms": ("parallelizer.decide",),
    "parallelizer.codegen_ms": ("parallelizer.codegen",),
    "runtime.lower_ms": ("runtime.lower",),
    "runtime.fuse_ms": ("runtime.fuse",),
    "runtime.plan_ms": ("runtime.plan",),
    "runtime.run_ms": ("runtime.run",),
    "pool.install_ms": ("pool.install",),
    "pool.adopt_ms": ("pool.adopt",),
    "pool.release_ms": ("pool.release",),
    "pool.dispatch_ms": ("pool.dispatch",),
    "service.wire_ms": ("service.wire",),
    "service.queue_ms": ("service.queue",),
    "service.compute_ms": ("service.compute",),
}

#: per-layer count metric -> span names whose calls it counts
LAYER_CALLS: Dict[str, Sequence[str]] = {
    "lang.parse_calls": ("lang.parse",),
    "analysis.nests": ("analysis.phase1",),
    "dependence.tests": ("dependence.classic", "dependence.extended"),
    "runtime.lower_calls": ("runtime.lower",),
    "pool.dispatches": ("pool.dispatch",),
}

#: per-layer metric -> ``perfstats`` counter (deltas over the traced operations)
COUNTERS: Dict[str, str] = {
    "ir.simplify_misses": "simplify_misses",
    "ir.intern_misses": "intern_misses",
    "ir.expand_misses": "expand_misses",
    **{
        f"cache.{tier}_{kind}": f"{tier}_{kind}"
        for tier in ("parallelize", "analysis", "nest", "nestdec", "parse")
        for kind in ("hits", "misses")
    },
    "cache.evictions": "cache_evictions",
}

#: compiled-loop tiers counted by ``perfstats.TIERS``
TIERS = ("segmented", "masked", "flattened", "vectorized", "scalar", "interp-fallback")

#: metrics a workload computes itself (per operation unless noted)
EXTRAS = (
    ("verify.certified", "count/op", "higher"),
    ("verify.rejected", "count/op", "lower"),
    ("parallelizer.parallel_loops", "count/op", "higher"),
    ("runtime.pred_ratio", "ratio", "lower"),
    ("pool.chunk_ms", "ms/op", "lower"),
    ("pool.imbalance", "ratio", "lower"),
    ("pool.faults", "count/op", "lower"),
    ("service.cached_replies", "count/op", "higher"),
    *((f"latency.{cls}_p{q}_ms", "ms", "lower") for cls, q in (
        ("warm", 50), ("warm", 99), ("edit", 50), ("edit", 90), ("cold", 50), ("cold", 90))),
    ("trace.unattributed_ms", "ms/op", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.layer_sum_ratio", "ratio", "higher"),
)


def kernel_metric(name: str) -> str:
    return "kernel." + re.sub(r"[^A-Za-z0-9_.-]+", "_", name).strip("_") + "_ms"


def per_layer_spec() -> List[Dict[str, str]]:
    """Every per-layer metric, as ``BENCHMARK.json`` lists them."""
    spec = [{"name": n, "unit": "ms/op", "better": "lower"} for n in LAYER_TIMES]
    spec += [{"name": n, "unit": "count/op", "better": "lower"} for n in LAYER_CALLS]
    spec += [
        {"name": n, "unit": "count/op", "better": "higher" if n.endswith("_hits") else "lower"}
        for n in COUNTERS
    ]
    spec += [
        {"name": f"runtime.tier.{t}", "unit": "count/op",
         "better": "lower" if t in ("scalar", "interp-fallback") else "higher"}
        for t in TIERS
    ]
    spec += [{"name": n, "unit": u, "better": b} for n, u, b in EXTRAS]
    spec += [{"name": kernel_metric(k), "unit": "ms", "better": "lower"} for k in KERNELS + ("fuzz",)]
    return spec


def geomean(values: Iterable[float]) -> float:
    vals = [v for v in values if v > 0]
    return math.exp(statistics.fmean(math.log(v) for v in vals)) if vals else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (NumPy's default method)."""
    import numpy as np

    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(
    self_times: Dict[str, Dict[str, float]],
    n_ops: int,
    counters: Dict[str, int],
    tiers: Dict[str, int],
    extras: Dict[str, float],
    kernel_ms: Dict[str, float],
    n_counted: Optional[int] = None,
) -> Dict[str, float]:
    """Assemble every per-layer metric; layers a workload does not reach read 0.

    Span-derived metrics are averaged over the ``n_ops`` traced operations;
    ``counters`` and ``tiers`` over the ``n_counted`` operations they cover
    (the same ones unless given).
    """
    n = max(n_ops, 1)
    nc = max(n_counted or n_ops, 1)
    out: Dict[str, float] = {}
    for name, spans in LAYER_TIMES.items():
        out[name] = sum(self_times.get(s, {}).get("self_ns", 0) for s in spans) / n / 1e6
    for name, spans in LAYER_CALLS.items():
        out[name] = sum(self_times.get(s, {}).get("calls", 0) for s in spans) / n
    for name, counter in COUNTERS.items():
        out[name] = counters.get(counter, 0) / nc
    for tier in TIERS:
        out[f"runtime.tier.{tier}"] = tiers.get(tier, 0) / nc
    tags = self_times.get("verify.checker", {}).get("tags", {})
    out["verify.certified"] = tags.get("ok", 0) / n
    out["verify.rejected"] = tags.get("rejected", 0) / n
    for name, _, _ in EXTRAS:
        if name in extras:
            out[name] = extras[name]
        out.setdefault(name, 0.0)
    for k in KERNELS + ("fuzz",):
        out[kernel_metric(k)] = kernel_ms.get(k, 0.0)
    return out


def trace_summary(
    self_times: Dict[str, Dict[str, float]],
    root: Optional[str],
    traced_ns: float,
    untraced_ns: float,
    n_ops: int,
) -> Dict[str, float]:
    """Tracing overhead, and how much of the untraced time the layers explain.

    ``root`` names the span that stands for the whole operation; its self
    time is the time no named layer covers (None when the root is itself
    a named layer).
    """
    named = sum(v["self_ns"] for k, v in self_times.items() if k != root)
    unattributed = self_times.get(root, {}).get("self_ns", 0) if root else 0
    return {
        "trace.unattributed_ms": unattributed / max(n_ops, 1) / 1e6,
        "trace.overhead_pct": 100.0 * (traced_ns / untraced_ns - 1.0) if untraced_ns else 0.0,
        "trace.layer_sum_ratio": named / untraced_ns if untraced_ns else 0.0,
    }


def counter_delta(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, int]:
    return {k: after.get(k, 0) - before.get(k, 0) for k in set(before) | set(after)}
