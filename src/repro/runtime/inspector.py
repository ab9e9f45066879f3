"""Run-time baselines from the paper's related work (§1, §5).

The paper's pitch is that compile-time analysis avoids the overheads of the
two classic run-time alternatives:

* **inspector-executor** (Saltz/Strout): before running the kernel in
  parallel, *inspect* the index array — an O(region) scan proving
  monotonicity/injectivity — then dispatch the parallel executor.  Cheap
  per element, but the paper notes simplified inspectors still need the
  executor to run 40-60 times to amortize (§5).
* **speculative execution** (LRPD): run the loop in parallel immediately
  while logging accesses; validate afterwards; on conflict, discard and
  re-execute serially.  Every invocation pays the logging tax.

This module provides (a) a *real* inspector over NumPy index arrays — used
to validate compile-time claims — and (b) cost models for both schemes so
the break-even experiment can be reproduced.

It is also the engine of the compiled backend's **speculative tier**
(:func:`dispatch_check`): loops whose monotonicity the static lemmas could
not prove carry a conditional certificate, and the generated code calls
``dispatch_check`` on the live index array immediately before pool
dispatch — parallel executor on pass, compiled-serial fallback on fail.
Verdicts are memoized by array *content* (sha256 of the bytes), so the
paper's §5 amortization concern collapses to one scan per distinct array
state instead of one per invocation.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from typing import Optional, Tuple

import numpy as np

from repro.runtime.machine import DEFAULT_MACHINE, MachineModel
from repro.runtime.simulate import ParallelPlan, PerfModel, simulate_app


@dataclasses.dataclass
class InspectionResult:
    """Outcome of inspecting an index array region at run time."""

    monotonic: bool
    strict: bool
    elements_scanned: int

    @property
    def injective(self) -> bool:
        return self.strict


def inspect_monotonicity(arr: np.ndarray, lo: int = 0, hi: Optional[int] = None) -> InspectionResult:
    """O(n) scan of ``arr[lo:hi]`` for (strict) monotonicity.

    This is the run-time ground truth the compile-time analysis predicts;
    tests cross-check every proven property against it.
    """
    hi = len(arr) if hi is None else hi
    region = np.asarray(arr[lo:hi])
    n = len(region)
    if n <= 1:
        return InspectionResult(monotonic=True, strict=True, elements_scanned=n)
    diffs = np.diff(region)
    return InspectionResult(
        monotonic=bool(np.all(diffs >= 0)),
        strict=bool(np.all(diffs > 0)),
        elements_scanned=n,
    )


def inspect_segment_weights(
    rp: np.ndarray, lo: int = 0, hi: Optional[int] = None
) -> np.ndarray:
    """Per-iteration inner trip counts from a CSR-style row pointer.

    ``rp[i] .. rp[i+1]`` bounds the inner loop of outer iteration ``i``;
    the returned vector ``w[k] = max(rp[lo+k+1] - rp[lo+k], 0)`` is the
    inspector signal the work-aware scheduler balances on: its prefix sum
    fed to :func:`repro.runtime.scheduler.balanced_chunk_bounds` yields
    chunk boundaries with near-equal *work* (nonzeros) instead of
    near-equal iteration counts.  Descending row-pointer glitches clamp
    to zero-trip, matching the executed loops.
    """
    hi = len(rp) - 1 if hi is None else hi
    region = np.asarray(rp[lo : hi + 1])
    if len(region) <= 1:
        return np.zeros(0, dtype=np.int64)
    return np.maximum(np.diff(region), 0).astype(np.int64, copy=False)


# ---------------------------------------------------------------------------
# speculative dispatch checks (inspector-executor tier of the compiled backend)
# ---------------------------------------------------------------------------

#: requirement tags (mirror repro.verify.certificate.SPEC_*; no import to
#: keep this module free of verifier dependencies for the pool workers)
_REQ_STRICT = "strict"
_REQ_MONOTONIC = "monotonic"

#: content-keyed verdict memo: (sha256(bytes), required) -> bool.  Bounded
#: like every other in-memory cache (REPRO_CACHE_MAX_ENTRIES).
_VERDICT_MEMO = None  # created lazily: perfstats import is cheap but cyclic-prone


def _memo():
    global _VERDICT_MEMO
    if _VERDICT_MEMO is None:
        from repro.ir import perfstats

        _VERDICT_MEMO = perfstats.BoundedCache()
        perfstats.register_cache("inspect", _VERDICT_MEMO)
    return _VERDICT_MEMO


def dispatch_check(arr, required: str, loop_key: str = "?", array: str = "?") -> bool:
    """Decide one speculative hypothesis against the live array.

    ``required`` is ``"strict"`` (injectivity needed: the disproof route
    was direct indirection) or ``"monotonic"`` (ordering only: bound
    indirection).  The scan covers the *full* array — a sound
    over-approximation of the subscript region the loop actually touches.
    Unknown requirement tags fail closed (serial execution).

    Verdicts are memoized by array content, so repeated invocations over
    an unchanged index array pay one O(n) scan total; pass/fail/memo-hit
    counts land in :mod:`repro.ir.perfstats` and per-event records in
    :mod:`repro.runtime.workmeter` for ``--stats``.
    """
    from repro.ir import perfstats
    from repro.runtime import workmeter

    if required not in (_REQ_STRICT, _REQ_MONOTONIC):
        perfstats.STATS.inspect_fails += 1
        return False
    a = np.asarray(arr)
    key: Optional[Tuple[str, str]] = None
    memo = _memo()
    try:
        key = (hashlib.sha256(a.tobytes()).hexdigest(), required)
    except Exception:  # non-contiguous exotic views: just scan
        key = None
    if key is not None:
        hit = memo.get(key)
        if hit is not None:
            perfstats.STATS.inspect_memo_hits += 1
            try:
                workmeter.record_inspection(
                    loop_key, required=required, passed=hit,
                    elements=0, seconds=0.0, array=array, memo_hit=True,
                )
            except Exception:  # pragma: no cover
                pass
            return hit
    t0 = time.perf_counter()
    res = inspect_monotonicity(a)
    ok = res.strict if required == _REQ_STRICT else res.monotonic
    dt = time.perf_counter() - t0
    if ok:
        perfstats.STATS.inspect_passes += 1
    else:
        perfstats.STATS.inspect_fails += 1
    if key is not None:
        memo[key] = ok
    try:
        workmeter.record_inspection(
            loop_key, required=required, passed=ok,
            elements=res.elements_scanned, seconds=dt, array=array,
        )
    except Exception:  # pragma: no cover - stats must never block dispatch
        pass
    return ok


# ---------------------------------------------------------------------------
# cost models
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class InspectorExecutorModel:
    """Cost model for inspector-executor parallelization.

    The inspector scans the subscript array (``inspect_ops_per_elem`` ops
    per element, typically several times the cost of the consuming
    kernel's per-element work because it builds wavefront/conflict
    structures); the executor then runs the kernel with the compile-time
    plan's parallel layout.  The inspection re-runs whenever the index
    array changes (``inspections`` per ``runs`` kernel invocations).
    """

    inspect_ops_per_elem: float = 12.0

    def time(
        self,
        perf: PerfModel,
        plan: ParallelPlan,
        threads: int,
        runs: int,
        index_len: int,
        inspections: int = 1,
        machine: MachineModel = DEFAULT_MACHINE,
    ) -> float:
        t_kernel = simulate_app(perf, plan, threads, machine)
        t_inspect = index_len * self.inspect_ops_per_elem * perf.c_op
        return inspections * t_inspect + runs * t_kernel


@dataclasses.dataclass(frozen=True)
class SpeculativeModel:
    """Cost model for LRPD-style speculative parallelization.

    Every invocation pays a logging/validation multiplier on the parallel
    compute; a failed run additionally pays the discarded attempt plus a
    serial re-execution.
    """

    logging_factor: float = 1.55
    validation_ops_per_elem: float = 2.0

    def time(
        self,
        perf: PerfModel,
        plan: ParallelPlan,
        threads: int,
        runs: int,
        touched_elems: int,
        failure_rate: float = 0.0,
        machine: MachineModel = DEFAULT_MACHINE,
    ) -> float:
        t_par = simulate_app(perf, plan, threads, machine) * self.logging_factor
        t_par += touched_elems * self.validation_ops_per_elem * perf.c_op
        t_serial = perf.serial_time_target
        per_run = (1.0 - failure_rate) * t_par + failure_rate * (t_par + t_serial)
        return runs * per_run


def compile_time_model_time(
    perf: PerfModel, plan: ParallelPlan, threads: int, runs: int,
    machine: MachineModel = DEFAULT_MACHINE,
) -> float:
    """The paper's approach: zero run-time overhead beyond the if-clause."""
    return runs * simulate_app(perf, plan, threads, machine)


def break_even_runs(
    perf: PerfModel,
    plan: ParallelPlan,
    threads: int,
    index_len: int,
    inspector: Optional[InspectorExecutorModel] = None,
    machine: MachineModel = DEFAULT_MACHINE,
    max_runs: int = 10_000,
) -> Optional[int]:
    """Smallest run count where inspector-executor beats SERIAL execution.

    (The paper's §5 point: simplified inspectors still need the executor to
    run tens of times before inspection pays for itself on small kernels.)
    """
    if inspector is None:
        inspector = InspectorExecutorModel()
    for runs in range(1, max_runs + 1):
        t_ie = inspector.time(perf, plan, threads, runs, index_len)
        t_serial = runs * perf.serial_time_target
        if t_ie < t_serial:
            return runs
    return None
