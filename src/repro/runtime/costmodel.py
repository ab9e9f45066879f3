"""Execution cost model for ``backend=auto`` dispatch.

Prices each top-level loop nest per (tier, backend) so the executor can
pick interp / compiled / compiled-parallel *per loop* instead of per
process.  The model follows the calibration methodology of
``docs/cost_model.md`` but prices the *execution* backends rather than
the paper's analytic machine: its inputs are

* the vectorization tier each loop actually achieved
  (:attr:`CompiledProgram.loop_tiers` — the execution analogue of the
  benchmarks' ``expected_tiers``),
* actual trip counts and inner work evaluated from the live environment
  (CSR inner loops are priced from the row-pointer array itself,
  inspector-style, not from static shape),
* per-element tier throughputs from a one-time micro-calibration
  persisted via :mod:`repro.cache` (keyed by a machine fingerprint), and
* the worker pool's dispatch overheads
  (:func:`repro.runtime.parbackend.dispatch_overhead_s`).

Predictions are linear in work with non-negative rates, so more work
never predicts a cheaper time (tested).  Every prediction is recorded in
:mod:`repro.runtime.workmeter` next to the measured wall times, making
mispredictions visible in ``--stats``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import platform
import time
from typing import Any, Dict, List, Optional

import numpy as np

from repro.lang.astnodes import (
    ArrayAccess,
    Assign,
    BinOp,
    Expression,
    For,
    Id,
    Num,
    Program,
)

#: bump when the calibration kernels change (invalidates cached entries)
CALIBRATION_VERSION = "costmodel-v1"

#: vector-family tiers (priced per element); anything else prices as scalar
VECTOR_TIERS = ("vectorized", "flattened", "masked", "segmented")

#: below this trip count the pool is never worth a dispatch
MIN_PAR_TRIPS = 64

#: parallel must predict at least this much better than serial to be
#: chosen — a deliberate serial bias that absorbs calibration noise (the
#: CI gate requires auto within 10% of the best fixed backend)
PAR_MARGIN = 1.3


@dataclasses.dataclass(frozen=True)
class Calibration:
    """Measured per-element throughputs (seconds/element) and overheads."""

    #: tier -> seconds per work element in the serial compiled backend
    rates: Dict[str, float]
    #: tier -> fixed per-loop setup seconds (numpy call overhead etc.)
    overheads: Dict[str, float]
    #: interpreter seconds per work element
    interp_rate: float

    def rate(self, tier: str) -> float:
        return self.rates.get(tier, self.rates["scalar"])

    def overhead(self, tier: str) -> float:
        return self.overheads.get(tier, 0.0)


@dataclasses.dataclass
class LoopPlan:
    """One loop's costing and the backend chosen for it."""

    loop_id: str
    tier: str
    trips: int
    work: int
    #: backend chosen for this loop: 'compiled' | 'compiled-parallel'
    choice: str
    #: backend/tier label -> predicted seconds
    predicted: Dict[str, float] = dataclasses.field(default_factory=dict)


_CAL: Optional[Calibration] = None


def _machine_digest() -> str:
    info = f"{platform.machine()}|{platform.processor()}|{os.cpu_count()}|{np.__version__}"
    return hashlib.sha256(info.encode()).hexdigest()


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _calibrate() -> Calibration:
    """Micro-benchmarks per tier, ~10ms total; numbers are per element."""
    n = 1 << 16
    a = np.random.default_rng(7).random(n)
    b = np.random.default_rng(8).random(n)
    out = np.empty(n)

    def vec():
        np.multiply(a, b, out=out)
        np.add(out, a, out=out)

    mask = a > 0.5

    def masked():
        sel = np.nonzero(mask)[0]
        out[sel] = a[sel] * b[sel]

    seg_bounds = np.arange(0, n + 8, 8)[: n // 8 + 1]

    def segmented():
        np.add.reduceat(a, seg_bounds[:-1])

    m = 1 << 13
    aa, bb = a[:m], b[:m]

    def scalar():
        s = 0.0
        for i in range(m):
            s += aa[i] * bb[i]
        return s

    t_vec = _best_of(vec) / n
    t_masked = _best_of(masked) / n
    t_seg = _best_of(segmented) / n
    t_scalar = _best_of(scalar) / m
    t_interp = _interp_rate()
    rates = {
        "vectorized": t_vec,
        "flattened": t_vec,
        "masked": t_masked,
        "segmented": max(t_seg, t_vec),
        "scalar": t_scalar,
        "interp": t_interp,
    }
    # fixed numpy-call setup cost per vectorized loop: one tiny op
    tiny = np.empty(8)
    t_call = _best_of(lambda: np.add(tiny, 1.0, out=tiny))
    overheads = {t: 4.0 * t_call for t in VECTOR_TIERS}
    overheads["scalar"] = 0.0
    return Calibration(rates=rates, overheads=overheads, interp_rate=t_interp)


def _interp_rate() -> float:
    from repro.lang.cparser import parse_program
    from repro.runtime.interp import run_program

    k = 2000
    prog = parse_program("for (i = 0; i < n; i++) { s = s + x[i]; }")
    env = {"n": k, "s": 0.0, "x": np.ones(k)}
    return _best_of(lambda: run_program(prog, dict(env)), repeats=2) / k


def _calibration_valid(cal: Any) -> bool:
    """Is a deserialized calibration usable?  Anything else = cold start.

    A disk entry can be stale (written by an older class layout), bit-rotted
    (unpickled into the right type with garbage fields), or hand-corrupted;
    validating here means :func:`get_calibration` treats every such entry as
    a miss and re-calibrates instead of erroring much later inside a
    prediction.
    """
    if not isinstance(cal, Calibration):
        return False
    try:
        rates, overheads = cal.rates, cal.overheads
        if not isinstance(rates, dict) or not isinstance(overheads, dict):
            return False
        if "scalar" not in rates:
            return False
        values = list(rates.values()) + list(overheads.values()) + [cal.interp_rate]
        return all(
            isinstance(v, (int, float)) and np.isfinite(v) and v >= 0.0 for v in values
        )
    except Exception:
        return False


def get_calibration() -> Calibration:
    """The process calibration (micro-measured once, disk-cached).

    An unreadable, stale, or corrupt cached entry is a *cold start* — the
    model silently re-calibrates and overwrites the bad entry (the disk
    cache itself already self-deletes corrupt blobs, see
    :mod:`repro.cache`).
    """
    global _CAL
    if _CAL is not None:
        return _CAL
    from repro import cache

    key = (_machine_digest(), CALIBRATION_VERSION)
    try:
        hit = cache.load("costmodel", key)
    except Exception:
        hit = None
    if _calibration_valid(hit):
        _CAL = hit
        return _CAL
    _CAL = _calibrate()
    try:
        cache.store("costmodel", key, _CAL)
    except Exception:  # pragma: no cover - a read-only cache dir is not fatal
        pass
    return _CAL


def reset_calibration() -> None:
    """Drop the in-process calibration (tests)."""
    global _CAL
    _CAL = None


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------


def predict_serial(cal: Calibration, tier: str, work: int) -> float:
    """Predicted serial-compiled seconds for ``work`` elements at ``tier``."""
    return cal.overhead(tier) + max(0, work) * cal.rate(tier)


def predict_parallel(cal: Calibration, tier: str, work: int, workers: int) -> float:
    """Predicted pool seconds: dispatch overhead + perfectly-split work."""
    from repro.runtime.parbackend import dispatch_overhead_s

    w = max(1, workers)
    return dispatch_overhead_s(w) + cal.overhead(tier) + max(0, work) * cal.rate(tier) / w


def predict_interp(cal: Calibration, work: int) -> float:
    return max(0, work) * cal.interp_rate


# ---------------------------------------------------------------------------
# trip/work evaluation from the live environment
# ---------------------------------------------------------------------------


def _eval(e: Optional[Expression], env: Dict[str, Any]) -> Optional[float]:
    if e is None:
        return None
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Id):
        v = env.get(e.name)
        return float(v) if isinstance(v, (int, float, np.integer, np.floating)) else None
    if isinstance(e, ArrayAccess) and len(e.indices) == 1:
        arr = env.get(e.name)
        idx = _eval(e.indices[0], env)
        if isinstance(arr, np.ndarray) and idx is not None and 0 <= int(idx) < arr.size:
            return float(arr[int(idx)])
        return None
    if isinstance(e, BinOp):
        a, b = _eval(e.lhs, env), _eval(e.rhs, env)
        if a is None or b is None:
            return None
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/" and b != 0:
            return a / b
    return None


def _header(loop: For):
    if not (isinstance(loop.init, Assign) and isinstance(loop.init.lhs, Id)):
        return None
    if not (isinstance(loop.cond, BinOp) and loop.cond.op in ("<", "<=")):
        return None
    index = loop.init.lhs.name
    return index, loop.init.rhs, loop.cond.rhs, loop.cond.op == "<="


def loop_trips(loop: For, env: Dict[str, Any]) -> Optional[int]:
    h = _header(loop)
    if h is None:
        return None
    _, lb, ub, inclusive = h
    lo, hi = _eval(lb, env), _eval(ub, env)
    if lo is None or hi is None:
        return None
    return max(0, int(hi) - int(lo) + (1 if inclusive else 0))


def _csr_total(inner: For, outer_index: str, lb, ub, env: Dict[str, Any]) -> Optional[int]:
    """Total segment work for CSR-shaped inner bounds ``rp[j]..rp[j+1]``.

    ``sum_j (rp[j+1] - rp[j]) = rp[hi] - rp[lo]`` — read straight off the
    row-pointer array, the same measured-structure shortcut the PR 5
    inspector uses.
    """
    h = _header(inner)
    if h is None:
        return None
    _, ilb, iub, _ = h

    def rp_at(e: Expression) -> Optional[str]:
        if (
            isinstance(e, ArrayAccess)
            and len(e.indices) == 1
        ):
            idx = e.indices[0]
            if isinstance(idx, Id) and idx.name == outer_index:
                return e.name
            if (
                isinstance(idx, BinOp)
                and idx.op == "+"
                and isinstance(idx.lhs, Id)
                and idx.lhs.name == outer_index
                and isinstance(idx.rhs, Num)
            ):
                return e.name
        return None

    arr_lo, arr_hi = rp_at(ilb), rp_at(iub)
    if arr_lo is None or arr_hi is None or arr_lo != arr_hi:
        return None
    rp = env.get(arr_lo)
    lo, hi = _eval(lb, env), _eval(ub, env)
    if not isinstance(rp, np.ndarray) or lo is None or hi is None:
        return None
    lo_i, hi_i = int(lo), int(hi)
    if not (0 <= lo_i <= hi_i < rp.size):
        return None
    return max(0, int(rp[hi_i]) - int(rp[lo_i]))


def loop_work(loop: For, env: Dict[str, Any]) -> Optional[int]:
    """Total work elements: trips weighted by inner-loop expansion."""
    trips = loop_trips(loop, env)
    if trips is None:
        return None
    h = _header(loop)
    index, lb, ub = h[0], h[1], h[2]
    work = trips
    for n in loop.body.walk():
        if isinstance(n, For):
            csr = _csr_total(n, index, lb, ub, env)
            if csr is not None:
                work += csr
                continue
            t = loop_trips(n, env)
            # invariant inner bounds: every outer iteration runs t trips
            work += trips * t if t is not None else trips * 4
    return work


# ---------------------------------------------------------------------------
# planning
# ---------------------------------------------------------------------------


def plan_program(
    cp,
    env: Dict[str, Any],
    cal: Optional[Calibration] = None,
    workers: int = 1,
) -> List[LoopPlan]:
    """Per-loop backend plan over a compiled program's lowered loops.

    ``cp`` is a :class:`~repro.runtime.compile.CompiledProgram`; planning
    walks its (possibly fused) ``lowered_prog`` top-level loops.  Unknown
    trip counts degrade to serial-compiled — never a wrong answer, only a
    possibly-suboptimal one.
    """
    cal = cal or get_calibration()
    plans: List[LoopPlan] = []
    prog: Program = cp.lowered_prog
    for stmt in prog.stmts:
        if not (isinstance(stmt, For) and stmt.loop_id):
            continue
        lid = stmt.loop_id
        tier = cp.loop_tiers.get(lid, "scalar")
        work = loop_work(stmt, env)
        trips = loop_trips(stmt, env)
        if work is None or trips is None:
            plans.append(
                LoopPlan(lid, tier, trips or 0, work or 0, "compiled", {})
            )
            continue
        t_serial = predict_serial(cal, tier, work)
        t_interp = predict_interp(cal, work)
        predicted = {"compiled": t_serial, "interp": t_interp}
        choice = "compiled"
        d = cp.lowered_decisions.get(lid)
        speculative = bool(
            d is not None
            and not getattr(d, "parallel", False)
            and getattr(d, "speculation_verified", False)
            and getattr(d, "speculation", None) is not None
        )
        can_par = bool(d is not None and (getattr(d, "parallel", False) or speculative))
        if can_par:
            # circuit breaker: after repeated dispatch failures the pool
            # suspends itself; plan serial until the cooldown re-probe
            from repro.runtime.parbackend import dispatch_allowed

            can_par = dispatch_allowed()
        if can_par and workers > 1 and trips >= MIN_PAR_TRIPS:
            t_par = predict_parallel(cal, tier, work, workers)
            if speculative:
                # price the dispatch-time inspection into the parallel
                # estimate (content-memoized repeats are nearly free, but
                # the conservative first-scan cost gates the promotion)
                t_inspect = _inspect_seconds(cal, d, env)
                predicted["inspect"] = t_inspect
                t_par += t_inspect
            predicted["compiled-parallel"] = t_par
            if t_par * PAR_MARGIN < t_serial:
                choice = "compiled-parallel"
        plans.append(LoopPlan(lid, tier, trips, work, choice, predicted))
    return plans


def _inspect_seconds(cal: Calibration, d, env: Dict[str, Any]) -> float:
    """Predicted cost of one speculative inspection pass for loop ``d``.

    The inspector is a vectorized ``np.diff`` scan over each hypothesized
    index array, so the vectorized tier's calibrated rate (seconds per
    element) is the right price; arrays missing from ``env`` contribute
    nothing (the dispatch condition would fail before inspecting them
    anyway).
    """
    n = 0
    for sp in getattr(getattr(d, "speculation", None), "speculative", ()) or ():
        arr = env.get(sp.array)
        n += int(getattr(arr, "size", 0) or 0)
    return cal.overhead("vectorized") + n * cal.rate("vectorized")


def program_prefers_interp(plans: List[LoopPlan]) -> bool:
    """Whole-program escape: interp predicted faster than every compiled plan.

    Only plausible for tiny scalar-tier programs where numpy setup
    overhead dominates; vector-tier loops always stay compiled.
    """
    if not plans:
        return False
    if any(p.tier in VECTOR_TIERS for p in plans):
        return False
    t_comp = sum(p.predicted.get("compiled", 0.0) for p in plans)
    t_interp = sum(p.predicted.get("interp", float("inf")) for p in plans)
    return t_interp < t_comp
