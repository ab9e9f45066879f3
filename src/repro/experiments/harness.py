"""Shared experiment runner: compile → plan → simulate.

``run_benchmark`` runs one (benchmark, dataset, pipeline, cores, schedule)
cell: it parallelizes the benchmark's source under the pipeline's
:class:`~repro.analysis.config.AnalysisConfig`, derives the execution plan
from the per-loop decisions, and predicts serial/parallel times with the
machine model.  All figures are tables of these cells.

**Parallel fan-out.**  Cells are independent pure functions of their
:class:`CellSpec`, so :func:`run_cells` fans a spec list out over a
``ProcessPoolExecutor``.  The pool explicitly requests the ``fork`` start
method where the platform offers it (so workers inherit the parent's warm
analysis caches); elsewhere — ``spawn`` on Windows/macOS — each fan-out's
workers start cold and redo the analyses the parent already holds.  Each
worker snapshots its :mod:`repro.ir.perfstats` counters (and tier/fallback
histograms) around the cell and ships the delta back alongside the result
over the existing reply pipe; the parent folds every delta into its own
counters via :func:`repro.ir.perfstats.merge_counts`, so the CLI
``--stats`` report and the cache-hit accounting cover the whole run
regardless of ``REPRO_JOBS``.  The same reply carries the pristine
whole-program ``parallelize`` and ``analysis`` cache entries the cell
computed (:func:`repro.ir.perfstats.collect_cache_entries`); the parent
installs each one it does not hold yet
(:func:`repro.ir.perfstats.install_cache_entries`, no hit or miss
counted).  After a pooled run the parent therefore holds the same
whole-program caches as after a serial one — under any start method —
and later forks start warm, so a second figure run analyzes nothing.
The worker count defaults to ``os.cpu_count()`` and is
overridden by the ``REPRO_JOBS`` environment variable or the ``jobs=``
argument; ``REPRO_JOBS=1`` forces the fully serial path (no pool at all).
Results come back in spec order, and each cell computes exactly the same
floats serially or in a worker, so figure tables are bit-identical either
way.
"""

from __future__ import annotations

import dataclasses
import logging
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from repro.analysis.config import AnalysisConfig
from repro.benchmarks.base import Benchmark
from repro.parallelizer.driver import ParallelizationResult, is_parallelized, parallelize
from repro.runtime.machine import DEFAULT_MACHINE, MachineModel
from repro.runtime.simulate import plan_from_decisions, simulate_app

logger = logging.getLogger("repro.experiments.harness")

PIPELINES: Dict[str, AnalysisConfig] = {
    "Cetus": AnalysisConfig.classical(),
    "Cetus+BaseAlgo": AnalysisConfig.base_algorithm(),
    "Cetus+NewAlgo": AnalysisConfig.new_algorithm(),
}


@dataclasses.dataclass
class BenchRun:
    """One experiment cell."""

    benchmark: str
    dataset: str
    pipeline: str
    cores: int
    schedule: str
    serial_time: float
    parallel_time: float
    plan_level: str  # level of the main kernel component

    @property
    def speedup(self) -> float:
        return self.serial_time / self.parallel_time

    @property
    def efficiency(self) -> float:
        return self.speedup / self.cores


@dataclasses.dataclass
class FailedCell:
    """Placeholder for a cell whose evaluation crashed or timed out.

    Duck-types :class:`BenchRun` (same identity fields, NaN metrics,
    ``plan_level="failed"``) so figure tables render a hole instead of
    crashing.  ``error`` carries the one-line cause.
    """

    benchmark: str
    dataset: str
    pipeline: str
    cores: int
    schedule: str
    error: str
    serial_time: float = math.nan
    parallel_time: float = math.nan
    plan_level: str = "failed"

    @property
    def speedup(self) -> float:
        return math.nan

    @property
    def efficiency(self) -> float:
        return math.nan


def _failed_cell(spec: "CellSpec", error: str) -> FailedCell:
    dataset = spec.dataset
    if dataset is None:
        # resolve the default so the hole lands on the same table row as
        # its sibling cells
        try:
            from repro.benchmarks.registry import get_benchmark

            dataset = get_benchmark(spec.benchmark).default_dataset
        except Exception:
            dataset = ""
    return FailedCell(
        benchmark=spec.benchmark,
        dataset=dataset,
        pipeline=spec.pipeline,
        cores=spec.cores,
        schedule=spec.schedule,
        error=error,
    )


def _compile(bench_name: str, pipeline: str) -> ParallelizationResult:
    # dedup happens in the global parallelize cache (keyed by source digest
    # and config fingerprint), which also serves the CLI and the examples
    from repro.benchmarks.registry import get_benchmark

    bench = get_benchmark(bench_name)
    return parallelize(bench.source, PIPELINES[pipeline])


def _compiled(spec: "CellSpec") -> bool:
    """This process already holds the cell's :func:`_compile` result."""
    from repro.benchmarks.registry import get_benchmark

    return is_parallelized(get_benchmark(spec.benchmark).source, PIPELINES[spec.pipeline])


def run_benchmark(
    bench: Benchmark,
    dataset: Optional[str] = None,
    pipeline: str = "Cetus+NewAlgo",
    cores: int = 16,
    schedule: str = "static",
    chunk: int = 1,
    machine: MachineModel = DEFAULT_MACHINE,
) -> BenchRun:
    """Run one experiment cell."""
    dataset = dataset or bench.default_dataset
    result = _compile(bench.name, pipeline)
    perf = bench.perf_model(dataset)
    plan = plan_from_decisions(perf, result)
    t_serial = perf.serial_time_target
    t_par = simulate_app(perf, plan, cores, machine, schedule, chunk)
    main = plan.per_component.get(bench.main_component)
    return BenchRun(
        benchmark=bench.name,
        dataset=dataset,
        pipeline=pipeline,
        cores=cores,
        schedule=schedule,
        serial_time=t_serial,
        parallel_time=t_par,
        plan_level=main.level if main else "serial",
    )


# ---------------------------------------------------------------------------
# parallel fan-out over independent cells
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class CellSpec:
    """Pickleable description of one experiment cell.

    Carries names rather than objects so cells cross process boundaries
    cheaply; :func:`run_cell` rehydrates the benchmark from the registry.
    """

    benchmark: str
    dataset: Optional[str] = None
    pipeline: str = "Cetus+NewAlgo"
    cores: int = 16
    schedule: str = "static"
    chunk: int = 1


def run_cell(spec: CellSpec) -> BenchRun:
    """Run one cell from its spec (worker entry point)."""
    from repro.benchmarks.registry import get_benchmark

    bench = get_benchmark(spec.benchmark)
    return run_benchmark(bench, spec.dataset, spec.pipeline, spec.cores, spec.schedule, spec.chunk)


def _run_cell_stats(spec: CellSpec):
    """Worker entry point: run one cell and return its perfstats delta.

    Module-level (picklable) wrapper around :func:`run_cell`.  The delta
    covers only this cell's work — counters inherited from a forked
    parent are subtracted out — so the parent can fold deltas from many
    workers without double counting.
    """
    from repro.ir import perfstats

    before = perfstats.STATS.as_dict()
    tiers_before = dict(perfstats.TIERS)
    falls_before = dict(perfstats.FALLBACKS)
    result = run_cell(spec)
    after = perfstats.STATS.as_dict()
    counts = {k: after[k] - before.get(k, 0) for k in after if after[k] != before.get(k, 0)}
    tiers = {
        k: v - tiers_before.get(k, 0)
        for k, v in perfstats.TIERS.items()
        if v != tiers_before.get(k, 0)
    }
    falls = {
        k: v - falls_before.get(k, 0)
        for k, v in perfstats.FALLBACKS.items()
        if v != falls_before.get(k, 0)
    }
    return result, counts, tiers, falls


def _merge_cell_stats(payload) -> "BenchRun":
    """Unpack a worker's (result, deltas) payload, folding stats into STATS."""
    from repro.ir import perfstats

    result, counts, tiers, falls = payload
    perfstats.merge_counts(counts, tiers, falls)
    return result


#: whole-program result caches whose worker-side entries travel home, so
#: the parent (and every later fork of it) starts warm
_SHIPPED_CACHES = ("parallelize", "analysis")


def _run_cell_shipping(spec: CellSpec):
    """Pool entry point: :func:`_run_cell_stats` plus the cell's cache entries.

    Returns ``(payload, entries)``: the stats payload and the pristine
    whole-program snapshots this cell added to the worker's caches
    (:func:`repro.ir.perfstats.collect_cache_entries`).
    """
    from repro.ir import perfstats

    with perfstats.collect_cache_entries(_SHIPPED_CACHES) as entries:
        payload = _run_cell_stats(spec)
    return payload, entries


def _merge_cell_reply(reply) -> "BenchRun":
    """Install a worker's cache entries in the parent, then fold its stats."""
    from repro.ir import perfstats

    payload, entries = reply
    perfstats.install_cache_entries(entries)
    return _merge_cell_stats(payload)


def resolved_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: explicit ``jobs`` > ``REPRO_JOBS`` env > cpu count."""
    if jobs is not None:
        return max(1, int(jobs))
    env = os.environ.get("REPRO_JOBS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(
                f"REPRO_JOBS must be an integer, got {env!r}"
            ) from None
    return os.cpu_count() or 1


def _pool_context() -> Optional[multiprocessing.context.BaseContext]:
    """``fork`` where the platform offers it, else the platform default.

    Forked workers inherit the parent's warm analysis caches; the default
    start method stopped being ``fork`` on macOS (3.8) and on Linux (3.14,
    forkserver), so we ask for it explicitly rather than rely on it.
    """
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return None


def resolved_cell_timeout(cell_timeout: Optional[float] = None) -> Optional[float]:
    """Per-cell wall-clock limit: explicit arg > ``REPRO_CELL_TIMEOUT`` env.

    ``None`` (the default) means no limit.
    """
    if cell_timeout is not None:
        return cell_timeout if cell_timeout > 0 else None
    env = os.environ.get("REPRO_CELL_TIMEOUT", "").strip()
    if env:
        try:
            val = float(env)
        except ValueError:
            raise ValueError(
                f"REPRO_CELL_TIMEOUT must be a number of seconds, got {env!r}"
            ) from None
        return val if val > 0 else None
    return None


def _run_cell_guarded(spec: CellSpec) -> Union[BenchRun, "FailedCell"]:
    """Serial evaluation of one cell; a crash becomes a :class:`FailedCell`."""
    try:
        return run_cell(spec)
    except Exception as exc:  # fail-soft: one bad cell must not kill the table
        logger.warning("cell %s failed serially: %s", spec, exc)
        return _failed_cell(spec, f"{type(exc).__name__}: {exc}")


def run_cells(
    specs: Iterable[CellSpec],
    jobs: Optional[int] = None,
    cell_timeout: Optional[float] = None,
) -> List[BenchRun]:
    """Evaluate independent cells, in spec order, fanning out over processes.

    With one job (``jobs=1`` or ``REPRO_JOBS=1``) or a single cell this is a
    plain serial loop.  The harness is fail-soft at every layer:

    * pool *startup* failures (sandboxes without process support) log one
      warning with the triggering exception and run the whole fan serially;
    * a *worker crash* (including a broken pool) logs one warning and
      retries the affected cell(s) serially, once each;
    * a cell exceeding ``cell_timeout`` seconds (or ``REPRO_CELL_TIMEOUT``)
      becomes a :class:`FailedCell` — a cell that hangs in a worker would
      hang serially too, so there is no retry;
    * a cell that also fails its serial retry becomes a :class:`FailedCell`.

    Results always come back in spec order and always have one entry per
    spec, so figure tables render holes instead of crashing.

    A fan-out reaches the workers before any result is back, so a
    (benchmark, pipeline) key that is cold in the parent would be analyzed
    by every worker that draws one of its cells.  When a cold key has
    more than one cell, the cells therefore run in two waves: first one
    cell per cold key with every cell of a warm one (in the parent when
    that is a single cell), whose cache entries come home; then the cold
    keys' other cells, over workers forked from the now-warm parent.
    """
    specs = list(specs)
    timeout = resolved_cell_timeout(cell_timeout)
    jobs = resolved_jobs(jobs)
    if min(jobs, len(specs)) <= 1:
        return [_run_cell_guarded(s) for s in specs]
    cold: Set[Tuple[str, str]] = set()
    later: List[int] = []
    for i, s in enumerate(specs):
        key = (s.benchmark, s.pipeline)
        if key in cold:
            later.append(i)
        elif not _compiled(s):
            cold.add(key)
    if len(later) > 1:
        wait = set(later)
        waves = [[i for i in range(len(specs)) if i not in wait], later]
    else:
        waves = [list(range(len(specs)))]
    results: List[Union[BenchRun, FailedCell]] = [None] * len(specs)  # type: ignore[list-item]
    for wave in waves:
        out = _fan_out([specs[i] for i in wave], jobs, timeout)
        if out is None:
            jobs = 1  # warned once; every later wave runs serially too
            out = [_run_cell_guarded(specs[i]) for i in wave]
        for i, r in zip(wave, out):
            results[i] = r
    return results


def _fan_out(
    specs: List[CellSpec], jobs: int, timeout: Optional[float]
) -> Optional[List[Union[BenchRun, FailedCell]]]:
    """One wave of :func:`run_cells`: a pool task per cell, or a serial
    loop; ``None`` (after a warning) when no pool could start."""
    n = min(jobs, len(specs))
    if n <= 1:
        return [_run_cell_guarded(s) for s in specs]
    try:
        pool = ProcessPoolExecutor(max_workers=n, mp_context=_pool_context())
    except (OSError, PermissionError) as exc:
        logger.warning(
            "process pool unavailable (%s: %s); running %d cells serially",
            type(exc).__name__,
            exc,
            len(specs),
        )
        return None
    results: List[Union[BenchRun, FailedCell]] = [None] * len(specs)  # type: ignore[list-item]
    pool_broken = False
    timed_out = False
    try:
        futures = {i: pool.submit(_run_cell_shipping, s) for i, s in enumerate(specs)}
        for i, fut in futures.items():
            spec = specs[i]
            try:
                results[i] = _merge_cell_reply(fut.result(timeout=timeout))
            except FutureTimeoutError:
                timed_out = True
                fut.cancel()
                logger.warning("cell %s exceeded %.1fs; marking failed", spec, timeout)
                results[i] = _failed_cell(spec, f"timed out after {timeout:.1f}s")
            except BrokenProcessPool as exc:
                if not pool_broken:
                    pool_broken = True
                    logger.warning(
                        "worker pool broke (%s: %s); retrying remaining cells serially",
                        type(exc).__name__,
                        exc,
                    )
                results[i] = _run_cell_guarded(spec)
            except Exception as exc:
                # the cell itself raised in the worker: retry once serially
                # (transient worker-side state is the common cause)
                logger.warning(
                    "cell %s crashed in worker (%s: %s); retrying serially",
                    spec,
                    type(exc).__name__,
                    exc,
                )
                results[i] = _run_cell_guarded(spec)
    finally:
        # a hung worker must not block shutdown: abandon it on timeout
        pool.shutdown(wait=not timed_out, cancel_futures=timed_out or pool_broken)
    return results


def speedup_table(
    bench: Benchmark,
    datasets: List[str],
    pipelines: List[str],
    cores_list: List[int],
    schedule: str = "static",
    jobs: Optional[int] = None,
) -> List[BenchRun]:
    """Cartesian sweep over datasets x pipelines x core counts."""
    specs = [
        CellSpec(bench.name, ds, pipe, p, schedule)
        for ds in datasets
        for pipe in pipelines
        for p in cores_list
    ]
    return run_cells(specs, jobs=jobs)


def format_runs(runs: List[BenchRun], metric: str = "speedup") -> str:
    """Plain-text table of runs (one row per dataset/pipeline, cols=cores)."""
    rows: Dict[Tuple[str, str, str], Dict[int, BenchRun]] = {}
    cores: List[int] = []
    for r in runs:
        rows.setdefault((r.benchmark, r.dataset, r.pipeline), {})[r.cores] = r
        if r.cores not in cores:
            cores.append(r.cores)
    lines = []
    header = f"{'benchmark':<20} {'dataset':<16} {'pipeline':<16}" + "".join(
        f"{c:>10}" for c in sorted(cores)
    )
    lines.append(header)
    for (b, d, p), cells in rows.items():
        vals = []
        for c in sorted(cores):
            r = cells.get(c)
            if r is None:
                vals.append(f"{'-':>10}")
            else:
                v = getattr(r, metric)
                if isinstance(v, float) and math.isnan(v):
                    vals.append(f"{'FAIL':>10}")
                else:
                    vals.append(f"{v:>10.2f}")
        lines.append(f"{b:<20} {d:<16} {p:<16}" + "".join(vals))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Measured kernel execution (compiled backend)
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class MeasuredRun:
    """Measured wall-clock of one benchmark kernel across backends.

    Unlike :class:`BenchRun` (the analytic model of the paper's 20-core
    testbed), these numbers are real executions on *this* machine via
    :func:`repro.runtime.simulate.measure_kernel`; times in seconds.
    """

    benchmark: str
    scale: str  # "paper" (exec_env) or "small" (small_env)
    times: Dict[str, float]  # backend -> best-of-repeats seconds
    outputs_match: bool  # every backend produced equivalent final state
    #: loop_id -> max/mean chunk-time ratio of the last parallel run
    #: (empty when no backend dispatched to the worker pool)
    chunk_imbalance: Dict[str, float] = dataclasses.field(default_factory=dict)

    def speedup(self, backend: str, over: str = "interp") -> float:
        if backend not in self.times or over not in self.times:
            return math.nan
        return self.times[over] / self.times[backend]

    def worst_imbalance(self) -> float:
        """The most skewed loop's chunk-time ratio (NaN when unrecorded)."""
        return max(self.chunk_imbalance.values(), default=math.nan)


def measure_backend_speedups(
    names: Optional[List[str]] = None,
    *,
    backends: Tuple[str, ...] = ("interp", "compiled"),
    scale: str = "paper",
    repeats: int = 3,
    repeats_by_backend: Optional[Dict[str, int]] = None,
    threads: Optional[int] = None,
    pipeline: str = "Cetus+NewAlgo",
) -> List[MeasuredRun]:
    """Measure each benchmark's kernel under several execution backends.

    ``scale="paper"`` uses the benchmark's paper-scale :attr:`exec_env`
    (falling back to ``small_env`` where none exists); ``"small"`` always
    uses ``small_env``.  Each backend's run output is cross-checked
    against the interpreter-tolerance equivalence used by the
    differential mode, so a reported speedup can never come from a
    wrong-answer run.  ``repeats_by_backend`` overrides ``repeats`` per
    backend — the compiled-family legs finish in milliseconds and need
    more best-of samples on noisy shared runners than the
    tens-of-seconds interpreter legs.
    """
    from repro.benchmarks.registry import all_benchmarks, get_benchmark
    from repro.runtime import workmeter
    from repro.runtime.parexec import states_equivalent
    from repro.runtime.simulate import measure_kernel

    benches = [get_benchmark(n) for n in names] if names else list(all_benchmarks())
    runs: List[MeasuredRun] = []
    for bench in benches:
        result = parallelize(bench.source, PIPELINES[pipeline])
        env = bench.paper_env() if scale == "paper" else bench.small_env()
        times: Dict[str, float] = {}
        outputs: Dict[str, Dict[str, object]] = {}
        imbalance: Dict[str, float] = {}
        for backend in backends:
            reps = (repeats_by_backend or {}).get(backend, repeats)
            times[backend], outputs[backend] = measure_kernel(
                result, env, backend=backend, threads=threads, repeats=reps
            )
            if backend == "compiled-parallel":
                imbalance = {
                    lid: entry["imbalance"]
                    for lid, entry in workmeter.summary().items()
                    if "imbalance" in entry
                }
        ref = outputs.get("interp") or next(iter(outputs.values()))
        match = all(states_equivalent(ref, out) for out in outputs.values())
        runs.append(
            MeasuredRun(
                benchmark=bench.name, scale=scale, times=times, outputs_match=match,
                chunk_imbalance=imbalance,
            )
        )
    return runs
