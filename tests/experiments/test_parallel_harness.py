"""Parallel experiment harness: determinism, jobs resolution, cache reuse.

The fan-out must be invisible in the output: every figure table produced by
the process pool has to be cell-for-cell identical to the serial path, and
``REPRO_JOBS=1`` must force the serial loop.
"""

import dataclasses
import pickle

import pytest

from repro.analysis.analyzer import _ANALYSIS_CACHE, _source_digest
from repro.benchmarks.registry import get_benchmark
from repro.experiments import harness
from repro.experiments.fig13 import fig13_cells
from repro.experiments.harness import CellSpec, resolved_jobs, run_cell, run_cells
from repro.ir import perfstats
from repro.lang.astnodes import For
from repro.parallelizer import parallelize
from repro.parallelizer.driver import _PARALLELIZE_CACHE


class TestJobsResolution:
    def test_explicit_jobs_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolved_jobs(3) == 3

    def test_env_overrides_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolved_jobs() == 5

    def test_repro_jobs_1_forces_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "1")
        assert resolved_jobs() == 1
        # with one job the pool must never be constructed
        def boom(*a, **kw):  # pragma: no cover - only hit on failure
            raise AssertionError("ProcessPoolExecutor used despite REPRO_JOBS=1")

        monkeypatch.setattr(harness, "ProcessPoolExecutor", boom)
        specs = [CellSpec("AMGmk", None, "Cetus+NewAlgo", p) for p in (4, 8)]
        runs = run_cells(specs)
        assert [r.cores for r in runs] == [4, 8]

    def test_garbage_env_names_the_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "garbage")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            resolved_jobs()

    def test_zero_clamps_to_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert resolved_jobs() == 1

    def test_default_is_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        import os

        assert resolved_jobs() == (os.cpu_count() or 1)


class TestParallelMatchesSerial:
    def test_run_cells_order_and_values(self):
        specs = [
            CellSpec("AMGmk", "MATRIX1", "Cetus+NewAlgo", p, sched)
            for p in (4, 8, 16)
            for sched in ("static", "dynamic")
        ]
        serial = run_cells(specs, jobs=1)
        parallel = run_cells(specs, jobs=2)
        assert [dataclasses.astuple(r) for r in parallel] == [
            dataclasses.astuple(r) for r in serial
        ]

    def test_fig13_parallel_identical_to_serial(self):
        serial = fig13_cells(jobs=1)
        parallel = fig13_cells(jobs=2)
        assert len(serial) == len(parallel)
        for a, b in zip(serial, parallel):
            assert dataclasses.astuple(a) == dataclasses.astuple(b)

    def test_single_cell_stays_serial(self):
        (run,) = run_cells([CellSpec("SDDMM", "af_shell1", "Cetus", 8)], jobs=16)
        assert run.benchmark == "SDDMM"
        assert run.cores == 8

    def test_cell_spec_roundtrip(self):
        spec = CellSpec("UA(transf)", "B", "Cetus+NewAlgo", 16, "dynamic", 4)
        run = run_cell(spec)
        assert (run.benchmark, run.dataset, run.pipeline, run.cores, run.schedule) == (
            "UA(transf)",
            "B",
            "Cetus+NewAlgo",
            16,
            "dynamic",
        )


class TestFaultTolerance:
    """The fan-out is fail-soft: pool failures are *logged* (never silent)
    and degraded to serial retries; timed-out or doubly-failing cells
    become FailedCell holes instead of killing the whole table."""

    SPECS = [CellSpec("AMGmk", None, "Cetus+NewAlgo", p) for p in (4, 8)]

    def test_pool_startup_failure_warns_and_runs_serially(self, monkeypatch, caplog):
        import logging

        def denied(*a, **kw):
            raise PermissionError("no process support in this sandbox")

        monkeypatch.setattr(harness, "ProcessPoolExecutor", denied)
        with caplog.at_level(logging.WARNING, logger="repro.experiments.harness"):
            runs = run_cells(self.SPECS, jobs=4)
        assert [r.cores for r in runs] == [4, 8]
        assert all(isinstance(r, harness.BenchRun) for r in runs)
        warnings = [r for r in caplog.records if r.levelno >= logging.WARNING]
        assert len(warnings) == 1
        assert "no process support" in warnings[0].getMessage()

    def test_pool_startup_failure_warns_once_across_waves(self, monkeypatch, caplog):
        import logging

        def denied(*a, **kw):
            raise PermissionError("no process support in this sandbox")

        monkeypatch.setattr(harness, "ProcessPoolExecutor", denied)
        _PARALLELIZE_CACHE.clear()
        # two cold keys with two cells each: a lead wave, then the rest
        specs = [
            CellSpec(b, None, "Cetus", p) for b in ("SDDMM", "AMGmk") for p in (4, 8)
        ]
        with caplog.at_level(logging.WARNING, logger="repro.experiments.harness"):
            runs = run_cells(specs, jobs=4)
        assert all(isinstance(r, harness.BenchRun) for r in runs)
        assert [(r.benchmark, r.cores) for r in runs] == [(s.benchmark, s.cores) for s in specs]
        warnings = [r for r in caplog.records if r.levelno >= logging.WARNING]
        assert len(warnings) == 1

    def test_broken_pool_warns_once_and_retries_serially(self, monkeypatch, caplog):
        """Regression: a BrokenProcessPool used to silently fall back to
        the serial path with no trace of the triggering exception."""
        import logging

        from concurrent.futures.process import BrokenProcessPool

        class FakeFuture:
            def result(self, timeout=None):
                raise BrokenProcessPool("a child process terminated abruptly")

            def cancel(self):
                return False

        class FakePool:
            def __init__(self, *a, **kw):
                pass

            def submit(self, fn, *args):
                return FakeFuture()

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        monkeypatch.setattr(harness, "ProcessPoolExecutor", FakePool)
        with caplog.at_level(logging.WARNING, logger="repro.experiments.harness"):
            runs = run_cells(self.SPECS, jobs=4)
        # every cell was retried serially and produced a real result
        assert [r.cores for r in runs] == [4, 8]
        assert all(isinstance(r, harness.BenchRun) for r in runs)
        pool_warnings = [
            r
            for r in caplog.records
            if r.levelno >= logging.WARNING and "worker pool broke" in r.getMessage()
        ]
        assert len(pool_warnings) == 1  # warned once, not once per cell
        assert "terminated abruptly" in pool_warnings[0].getMessage()

    def test_cell_timeout_yields_failed_cell(self, monkeypatch, caplog):
        import logging

        from concurrent.futures import TimeoutError as FutureTimeoutError

        class SlowFuture:
            def result(self, timeout=None):
                raise FutureTimeoutError()

            def cancel(self):
                return True

        class FakePool:
            def __init__(self, *a, **kw):
                pass

            def submit(self, fn, *args):
                return SlowFuture()

            def shutdown(self, wait=True, cancel_futures=False):
                assert not wait  # a hung worker must not block shutdown

        monkeypatch.setattr(harness, "ProcessPoolExecutor", FakePool)
        with caplog.at_level(logging.WARNING, logger="repro.experiments.harness"):
            runs = run_cells(self.SPECS, jobs=4, cell_timeout=0.5)
        assert all(isinstance(r, harness.FailedCell) for r in runs)
        assert all("timed out" in r.error for r in runs)
        # identity fields survive so figure tables keep their geometry
        assert [r.cores for r in runs] == [4, 8]

    def test_worker_crash_retries_serially_then_fails_soft(self, monkeypatch, caplog):
        import logging

        class CrashFuture:
            def result(self, timeout=None):
                raise RuntimeError("worker exploded")

            def cancel(self):
                return False

        class FakePool:
            def __init__(self, *a, **kw):
                pass

            def submit(self, fn, *args):
                return CrashFuture()

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        monkeypatch.setattr(harness, "ProcessPoolExecutor", FakePool)
        with caplog.at_level(logging.WARNING, logger="repro.experiments.harness"):
            runs = run_cells(self.SPECS, jobs=4)
        # the serial retry succeeds (the crash was worker-side only)
        assert all(isinstance(r, harness.BenchRun) for r in runs)

    def test_failed_cell_ducktypes_benchrun_and_renders(self):
        import math

        cell = harness._failed_cell(self.SPECS[0], "boom")
        assert math.isnan(cell.speedup) and math.isnan(cell.efficiency)
        assert cell.plan_level == "failed"
        table = harness.format_runs([run_cell(self.SPECS[1]), cell])
        assert "FAIL" in table  # holes render, tables never crash

    def test_serial_cell_crash_becomes_failed_cell(self, monkeypatch, caplog):
        import logging

        def boom(spec):
            raise ValueError("bad cell")

        monkeypatch.setattr(harness, "run_cell", boom)
        with caplog.at_level(logging.WARNING, logger="repro.experiments.harness"):
            runs = run_cells(self.SPECS, jobs=1)
        assert all(isinstance(r, harness.FailedCell) for r in runs)
        assert all("ValueError" in r.error for r in runs)

    def test_timeout_fails_only_the_cell_that_hung(self, monkeypatch):
        from concurrent.futures import TimeoutError as FutureTimeoutError

        class Done:
            def __init__(self, value):
                self.value = value

            def result(self, timeout=None):
                return self.value

            def cancel(self):
                return False

        class Hung:
            def result(self, timeout=None):
                raise FutureTimeoutError()

            def cancel(self):
                return True

        class FakePool:
            def __init__(self, *a, **kw):
                pass

            def submit(self, fn, spec):
                return Hung() if spec.cores == 8 else Done(fn(spec))

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        specs = [CellSpec("AMGmk", None, "Cetus+NewAlgo", p) for p in (4, 8, 16)]
        run_cells(specs, jobs=1)  # warm key: a single wave
        monkeypatch.setattr(harness, "ProcessPoolExecutor", FakePool)
        runs = run_cells(specs, jobs=2, cell_timeout=0.5)
        # its siblings under the same (benchmark, pipeline) key keep their
        # results, and the message names the limit that was applied
        assert isinstance(runs[1], harness.FailedCell)
        assert runs[1].error == "timed out after 0.5s"
        assert isinstance(runs[0], harness.BenchRun) and isinstance(runs[2], harness.BenchRun)

    def test_cell_timeout_env_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", "2.5")
        assert harness.resolved_cell_timeout() == 2.5
        assert harness.resolved_cell_timeout(7.0) == 7.0  # explicit arg wins
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", "0")
        assert harness.resolved_cell_timeout() is None
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", "junk")
        with pytest.raises(ValueError, match="REPRO_CELL_TIMEOUT"):
            harness.resolved_cell_timeout()


class TestWorkerStatsAggregation:
    """Worker-side perfstats ship back over the reply pipe, so ``--stats``
    aggregates the whole run without forcing ``REPRO_JOBS=1``."""

    def test_run_cell_stats_returns_counter_deltas(self):
        from repro.ir import perfstats

        spec = CellSpec("AMGmk", None, "Cetus+NewAlgo", 4)
        result, counts, tiers, falls = harness._run_cell_stats(spec)
        assert result.benchmark == "AMGmk"
        # only non-zero deltas travel, and every name is a real counter
        assert all(v != 0 for v in counts.values())
        assert all(name in perfstats.Counters.__slots__ for name in counts)

    def test_merge_cell_stats_folds_into_parent(self):
        from repro.ir import perfstats

        spec = CellSpec("AMGmk", None, "Cetus+NewAlgo", 8)
        payload = harness._run_cell_stats(spec)
        fake = (payload[0], {"analysis_misses": 3, "unknown_counter": 9},
                {"vectorized": 2}, {"why": 1})
        before = perfstats.STATS.analysis_misses
        tier_before = perfstats.TIERS.get("vectorized", 0)
        result = harness._merge_cell_stats(fake)
        assert result.benchmark == "AMGmk"
        assert perfstats.STATS.analysis_misses == before + 3
        assert perfstats.TIERS.get("vectorized", 0) == tier_before + 2
        assert perfstats.FALLBACKS.get("why", 0) >= 1

    def test_pooled_run_cells_surfaces_worker_counters(self):
        """End to end: with jobs>1 the parent's counters still move —
        the workers' analysis/cache activity is merged, not lost."""
        from repro.ir import perfstats

        specs = [
            CellSpec("AMGmk", "MATRIX1", "Cetus+NewAlgo", p) for p in (4, 8)
        ]
        perfstats.reset_counters()
        runs = run_cells(specs, jobs=2)
        assert [r.cores for r in runs] == [4, 8]
        moved = perfstats.STATS.as_dict()
        assert sum(abs(v) for v in moved.values()) > 0, (
            "jobs=2 run left every parent counter at zero: worker stats "
            "were not aggregated"
        )


class TestWorkerCacheShipping:
    """Whole-program results a worker computes travel home with its stats,
    so the parent — and every later fork of it — starts warm.  ``jobs=2``
    forces the pool, so the fork path is checked on any core count."""

    # two different (benchmark, pipeline) pairs: two cache keys
    SPECS = [
        CellSpec("AMGmk", None, "Cetus+NewAlgo", 4),
        CellSpec("SDDMM", None, "Cetus", 8),
    ]

    @staticmethod
    def _key(spec):
        source = get_benchmark(spec.benchmark).source
        return (_source_digest(source), harness.PIPELINES[spec.pipeline].fingerprint())

    @staticmethod
    def _clear():
        _PARALLELIZE_CACHE.clear()
        _ANALYSIS_CACHE.clear()

    def _shipped_entries(self, spec):
        """A cold worker reply's cache entries, as the reply pipe delivers them."""
        self._clear()
        payload, entries = harness._run_cell_shipping(spec)
        assert payload[0].benchmark == spec.benchmark
        return pickle.loads(pickle.dumps(entries))

    def test_pooled_run_warms_the_parent(self):
        self._clear()
        first = run_cells(self.SPECS, jobs=2)
        assert all(isinstance(r, harness.BenchRun) for r in first)
        for spec in self.SPECS:
            assert self._key(spec) in _PARALLELIZE_CACHE
            assert self._key(spec) in _ANALYSIS_CACHE
        before = perfstats.STATS.as_dict()
        second = run_cells(self.SPECS, jobs=2)
        after = perfstats.STATS.as_dict()
        assert after["analysis_misses"] == before["analysis_misses"]
        assert after["parallelize_misses"] == before["parallelize_misses"]
        assert [dataclasses.astuple(r) for r in second] == [
            dataclasses.astuple(r) for r in first
        ]

    def test_cold_key_is_analyzed_once_across_workers(self, monkeypatch):
        # a fan-out reaches the workers before any result is back: the
        # cells of one cold key must not analyze it in every worker, and
        # its lone first cell runs in the parent, not in a one-worker pool
        workers = []
        real_pool = harness.ProcessPoolExecutor

        def pool(max_workers, **kw):
            workers.append(max_workers)
            return real_pool(max_workers=max_workers, **kw)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", pool)
        specs = [CellSpec("SDDMM", None, "Cetus", p) for p in (2, 4, 8, 16)]
        self._clear()
        before = perfstats.STATS.analysis_misses
        runs = run_cells(specs, jobs=2)
        assert perfstats.STATS.analysis_misses - before == 1
        assert workers == [2]
        assert [dataclasses.astuple(r) for r in runs] == [
            dataclasses.astuple(r) for r in run_cells(specs, jobs=1)
        ]

    def test_worker_ships_only_what_its_cell_added(self):
        spec = self.SPECS[0]
        entries = self._shipped_entries(spec)
        assert [k for k, _ in entries["parallelize"]] == [self._key(spec)]
        assert [k for k, _ in entries["analysis"]] == [self._key(spec)]
        # a warm worker adds nothing, so it ships nothing
        _, warm = harness._run_cell_shipping(spec)
        assert warm == {"parallelize": [], "analysis": []}

    def test_install_counts_nothing_and_keeps_held_entries(self):
        spec = self.SPECS[0]
        key = self._key(spec)
        entries = self._shipped_entries(spec)
        held = _PARALLELIZE_CACHE.get(key)
        _ANALYSIS_CACHE.clear()
        entries["not-registered"] = [("k", "v")]  # version skew: ignored
        before = perfstats.STATS.as_dict()
        # the parallelize key is held already; only the analysis entry is new
        assert perfstats.install_cache_entries(entries) == 1
        assert perfstats.STATS.as_dict() == before
        assert _PARALLELIZE_CACHE.get(key) is held
        assert key in _ANALYSIS_CACHE

    def test_hit_on_installed_entry_is_a_private_clone(self):
        spec = self.SPECS[0]
        key = self._key(spec)
        entries = self._shipped_entries(spec)
        self._clear()
        assert perfstats.install_cache_entries(entries) == 2
        installed = _PARALLELIZE_CACHE.get(key)
        source = get_benchmark(spec.benchmark).source
        config = harness.PIPELINES[spec.pipeline]
        hits = perfstats.STATS.parallelize_hits
        first = parallelize(source, config)
        assert perfstats.STATS.parallelize_hits == hits + 1
        assert first is not installed and first.program is not installed.program
        expected_c, expected_decisions = first.to_c(), list(first.decisions)
        # scribble on everything a consumer could reach
        for node in first.program.walk():
            if isinstance(node, For):
                node.pragmas.append("junk pragma")
        first.program.stmts.clear()
        first.decisions.clear()
        second = parallelize(source, config)
        assert second.to_c() == expected_c
        assert list(second.decisions) == expected_decisions
        assert _PARALLELIZE_CACHE.get(key) is installed
