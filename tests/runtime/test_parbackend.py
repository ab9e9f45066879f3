"""Shared-memory worker pool tests: dispatch, declines, teardown, leaks."""

from __future__ import annotations

import os

import numpy as np
import pytest
from multiprocessing import shared_memory

from repro.analysis import AnalysisConfig
from repro.benchmarks import get_benchmark
from repro.parallelizer import parallelize
from repro.runtime.compile import compile_program, execute
from repro.runtime.interp import run_program
from repro.runtime.parbackend import MIN_PAR_TRIPS, WorkerPool, get_pool, shutdown_pool
from repro.runtime.parexec import states_equivalent


def deep_env(env):
    return {k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in env.items()}


@pytest.fixture
def pool():
    p = WorkerPool(2)
    yield p
    p.shutdown()


def test_parallel_execution_matches_serial(pool):
    bench = get_benchmark("AMGmk")
    result = parallelize(bench.source, AnalysisConfig.new_algorithm())
    env = bench.small_env()
    ref = run_program(result.program, deep_env(env))
    cp = compile_program(result.program, result.decisions, parallel=True)
    assert cp.chunks, "AMGmk's certified loop should compile a chunk function"
    out = cp.run(deep_env(env), pool=pool)
    assert states_equivalent(ref, out)


def test_run_loop_declines_below_min_trips(pool):
    bench = get_benchmark("AMGmk")
    result = parallelize(bench.source, AnalysisConfig.new_algorithm())
    cp = compile_program(result.program, result.decisions, parallel=True)
    pool.ensure_program(cp)
    key = sorted(cp.chunks)[0]
    # nothing adopted, tiny range: both decline paths return None
    assert pool.run_loop(key, 0, MIN_PAR_TRIPS - 1, {}, ()) is None


def test_release_env_defers_unlink_until_shutdown(pool):
    env = {"a": np.arange(1000.0), "b": np.ones((20, 30)), "n": 7}
    orig_a = env["a"]
    adopted = pool.adopt_env(env)
    seg_names = [seg.name for (_, seg, _) in adopted.values()]
    assert seg_names, "arrays should have been adopted"
    # while adopted: env holds shared views, segments openable by name
    for name in seg_names:
        probe = shared_memory.SharedMemory(name=name)
        probe.close()
    env["a"][0] = 123.0  # write through the shared view
    pool.release_env(adopted, env)
    # results copied back into the original arrays, env restored
    assert env["a"] is orig_a and env["a"][0] == 123.0
    # segments are cached for the next adoption, not yet unlinked
    for name in seg_names:
        probe = shared_memory.SharedMemory(name=name)
        probe.close()
    # re-adopting the same shapes reuses the cached segments
    env2 = {"a": np.arange(1000.0) * 2, "b": np.zeros((20, 30)), "n": 7}
    adopted2 = pool.adopt_env(env2)
    assert sorted(seg.name for (_, seg, _) in adopted2.values()) == sorted(seg_names)
    assert env2["a"][5] == 10.0  # fresh inputs copied into the reused view
    pool.release_env(adopted2, env2)
    # a shape change retires the stale segment for that name
    env3 = {"a": np.arange(10.0), "b": np.ones((20, 30)), "n": 7}
    adopted3 = pool.adopt_env(env3)
    old_a = next(seg.name for n, (_, seg, _) in adopted.items() if n == "a")
    assert adopted3["a"][1].name != old_a
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=old_a)
    pool.release_env(adopted3, env3)
    # shutdown unlinks everything: reattach must fail
    live = [seg.name for (_, seg, _) in adopted3.values()]
    pool.shutdown()
    for name in live:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


def test_shutdown_terminates_workers(pool):
    procs = list(pool._procs)
    assert all(p.is_alive() for p in procs)
    pool.shutdown()
    for p in procs:
        p.join(timeout=5)
    assert not any(p.is_alive() for p in procs)


def test_no_segment_leak_across_full_execute(monkeypatch):
    """End-to-end: compiled-parallel execute leaves no shared memory behind."""
    monkeypatch.setenv("REPRO_EXEC_THREADS", "2")
    bench = get_benchmark("AMGmk")
    result = parallelize(bench.source, AnalysisConfig.new_algorithm())
    env = deep_env(bench.small_env())
    ref = run_program(result.program, deep_env(env))
    created = []
    real_init = shared_memory.SharedMemory.__init__

    def spy(self, name=None, create=False, size=0, *a, **kw):
        real_init(self, name=name, create=create, size=size, *a, **kw)
        if create:
            created.append(self.name)

    monkeypatch.setattr(shared_memory.SharedMemory, "__init__", spy)
    try:
        out = execute(
            result.program, env, decisions=result.decisions, backend="compiled-parallel"
        )
    finally:
        shutdown_pool()
    assert states_equivalent(ref, out)
    assert created, "parallel execute should have adopted arrays"
    for name in created:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


def test_get_pool_resizes_and_restarts(monkeypatch):
    monkeypatch.setenv("REPRO_EXEC_THREADS", "2")
    p1 = get_pool()
    assert p1.size == 2
    p2 = get_pool(3)
    assert p2.size == 3 and p2 is not p1
    assert not p1._check_alive()  # old pool was shut down
    shutdown_pool()
    assert not p2._check_alive()


def test_parallel_execute_leaves_no_reference_cycle():
    # a pool-dispatched call must free its env arrays by reference counting
    # alone: with the cyclic collector off, dropping the caller's env and
    # the result must kill the input array
    import gc
    import weakref

    result = parallelize(
        "for (i = 0; i < n; i++) { a[i] = b[i] * 2.0; }", AnalysisConfig.new_algorithm()
    )
    n = 4 * MIN_PAR_TRIPS
    gc.disable()
    try:
        env = {"n": n, "a": np.zeros(n), "b": np.arange(float(n))}
        ref = weakref.ref(env["b"])
        out = execute(
            result.program, env, decisions=result.decisions,
            backend="compiled-parallel", threads=2,
        )
        assert out["a"][3] == 6.0
        del env, out
        assert ref() is None, "env arrays outlived the call (reference cycle)"
    finally:
        gc.enable()
        shutdown_pool()
