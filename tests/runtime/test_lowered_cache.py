"""The lowered-program cache behind ``compile_program``.

Lowering (normalize, fusion, the lowerer, ``exec``) runs once per
distinct input; every call gets a private shell around the shared
closure.  These tests pin the key (each part of it separates artifacts),
the clone-on-hit rule, the fault seam and lint behaviour on warm keys,
the bounded-cache plumbing, and that warm runs are indistinguishable
from cold ones.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.analysis import AnalysisConfig
from repro.benchmarks import all_benchmarks, get_benchmark
from repro.dependence.extended import RuntimeCheck
from repro.ir import perfstats
from repro.lang.astnodes import For, Num
from repro.lang.cparser import parse_program
from repro.parallelizer import parallelize
from repro.runtime import compile as rcompile
from repro.runtime import faultplan
from repro.runtime.compile import compile_program, execute

PAR_SRC = "for (i = 0; i < n; i++) { a[i] = b[i] * 2 + 1; }\n"

FUSE_SRC = """
for (i = 0; i < n; i++){
    t[i] = a[i] * 2;
}
for (j = 0; j < n; j++){
    b[j] = t[j] + 1;
}
"""

SPEC_SRC = "for (i = 0; i < n; i++) { x[idx[i]] = x[idx[i]] + y[i]; }\n"


@pytest.fixture(autouse=True)
def cold_cache():
    rcompile._LOWERED_CACHE.clear()
    yield
    rcompile._LOWERED_CACHE.clear()


def _result(src):
    return parallelize(src, AnalysisConfig.new_algorithm())


def _loop_ids(res):
    return [s.loop_id for s in res.program.stmts if isinstance(s, For)]


def _copy(env):
    return {k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in env.items()}


# ---------------------------------------------------------------------------
# the key
# ---------------------------------------------------------------------------


def test_warm_call_returns_the_cached_artifact():
    res = _result(PAR_SRC)
    a = compile_program(res.program, res.decisions, parallel=True)
    b = compile_program(res.program, res.decisions, parallel=True)
    assert a is not b
    assert a.fn is b.fn and a.key == b.key
    assert len(rcompile._LOWERED_CACHE) == 1


def _distinct(a, b):
    assert a.fn is not b.fn
    assert len(rcompile._LOWERED_CACHE) == 2


def test_flipped_parallel_verdict_is_a_distinct_artifact():
    res = _result(PAR_SRC)
    (lid,) = _loop_ids(res)
    a = compile_program(res.program, res.decisions, parallel=True)
    serial = {lid: dataclasses.replace(res.decisions[lid], parallel=False)}
    b = compile_program(res.program, serial, parallel=True)
    _distinct(a, b)
    assert a.chunks and not b.chunks


def test_changed_check_text_is_a_distinct_artifact():
    res = _result(PAR_SRC)
    (lid,) = _loop_ids(res)
    d = res.decisions[lid]
    checked = {lid: dataclasses.replace(d, checks=[RuntimeCheck("n > 0")])}
    other = {lid: dataclasses.replace(d, checks=[RuntimeCheck("n > 1")])}
    a = compile_program(res.program, checked, parallel=True)
    b = compile_program(res.program, other, parallel=True)
    _distinct(a, b)
    assert "v_n > 0" in a.source and "v_n > 1" in b.source


def test_dropped_fusion_is_a_distinct_artifact():
    res = _result(FUSE_SRC)
    assert any(f.verified for f in res.fusions)
    a = compile_program(res.program, res.decisions, fusions=res.fusions)
    b = compile_program(res.program, res.decisions, fusions=())
    _distinct(a, b)
    assert a.fused_groups and not b.fused_groups


def test_parallel_loop_set_is_part_of_the_key():
    res = _result(PAR_SRC)
    (lid,) = _loop_ids(res)
    a = compile_program(res.program, res.decisions, parallel=True, parallel_loops={lid})
    b = compile_program(res.program, res.decisions, parallel=True, parallel_loops=set())
    _distinct(a, b)
    assert a.chunks and not b.chunks


def test_speculative_loop_set_is_part_of_the_key():
    res = _result(SPEC_SRC)
    (lid,) = _loop_ids(res)
    assert res.decisions[lid].speculation_verified
    a = compile_program(res.program, res.decisions, parallel=True, speculative_loops={lid})
    b = compile_program(res.program, res.decisions, parallel=True, speculative_loops=set())
    _distinct(a, b)
    assert "_spec_ok" in a.source and "_spec_ok" not in b.source


def test_trace_flag_is_part_of_the_key():
    prog = parse_program(PAR_SRC)
    a = compile_program(prog)
    b = compile_program(prog, trace=True)
    _distinct(a, b)
    assert "_hook" in b.source and b.trace and not a.trace


def test_in_place_ast_edit_misses():
    prog = parse_program("for (i = 0; i < n; i++) { a[i] = b[i] + 1; }")
    env = {"n": 4, "a": np.zeros(4), "b": np.arange(4.0)}
    assert list(compile_program(prog).run(_copy(env))["a"]) == [1.0, 2.0, 3.0, 4.0]
    (lit,) = [n for n in prog.walk() if isinstance(n, Num) and n.value == 1]
    lit.value = 5
    assert list(compile_program(prog).run(_copy(env))["a"]) == [5.0, 6.0, 7.0, 8.0]
    assert len(rcompile._LOWERED_CACHE) == 2


def test_identical_structure_with_other_loop_ids_gets_its_own_source():
    first, second = _result(PAR_SRC), _result(PAR_SRC.replace("* 2", "*  2"))
    (lid1,), (lid2,) = _loop_ids(first), _loop_ids(second)
    assert lid1 != lid2
    for decided in (False, True):  # loop ids alone, and with decisions keyed by them
        rcompile._LOWERED_CACHE.clear()
        a = compile_program(first.program, first.decisions if decided else None, parallel=decided)
        b = compile_program(second.program, second.decisions if decided else None, parallel=decided)
        _distinct(a, b)
        assert repr(lid1) in a.source and repr(lid2) not in a.source
        assert repr(lid2) in b.source and repr(lid1) not in b.source


# ---------------------------------------------------------------------------
# clone on hit
# ---------------------------------------------------------------------------


def test_mutating_a_shell_does_not_reach_the_next_hit():
    res = _result(PAR_SRC)
    a = compile_program(res.program, res.decisions, parallel=True)
    key = next(iter(a.chunk_meta))
    rw_before = list(a.chunk_meta[key]["rw"])
    tiers_before = dict(a.loop_tiers)
    a.chunk_meta[key]["rw"] = ["ghost"]
    a.chunk_meta[key]["snapshot_free"] = ["ghost"]
    a.loop_tiers.clear()
    a.loop_bails["x"] = "tampered"
    a.chunks.clear()
    a.fused_groups.append({"fused_id": "x"})
    b = compile_program(res.program, res.decisions, parallel=True)
    assert b.chunk_meta[key]["rw"] == rw_before
    assert "ghost" not in b.chunk_meta[key].get("snapshot_free", [])
    assert b.loop_tiers == tiers_before
    assert "x" not in b.loop_bails and b.chunks and b.fused_groups == []


def test_shell_maps_the_callers_own_decisions():
    res = _result(PAR_SRC)
    (lid,) = _loop_ids(res)
    compile_program(res.program, res.decisions)
    clone = {k: d.clone() for k, d in res.decisions.items()}
    b = compile_program(res.program, clone)
    assert b.lowered_decisions[lid] is clone[lid]
    assert b.prog is res.program


# ---------------------------------------------------------------------------
# fault seam, lint and stats on warm keys
# ---------------------------------------------------------------------------


def test_compile_fail_seam_fires_on_a_warm_key(monkeypatch):
    res = _result(PAR_SRC)
    assert compile_program(res.program, res.decisions).backend == "compiled"
    monkeypatch.setenv("REPRO_FAULTS", "compile-fail")
    faultplan.reset()
    cp = compile_program(res.program, res.decisions)
    assert cp.backend == "interp"
    assert "injected fault" in (cp.fallback_reason or "")
    env = {"n": 8, "a": np.zeros(8), "b": np.arange(8.0)}
    assert list(cp.run(env)["a"]) == [2.0 * i + 1 for i in range(8)]
    # one-shot clause: the next call is a plain cache hit again
    assert compile_program(res.program, res.decisions).backend == "compiled"


def test_lower_seam_counts_every_call(monkeypatch):
    prog = parse_program(PAR_SRC)
    monkeypatch.setenv("REPRO_FAULTS", "compile-fail:3")
    faultplan.reset()
    backends = [compile_program(prog).backend for _ in range(4)]
    assert backends == ["compiled", "compiled", "interp", "compiled"]


def test_entry_stored_without_lint_is_linted_on_first_hit(monkeypatch):
    from repro.verify import lint

    calls = []
    real = lint.lint_lowering
    monkeypatch.setattr(lint, "lint_lowering", lambda cp: (calls.append(cp), real(cp)))
    res = _result(PAR_SRC)
    monkeypatch.setenv("REPRO_VERIFY_LOWERING", "0")
    compile_program(res.program, res.decisions, parallel=True)
    assert calls == []
    monkeypatch.setenv("REPRO_VERIFY_LOWERING", "1")
    compile_program(res.program, res.decisions, parallel=True)
    assert len(calls) == 1
    compile_program(res.program, res.decisions, parallel=True)
    assert len(calls) == 1  # linted once, then handed out as is


def test_hits_rerecord_tier_histograms():
    prog = parse_program(PAR_SRC)
    perfstats.reset_counters()
    compile_program(prog)
    cold = dict(perfstats.TIERS)
    compile_program(prog)
    assert cold and perfstats.TIERS == {k: 2 * v for k, v in cold.items()}


def test_hits_rerecord_refused_dispatch_diagnostics():
    from repro import diagnostics
    from repro.diagnostics import STATIC_RACE_DETECTED

    res = _result("for (i = 0; i < 8; i++) { a[0] = i; }")
    (lid,) = _loop_ids(res)
    # a parallel verdict the static chunk-race check refuses at lowering
    forced = {lid: dataclasses.replace(res.decisions[lid], parallel=True)}
    diagnostics.clear_runtime_trail()
    for _ in range(2):
        cp = compile_program(res.program, forced, parallel=True)
        assert not cp.chunks
    kinds = [d.kind for d in diagnostics.runtime_trail()]
    assert kinds == [STATIC_RACE_DETECTED] * 2


def test_clear_caches_empties_and_cap_evicts(monkeypatch):
    prog = parse_program(PAR_SRC)
    compile_program(prog)
    assert perfstats.cache_sizes()["lowered"] == 1
    perfstats.clear_caches()
    assert perfstats.cache_sizes()["lowered"] == 0
    monkeypatch.setenv("REPRO_CACHE_MAX_ENTRIES", "1")
    before = perfstats.STATS.cache_evictions
    compile_program(prog)
    compile_program(prog, trace=True)
    assert len(rcompile._LOWERED_CACHE) == 1
    assert perfstats.STATS.cache_evictions == before + 1


# ---------------------------------------------------------------------------
# warm == cold
# ---------------------------------------------------------------------------


def _artifact(cp):
    return (cp.source, cp.chunks, cp.loop_tiers, cp.loop_bails, cp.chunk_meta, cp.fused_groups)


def test_registry_and_fuzz_lower_identically_warm_and_cold():
    from tests.fuzz.gen import generate

    cases = []
    for bench in all_benchmarks():
        res = _result(bench.source)
        cases.append((res.program, res.decisions, res.fusions, True))
        cases.append((res.program, res.decisions, res.fusions, False))
    for seed in range(40):
        fp = generate(seed)
        res = _result(fp.source)
        cases.append((res.program, res.decisions, res.fusions, True))
    for prog, decisions, fusions, parallel in cases:
        rcompile._LOWERED_CACHE.clear()
        cold = compile_program(prog, decisions, parallel=parallel, fusions=fusions)
        warm = compile_program(prog, decisions, parallel=parallel, fusions=fusions)
        assert _artifact(warm) == _artifact(cold)


@pytest.mark.parametrize("backend", ["compiled", "compiled-parallel", "auto"])
def test_registry_outputs_identical_cold_and_warm(backend):
    for bench in all_benchmarks():
        res = _result(bench.source)
        env = bench.small_env()
        runs = []
        for _ in range(2):  # the first call lowers, the second hits
            out = execute(
                res.program, _copy(env), decisions=res.decisions,
                backend=backend, threads=2, fusions=res.fusions,
            )
            runs.append(out)
        cold, warm = runs
        assert cold.keys() == warm.keys(), bench.name
        for k in cold:
            if isinstance(cold[k], np.ndarray):
                assert np.array_equal(cold[k], warm[k]), f"{bench.name}: {k}"
            else:
                assert cold[k] == warm[k], f"{bench.name}: {k}"


def test_warm_execute_adds_no_entry():
    bench = get_benchmark("AMGmk")
    res = _result(bench.source)
    env = bench.small_env()
    execute(res.program, _copy(env), decisions=res.decisions, backend="compiled")
    n = len(rcompile._LOWERED_CACHE)
    execute(res.program, _copy(env), decisions=res.decisions, backend="compiled")
    assert len(rcompile._LOWERED_CACHE) == n == 1
