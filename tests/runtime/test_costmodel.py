"""Execution cost model: calibration, prediction monotonicity, planning."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.lang.cparser import parse_program
from repro.parallelizer import parallelize
from repro.analysis import AnalysisConfig
from repro.runtime import costmodel
from repro.runtime.compile import compile_program
from repro.runtime.costmodel import (
    MIN_PAR_TRIPS,
    Calibration,
    loop_trips,
    loop_work,
    plan_program,
    predict_interp,
    predict_parallel,
    predict_serial,
    program_prefers_interp,
)


def _fixed_cal() -> Calibration:
    """Deterministic calibration for unit tests (no micro-benchmarks)."""
    return Calibration(
        rates={
            "vectorized": 1e-9,
            "flattened": 1e-9,
            "masked": 3e-9,
            "segmented": 2e-9,
            "scalar": 1e-7,
            "interp": 2e-6,
        },
        overheads={t: 5e-6 for t in costmodel.VECTOR_TIERS} | {"scalar": 0.0},
        interp_rate=2e-6,
    )


class TestPredictionMonotonicity:
    """More work must never predict a cheaper time (linear, rates >= 0)."""

    @given(
        st.sampled_from(["vectorized", "masked", "segmented", "scalar"]),
        st.integers(0, 10**9),
        st.integers(0, 10**6),
    )
    @settings(max_examples=200, deadline=None)
    def test_serial_monotone_in_work(self, tier, work, delta):
        cal = _fixed_cal()
        assert predict_serial(cal, tier, work + delta) >= predict_serial(cal, tier, work)

    @given(
        st.sampled_from(["vectorized", "segmented", "scalar"]),
        st.integers(0, 10**9),
        st.integers(0, 10**6),
        st.integers(1, 64),
    )
    @settings(max_examples=200, deadline=None)
    def test_parallel_monotone_in_work(self, tier, work, delta, workers):
        cal = _fixed_cal()
        assert predict_parallel(cal, tier, work + delta, workers) >= predict_parallel(
            cal, tier, work, workers
        )

    @given(st.integers(0, 10**9), st.integers(0, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_interp_monotone_in_work(self, work, delta):
        cal = _fixed_cal()
        assert predict_interp(cal, work + delta) >= predict_interp(cal, work)

    @given(st.sampled_from(["vectorized", "scalar"]), st.integers(0, 10**9))
    @settings(max_examples=100, deadline=None)
    def test_parallel_never_beats_free_dispatch(self, tier, work):
        """Pool time is bounded below by the dispatch overhead."""
        from repro.runtime.parbackend import dispatch_overhead_s

        cal = _fixed_cal()
        assert predict_parallel(cal, tier, work, 8) >= dispatch_overhead_s(8)


class TestCalibration:
    def test_measured_calibration_is_sane(self):
        cal = costmodel.get_calibration()
        for tier in ("vectorized", "masked", "segmented", "scalar"):
            assert cal.rate(tier) > 0
        # the interpreter is orders of magnitude slower per element than
        # a numpy lane; anything else means the micro-benchmarks broke
        assert cal.interp_rate > cal.rate("vectorized")

    def test_calibration_memoized_in_process(self):
        a = costmodel.get_calibration()
        b = costmodel.get_calibration()
        assert a is b

    def test_calibration_roundtrips_through_disk_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        costmodel.reset_calibration()
        try:
            first = costmodel.get_calibration()
            costmodel.reset_calibration()
            second = costmodel.get_calibration()
            # the second load must come from disk, not a re-measurement
            assert second == first
        finally:
            costmodel.reset_calibration()

    def test_unknown_tier_prices_as_scalar(self):
        cal = _fixed_cal()
        assert cal.rate("no-such-tier") == cal.rates["scalar"]

    def test_bitflipped_calibration_is_a_cold_start(self, tmp_path, monkeypatch):
        """A corrupted persisted calibration re-calibrates, never errors."""
        import glob
        import os

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        costmodel.reset_calibration()
        try:
            first = costmodel.get_calibration()
            entries = glob.glob(str(tmp_path / "costmodel" / "*" / "*.pkl"))
            assert entries, "calibration should have been persisted"
            for path in entries:
                with open(path, "rb") as fh:
                    blob = bytearray(fh.read())
                for off in (1, len(blob) // 2, len(blob) - 2):
                    blob[off] ^= 0xFF
                with open(path, "wb") as fh:
                    fh.write(bytes(blob))
            costmodel.reset_calibration()
            second = costmodel.get_calibration()  # cold start, no raise
            assert costmodel._calibration_valid(second)
            # the bad entry was dropped or overwritten by the fresh one
            for path in entries:
                assert (not os.path.exists(path)) or costmodel._calibration_valid(
                    costmodel.get_calibration()
                )
            _ = second.rate("vectorized"), first.rate("vectorized")
        finally:
            costmodel.reset_calibration()

    def test_stale_shaped_calibration_entry_is_a_cold_start(self, tmp_path, monkeypatch):
        """An entry that unpickles into the wrong shape is a cold start."""
        from repro import cache

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        key = (costmodel._machine_digest(), costmodel.CALIBRATION_VERSION)
        # an older layout: rates missing, NaN overheads — both invalid
        cache.store("costmodel", key, {"rates": {}})
        costmodel.reset_calibration()
        try:
            cal = costmodel.get_calibration()
            assert costmodel._calibration_valid(cal)
        finally:
            costmodel.reset_calibration()
        bad = Calibration(rates={"scalar": float("nan")}, overheads={}, interp_rate=1e-6)
        assert not costmodel._calibration_valid(bad)
        assert not costmodel._calibration_valid(None)
        assert not costmodel._calibration_valid({"rates": {}})


class TestWorkEvaluation:
    def test_trips_and_work_flat_loop(self):
        prog = parse_program("for (i = 0; i < n; i++) a[i] = i;")
        loop = prog.stmts[0]
        env = {"n": 100, "a": np.zeros(100)}
        assert loop_trips(loop, env) == 100
        assert loop_work(loop, env) == 100

    def test_csr_work_reads_row_pointer(self):
        prog = parse_program(
            "for (i = 0; i < n; i++) {\n"
            "  s = 0;\n"
            "  for (j = rp[i]; j < rp[i + 1]; j++) s = s + x[j];\n"
            "  out[i] = s;\n"
            "}"
        )
        loop = prog.stmts[0]
        rp = np.array([0, 3, 3, 10, 12], dtype=np.int64)
        env = {"n": 4, "rp": rp, "x": np.zeros(12), "out": np.zeros(4), "s": 0.0}
        # 4 outer trips + rp[4] - rp[0] = 12 inner elements
        assert loop_work(loop, env) == 16

    def test_unknown_bound_degrades_to_none(self):
        prog = parse_program("for (i = 0; i < n; i++) a[i] = i;")
        assert loop_trips(prog.stmts[0], {}) is None
        assert loop_work(prog.stmts[0], {}) is None


class TestPlanning:
    def _compiled(self, src):
        result = parallelize(src, AnalysisConfig.new_algorithm())
        return compile_program(result.program, result.decisions)

    def test_small_parallel_loop_stays_serial(self):
        cp = self._compiled("for (i = 0; i < n; i++) a[i] = i * 2;")
        n = MIN_PAR_TRIPS // 2
        env = {"n": n, "a": np.zeros(n)}
        plans = plan_program(cp, env, cal=_fixed_cal(), workers=8)
        assert len(plans) == 1
        assert plans[0].choice == "compiled"

    def test_huge_scalar_parallel_loop_goes_parallel(self):
        # scalar-rate pricing makes the pool dispatch overhead worth paying
        cp = self._compiled("for (i = 0; i < n; i++) a[i] = i * 2;")
        cal = _fixed_cal()
        n = 1 << 20
        env = {"n": n, "a": np.zeros(n)}
        cp.loop_tiers = {lid: "scalar" for lid in cp.loop_tiers}
        plans = plan_program(cp, env, cal=cal, workers=8)
        assert plans[0].choice == "compiled-parallel"
        assert plans[0].predicted["compiled-parallel"] < plans[0].predicted["compiled"]

    def test_serial_decision_never_goes_parallel(self):
        # scalar recurrence: the analysis refuses to parallelize it, so
        # the planner must not either, no matter the size
        cp = self._compiled(
            "s = 0;\nfor (i = 0; i < n; i++) s = s * 2 + b[i];"
        )
        n = 1 << 20
        env = {"n": n, "s": 0.0, "b": np.zeros(n)}
        plans = plan_program(cp, env, cal=_fixed_cal(), workers=8)
        assert all(p.choice == "compiled" for p in plans)

    def test_vector_tier_program_never_prefers_interp(self):
        cp = self._compiled("for (i = 0; i < n; i++) a[i] = i * 2;")
        env = {"n": 4, "a": np.zeros(4)}
        plans = plan_program(cp, env, cal=_fixed_cal(), workers=1)
        assert not program_prefers_interp(plans)

    def test_predictions_recorded_per_backend(self):
        cp = self._compiled("for (i = 0; i < n; i++) a[i] = i * 2;")
        n = 1 << 16
        env = {"n": n, "a": np.zeros(n)}
        plans = plan_program(cp, env, cal=_fixed_cal(), workers=4)
        p = plans[0]
        assert "compiled" in p.predicted and "interp" in p.predicted
        assert p.trips == n

    def test_inspection_priced_per_element(self):
        # calibrated rates are seconds per element: a scan of n elements
        # costs overhead + n * rate, not n seconds
        result = parallelize(
            "for (i = 0; i < n; i++) { x[idx[i]] = x[idx[i]] + y[i]; }",
            AnalysisConfig.new_algorithm(),
        )
        (d,) = result.decisions.values()
        assert d.speculation_verified
        cal = _fixed_cal()
        n = 2_000_000
        env = {"n": n, "idx": np.arange(n), "x": np.zeros(n), "y": np.zeros(n)}
        want = cal.overhead("vectorized") + n * cal.rate("vectorized")
        assert costmodel._inspect_seconds(cal, d, env) == pytest.approx(want)
        assert costmodel._inspect_seconds(cal, d, {}) == cal.overhead("vectorized")
        cp = compile_program(result.program, result.decisions)
        (plan,) = plan_program(cp, env, cal=cal, workers=2)
        assert plan.predicted["inspect"] == pytest.approx(want)


class TestAutoBackendEndToEnd:
    def test_auto_matches_interp_output(self):
        from repro.runtime.compile import execute

        src = (
            "for (i = 0; i < n; i++) a[i] = i * 2;\n"
            "s = 0;\n"
            "for (j = 0; j < n; j++) s = s + a[j];"
        )
        result = parallelize(src, AnalysisConfig.new_algorithm())
        n = 1000
        env_auto = {"n": n, "a": np.zeros(n), "s": 0.0}
        env_ref = {"n": n, "a": np.zeros(n), "s": 0.0}
        execute(result.program, env_auto, decisions=result.decisions, backend="auto")
        execute(result.program, env_ref, decisions=result.decisions, backend="interp")
        assert env_auto["s"] == env_ref["s"]
        np.testing.assert_array_equal(env_auto["a"], env_ref["a"])

    def test_auto_records_decisions_in_workmeter(self):
        from repro.runtime import workmeter
        from repro.runtime.compile import execute

        result = parallelize(
            "for (i = 0; i < n; i++) a[i] = i * 2;", AnalysisConfig.new_algorithm()
        )
        n = 512
        workmeter.reset()
        try:
            execute(result.program, {"n": n, "a": np.zeros(n)},
                    decisions=result.decisions, backend="auto")
            preds = workmeter.predictions()
            assert preds, "auto backend recorded no cost-model decisions"
            entry = next(iter(preds.values()))
            assert entry["choice"] in ("compiled", "compiled-parallel")
            table = workmeter.format_decision_table()
            assert "choice" in table and "predicted" in table
        finally:
            workmeter.reset()
