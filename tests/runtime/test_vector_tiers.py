"""Differential parity suites for the masked and segmented vectorizers.

Every program here runs through both the reference interpreter and the
compiled backend, and the final states must agree — including scalars
(guarded accumulators, fill counters, inner-loop indices).  Each case
also asserts the *tier* the lowerer reports, so a silent bail back to
the scalar loop shows up as a failure, not as a slow pass.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.lang.cparser import parse_program
from repro.runtime.compile import compile_program
from repro.runtime.interp import InterpError, run_program
from repro.runtime.parexec import states_equivalent


def _deep(env):
    return {k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in env.items()}


def run_both(src, env, tier=None):
    """Run interp + compiled; assert parity and (optionally) the tier."""
    prog = parse_program(src)
    ref = run_program(prog, _deep(env))
    cp = compile_program(prog)
    assert cp.backend == "compiled", cp.fallback_reason
    out = cp.run(_deep(env))
    assert states_equivalent(ref, out), f"diverged\n{cp.source}"
    if tier is not None:
        assert tier in cp.loop_tiers.values(), (
            f"expected a {tier} loop, got {cp.loop_tiers} "
            f"(bails: {cp.loop_bails})\n{cp.source}"
        )
    return ref, out, cp


# ---------------------------------------------------------------------------
# masked vectorization
# ---------------------------------------------------------------------------


def test_masked_store_side_effect_free_rhs():
    src = """
    for (i = 0; i < n; i++) {
        if (a[i] > 0)
            b[i] = a[i] * 2;
    }
    """
    env = {"n": 50, "a": np.arange(-25.0, 25.0), "b": np.zeros(50)}
    run_both(src, env, tier="masked")


def test_masked_store_with_else_branch():
    src = """
    for (i = 0; i < n; i++) {
        if (a[i] > 0)
            b[i] = a[i];
        else
            b[i] = -a[i];
    }
    """
    env = {"n": 40, "a": np.arange(-20.0, 20.0), "b": np.zeros(40)}
    run_both(src, env, tier="masked")


def test_masked_effectful_rhs_guarded_accumulator():
    # the guarded branch both stores and bumps a scalar accumulator
    src = """
    s = 0;
    for (i = 0; i < n; i++) {
        if (a[i] > 2) {
            b[i] = a[i] * 2;
            s = s + a[i];
        }
    }
    """
    env = {"n": 30, "a": np.arange(30) % 7, "b": np.zeros(30, dtype=np.int64), "s": 0}
    ref, out, _ = run_both(src, env, tier="masked")
    assert out["s"] == ref["s"] != 0


def test_masked_scan_reading_store_bails_but_stays_correct():
    # b[i] reads the accumulator's running value: a prefix scan, which the
    # vectorizer must refuse (scalar tier) yet still execute correctly
    src = """
    s = 0;
    for (i = 0; i < n; i++) {
        if (a[i] > 2) {
            b[i] = a[i] + s;
            s = s + a[i];
        }
    }
    """
    env = {"n": 30, "a": np.arange(30) % 7, "b": np.zeros(30, dtype=np.int64), "s": 0}
    ref, out, cp = run_both(src, env)
    assert set(cp.loop_tiers.values()) == {"scalar"}
    assert "loop-carried scalar" in cp.loop_bails.popitem()[1]


def test_masked_counter_fill():
    # the paper's LEMMA-1 fill idiom (AMGmk's A_rownnz construction)
    src = """
    k = 0;
    for (i = 0; i < n; i++) {
        if (a[i] > 0) {
            idx[k] = i;
            k = k + 1;
        }
    }
    """
    rng = np.random.default_rng(7)
    env = {
        "n": 64,
        "a": rng.integers(-3, 4, 64).astype(np.int64),
        "idx": np.zeros(64, dtype=np.int64),
        "k": 0,
    }
    ref, out, _ = run_both(src, env, tier="masked")
    assert out["k"] == ref["k"] > 0


def test_masked_short_circuit_and_or():
    src = """
    for (i = 0; i < n; i++) {
        if (a[i] > 0 && b[a[i]] > 1)
            c[i] = b[a[i]];
        if (a[i] < 0 || b[i] > 2)
            d[i] = a[i] + b[i];
    }
    """
    rng = np.random.default_rng(3)
    env = {
        "n": 48,
        # a <= 0 lanes would make b[a[i]] unsafe-looking; short-circuit
        # must keep them unevaluated exactly as the interpreter does
        "a": rng.integers(-5, 48, 48).astype(np.int64),
        "b": rng.integers(0, 5, 48).astype(np.float64),
        "c": np.zeros(48),
        "d": np.zeros(48),
    }
    run_both(src, env, tier="masked")


def test_masked_nan_propagation():
    # NaN compares false elementwise, exactly like the scalar path
    src = """
    for (i = 0; i < n; i++) {
        if (a[i] > 0.5)
            b[i] = a[i] * 10.0;
        else
            b[i] = 0.0 - 1.0;
    }
    """
    a = np.linspace(0.0, 1.0, 20)
    a[3] = np.nan
    a[11] = np.nan
    env = {"n": 20, "a": a, "b": np.zeros(20)}
    ref, out, _ = run_both(src, env, tier="masked")
    assert out["b"][3] == -1.0  # NaN lane took the else branch


def test_masked_empty_selection():
    src = """
    s = 0;
    for (i = 0; i < n; i++) {
        if (a[i] > 100) {
            b[i] = 1;
            s = s + 1;
        }
    }
    """
    env = {"n": 16, "a": np.zeros(16), "b": np.zeros(16, dtype=np.int64), "s": 0}
    ref, out, _ = run_both(src, env, tier="masked")
    assert out["s"] == 0


# ---------------------------------------------------------------------------
# segmented (CSR) vectorization
# ---------------------------------------------------------------------------


def _csr_env(nrows, seed=0, empty_rows=False):
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 5, nrows)
    if empty_rows:
        counts[:: 3] = 0
    rp = np.zeros(nrows + 1, dtype=np.int64)
    np.cumsum(counts, out=rp[1:])
    nnz = int(rp[-1])
    return {
        "n": nrows,
        "rp": rp,
        "col": rng.integers(0, nrows, max(nnz, 1)).astype(np.int64),
        "val": rng.standard_normal(max(nnz, 1)),
        "x": rng.standard_normal(nrows),
        "y": np.zeros(nrows),
    }


CSR_SPMV = """
for (i = 0; i < n; i++) {
    t = x[i];
    for (j = rp[i]; j < rp[i + 1]; j++)
        t = t + val[j] * x[col[j]];
    y[i] = t;
}
"""


def test_segmented_spmv_parity():
    env = _csr_env(60, seed=1)
    env["t"] = 0.0
    run_both(CSR_SPMV, env, tier="segmented")


def test_segmented_empty_rows():
    env = _csr_env(45, seed=2, empty_rows=True)
    env["t"] = 0.0
    ref, out, _ = run_both(CSR_SPMV, env, tier="segmented")
    assert (np.asarray(ref["rp"][1:]) == np.asarray(ref["rp"][:-1])).any()


def test_segmented_all_rows_empty_zero_trip_inner():
    env = _csr_env(20, seed=3)
    env["rp"][:] = 0  # every inner loop is zero-trip
    env["t"] = 0.0
    ref, out, _ = run_both(CSR_SPMV, env, tier="segmented")
    assert np.array_equal(out["y"], ref["y"])


def test_segmented_zero_outer_trips():
    env = _csr_env(10, seed=4)
    env["n"] = 0
    env["t"] = 0.0
    run_both(CSR_SPMV, env, tier="segmented")


def test_segmented_nan_values_flow_through_reduction():
    env = _csr_env(30, seed=5)
    env["val"][::4] = np.nan
    env["t"] = 0.0
    ref, out, _ = run_both(CSR_SPMV, env, tier="segmented")
    assert np.isnan(out["y"]).any()


def test_segmented_guard_inside_inner_loop():
    # mask nested inside a segmented frame
    src = """
    for (i = 0; i < n; i++) {
        t = 0.0;
        for (j = rp[i]; j < rp[i + 1]; j++) {
            if (val[j] > 0.0)
                t = t + val[j];
        }
        y[i] = t;
    }
    """
    env = _csr_env(40, seed=6)
    env["t"] = 0.0
    run_both(src, env, tier="segmented")


def test_segmented_float_bounds_fault_consistently():
    # a float-valued row pointer must not be silently truncated by the
    # segmented tier: the compiled backend faults — the same behavior its
    # scalar range() loop has always had for non-integer bounds
    src = """
    for (i = 0; i < n; i++) {
        for (j = rp[i]; j < rp[i + 1]; j++)
            y[i] = y[i] + val[j];
    }
    """
    env = {
        "n": 8,
        "rp": np.linspace(0.0, 4.0, 9),  # float row pointer
        "val": np.ones(8),
        "y": np.zeros(8),
    }
    prog = parse_program(src)
    cp = compile_program(prog)
    assert "segmented" in cp.loop_tiers.values()
    with pytest.raises(InterpError):
        cp.run(_deep(env))
    cp2 = compile_program(prog, vectorize=False)
    with pytest.raises(InterpError):
        cp2.run(_deep(env))


# ---------------------------------------------------------------------------
# flattened (uniform inner trip) vectorization
# ---------------------------------------------------------------------------


def test_flattened_small_uniform_inner_loop():
    # constant small trip count: the UA(transf) gather shape
    src = """
    for (i = 0; i < n; i++) {
        t = 0.0;
        for (j = 0; j < 4; j++)
            t = t + a[map[4 * i + j]];
        out[i] = t;
    }
    """
    rng = np.random.default_rng(8)
    env = {
        "n": 32,
        "a": rng.standard_normal(32),
        "map": rng.integers(0, 32, 128).astype(np.int64),
        "out": np.zeros(32),
        "t": 0.0,
    }
    run_both(src, env, tier="flattened")


def test_large_uniform_inner_loop_stays_on_slice_path():
    # big dense inner loops must NOT be flattened into gathers: every
    # subscript of the dense level is a slice axis, so the nest flattens
    # with the level as an array axis and the reduction sums that axis
    src = """
    for (i = 0; i < n; i++) {
        s = 0.0;
        for (j = 0; j < n; j++)
            s = s + a[j] * b[j];
        out[i] = s;
    }
    """
    env = {
        "n": 200,
        "a": np.random.default_rng(9).standard_normal(200),
        "b": np.random.default_rng(10).standard_normal(200),
        "out": np.zeros(200),
        "s": 0.0,
    }
    ref, out, cp = run_both(src, env, tier="flattened")
    assert "slice(" in cp.source and "_as_idx" not in cp.source
    assert "_np.repeat" not in cp.source and "_np.tile" not in cp.source


# ---------------------------------------------------------------------------
# flat levels as array axes
# ---------------------------------------------------------------------------


def run_exact(src, env, tier="flattened"):
    """run_both, plus bit-for-bit equality of every array and scalar."""
    ref, out, cp = run_both(src, env, tier=tier)
    for k in ref:
        a, b = ref[k], out[k]
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), f"{k}\n{cp.source}"
        else:
            assert a == b, f"{k}: interp={a} compiled={b}\n{cp.source}"
    return ref, out, cp


def test_axes_permuted_subscript_order():
    # UA(transf)'s shape: the nest runs i, j, k but the array is [i][k][j]
    src = """
    for (i = 0; i < n; i++)
        for (j = 0; j < 4; j++)
            for (k = 0; k < 3; k++) {
                b[i][k][j] = a[i][j][k] * 2 + i - k;
                c[k][i][j] = a[i][j][k] + b[i][k][j];
            }
    """
    rng = np.random.default_rng(21)
    env = {
        "n": 9,
        "a": rng.integers(-50, 50, (9, 4, 3)).astype(np.int64),
        "b": np.zeros((9, 3, 4), dtype=np.int64),
        "c": np.zeros((3, 9, 4), dtype=np.int64),
    }
    _, _, cp = run_exact(src, env)
    assert ".transpose(" in cp.source
    assert "_np.repeat" not in cp.source and "_np.tile" not in cp.source


def test_axes_strided_and_offset_subscripts():
    src = """
    for (i = 0; i < n; i++)
        for (j = 0; j < m; j++)
            b[i + 1][2 * j + 1] = a[2 * i][3 * j + 2] + w[j + 1] * 0.5;
    """
    rng = np.random.default_rng(22)
    env = {
        "n": 6,
        "m": 5,
        "a": rng.standard_normal((12, 17)),
        "b": np.zeros((7, 11)),
        "w": rng.standard_normal(6),
    }
    _, _, cp = run_exact(src, env)
    assert "_as_idx" not in cp.source


def test_axes_negative_start_wraps_through_the_scalar_branch():
    # a[i][j - 1] reads a[i][-1] at j == 0: the slice guard must reject and
    # the scalar else-branch reproduce Python's wrap-around exactly
    src = """
    for (i = 0; i < n; i++)
        for (j = 0; j < m; j++)
            b[i][j] = a[i][j - 1] + j;
    """
    env = {
        "n": 4,
        "m": 6,
        "a": np.arange(24, dtype=np.int64).reshape(4, 6),
        "b": np.zeros((4, 6), dtype=np.int64),
    }
    run_exact(src, env)


def test_axes_overlong_end_takes_the_guarded_scalar_branch():
    # a[i][j + 1] runs one past the row: the guard sends the nest to the
    # scalar loop, which faults at the same element as the interpreter
    # after the same partial writes
    src = """
    for (i = 0; i < n; i++)
        for (j = 0; j < m; j++)
            b[i][j] = a[i][j + 1] * 3;
    """
    env = {
        "n": 3,
        "m": 5,
        "a": np.arange(15, dtype=np.int64).reshape(3, 5),
        "b": np.zeros((3, 5), dtype=np.int64),
    }
    prog = parse_program(src)
    cp = compile_program(prog)
    assert "flattened" in cp.loop_tiers.values()
    ref_env, out_env = _deep(env), _deep(env)
    with pytest.raises(InterpError):
        run_program(prog, ref_env)
    with pytest.raises(InterpError):
        cp.run(out_env)
    assert np.array_equal(ref_env["b"], out_env["b"])
    assert ref_env["b"].any()


@pytest.mark.parametrize("m", [0, -3])
def test_axes_zero_trip_level(m):
    # hi < lo must give an empty slice, not a[..., 0:-3]
    src = """
    s = 7;
    for (i = 0; i < n; i++) {
        t = i;
        for (j = 0; j < m; j++) {
            b[i][j] = a[i][j] + 1;
            t = t + a[i][j];
        }
        c[i] = t;
    }
    """
    env = {
        "n": 5,
        "m": m,
        "a": np.arange(30, dtype=np.int64).reshape(5, 6),
        "b": np.zeros((5, 6), dtype=np.int64),
        "c": np.zeros(5, dtype=np.int64),
        "j": -1,
        "t": 0,
    }
    ref, out, _ = run_exact(src, env)
    assert not out["b"].any() and out["j"] == ref["j"] == 0


def test_axes_symbolic_uniform_bounds():
    # a dense nest whose subscripts are all slice axes now flattens
    src = """
    for (i = 1; i < n - 1; i++)
        for (j = 1; j < m - 1; j++)
            for (k = 0; k < p; k++)
                c[i][j][k] = a[i - 1][j][k] + a[i + 1][j][k] - a[i][j - 1][k] * w[k];
    """
    rng = np.random.default_rng(23)
    env = {
        "n": 7,
        "m": 6,
        "p": 5,
        "a": rng.standard_normal((7, 6, 5)),
        "w": rng.standard_normal(5),
        "c": np.zeros((7, 6, 5)),
    }
    _, _, cp = run_exact(src, env)
    assert set(cp.loop_tiers.values()) == {"flattened"}


def test_axes_flat_level_under_a_segmented_frame():
    src = """
    for (i = 0; i < n; i++) {
        s = 0;
        for (jj = rp[i]; jj < rp[i + 1]; jj++)
            for (t = 0; t < 3; t++) {
                z[i][jj][t] = val[jj] * w[t] + t;
                s = s + val[jj] * w[t];
            }
        y[i] = s;
    }
    """
    env = _csr_env(12, seed=24, empty_rows=True)
    nnz = int(env["rp"][-1])
    env.update(
        s=0,
        val=np.arange(1, nnz + 1, dtype=np.int64),
        w=np.array([3, -1, 2], dtype=np.int64),
        y=np.zeros(12, dtype=np.int64),
        z=np.zeros((12, nnz, 3), dtype=np.int64),
    )
    run_exact(src, env, tier="segmented")


def test_axes_mask_inside_a_flat_level():
    src = """
    for (i = 0; i < n; i++) {
        s = 0;
        for (j = 0; j < 4; j++) {
            t = a[i][j];
            if (t > 0) {
                b[i][j] = t * 2;
                s = s + t;
            } else
                t = 0 - t;
            c[i][j] = t;
        }
        d[i] = s;
    }
    """
    rng = np.random.default_rng(25)
    env = {
        "n": 10,
        "a": rng.integers(-9, 9, (10, 4)).astype(np.int64),
        "b": np.zeros((10, 4), dtype=np.int64),
        "c": np.zeros((10, 4), dtype=np.int64),
        "d": np.zeros(10, dtype=np.int64),
        "s": 0,
        "t": 0,
    }
    run_exact(src, env, tier="masked")


def test_axes_reduction_lifted_out_of_an_axis():
    src = """
    for (i = 0; i < n; i++) {
        s = a[i][0];
        for (j = 0; j < m; j++)
            s = s + a[i][j] * w[j];
        for (k = 0; k < 3; k++)
            s = s - k;
        out[i] = s;
    }
    """
    rng = np.random.default_rng(26)
    env = {
        "n": 11,
        "m": 70,
        "a": rng.integers(-20, 20, (11, 70)).astype(np.int64),
        "w": rng.integers(-3, 4, 70).astype(np.int64),
        "out": np.zeros(11, dtype=np.int64),
        "s": 0,
    }
    run_exact(src, env)
    # floats: each row sums like the per-row loop it replaces
    env["a"] = rng.standard_normal((11, 70))
    env["w"] = rng.standard_normal(70)
    env["out"] = np.zeros(11)
    run_both(src, env, tier="flattened")


@pytest.mark.parametrize(
    "src, tier",
    [
        # a counter fill under a mask inside a flat level: lanes in C order
        (
            """k = 0;
            for (i = 0; i < n; i++)
                for (j = 0; j < 4; j++)
                    if (a[i][j] > 0) { idx[k] = i * 4 + j; k = k + 1; }""",
            "masked",
        ),
        # a segmented level entered from a flat one, lifted back per lane
        (
            """for (i = 0; i < n; i++)
                for (j = 0; j < 3; j++) {
                    t = 0;
                    for (q = rp[j]; q < rp[j + 1]; q++)
                        t = t + v[q] * (i + 1);
                    c[i][j] = t;
                }""",
            "segmented",
        ),
        # ordered scatter-adds from a flat level, int and float values
        (
            """for (i = 0; i < n; i++)
                for (j = 0; j < 4; j++) {
                    h[p[i][j]] = h[p[i][j]] + a[i][j];
                    g[p[i][j]] = g[p[i][j]] + f[i][j];
                }""",
            "flattened",
        ),
    ],
)
def test_axes_lanes_for_masks_segments_and_scatters(src, tier):
    rng = np.random.default_rng(29)
    env = {
        "n": 7,
        "k": 0,
        "t": 0,
        "a": rng.integers(-3, 4, (7, 4)).astype(np.int64),
        "f": rng.standard_normal((7, 4)) * 3,
        "p": rng.integers(0, 5, (7, 4)).astype(np.int64),
        "h": np.zeros(5, dtype=np.int64),
        "g": np.zeros(5, dtype=np.int64),
        "idx": np.zeros(28, dtype=np.int64),
        "rp": np.array([0, 2, 2, 5], dtype=np.int64),
        "v": rng.integers(-4, 5, 5).astype(np.int64),
        "c": np.zeros((7, 3), dtype=np.int64),
    }
    run_exact(src, env, tier=tier)


def test_axes_array_read_back_in_its_own_statement():
    src = """
    for (i = 0; i < n; i++)
        for (j = 0; j < 5; j++) {
            a[i][j] = a[i][j] * 2 + a[i][j];
            b[i][j] = a[i][j] - 1;
            a[i][j] = b[i][j] + a[i][j];
        }
    """
    rng = np.random.default_rng(27)
    env = {
        "n": 8,
        "a": rng.standard_normal((8, 5)),
        "b": np.zeros((8, 5)),
    }
    run_exact(src, env)


def test_axes_float_value_into_int_array():
    src = """
    for (i = 0; i < n; i++)
        for (j = 0; j < 6; j++)
            ia[i][j] = fa[i][j] * 1.5 - j;
    """
    rng = np.random.default_rng(28)
    env = {
        "n": 7,
        "fa": rng.standard_normal((7, 6)) * 10,
        "ia": np.zeros((7, 6), dtype=np.int64),
    }
    run_exact(src, env)


def test_linearized_subscript_keeps_the_scalar_outer_loop():
    # a[i*8 + j] spans two levels: flattening would turn the per-row
    # slices into one big gather, so the dense bail stays for it
    src = """
    for (i = 0; i < n; i++)
        for (j = 0; j < m; j++)
            b[i * 8 + j] = a[i * 8 + j] * 2 + j;
    """
    env = {
        "n": 6,
        "m": 7,
        "a": np.arange(48, dtype=np.int64),
        "b": np.zeros(48, dtype=np.int64),
    }
    ref, out, cp = run_exact(src, env, tier="vectorized")
    outer = next(iter(cp.loop_tiers))
    assert cp.loop_tiers[outer] == "scalar"
    assert cp.loop_bails[outer] == "uniform inner bounds outside a segmented nest"
    assert "flattened" not in cp.loop_tiers.values()


def run_decided(src, env, backend):
    """Interpreter vs ``execute`` with the analysis decisions: exact parity."""
    from repro.analysis import AnalysisConfig
    from repro.parallelizer import parallelize
    from repro.runtime.compile import execute

    result = parallelize(src, AnalysisConfig.new_algorithm())
    assert result.decisions[result.program.stmts[0].loop_id].parallel
    ref = run_program(parse_program(src), _deep(env))
    out = execute(
        result.program,
        _deep(env),
        decisions=result.decisions,
        backend=backend,
        fusions=result.fusions,
    )
    for k, a in ref.items():
        if isinstance(a, np.ndarray):
            assert a.dtype == out[k].dtype and np.array_equal(a, out[k]), k
    return result


CERT_ENV = {
    "n": 6,
    "m": 8,
    "a": np.arange(48, dtype=np.int64).reshape(6, 8) % 7 - 3,
    "b": np.arange(48, dtype=np.int64).reshape(6, 8) % 5 - 2,
    "c": np.arange(336, dtype=np.int64).reshape(6, 7, 8) % 9 - 4,
}


@pytest.mark.parametrize("backend", ["compiled", "compiled-parallel", "auto"])
@pytest.mark.parametrize(
    "src",
    [
        # a running sum along each row: j carries the dependence
        """
        for (i = 0; i < n; i++)
            for (j = 1; j < m; j++)
                a[i][j] = a[i][j - 1] + b[i][j];
        """,
        # the same over a literal trip count (a small flat level)
        """
        for (i = 0; i < n; i++)
            for (j = 1; j < 8; j++)
                a[i][j] = a[i][j - 1] + b[i][j];
        """,
        # the middle level of three carries it
        """
        for (i = 0; i < n; i++)
            for (j = 0; j < 6; j++)
                for (k = 0; k < m; k++)
                    c[i][j + 1][k] = c[i][j][k] * 2 + b[i][k];
        """,
    ],
    ids=["row", "row-literal-trips", "middle-level"],
)
def test_axes_certified_outer_loop_with_an_inner_recurrence(src, backend):
    # a parallel verdict certifies the outer level only: the dependence
    # an inner level carries must keep the nest off the array-axis path
    run_decided(src, CERT_ENV, backend)


@pytest.mark.parametrize("backend", ["compiled", "compiled-parallel"])
def test_axes_certified_outer_loop_without_a_carried_dependence(backend):
    src = """
    for (i = 0; i < n; i++)
        for (j = 0; j < m; j++)
            a[i][j] = a[i][j] * 2 + b[i][j];
    """
    result = run_decided(src, CERT_ENV, backend)
    cp = compile_program(result.program, result.decisions, fusions=result.fusions)
    assert list(cp.loop_tiers.values()) == ["flattened"], cp.loop_bails


# ---------------------------------------------------------------------------
# monotone windows, row gathers and change-detection scalars
# ---------------------------------------------------------------------------


def _bits_equal(a, b) -> bool:
    """Same dtype and bytes for arrays (NaN payloads and signed zeros
    included); same value, and for floats the same bits, for scalars."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and a.dtype == b.dtype
            and a.shape == b.shape
            and a.tobytes() == b.tobytes()
        )
    if isinstance(a, (float, np.floating)) or isinstance(b, (float, np.floating)):
        return np.float64(a).tobytes() == np.float64(b).tobytes()
    return a == b


@contextlib.contextmanager
def _spy(cp, helper):
    """Record ``(args, result)`` of every call the generated code makes to
    the runtime helper ``helper`` (patched in the kernel's globals)."""
    ns = cp.fn.__globals__
    orig, calls = ns[helper], []

    def wrapper(*args):
        out = orig(*args)
        calls.append((args, out))
        return out

    ns[helper] = wrapper
    try:
        yield calls
    finally:
        ns[helper] = orig


def run_bits(src, env, tier, spy="_lanes"):
    """Interpreter vs compiled: every array and scalar bit-identical and
    ``tier`` reported.  Returns the recorded calls to helper ``spy``."""
    prog = parse_program(src)
    ref = run_program(prog, _deep(env))
    cp = compile_program(prog)
    assert cp.backend == "compiled", cp.fallback_reason
    assert tier in cp.loop_tiers.values(), (cp.loop_tiers, cp.loop_bails, cp.source)
    with _spy(cp, spy) as calls:
        out = cp.run(_deep(env))
    for k, a in ref.items():
        assert _bits_equal(a, out[k]), f"{k}: interp={a!r} compiled={out[k]!r}\n{cp.source}"
    return calls


def run_certified(src, env):
    """Exact array parity with the interpreter under ``execute`` with the
    analysis decisions on compiled, compiled-parallel and auto."""
    from repro.analysis import AnalysisConfig
    from repro.parallelizer import parallelize
    from repro.runtime.compile import execute

    result = parallelize(src, AnalysisConfig.new_algorithm())
    assert any(d.parallel for d in result.decisions.values())
    ref = run_program(parse_program(src), _deep(env))
    for backend in ("compiled", "compiled-parallel", "auto"):
        out = execute(
            result.program,
            _deep(env),
            decisions=result.decisions,
            backend=backend,
            fusions=result.fusions,
        )
        for k, a in ref.items():
            if isinstance(a, np.ndarray):
                assert _bits_equal(a, out[k]), (backend, k)
    return result


WINDOWS = """
for (i = 0; i < n; i++) {
    t = 0;
    for (j = lo[i]; j < hi[i]; j++)
        t = t + val[j] * x[col[j]];
    y[i] = t;
}
"""


def _windows_env(lo, hi):
    lo, hi = np.array(lo, dtype=np.int64), np.array(hi, dtype=np.int64)
    size = int(max(lo.max(initial=0), hi.max(initial=0))) + 1
    rng = np.random.default_rng(len(lo))
    return {
        "n": len(lo),
        "lo": lo,
        "hi": hi,
        "t": 0,
        "val": rng.integers(-9, 10, size).astype(np.int64),
        "col": rng.integers(0, 6, size).astype(np.int64),
        "x": rng.integers(-5, 6, 6).astype(np.int64),
        "y": np.zeros(len(lo), dtype=np.int64),
    }


@pytest.mark.parametrize(
    "lo, hi, contiguous",
    [
        ([0, 3, 3, 4, 8], [3, 3, 4, 8, 9], True),  # abutting, one empty row
        ([0, 3, 7], [3, 5, 9], False),  # gap: [5, 7) skipped
        ([0, 3, 3, 6], [3, 6, 6, 8], False),  # a row listed twice
        ([0, 4, 2], [4, 2, 6], False),  # abutting ends, but reversed
        ([5, 5, 5], [5, 5, 5], True),  # all rows empty
        ([0, 0], [0, 0], True),
    ],
    ids=["abutting", "gap", "overlap", "reversed", "all-empty", "all-empty-at-0"],
)
def test_windows_slice_only_when_they_abut(lo, hi, contiguous):
    calls = run_bits(WINDOWS, _windows_env(lo, hi), "segmented", spy="_segwin")
    assert [isinstance(w, slice) for _, w in calls] == [contiguous]


def test_windows_zero_trip_outer_loop():
    env = _windows_env([0, 2], [2, 4])
    env["n"] = 0
    assert run_bits(WINDOWS, env, "segmented", spy="_segwin") == []


ROW_LIST = """
for (i = 0; i < n; i++) {
    m = rows[i];
    t = 0;
    for (j = rp[m]; j < rp[m + 1]; j++)
        t = t + val[j];
    z[i] = t;
}
"""


@pytest.mark.parametrize(
    "rows, contiguous",
    [
        ([0, 1, 2, 3, 4], True),  # increasing
        ([0, 1, 2, 4], True),  # skips row 3, which is empty
        ([0, 2, 3, 4], False),  # skips row 1, which is not
        ([3, 0, 4, 1, 2], False),  # permuted
        ([0, 1, 1, 2], False),  # repeated
    ],
    ids=["increasing", "skip-empty", "skip-nonempty", "permuted", "repeated"],
)
def test_windows_through_a_row_list(rows, contiguous):
    env = {
        "n": len(rows),
        "rows": np.array(rows, dtype=np.int64),
        "rp": np.array([0, 2, 5, 5, 5, 9], dtype=np.int64),
        "val": np.arange(9, dtype=np.int64) * 3 - 7,
        "z": np.zeros(len(rows), dtype=np.int64),
        "m": 0,
        "t": 0,
    }
    calls = run_bits(ROW_LIST, env, "segmented", spy="_segwin")
    assert [isinstance(w, slice) for _, w in calls] == [contiguous]


def test_windows_strided_and_offset_subscripts():
    src = """
    for (i = 0; i < n; i++) {
        t = 0;
        for (j = rp[i]; j < rp[i + 1]; j++)
            t = t + (val[2 * j] * 3 + val[j + 1]);
        y[i] = t;
    }
    """
    env = {
        "n": 4,
        "rp": np.array([0, 3, 3, 5, 8], dtype=np.int64),
        "val": np.arange(17, dtype=np.int64) * 5 - 30,
        "y": np.zeros(4, dtype=np.int64),
        "t": 0,
    }
    calls = run_bits(src, env, "segmented", spy="_wix")
    assert [out for _, out in calls] == [slice(0, 16, 2), slice(1, 9, 1)]


@pytest.mark.parametrize("shift, faults", [("+ 1", True), ("- 1", False)])
def test_windows_subscripts_out_of_range_take_the_gather(shift, faults):
    # j + 1 overruns val at the last window's end: the gather raises as
    # the interpreter does, where a slice would silently truncate; j - 1
    # starts at -1, which the gather wraps exactly as the interpreter does
    src = f"""
    for (i = 0; i < n; i++) {{
        t = 0;
        for (j = rp[i]; j < rp[i + 1]; j++)
            t = t + val[j {shift}];
        y[i] = t;
    }}
    """
    env = {
        "n": 3,
        "rp": np.array([0, 2, 5, 7], dtype=np.int64),
        "val": np.arange(7, dtype=np.int64) + 1,
        "y": np.zeros(3, dtype=np.int64),
        "t": 0,
    }
    if not faults:
        calls = run_bits(src, env, "segmented", spy="_wix")
        assert [isinstance(out, slice) for _, out in calls] == [False]
        return
    prog = parse_program(src)
    with pytest.raises(InterpError):
        run_program(prog, _deep(env))
    cp = compile_program(prog)
    with _spy(cp, "_wix") as calls, pytest.raises(InterpError):
        cp.run(_deep(env))
    assert [isinstance(out, slice) for _, out in calls] == [False]


# the paper's Figure 11 fill (change detection + counter) and a certified
# consumer whose window load reads an array the loop also stores
CSC_COPY = """
h = 1; cp[0] = 0; r = cv[0];
for (i = 0; i < nnz; i++) {
    if (cv[i] != r) {
        cp[h] = i;
        h = h + 1;
        r = cv[i];
    }
}
cp[nc] = nnz;
for (c = 0; c < nc; c++) {
    for (ind = cp[c]; ind < cp[c + 1]; ind++) {
        t = p[ind];
        p[ind] = c;
        q[ind] = t * 2;
    }
}
"""


def _csc_env():
    cols = np.repeat(np.arange(5), [3, 1, 4, 2, 2])
    return {
        "nnz": len(cols),
        "nc": 5,
        "cv": cols.astype(np.int64),
        "cp": np.zeros(7, dtype=np.int64),
        "p": np.arange(len(cols), dtype=np.int64) * 7 - 20,
        "q": np.zeros(len(cols), dtype=np.int64),
        "h": 0,
        "r": 0,
        "t": 0,
    }


def test_windows_load_of_a_stored_array_is_copied():
    result = run_certified(CSC_COPY, _csc_env())
    cp = compile_program(result.program, result.decisions)
    assert sorted(cp.loop_tiers.values()) == ["masked", "segmented"], cp.loop_bails
    with _spy(cp, "_segwin") as calls:
        out = cp.run(_deep(_csc_env()))
    assert [isinstance(w, slice) for _, w in calls] == [True]
    assert np.array_equal(out["q"], (np.arange(12) * 7 - 20) * 2)


ROW_GATHER = """
for (i = 0; i < n; i++) {
    s = 0;
    for (t = 0; t < T; t++)
        s = s + W[e[i] * 4 + t] * v[t];
    y[i] = s;
}
"""


def _row_env(e, width=4, rows=5, trips=4):
    e = np.asarray(e)
    return {
        "n": len(e),
        "e": e,
        "W": np.arange(rows * 4 + width - 4, dtype=np.int64) * 3 - 11,
        "v": np.arange(4, dtype=np.int64) + 1,
        "y": np.zeros(len(e), dtype=np.int64),
        "s": 0,
        "t": 0,
    }


def _rows_taken(calls):
    return [
        j.shape[0] == k and arr.shape[0] % k == 0 and np.asarray(e).dtype.kind == "i"
        for (arr, e, k, j), _ in calls
    ]


@pytest.mark.parametrize(
    "src_trips, env, rows",
    [
        ("4", _row_env([0, 3, 1, 4, 4]), True),
        ("3", _row_env([0, 3, 1, 4]), False),  # T != K
        ("4", _row_env([0, 3, 1], width=6), False),  # len % K != 0
        ("4", _row_env([0, -1, -5, 2]), True),  # negative rows wrap
        ("4", _row_env(np.array([0.6, 2.5, 3.99])), False),  # float e truncates late
    ],
    ids=["rows", "T-ne-K", "ragged-length", "negative-row", "float-e"],
)
def test_row_gather_only_over_whole_rows(src_trips, env, rows):
    src = ROW_GATHER.replace("t < T", f"t < {src_trips}")
    calls = run_bits(src, env, "flattened", spy="_rowg")
    assert _rows_taken(calls) == [rows]


def test_row_gather_out_of_range_row_faults_like_the_gather():
    src = ROW_GATHER.replace("t < T", "t < 4")
    env = _row_env([0, 5])
    prog = parse_program(src)
    with pytest.raises(InterpError):
        run_program(prog, _deep(env))
    with pytest.raises(InterpError):
        compile_program(prog).run(_deep(env))


def test_row_gather_in_a_segmented_nest():
    # SDDMM's shape: W by the outer row, H by a row index read through the
    # window, over a symbolic rank k
    src = """
    for (r = 0; r < nc; r++) {
        acc = 0;
        for (ind = cp[r]; ind < cp[r + 1]; ind++) {
            for (t = 0; t < k; t++)
                acc = acc + W[r * k + t] * H[ri[ind] * k + t] * nv[ind];
        }
        z[r] = acc;
    }
    """
    rng = np.random.default_rng(41)
    env = {
        "nc": 4,
        "k": 3,
        "cp": np.array([0, 2, 2, 5, 6], dtype=np.int64),
        "ri": rng.integers(0, 7, 6).astype(np.int64),
        "nv": rng.integers(-3, 4, 6).astype(np.int64),
        "W": rng.integers(-5, 6, 12).astype(np.int64),
        "H": rng.integers(-5, 6, 21).astype(np.int64),
        "z": np.zeros(4, dtype=np.int64),
        "acc": 0,
        "t": 0,
    }
    calls = run_bits(src, env, "segmented", spy="_rowg")
    assert _rows_taken(calls) == [True, True]


CHANGE_FILL = """
h = 0;
for (i = 0; i < n; i++) {
    if (v[i] != r) {
        first[h] = i;
        h = h + 1;
        r = v[i];
    }
}
"""

NAN = float("nan")


@pytest.mark.parametrize(
    "v, r",
    [
        ([4, 4, 4, 4], 4),  # no lane changes
        ([1, 2, 3, 4, 5], 0),  # every lane changes
        ([3, 3, 5, 5, 5, 1, 1, 3], 3),
        ([0.0, -0.0, -0.0, NAN, NAN, 1.0, 1.0, -0.0, 0.0], 0.0),
        ([NAN, NAN, 2.0], NAN),
        ([-0.0, 0.0, 0.0], 1.0),  # r ends -0.0, not the last lane's 0.0
        ([], 7),  # zero-trip loop
    ],
    ids=["no-change", "all-change", "int-runs", "float-nan-signed-zero", "nan-entry",
         "signed-zero-export", "zero-trip"],
)
def test_change_detection_fill(v, r):
    v = np.array(v, dtype=np.float64 if isinstance(r, float) else np.int64)
    env = {"n": len(v), "v": v, "r": r, "h": 0, "first": np.full(max(len(v), 1), -1)}
    calls = run_bits(CHANGE_FILL, env, "masked", spy="_chg")
    assert len(calls) == (1 if len(v) else 0)


@pytest.mark.parametrize(
    "body",
    [
        # r read outside its guard
        "if (v[i] != r) { first[h] = i; h = h + 1; r = v[i]; } w[i] = r;",
        # r assigned twice
        "if (v[i] != r) { first[h] = i; h = h + 1; r = v[i]; r = v[i]; }",
        "if (v[i] != r) { first[h] = i; h = h + 1; r = v[i]; } if (v[i] > 2) r = v[i];",
        "if (v[i] > 2) r = 0; if (v[i] != r) { first[h] = i; h = h + 1; r = v[i]; }",
        # the update is not the guarded expression
        "if (v[i] != r) { first[h] = i; h = h + 1; r = v[i] + 1; }",
    ],
    ids=["read-outside", "assigned-twice", "assigned-after", "assigned-before", "other-value"],
)
def test_change_detection_keeps_the_bail(body):
    src = f"h = 0;\nfor (i = 0; i < n; i++) {{ {body} }}\n"
    v = np.array([1, 1, 3, 2, 2, 5], dtype=np.int64)
    env = {"n": 6, "v": v, "r": 0, "h": 0, "first": np.full(6, -1), "w": np.zeros(6, dtype=np.int64)}
    run_bits(src, env, "scalar")
    cp = compile_program(parse_program(src))
    assert list(cp.loop_bails.values()) == ["loop-carried scalar"]


def test_change_detection_fill_feeds_a_certified_consumer():
    # the whole Figure 10/11 pair under decisions on every compiled backend
    result = run_certified(CSC_COPY, _csc_env())
    cp = compile_program(result.program, result.decisions)
    fill = result.program.stmts[3].loop_id
    assert cp.loop_tiers[fill] == "masked"


def test_counter_check_bounds_the_last_stored_index():
    # column 2 is empty, so the fill stores cp[1..3] and ends with h = 4:
    # cp[4] keeps its stale 0 and column 4's window [0, 12) overlaps every
    # other one.  The consumer's check -1+nc <= h_max must read h_max as
    # the last index stored (3), fail, and leave the nest serial
    env = _csc_env()
    cols = np.repeat(np.arange(5), [3, 1, 0, 4, 4]).astype(np.int64)
    env.update(nnz=len(cols), cv=cols)
    run_certified(CSC_COPY, env)


# ---------------------------------------------------------------------------
# registry tier pins + inspector weights
# ---------------------------------------------------------------------------


def test_registry_benchmarks_achieve_expected_tiers():
    # a lowering regression that bails a kernel loop back to scalar must
    # fail here, not surface as a silent slowdown in the speed gates
    from collections import Counter

    from repro.analysis import AnalysisConfig
    from repro.benchmarks import all_benchmarks
    from repro.parallelizer import parallelize

    pinned = [b for b in all_benchmarks() if b.expected_tiers]
    assert len(pinned) >= 6
    for bench in pinned:
        result = parallelize(bench.source, AnalysisConfig.new_algorithm())
        cp = compile_program(result.program, result.decisions)
        assert cp.backend == "compiled", (bench.name, cp.fallback_reason)
        got = Counter(cp.loop_tiers.values())
        for tier, n in bench.expected_tiers.items():
            assert got[tier] >= n, (
                f"{bench.name}: expected >= {n} {tier} loop(s), got {dict(got)} "
                f"(bails: {cp.loop_bails})"
            )


def test_registry_outputs_bit_identical_across_compiled_backends():
    # at small scale every kernel's final state is the same bits whichever
    # compiled backend runs it (the pool's chunked reductions included)
    from repro.analysis import AnalysisConfig
    from repro.benchmarks import all_benchmarks
    from repro.parallelizer import parallelize
    from repro.runtime.compile import execute

    for bench in all_benchmarks():
        result = parallelize(bench.source, AnalysisConfig.new_algorithm())
        env = bench.small_env()
        outs = {
            backend: execute(
                result.program,
                _deep(env),
                decisions=result.decisions,
                backend=backend,
                fusions=result.fusions,
            )
            for backend in ("compiled", "compiled-parallel", "auto")
        }
        ref = outs["compiled"]
        for backend in ("compiled-parallel", "auto"):
            for k, a in ref.items():
                assert _bits_equal(a, outs[backend][k]), (bench.name, backend, k)


def test_ua_transf_lowers_without_lane_expansion():
    # every level of UA(transf)'s nests is an array axis: neither the
    # serial kernel nor the pool's chunk functions build repeat/tile lanes
    from repro.analysis import AnalysisConfig
    from repro.benchmarks import get_benchmark
    from repro.parallelizer import parallelize

    result = parallelize(get_benchmark("UA(transf)").source, AnalysisConfig.new_algorithm())
    serial = compile_program(result.program, result.decisions, fusions=result.fusions)
    par = compile_program(result.program, result.decisions, parallel=True, fusions=result.fusions)
    assert par.chunks
    for text in [serial.source, par.source, *par.chunks.values()]:
        assert "_np.repeat" not in text and "_np.tile" not in text
        assert "slice(" in text


def test_inspect_segment_weights_matches_executed_trips():
    from repro.runtime.inspector import inspect_segment_weights

    env = _csr_env(50, seed=11, empty_rows=True)
    w = inspect_segment_weights(env["rp"])
    assert w.sum() == env["rp"][-1]
    assert (w >= 0).all() and (w == 0).any()
    # descending glitches clamp to zero-trip, like the executed loops
    rp = np.array([0, 4, 2, 7])
    assert inspect_segment_weights(rp).tolist() == [4, 0, 5]
    assert inspect_segment_weights(rp, lo=1, hi=2).tolist() == [0]
    assert len(inspect_segment_weights(np.array([0]))) == 0
