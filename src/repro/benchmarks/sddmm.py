"""SDDMM (Nisa et al.) — paper Example 2 (Figures 10 and 11).

Sampled Dense-Dense Matrix Multiplication over the nonzeros of a sparse
matrix stored in CSC form.  The column pointer ``col_ptr`` is rebuilt from
a coordinate stream (Figure 11) — an intermittent monotonic fill — and the
outer column loop is parallel only once ``col_ptr``'s monotonicity is
known (non-strict suffices, §3.2).  Figure 16's scheduling study uses this
benchmark: nonzeros per column are skewed for three of the four inputs.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.benchmarks.base import Benchmark
from repro.runtime.simulate import KernelComponent, PerfModel
from repro.workloads.suitesparse import SUITESPARSE_PROFILES, suitesparse_profile

#: dense factor rank used by Nisa et al.'s SDDMM kernels
K_RANK = 80

SOURCE = """
holder = 1; col_ptr[0] = 0; r = col_val[0];
for (i = 0; i < nonzeros; i++){
    if (col_val[i] != r){
        col_ptr[holder++] = i;
        r = col_val[i];
    }
}
col_ptr[n_cols] = nonzeros;
for (r = 0; r < n_cols; ++r){
    for (ind = col_ptr[r]; ind < col_ptr[r+1]; ++ind){
        sm = 0;
        for (t = 0; t < k; ++t){
            sm += W[r*k + t] * H[row_ind[ind]*k + t];
        }
        p[ind] = sm * nnz_val[ind];
    }
}
"""

DATASETS = ["gsm_106857", "dielFilterV2clx", "af_shell1", "inline_1"]


def perf_model(dataset: str) -> PerfModel:
    prof = SUITESPARSE_PROFILES[dataset]
    nnz_col = suitesparse_profile(dataset, axis="col").astype(np.float64)
    # each nonzero does a rank-K dot product: 2K flops (+ the sample scale)
    work = nnz_col * (2.0 * K_RANK + 4.0)
    kernel = KernelComponent(
        name="sddmm",
        nest_path=(1,),
        work=work,
        reps=1,
        level_trips=(len(work), int(max(1, nnz_col.mean()))),
        contention=0.059,  # paper peaks near 8.5x vs serial
    )
    return PerfModel(
        components=[kernel],
        serial_time_target=prof.serial_time,
        serial_extra_ops=float(prof.nnz) * 2.0,  # the serial col_ptr rebuild
    )


def small_env() -> Dict[str, Any]:
    rng = np.random.default_rng(7)
    n_cols, extra = 40, 180
    # every column non-empty (as in the real inputs), CSC-sorted stream
    cols = np.sort(
        np.concatenate([np.arange(n_cols), rng.integers(0, n_cols, size=extra)])
    )
    nnz = len(cols)
    k = 8
    return {
        "nonzeros": nnz,
        "n_cols": n_cols,
        "k": k,
        "col_val": cols.astype(np.int64),
        "col_ptr": np.zeros(n_cols + 2, dtype=np.int64),
        "row_ind": rng.integers(0, 50, size=nnz).astype(np.int64),
        "nnz_val": rng.standard_normal(nnz),
        "W": rng.standard_normal(n_cols * k),
        "H": rng.standard_normal(50 * k),
        "p": np.zeros(nnz),
        "r": 0,
        "holder": 0,
    }


def exec_env() -> Dict[str, Any]:
    """Scaled-up input: 4000 columns, ~40k nonzeros, rank 32."""
    rng = np.random.default_rng(7)
    n_cols, extra = 4000, 36000
    n_rows = 5000
    cols = np.sort(
        np.concatenate([np.arange(n_cols), rng.integers(0, n_cols, size=extra)])
    )
    nnz = len(cols)
    k = 32
    return {
        "nonzeros": nnz,
        "n_cols": n_cols,
        "k": k,
        "col_val": cols.astype(np.int64),
        "col_ptr": np.zeros(n_cols + 2, dtype=np.int64),
        "row_ind": rng.integers(0, n_rows, size=nnz).astype(np.int64),
        "nnz_val": rng.standard_normal(nnz),
        "W": rng.standard_normal(n_cols * k),
        "H": rng.standard_normal(n_rows * k),
        "p": np.zeros(nnz),
        "r": 0,
        "holder": 0,
    }


def reference(env: Dict[str, Any]) -> np.ndarray:
    """NumPy ground truth for the SDDMM products.

    Mirrors the kernel exactly, including its quirk of only emitting
    column starts for non-empty columns (holder may stop short of n_cols).
    """
    nnz = env["nonzeros"]
    k = env["k"]
    cols = env["col_val"]
    W = env["W"].reshape(-1, k)
    H = env["H"].reshape(-1, k)
    p = np.zeros(nnz)
    # rebuild col_ptr the same way the source loop does
    col_ptr = [0]
    r = cols[0]
    for i in range(nnz):
        if cols[i] != r:
            col_ptr.append(i)
            r = cols[i]
    col_ptr.append(nnz)
    # the kernel indexes W by the segment number r (valid because every
    # column of the input is non-empty, so segment r IS column r)
    for r_seg in range(min(env["n_cols"], len(col_ptr) - 1)):
        for ind in range(col_ptr[r_seg], col_ptr[r_seg + 1]):
            p[ind] = (W[r_seg] @ H[env["row_ind"][ind]]) * env["nnz_val"][ind]
    return p


BENCHMARK = Benchmark(
    name="SDDMM",
    suite="Nisa et al.",
    source=SOURCE,
    datasets=DATASETS,
    default_dataset="dielFilterV2clx",
    perf_model=perf_model,
    small_env=small_env,
    exec_env=exec_env,
    expected_levels={
        "Cetus": "inner",
        "Cetus+BaseAlgo": "inner",
        "Cetus+NewAlgo": "outer",
    },
    main_component="sddmm",
    # the col_ptr fill lowers masked (change detection + counter store),
    # the sampled dot-product nest segmented
    expected_tiers={"masked": 1, "segmented": 1},
    notes=(
        "Fill loop = paper Figure 11; kernel = Figure 10. col_ptr is proven "
        "intermittently monotonic; the run-time check -1+n_cols <= "
        "holder_max guards the outer parallel loop. Our analysis derives "
        "MA over [0:holder_max] (the paper states SMA; MA suffices for the "
        "disjoint half-open write windows)."
    ),
)
