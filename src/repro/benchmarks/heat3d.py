"""PolyBench heat-3d — regular stencil, classically parallelizable.

The time loop is serial (A and B alternate roles); each spatial sweep is
parallel at the ``i`` level by the classical test.  Compute-bound enough
to scale to ~10x on 16 cores.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.benchmarks.base import Benchmark
from repro.runtime.simulate import KernelComponent, PerfModel
from repro.workloads.polybench import POLYBENCH_EXTRALARGE

SOURCE = """
for (t = 1; t <= tsteps; t++) {
    for (i = 1; i < n-1; i++) {
        for (j = 1; j < n-1; j++) {
            for (kx = 1; kx < n-1; kx++) {
                B[i][j][kx] = A[i][j][kx]
                    + 125*(A[i+1][j][kx] - 2*A[i][j][kx] + A[i-1][j][kx])
                    + 125*(A[i][j+1][kx] - 2*A[i][j][kx] + A[i][j-1][kx])
                    + 125*(A[i][j][kx+1] - 2*A[i][j][kx] + A[i][j][kx-1]);
            }
        }
    }
    for (i = 1; i < n-1; i++) {
        for (j = 1; j < n-1; j++) {
            for (kx = 1; kx < n-1; kx++) {
                A[i][j][kx] = B[i][j][kx]
                    + 125*(B[i+1][j][kx] - 2*B[i][j][kx] + B[i-1][j][kx])
                    + 125*(B[i][j+1][kx] - 2*B[i][j][kx] + B[i][j-1][kx])
                    + 125*(B[i][j][kx+1] - 2*B[i][j][kx] + B[i][j][kx-1]);
            }
        }
    }
}
"""


def perf_model(dataset: str) -> PerfModel:
    spec = POLYBENCH_EXTRALARGE["heat-3d"]
    n = spec.params["N"]
    tsteps = spec.params["TSTEPS"]
    inner = (n - 2) ** 2 * 15.0  # ops per i-slab per sweep (x2 sweeps)
    work = np.full(tsteps, (n - 2) * inner * 2.0)
    sweep = KernelComponent(
        name="sweeps",
        nest_path=(0,),
        work=work,
        reps=1,
        level_trips=(tsteps, n - 2),
        contention=0.030,
    )
    return PerfModel(components=[sweep], serial_time_target=spec.serial_time)


def small_env() -> Dict[str, Any]:
    rng = np.random.default_rng(2)
    n = 8
    return {
        "n": n,
        "tsteps": 2,
        "A": rng.standard_normal((n, n, n)),
        "B": np.zeros((n, n, n)),
    }


def reference(env: Dict[str, Any]) -> np.ndarray:
    A = env["A"].copy()
    B = env["B"].copy()
    c = 125.0

    def sweep(src, dst):
        s = src[1:-1, 1:-1, 1:-1]
        dst[1:-1, 1:-1, 1:-1] = (
            s
            + c * (src[2:, 1:-1, 1:-1] - 2 * s + src[:-2, 1:-1, 1:-1])
            + c * (src[1:-1, 2:, 1:-1] - 2 * s + src[1:-1, :-2, 1:-1])
            + c * (src[1:-1, 1:-1, 2:] - 2 * s + src[1:-1, 1:-1, :-2])
        )

    for _ in range(env["tsteps"]):
        sweep(A, B)
        sweep(B, A)
    return A


BENCHMARK = Benchmark(
    name="heat-3d",
    suite="PolyBench-4.2",
    source=SOURCE,
    datasets=["EXTRALARGE"],
    default_dataset="EXTRALARGE",
    perf_model=perf_model,
    small_env=small_env,
    expected_levels={
        "Cetus": "inner",
        "Cetus+BaseAlgo": "inner",
        "Cetus+NewAlgo": "inner",
    },
    main_component="sweeps",
    # both spatial sweeps flatten: every level is a slice axis
    expected_tiers={"flattened": 2},
    notes="Time loop serial; spatial sweeps classically parallel (all pipelines equal).",
)
