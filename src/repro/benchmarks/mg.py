"""NPB MG — multigrid smoother/residual sweeps (classically parallel,
bandwidth-bound)."""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.benchmarks.base import Benchmark
from repro.runtime.simulate import KernelComponent, PerfModel
from repro.workloads.npb import MG_CLASSES

SOURCE = """
for (it = 0; it < niter; it++){
    for (i = 1; i < n-1; i++)
        for (j = 1; j < n-1; j++)
            for (kx = 1; kx < n-1; kx++)
                r[i][j][kx] = v[i][j][kx]
                    - 8*u[i][j][kx]
                    + u[i-1][j][kx] + u[i+1][j][kx]
                    + u[i][j-1][kx] + u[i][j+1][kx]
                    + u[i][j][kx-1] + u[i][j][kx+1];
    for (i = 1; i < n-1; i++)
        for (j = 1; j < n-1; j++)
            for (kx = 1; kx < n-1; kx++)
                u[i][j][kx] = u[i][j][kx] + 2*r[i][j][kx];
}
"""


def perf_model(dataset: str) -> PerfModel:
    ds = MG_CLASSES[dataset]
    n = ds.grid
    per_it = float(n - 2) ** 3 * 14.0
    work = np.full(ds.niter, per_it)
    sweeps = KernelComponent(
        name="vcycle",
        nest_path=(0,),
        work=work,
        reps=1,
        level_trips=(ds.niter, n - 2),
        contention=0.165,
    )
    return PerfModel(components=[sweeps], serial_time_target=ds.serial_time)


def small_env() -> Dict[str, Any]:
    rng = np.random.default_rng(12)
    n = 8
    return {
        "n": n,
        "niter": 2,
        "u": rng.standard_normal((n, n, n)),
        "v": rng.standard_normal((n, n, n)),
        "r": np.zeros((n, n, n)),
    }


def reference(env: Dict[str, Any]) -> np.ndarray:
    u = env["u"].copy()
    v = env["v"]
    for _ in range(env["niter"]):
        r = np.zeros_like(u)
        c = u[1:-1, 1:-1, 1:-1]
        r[1:-1, 1:-1, 1:-1] = (
            v[1:-1, 1:-1, 1:-1]
            - 8 * c
            + u[:-2, 1:-1, 1:-1]
            + u[2:, 1:-1, 1:-1]
            + u[1:-1, :-2, 1:-1]
            + u[1:-1, 2:, 1:-1]
            + u[1:-1, 1:-1, :-2]
            + u[1:-1, 1:-1, 2:]
        )
        u = u + 2 * r
    return u


BENCHMARK = Benchmark(
    name="MG",
    suite="NPB3.3/SPECOMP2012",
    source=SOURCE,
    datasets=list(MG_CLASSES),
    default_dataset="B",
    perf_model=perf_model,
    small_env=small_env,
    expected_levels={
        "Cetus": "inner",
        "Cetus+BaseAlgo": "inner",
        "Cetus+NewAlgo": "inner",
    },
    main_component="vcycle",
    # residual and correction sweeps flatten: every level is a slice axis
    expected_tiers={"flattened": 2},
    notes="Residual/correction sweeps classically parallel; bandwidth-bound.",
)
