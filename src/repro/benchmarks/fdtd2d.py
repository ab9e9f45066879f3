"""PolyBench fdtd-2d — 2-D finite-difference time domain.

Time loop serial; the three field-update sweeps are classically parallel
at their outer spatial loop.  More memory-bound than heat-3d.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.benchmarks.base import Benchmark
from repro.runtime.simulate import KernelComponent, PerfModel
from repro.workloads.polybench import POLYBENCH_EXTRALARGE

SOURCE = """
for (t = 0; t < tmax; t++) {
    for (j = 0; j < ny; j++)
        ey[0][j] = fict[t];
    for (i = 1; i < nx; i++)
        for (j = 0; j < ny; j++)
            ey[i][j] = ey[i][j] - 5*(hz[i][j] - hz[i-1][j]);
    for (i = 0; i < nx; i++)
        for (j = 1; j < ny; j++)
            ex[i][j] = ex[i][j] - 5*(hz[i][j] - hz[i][j-1]);
    for (i = 0; i < nx-1; i++)
        for (j = 0; j < ny-1; j++)
            hz[i][j] = hz[i][j] - 7*(ex[i][j+1] - ex[i][j] + ey[i+1][j] - ey[i][j]);
}
"""


def perf_model(dataset: str) -> PerfModel:
    spec = POLYBENCH_EXTRALARGE["fdtd-2d"]
    nx, ny, tmax = spec.params["NX"], spec.params["NY"], spec.params["TMAX"]
    per_t = float(nx) * ny * 12.0
    work = np.full(tmax, per_t)
    sweeps = KernelComponent(
        name="sweeps",
        nest_path=(0,),
        work=work,
        reps=1,
        level_trips=(tmax, nx),
        contention=0.097,
    )
    return PerfModel(components=[sweeps], serial_time_target=spec.serial_time)


def small_env() -> Dict[str, Any]:
    rng = np.random.default_rng(4)
    nx, ny, tmax = 8, 9, 3
    return {
        "nx": nx,
        "ny": ny,
        "tmax": tmax,
        "fict": rng.standard_normal(tmax),
        "ex": rng.standard_normal((nx, ny)),
        "ey": rng.standard_normal((nx, ny)),
        "hz": rng.standard_normal((nx, ny)),
    }


def reference(env: Dict[str, Any]) -> Dict[str, np.ndarray]:
    ex = env["ex"].copy()
    ey = env["ey"].copy()
    hz = env["hz"].copy()
    nx, ny = env["nx"], env["ny"]
    for t in range(env["tmax"]):
        ey[0, :] = env["fict"][t]
        ey[1:nx, :] -= 5 * (hz[1:nx, :] - hz[: nx - 1, :])
        ex[:, 1:ny] -= 5 * (hz[:, 1:ny] - hz[:, : ny - 1])
        hz[: nx - 1, : ny - 1] -= 7 * (
            ex[: nx - 1, 1:ny] - ex[: nx - 1, : ny - 1] + ey[1:nx, : ny - 1] - ey[: nx - 1, : ny - 1]
        )
    return {"ex": ex, "ey": ey, "hz": hz}


BENCHMARK = Benchmark(
    name="fdtd-2d",
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
    # the three 2-D field sweeps flatten; the boundary row stays 1-D
    expected_tiers={"flattened": 3, "vectorized": 1},
    notes="Field sweeps classically parallel inside the serial time loop.",
)
