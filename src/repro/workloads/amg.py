"""AMGmk (CORAL) input matrices.

AMGmk's built-in problems are 27-point Laplacian operators on 3-D grids;
MATRIX1..MATRIX5 scale the grid.  The paper's Table 1 serial times
(1.44 / 3.112 / 8.04 / 14.5 / 28.66 s) grow roughly linearly in the number
of rows, so the grid edge lengths below are chosen to match those ratios.
Rows are well balanced (interior rows have exactly 27 nonzeros), which is
why AMGmk's parallel efficiency is bandwidth-limited rather than
balance-limited (paper Figure 15a).
"""

from __future__ import annotations

import dataclasses
from typing import Dict

import numpy as np

from repro.workloads.sparse import CSRMatrix, banded_csr, stable_seed


@dataclasses.dataclass(frozen=True)
class AMGDataset:
    """One MATRIXk problem."""

    name: str
    grid: int  # edge length of the cubic grid
    serial_time: float  # Table 1 seconds
    relax_sweeps: int = 60  # relaxation/SpMV sweeps AMGmk performs


#: Table 1's five AMGmk inputs.  Grid edges scale so rows ~ time ratio.
AMG_DATASETS: Dict[str, AMGDataset] = {
    "MATRIX1": AMGDataset("MATRIX1", grid=40, serial_time=1.44),
    "MATRIX2": AMGDataset("MATRIX2", grid=52, serial_time=3.112),
    "MATRIX3": AMGDataset("MATRIX3", grid=71, serial_time=8.04),
    "MATRIX4": AMGDataset("MATRIX4", grid=87, serial_time=14.5),
    "MATRIX5": AMGDataset("MATRIX5", grid=109, serial_time=28.66),
}


def row_nnz_profile(ds: AMGDataset) -> np.ndarray:
    """Nonzeros per row of the 27-point operator on ds.grid^3 points.

    Interior rows have 27 entries; faces/edges/corners fewer.  Computed
    exactly from the stencil geometry without materializing the matrix.
    """
    g = ds.grid
    counts_1d = np.full(g, 3, dtype=np.int64)
    counts_1d[0] = 2
    counts_1d[-1] = 2
    # tensor product: nnz(i,j,k) = cx(i)*cy(j)*cz(k)
    c = counts_1d
    return np.multiply.outer(np.multiply.outer(c, c), c).reshape(-1)


def amg_matrix(ds: AMGDataset, small: bool = False) -> CSRMatrix:
    """A materialized matrix for interpreter-level validation.

    ``small=True`` shrinks the grid so tree-walking interpretation stays
    fast; the structure (banded, balanced) is preserved.
    """
    g = 8 if small else ds.grid
    n = g * g * g
    return banded_csr(n, half_bandwidth=13, seed=stable_seed(ds.name))


def laplacian27_csr(g: int, seed: int = 0) -> CSRMatrix:
    """Exact 27-point operator on a g^3 grid (materialized).

    Row (i,j,k) couples to every neighbor with |di|,|dj|,|dk| <= 1 that
    stays inside the grid — the structure AMGmk's built-in problem uses.
    Validates :func:`row_nnz_profile` and feeds interpreter-level tests.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    n = g * g * g
    indptr = np.zeros(n + 1, dtype=np.int64)
    cols: list = []
    for i in range(g):
        for j in range(g):
            for k in range(g):
                row_cols = []
                for di in (-1, 0, 1):
                    ii = i + di
                    if not 0 <= ii < g:
                        continue
                    for dj in (-1, 0, 1):
                        jj = j + dj
                        if not 0 <= jj < g:
                            continue
                        for dk in (-1, 0, 1):
                            kk = k + dk
                            if 0 <= kk < g:
                                row_cols.append((ii * g + jj) * g + kk)
                row_cols.sort()
                r = (i * g + j) * g + k
                indptr[r + 1] = indptr[r] + len(row_cols)
                cols.extend(row_cols)
    indices = np.asarray(cols, dtype=np.int64)
    data = rng.standard_normal(len(indices))
    return CSRMatrix(n, n, indptr, indices, data)
