"""Sparse-matrix containers and synthetic generators.

:class:`CSRMatrix` is a minimal CSR container used by the benchmark
reference implementations and by the interpreter environments.  The
generators produce *structures* (sparsity patterns) with controlled
row-balance characteristics:

* :func:`uniform_csr` — near-constant nnz per row (af_shell1-like);
* :func:`skewed_csr` — lognormal nnz per row (gsm/dielFilter/inline-like);
* :func:`banded_csr` — stencil-band structure (PDE meshes).

All generators are deterministic given a seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Tuple

import numpy as np


@dataclasses.dataclass
class CSRMatrix:
    """Compressed Sparse Row matrix."""

    n_rows: int
    n_cols: int
    indptr: np.ndarray  # int64, len n_rows+1
    indices: np.ndarray  # int64, len nnz
    data: np.ndarray  # float64, len nnz

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    def row_nnz(self) -> np.ndarray:
        """Nonzeros per row (the SpMV work profile)."""
        return np.diff(self.indptr)

    def spmv(self, x: np.ndarray) -> np.ndarray:
        """Reference sparse matrix-vector product."""
        y = np.zeros(self.n_rows)
        for i in range(self.n_rows):
            s, e = self.indptr[i], self.indptr[i + 1]
            y[i] = self.data[s:e] @ x[self.indices[s:e]]
        return y

    def to_csc_colptr(self) -> Tuple[np.ndarray, np.ndarray]:
        """Column pointer + row indices of the CSC form (for SDDMM)."""
        order = np.argsort(self.indices, kind="stable")
        cols = self.indices[order]
        rows = np.repeat(np.arange(self.n_rows), self.row_nnz())[order]
        colptr = np.zeros(self.n_cols + 1, dtype=np.int64)
        np.add.at(colptr[1:], cols, 1)
        np.cumsum(colptr, out=colptr)
        return colptr, rows

    def validate(self) -> None:
        """Structural invariants (used by property tests)."""
        assert len(self.indptr) == self.n_rows + 1
        assert self.indptr[0] == 0
        assert np.all(np.diff(self.indptr) >= 0), "indptr must be monotonic"
        assert len(self.indices) == self.nnz
        assert len(self.data) == self.nnz
        if self.nnz:
            assert self.indices.min() >= 0 and self.indices.max() < self.n_cols


def stable_seed(name: str) -> int:
    """A generator seed derived from ``name`` alone.

    ``hash(str)`` is randomized per process (``PYTHONHASHSEED``), so it
    cannot seed inputs that must be the same in every run.
    """
    return int.from_bytes(hashlib.sha256(name.encode("utf-8")).digest()[:4], "big") % (2**31)


def _fill_from_row_counts(
    n_rows: int, n_cols: int, counts: np.ndarray, rng: np.random.Generator
) -> CSRMatrix:
    counts = np.clip(counts.astype(np.int64), 0, n_cols)
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    nnz = int(indptr[-1])
    indices = np.empty(nnz, dtype=np.int64)
    for i in range(n_rows):
        c = counts[i]
        if c == 0:
            continue
        if c >= n_cols:
            cols = np.arange(n_cols)
        else:
            cols = rng.choice(n_cols, size=c, replace=False)
        cols.sort()
        indices[indptr[i] : indptr[i + 1]] = cols
    data = rng.standard_normal(nnz)
    return CSRMatrix(n_rows, n_cols, indptr, indices, data)


def uniform_csr(
    n_rows: int, n_cols: int, nnz_per_row: int, seed: int = 0, jitter: int = 2
) -> CSRMatrix:
    """Near-balanced rows: nnz_per_row ± jitter."""
    rng = np.random.default_rng(seed)
    counts = nnz_per_row + rng.integers(-jitter, jitter + 1, size=n_rows)
    counts = np.clip(counts, 1, n_cols)
    return _fill_from_row_counts(n_rows, n_cols, counts, rng)


def skewed_csr(
    n_rows: int,
    n_cols: int,
    mean_nnz: float,
    sigma: float = 1.0,
    seed: int = 0,
) -> CSRMatrix:
    """Lognormally skewed rows (a few very heavy rows, many light ones)."""
    rng = np.random.default_rng(seed)
    mu = np.log(mean_nnz) - sigma * sigma / 2.0
    counts = np.maximum(1, rng.lognormal(mu, sigma, size=n_rows).astype(np.int64))
    counts = np.clip(counts, 1, n_cols)
    return _fill_from_row_counts(n_rows, n_cols, counts, rng)


def banded_csr(n: int, half_bandwidth: int, seed: int = 0) -> CSRMatrix:
    """Banded structure: row i touches columns [i-b : i+b]."""
    rng = np.random.default_rng(seed)
    counts = np.empty(n, dtype=np.int64)
    for i in range(n):
        lo = max(0, i - half_bandwidth)
        hi = min(n - 1, i + half_bandwidth)
        counts[i] = hi - lo + 1
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    indices = np.empty(int(indptr[-1]), dtype=np.int64)
    for i in range(n):
        lo = max(0, i - half_bandwidth)
        hi = min(n - 1, i + half_bandwidth)
        indices[indptr[i] : indptr[i + 1]] = np.arange(lo, hi + 1)
    data = rng.standard_normal(len(indices))
    return CSRMatrix(n, n, indptr, indices, data)


def row_counts_only(
    kind: str, n: int, mean_nnz: float, sigma: float = 1.0, seed: int = 0
) -> np.ndarray:
    """Just the per-row (or per-column) nnz profile, for large datasets
    where materializing the structure is unnecessary."""
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        jit = max(1, int(mean_nnz * 0.05))
        return np.maximum(1, mean_nnz + rng.integers(-jit, jit + 1, size=n)).astype(np.int64)
    if kind == "skewed":
        mu = np.log(mean_nnz) - sigma * sigma / 2.0
        counts = rng.lognormal(mu, sigma, size=n)
        # real matrices cluster their heavy rows/columns spatially (mesh
        # regions, supernodes); a smooth random envelope reproduces the
        # static-schedule imbalance the paper's Figure 16 exploits
        n_seg = max(4, n // 5000)
        envelope_pts = rng.lognormal(0.0, sigma * 0.62, size=n_seg)
        envelope = np.interp(
            np.linspace(0, n_seg - 1, n), np.arange(n_seg), envelope_pts
        )
        counts = counts * envelope / envelope.mean()
        return np.maximum(1, counts.astype(np.int64))
    if kind == "constant":
        return np.full(n, int(mean_nnz), dtype=np.int64)
    raise ValueError(f"unknown profile kind {kind!r}")
