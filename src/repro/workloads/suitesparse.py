"""Synthetic stand-ins for the SuiteSparse matrices the paper uses.

Real SuiteSparse downloads are unavailable offline; each profile below
reproduces the *published* dimensions and nonzero counts (suitesparse.com)
and a balance character consistent with the matrix's provenance:

========================  ==========  ==========  =======================
matrix                    rows/cols   nnz         character
========================  ==========  ==========  =======================
gsm_106857 (EM problem)     589,446    21,758,924  mildly skewed
dielFilterV2clx (EM)        607,232    25,309,272  skewed (mixed elements)
af_shell1 (sheet metal)     504,855    17,562,051  very uniform (shell)
inline_1 (structural)       503,712    36,816,170  skewed (beam joints)
spal_004 (LP)                10,203    46,168,124  heavily irregular, wide
crankseg_1 (structural)      52,804    10,614,210  moderately skewed
========================  ==========  ==========  =======================

Only the nnz-per-row/column profile matters downstream: it drives load
balance in the performance model (paper Figures 15/16), while the
compiler's property proofs are input-independent.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

import numpy as np

from repro.workloads.sparse import row_counts_only, stable_seed


@dataclasses.dataclass(frozen=True)
class SSProfile:
    """Published shape + synthetic balance parameters for one matrix."""

    name: str
    n_rows: int
    n_cols: int
    nnz: int
    kind: str  # 'uniform' | 'skewed'
    sigma: float = 0.0  # lognormal sigma for skewed profiles
    serial_time: float = 0.0  # Table 1 seconds for the benchmark using it


SUITESPARSE_PROFILES: Dict[str, SSProfile] = {
    "gsm_106857": SSProfile("gsm_106857", 589446, 589446, 21758924, "skewed", 0.9, 1.394),
    "dielFilterV2clx": SSProfile("dielFilterV2clx", 607232, 607232, 25309272, "skewed", 1.1, 1.17),
    "af_shell1": SSProfile("af_shell1", 504855, 504855, 17562051, "uniform", 0.0, 0.755),
    "inline_1": SSProfile("inline_1", 503712, 503712, 36816170, "skewed", 1.0, 1.60),
    "spal_004": SSProfile("spal_004", 10203, 321696, 46168124, "skewed", 1.3, 12.35),
    "crankseg_1": SSProfile("crankseg_1", 52804, 52804, 10614210, "skewed", 0.8, 27.59),
}


def suitesparse_profile(name: str, axis: str = "col") -> np.ndarray:
    """nnz-per-column (or per-row) profile of a named matrix.

    The counts are scaled so their sum matches the published nnz exactly
    (up to rounding drift of < 0.5%).
    """
    p = SUITESPARSE_PROFILES[name]
    n = p.n_cols if axis == "col" else p.n_rows
    mean = p.nnz / n
    counts = row_counts_only(p.kind, n, mean, p.sigma, seed=stable_seed(name))
    # rescale to hit the published nnz
    scale = p.nnz / counts.sum()
    counts = np.maximum(1, np.round(counts * scale).astype(np.int64))
    return counts
