"""Dataset-table tests (AMG matrices, SuiteSparse profiles, NPB classes)."""

import numpy as np
import pytest

from repro.workloads.amg import AMG_DATASETS, row_nnz_profile
from repro.workloads.npb import CG_CLASSES, IS_CLASSES, MG_CLASSES, UA_CLASSES
from repro.workloads.polybench import POLYBENCH_EXTRALARGE
from repro.workloads.suitesparse import SUITESPARSE_PROFILES, suitesparse_profile


class TestAMG:
    def test_five_matrices(self):
        assert list(AMG_DATASETS) == [f"MATRIX{k}" for k in range(1, 6)]

    def test_serial_times_match_table1(self):
        times = [AMG_DATASETS[k].serial_time for k in AMG_DATASETS]
        assert times == [1.44, 3.112, 8.04, 14.5, 28.66]

    def test_row_profile_27_point(self):
        prof = row_nnz_profile(AMG_DATASETS["MATRIX1"])
        g = AMG_DATASETS["MATRIX1"].grid
        assert len(prof) == g**3
        assert prof.max() == 27  # interior
        assert prof.min() == 8  # corners

    def test_rows_scale_with_time(self):
        rows = [AMG_DATASETS[k].grid ** 3 for k in AMG_DATASETS]
        assert all(a < b for a, b in zip(rows, rows[1:]))


class TestSuiteSparse:
    @pytest.mark.parametrize("name", list(SUITESPARSE_PROFILES))
    def test_profile_hits_published_nnz(self, name):
        prof = SUITESPARSE_PROFILES[name]
        counts = suitesparse_profile(name, axis="col")
        assert len(counts) == prof.n_cols
        assert abs(counts.sum() - prof.nnz) / prof.nnz < 0.01

    def test_af_shell_is_balanced(self):
        c = suitesparse_profile("af_shell1").astype(float)
        assert c.std() / c.mean() < 0.2

    def test_gsm_is_skewed(self):
        c = suitesparse_profile("gsm_106857").astype(float)
        assert c.std() / c.mean() > 0.5

    def test_published_dimensions(self):
        assert SUITESPARSE_PROFILES["spal_004"].n_rows == 10203
        assert SUITESPARSE_PROFILES["af_shell1"].n_rows == 504855


class TestNPB:
    def test_ua_class_sizes_grow(self):
        sizes = [UA_CLASSES[c].lelt for c in "ABCD"]
        assert all(a < b for a, b in zip(sizes, sizes[1:]))

    def test_ua_serial_times_match_table1(self):
        assert UA_CLASSES["A"].serial_time == 1.44
        assert UA_CLASSES["D"].serial_time == 874.22

    def test_cg_class_b(self):
        assert CG_CLASSES["B"].na == 75000
        assert CG_CLASSES["B"].serial_time == 40.51

    def test_mg_is_table1(self):
        assert MG_CLASSES["B"].serial_time == 4.8
        assert IS_CLASSES["C"].serial_time == 7.662


class TestPolybench:
    def test_all_four_present(self):
        assert set(POLYBENCH_EXTRALARGE) == {"heat-3d", "fdtd-2d", "gramschmidt", "syrk"}

    def test_serial_times_match_table1(self):
        assert POLYBENCH_EXTRALARGE["heat-3d"].serial_time == 27.85
        assert POLYBENCH_EXTRALARGE["fdtd-2d"].serial_time == 22.83
        assert POLYBENCH_EXTRALARGE["gramschmidt"].serial_time == 17.14
        assert POLYBENCH_EXTRALARGE["syrk"].serial_time == 7.53


class TestLaplacian27:
    def test_profile_matches_materialized_operator(self):
        """row_nnz_profile's tensor formula equals the exact operator."""
        from repro.workloads.amg import laplacian27_csr
        import dataclasses

        g = 6
        ds = dataclasses.replace(AMG_DATASETS["MATRIX1"], grid=g)
        mat = laplacian27_csr(g)
        mat.validate()
        np.testing.assert_array_equal(mat.row_nnz(), row_nnz_profile(ds))

    def test_symmetric_structure(self):
        from repro.workloads.amg import laplacian27_csr

        mat = laplacian27_csr(4)
        scipy = pytest.importorskip("scipy.sparse")
        sp = scipy.csr_matrix(
            (np.ones_like(mat.data), mat.indices, mat.indptr), shape=(64, 64)
        )
        assert (sp != sp.T).nnz == 0


_DIGEST_SCRIPT = """
import hashlib
from repro.benchmarks.registry import get_benchmark
from repro.workloads.suitesparse import SUITESPARSE_PROFILES, suitesparse_profile

h = hashlib.sha256(get_benchmark("AMGmk").paper_env()["A_data"].tobytes())
for name in sorted(SUITESPARSE_PROFILES):
    for axis in ("col", "row"):
        h.update(suitesparse_profile(name, axis=axis).tobytes())
print(h.hexdigest())
"""


def test_generated_inputs_do_not_depend_on_the_hash_seed():
    # str hashes are randomized per process; the generated matrices and
    # profiles must not be, or the reproduced figures change run to run
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    digests = set()
    for hashseed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        out = subprocess.run(
            [sys.executable, "-c", _DIGEST_SCRIPT], env=env, check=True,
            capture_output=True, text=True, timeout=120,
        )
        digests.add(out.stdout.strip())
    assert len(digests) == 1, digests
