"""Differential gate for dense rectangular nests.

Every program of :func:`tests.fuzz.gen.dense_corpus` runs through the
reference interpreter and through ``execute`` on the backend named by
``REPRO_BACKEND`` (``compiled`` when unset or ``interp``), with the
analysis decisions and fusions, so the compiled-parallel and auto legs
also drive the pool's chunk functions.  The data are integers, so the
final states must match exactly: same dtype, same values.
"""

from __future__ import annotations

import os
from collections import Counter

import numpy as np

from repro.analysis import AnalysisConfig
from repro.lang.cparser import parse_program
from repro.parallelizer import parallelize
from repro.runtime.compile import compile_program, execute
from repro.runtime.interp import run_program

from tests.fuzz.gen import dense_corpus


def _backend() -> str:
    b = os.environ.get("REPRO_BACKEND", "")
    return b if b and b != "interp" else "compiled"


def test_dense_corpus_matches_the_interpreter_exactly():
    backend = _backend()
    config = AnalysisConfig.new_algorithm()
    for fp in dense_corpus():
        ref = run_program(parse_program(fp.source), fp.fresh_env())
        result = parallelize(fp.source, config)
        out = execute(
            result.program,
            fp.fresh_env(),
            decisions=result.decisions,
            backend=backend,
            fusions=result.fusions,
        )
        for name, want in ref.items():
            got = out.get(name)
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype and np.array_equal(got, want), (
                    f"seed {fp.seed} ({backend}): array {name} differs\n{fp.source}"
                )
            else:
                assert got == want, (
                    f"seed {fp.seed} ({backend}): {name} = {got}, interp {want}\n{fp.source}"
                )


def test_dense_corpus_lowers_as_array_axes():
    # the vectorizable programs must exercise the flattened tier, not bail
    # to scalar loops
    tiers = Counter()
    for fp in dense_corpus(recurrences=0):
        cp = compile_program(parse_program(fp.source))
        tiers.update(cp.loop_tiers.values())
    assert tiers["flattened"] > 2 * tiers["scalar"], dict(tiers)


def test_dense_corpus_recurrences_reach_certified_loops():
    # a parallel verdict certifies only the outer level: the recurrence
    # programs must put carried dependences under certified loops, where
    # the lowering has to refuse the nest rather than flatten it
    config = AnalysisConfig.new_algorithm()
    reached = 0
    for fp in dense_corpus(count=0):
        result = parallelize(fp.source, config)
        cp = compile_program(result.program, result.decisions, fusions=result.fusions)
        reached += any(
            d.parallel and cp.loop_bails.get(k, "").startswith("aliasing")
            for k, d in result.decisions.items()
        )
    assert reached >= 10, reached


def test_dense_corpus_is_deterministic():
    a, b = dense_corpus(5), dense_corpus(5)
    assert [p.source for p in a] == [p.source for p in b]
    for p, q in zip(a, b):
        assert all(np.array_equal(p.env[k], q.env[k]) for k in p.env)
