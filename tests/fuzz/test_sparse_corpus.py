"""Differential gate for sparse nests.

Every program of :func:`tests.fuzz.gen.sparse_corpus` runs through the
reference interpreter and through ``execute`` on the backend named by
``REPRO_BACKEND`` (``compiled`` when unset or ``interp``), with the
analysis decisions and fusions.  The data are integers, so the final
states must match exactly: same dtype, same values.  The corpus must also
take both sides of every run-time premise the segmented and flattened
tiers check: abutting windows or not, whole-row gathers or not, and
change-detection guards.
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

from tests.fuzz.gen import sparse_corpus


def _backend() -> str:
    b = os.environ.get("REPRO_BACKEND", "")
    return b if b and b != "interp" else "compiled"


def test_sparse_corpus_matches_the_interpreter_exactly():
    backend = _backend()
    config = AnalysisConfig.new_algorithm()
    for fp in sparse_corpus():
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


def test_sparse_corpus_takes_both_sides_of_every_premise():
    seen = Counter()
    calls = []

    def spy(helper):
        orig = ns[helper]

        def wrapper(*args):
            out = orig(*args)
            calls.append((helper, args, out))
            return out

        return wrapper

    config = AnalysisConfig.new_algorithm()
    for fp in sparse_corpus():
        result = parallelize(fp.source, config)
        cp = compile_program(result.program, result.decisions, fusions=result.fusions)
        seen.update(cp.loop_tiers.values())
        ns = cp.fn.__globals__
        saved = {h: ns[h] for h in ("_segwin", "_rowg", "_chg")}
        try:
            ns.update({h: spy(h) for h in saved})
            cp.run(fp.fresh_env())
        finally:
            ns.update(saved)
    for helper, args, out in calls:
        if helper == "_segwin":
            seen["window slice" if isinstance(out, slice) else "window lanes"] += 1
        elif helper == "_rowg":
            arr, e, k, j = args
            whole = j.shape[0] == k and arr.shape[0] % k == 0
            seen["row gather" if whole else "flat gather"] += 1
        else:
            seen["change detection"] += 1
    for path in (
        "window slice",
        "window lanes",
        "row gather",
        "flat gather",
        "change detection",
        "segmented",
        "masked",
        "flattened",
    ):
        assert seen[path] >= 3, dict(seen)
    assert seen["scalar"] == 0, dict(seen)


def test_sparse_corpus_is_deterministic():
    a, b = sparse_corpus(5), sparse_corpus(5)
    assert [p.source for p in a] == [p.source for p in b]
    for p, q in zip(a, b):
        assert all(np.array_equal(p.env[k], q.env[k]) for k in p.env)
