"""OpenMP code generation and run-time check evaluation.

The driver attaches ``omp parallel for`` pragmas to loop nodes; this module
provides the outward-facing pieces:

* :func:`emit_openmp` — render the final annotated C translation unit,
  optionally forcing a ``schedule(...)`` clause (the paper's Figure 16
  study compares ``schedule(dynamic)`` against the default static);
* :func:`evaluate_runtime_check` — evaluate one of the extended test's
  ``if``-clause conditions (e.g. ``-1+num_rownnz <= irownnz_max``) against
  a concrete execution environment, which lets tests confirm that the
  guarded parallel execution actually triggers on the real inputs.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.dependence.extended import RuntimeCheck
from repro.lang.cparser import parse_expr
from repro.parallelizer.driver import ParallelizationResult
from repro.runtime.interp import Interpreter


def emit_openmp(
    result: ParallelizationResult,
    schedule: Optional[str] = None,
    chunk: Optional[int] = None,
) -> str:
    """Render the annotated program, optionally adding a schedule clause.

    ``schedule`` is ``"static"``/``"dynamic"``/``"guided"``; ``chunk`` the
    optional chunk size.  Clauses are appended to every parallel loop's
    pragma (Cetus' default is static, so ``schedule=None`` leaves pragmas
    untouched).
    """
    if schedule is None:
        return result.to_c()
    clause = f"schedule({schedule}" + (f", {chunk})" if chunk else ")")
    # render on a pragma copy so the result object stays pristine
    saved = {}
    try:
        for nest in result.analysis.nests:
            for sub in nest.walk():
                loop = sub.loop
                if loop.pragmas:
                    saved[id(loop)] = list(loop.pragmas)
                    loop.pragmas = [
                        p + (f" {clause}" if p.startswith("omp parallel for") else "")
                        for p in loop.pragmas
                    ]
        return result.to_c()
    finally:
        for nest in result.analysis.nests:
            for sub in nest.walk():
                loop = sub.loop
                if id(loop) in saved:
                    loop.pragmas = saved[id(loop)]


def lower_to_python(
    result: ParallelizationResult,
    *,
    parallel: bool = False,
    vectorize: bool = True,
):
    """Lower an analyzed program to an executable Python kernel.

    The sibling of :func:`emit_openmp`: instead of rendering annotated C
    for an external OpenMP compiler, this hands the annotated program and
    its per-loop decisions to :func:`repro.runtime.compile.compile_program`
    and returns the :class:`~repro.runtime.compile.CompiledProgram` —
    ``.source`` holds the generated Python, ``.run(env)`` executes it, and
    with ``parallel=True`` certified-parallel top-level loops dispatch to
    the shared-memory worker pool.
    """
    from repro.runtime.compile import compile_program

    return compile_program(
        result.program,
        result.decisions,
        vectorize=vectorize,
        parallel=parallel,
    )


def evaluate_runtime_check(check: RuntimeCheck, env: Dict[str, Any]) -> bool:
    """Evaluate a run-time check against a concrete environment.

    The environment must bind every symbol in the check, including the
    ``<counter>_max`` symbols (the last subscript each intermittent fill
    stored at, see :func:`counter_max_bindings`).
    """
    expr = parse_expr(check.text)
    interp = Interpreter(dict(env))
    return bool(interp.eval(expr))


def counter_max_bindings(result: ParallelizationResult, env: Dict[str, Any]) -> Dict[str, int]:
    """Concrete values for the ``<counter>_max`` symbols after execution.

    Runs the program on ``env`` (copy) and reads back each intermittent
    property's counter.  The fill stores at the counter and then bumps it,
    so the last subscript it stored at, the bound of the proven region
    ``[Λ : <counter>_max]``, is the post-loop value minus one.  The
    returned map can be merged into the environment handed to
    :func:`evaluate_runtime_check`.
    """
    import numpy as np

    from repro.runtime.interp import run_program

    run_env = {k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in env.items()}
    out = run_program(result.program, run_env)
    bindings: Dict[str, int] = {}
    for prop in result.analysis.properties.all_properties():
        if prop.counter_max is not None and prop.counter_var in out:
            bindings[prop.counter_max.name] = int(out[prop.counter_var]) - 1
    return bindings
