"""Output checks.  None of this runs inside a timed call.

Each check returns a list of problems (empty when the output is right);
the caller counts an operation as failed when its list is not empty.
"""

from __future__ import annotations

import importlib
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

#: env keys each kernel writes, as its NumPy ``reference()`` returns them
OUTPUT_KEYS: Dict[str, Tuple[str, ...]] = {
    "AMGmk": ("y_data",),
    "CHOLMOD-Supernodal": ("diagL",),
    "SDDMM": ("p",),
    "UA(transf)": ("tx",),
    "CG": ("w",),
    "heat-3d": ("A",),
    "fdtd-2d": ("ex", "ey", "hz"),
    "gramschmidt": ("A", "Q", "R"),
    "syrk": ("C",),
    "MG": ("u",),
    "IS": ("keyden",),
}

_MODULES = (
    "amgmk", "cg", "cholmod", "fdtd2d", "gramschmidt", "heat3d",
    "icholesky", "is_bench", "mg", "sddmm", "syrk", "ua_transf",
)


def verdicts(decisions: Dict[str, Any]) -> List[Tuple[bool, bool]]:
    """(parallel, certified) per loop, in the decision table's order.

    The driver fills the table in program order, so this compares loops
    by position: ``L<n>`` ids come from a process-wide counter and differ
    between processes.
    """
    out = []
    for d in decisions.values():
        if isinstance(d, dict):
            out.append((bool(d["parallel"]), bool(d["certified"])))
        else:
            out.append((bool(d.parallel), bool(d.certificate_verified)))
    return out


def uncertified(decisions: Dict[str, Any]) -> List[str]:
    return [f"loop {i} is parallel without an accepted certificate"
            for i, (par, cert) in enumerate(verdicts(decisions)) if par and not cert]


# ---------------------------------------------------------------------------
# compile-cold
# ---------------------------------------------------------------------------


def level_problems(bench, pipeline: str, result) -> List[str]:
    """The main component's parallelization level against Figure 17."""
    from repro.runtime.simulate import plan_from_decisions

    plan = plan_from_decisions(bench.perf_model(bench.default_dataset), result)
    main = plan.per_component.get(bench.main_component)
    level = main.level if main else "serial"
    want = bench.expected_levels[pipeline]
    return [] if level == want else [f"{bench.name}/{pipeline}: main level {level}, expected {want}"]


def _checks_hold(prog, loop, env, checks) -> bool:
    """Do a decision's runtime ``if`` clauses hold at the loop's entry?

    A parallel loop with an ``if(...)`` clause only promises race freedom
    when the clause holds (OpenMP runs it serially otherwise).  Same rule
    as ``tests/fuzz/test_fuzz_gate.py``.
    """
    from repro.lang.cparser import parse_expr
    from repro.runtime.interp import Interpreter

    if not checks:
        return True
    interp = Interpreter(env)
    for s in prog.stmts:
        if s is loop:
            break
        interp.exec_stmt(s)
    state = dict(interp.env)
    for name, val in list(state.items()):
        if isinstance(val, (int, np.integer)):
            state.setdefault(f"{name}_max", val)
    checker = Interpreter(state)
    return all(bool(checker.eval(parse_expr(c.text))) for c in checks)


def race_problems(result, fuzz_program) -> List[str]:
    """Parallel top-level loops of a fuzz program must be race-free on the
    generator's environment (``runtime.racecheck``)."""
    from repro.lang.astnodes import For
    from repro.runtime.parexec import IndexNotFound
    from repro.runtime.racecheck import check_loop_races

    problems = []
    for stmt in result.program.stmts:
        d = result.decisions.get(stmt.loop_id or "") if isinstance(stmt, For) else None
        if d is None or not d.parallel:
            continue
        if not _checks_hold(result.program, stmt, fuzz_program.fresh_env(), d.checks):
            continue
        try:
            rep = check_loop_races(result.program, stmt, fuzz_program.fresh_env())
        except IndexNotFound:
            continue  # non-canonical header: the fuzz gate skips these too
        if not rep.clean:
            problems.append(f"loop {stmt.loop_id} is parallel but races: {rep.conflicts[0]}")
    return problems


# ---------------------------------------------------------------------------
# exec-auto / exec-pool
# ---------------------------------------------------------------------------


def reference_outputs(bench, env: Dict[str, Any]) -> Dict[str, np.ndarray]:
    """The kernel's expected outputs, computed outside the compiled path.

    The hand-written NumPy ``reference()`` where the kernel has one; the
    tree-walking interpreter for Incomplete-Cholesky, which has none.
    """
    from repro.lang.cparser import parse_program
    from repro.runtime.interp import run_program

    fresh = {k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in env.items()}
    keys = OUTPUT_KEYS.get(bench.name)
    if keys is None:
        out = run_program(parse_program(bench.source), fresh)
        return {k: v for k, v in out.items() if isinstance(v, np.ndarray)}
    mod = next(
        m for m in (importlib.import_module(f"repro.benchmarks.{n}") for n in _MODULES)
        if m.BENCHMARK.name == bench.name
    )
    ref = mod.reference(fresh)
    return dict(ref) if isinstance(ref, dict) else {keys[0]: ref}


def output_arrays(bench_name: str, out: Dict[str, Any]) -> Dict[str, np.ndarray]:
    keys = OUTPUT_KEYS.get(bench_name)
    if keys is None:
        return {k: v for k, v in out.items() if isinstance(v, np.ndarray)}
    return {k: out.get(k) for k in keys}


def array_problems(got: Dict[str, Any], want: Dict[str, np.ndarray]) -> List[str]:
    """Integers must match exactly; floats within the compiled tier's
    documented tolerance (``DIFF_RTOL``/``DIFF_ATOL``), because the
    vectorized and chunked tiers reassociate float sums."""
    from repro.runtime.compile import DIFF_ATOL, DIFF_RTOL

    problems = []
    for key, ref in want.items():
        arr = got.get(key)
        if not isinstance(arr, np.ndarray) or arr.shape != np.shape(ref):
            problems.append(f"{key}: missing or wrong shape")
        elif np.issubdtype(np.asarray(ref).dtype, np.integer) and np.issubdtype(arr.dtype, np.integer):
            if not np.array_equal(arr, ref):
                problems.append(f"{key}: integer output differs")
        elif not np.allclose(arr, ref, rtol=DIFF_RTOL, atol=DIFF_ATOL, equal_nan=True):
            bad = np.argwhere(~np.isclose(arr, ref, rtol=DIFF_RTOL, atol=DIFF_ATOL, equal_nan=True))[0]
            problems.append(f"{key}{tuple(bad)}: {arr[tuple(bad)]!r} != {ref[tuple(bad)]!r}")
    return problems


# ---------------------------------------------------------------------------
# serve-mixed
# ---------------------------------------------------------------------------


def reply_fragment(reply: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    results = reply.get("results") if isinstance(reply, dict) else None
    if reply.get("status") != "ok" or not results or "annotated_c" not in results[0]:
        return None
    return results[0]


def reply_problems(
    req: Dict[str, Any],
    reply: Dict[str, Any],
    expected: Dict[str, Tuple[str, List[Tuple[bool, bool]]]],
    recompiled: Dict[str, Tuple[str, List[Tuple[bool, bool]]]],
) -> List[str]:
    """One reply against the in-process oracles.

    ``expected`` maps kernel name -> (annotated C, verdicts) of the
    unedited kernel; ``recompiled`` maps source text -> the same pair from
    an in-process cold compile, for the sampled sources.
    """
    frag = reply_fragment(reply)
    if frag is None:
        return [f"status {reply.get('status')!r}: {reply.get('error', 'no annotated C')}"]
    problems = uncertified(frag["decisions"])
    got = (frag["annotated_c"], verdicts(frag["decisions"]))
    kind, kernel = req["kind"], req.get("kernel")
    if kind in ("warm", "format") and got[0] != expected[kernel][0]:
        problems.append(f"{kind} {kernel}: annotated C differs from the unedited kernel's")
    if kind in ("warm", "renamed") and got[1] != expected[kernel][1]:
        problems.append(f"{kind} {kernel}: verdicts differ from the original's")
    want = recompiled.get(req["source"])
    if want is not None and got != want:
        problems.append(f"{kind} {kernel}: reply differs from an in-process cold compile")
    return problems
