"""Compiled execution backend: lowers mini-C Programs to Python closures.

The tree-walking :class:`~repro.runtime.interp.Interpreter` is the
semantic reference ("clarity over speed"); this module is the speed side
of that contract.  :func:`compile_program` lowers a ``Program`` to
generated Python source, ``exec``'s it once, and returns a
:class:`CompiledProgram` whose ``run(env)`` has the exact observable
semantics of :func:`~repro.runtime.interp.run_program`:

* the returned dict is a fresh copy of ``env`` with final scalar values;
  arrays are mutated in place;
* C integer division/modulo (truncation toward zero) via the ``_div`` /
  ``_mod`` helpers, short-circuit ``&&``/``||`` producing 1/0,
  comparisons producing 1/0, the same math-function table;
* runtime faults (undefined variable, bad subscript) surface as
  :class:`~repro.runtime.interp.InterpError`.

Three lowering tiers, applied per loop with automatic per-tier fallback:

1. **canonical range loops** — a normalized ``for (i = lb; i < ub;
   i = i + 1)`` whose bounds are loop-invariant becomes a Python
   ``range`` loop with the past-the-end index fixup C leaves behind;
2. **vectorization** — an ``Assign``-only canonical loop body becomes
   NumPy slice/gather operations (elementwise stores, ``np.add.at``
   scatters for self-accumulations, ``np.sum``/``np.prod`` reductions)
   when a conservative syntactic safety analysis proves the statements
   order-independent across iterations;
3. **generic loops** — everything else becomes an explicit
   ``while True`` with the condition re-evaluated each iteration.

A node the lowerer cannot handle (e.g. a surviving ``IncDec``) makes the
*whole program* fall back to the interpreter: ``CompiledProgram.run``
stays available, ``backend`` reads ``"interp"`` and ``fallback_reason``
says why.

:func:`execute` is the dispatch front door used by the gates and the
experiment harness: ``backend="interp"|"compiled"|"compiled-parallel"``
(default from ``REPRO_BACKEND``), with ``REPRO_EXEC_DIFF=1`` running
*both* backends and raising :class:`BackendMismatch` on divergence.
Float reductions/scatters are compared to a documented tolerance
(``np.sum`` is pairwise, OpenMP-style chunked reductions reassociate);
everything else must match bit-for-bit.

The parallel tier (``parallel=True`` + a
:class:`~repro.runtime.parbackend.WorkerPool`) emits a per-loop *chunk
function* for every analysis-certified parallel top-level loop and
dispatches contiguous index chunks to the pool's shared-memory workers,
honoring the decision's ``private``/``reduction`` scalars; the serial
lowering of the same loop is kept as the in-function fallback when the
pool declines (missing arrays, tiny trip counts, failed runtime check).
"""

from __future__ import annotations

import copy
import hashlib
import os
import re
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.analysis.normalize import LoopHeader, match_header
from repro.ir import perfstats
from repro.lang.astnodes import (
    ArrayAccess,
    Assign,
    BinOp,
    Break,
    Call,
    Compound,
    Decl,
    Expression,
    ExprStmt,
    FloatNum,
    For,
    Id,
    If,
    IncDec,
    Node,
    Num,
    Pragma,
    Program,
    Statement,
    StrLit,
    Ternary,
    UnOp,
    While,
)
from repro.runtime import faultplan
from repro.runtime.interp import _MATH_FUNCS, Interpreter, InterpError, _apply_binop, run_program


class CompileError(Exception):
    """A construct the lowerer cannot translate (triggers interp fallback)."""


class BackendMismatch(Exception):
    """Differential mode found compiled and interpreted results diverging."""


class _VecBail(Exception):
    """Internal: abandon vectorization of one loop (scalar lowering wins)."""


# ---------------------------------------------------------------------------
# runtime helpers shared by every generated namespace
# ---------------------------------------------------------------------------


def _c_div(a, b):
    """C division: truncation toward zero for integers, true division else."""
    if isinstance(a, (int, np.integer)) and isinstance(b, (int, np.integer)):
        q = abs(a) // abs(b)
        return q if (a >= 0) == (b > 0) else -q
    return a / b


def _c_mod(a, b):
    """C remainder (sign follows the dividend), as the interpreter computes it."""
    q = abs(int(a)) // abs(int(b))
    q = q if (a >= 0) == (b > 0) else -q
    return a - b * q


def _is_int_arr(x) -> bool:
    if isinstance(x, np.ndarray):
        return x.dtype.kind in "iu"
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _vec_div(a, b):
    """Elementwise C division over vectors (int operands truncate toward 0)."""
    if _is_int_arr(a) and _is_int_arr(b):
        q = np.abs(a) // np.abs(b)
        return np.where((np.asarray(a) >= 0) == (np.asarray(b) > 0), q, -q)
    return np.asarray(a) / b


def _vec_mod(a, b):
    """Elementwise C remainder matching the interpreter's formula."""
    ai = np.trunc(np.asarray(a)).astype(np.int64)
    bi = np.trunc(np.asarray(b)).astype(np.int64)
    q = np.abs(ai) // np.abs(bi)
    q = np.where((np.asarray(a) >= 0) == (np.asarray(b) > 0), q, -q)
    return a - b * q


def _unknown_fn(name):
    raise InterpError(f"unknown function {name!r}")


def _traced_load(hook, name, arr, idx):
    """Array load with the race checker's access hook (trace mode only)."""
    if hook is not None:
        hook(name, idx, False)
    try:
        v = arr[idx if len(idx) > 1 else idx[0]]
    except (IndexError, ValueError) as exc:
        raise InterpError(f"load {name}{list(idx)}: {exc}") from None
    return v.item() if hasattr(v, "item") else v


def _as_idx(x):
    """Coerce a gather/scatter index vector to integers (C truncation)."""
    a = np.asarray(x)
    return a if a.dtype.kind in "iu" else a.astype(np.int64)


def _lanes(x, shape):
    """``x`` broadcast over a frame's lane grid ``shape``, as 1-D C-order lanes.

    C order over the grid is serial iteration order.  A value that does
    not already span the whole grid is materialized C-contiguous, so the
    reductions and ordered scatters that consume lanes see exactly the
    operand layout a fully expanded lane vector has.
    """
    a = np.asarray(x)
    if a.shape != shape:
        a = np.ascontiguousarray(np.broadcast_to(a, shape))
    return a.reshape(-1)


def _axsum(x, t):
    """Sum over a flat level's axis (the last one), leaving the rest broadcast.

    The operand is expanded along that axis only and made C-contiguous,
    so every row reduces exactly as ``reshape(n, T).sum(axis=1)`` of the
    fully expanded lanes does (numpy sums a strided or transposed operand
    in a different order).
    """
    a = np.asarray(x)
    if a.ndim == 0:
        a = a.reshape(1)
    return np.ascontiguousarray(np.broadcast_to(a, a.shape[:-1] + (t,))).sum(axis=-1)


def _last(x):
    """The value at a frame's last lane (C order) of a grid-broadcast value."""
    return np.asarray(x).flat[-1]


def _scat(op, arr, idx, val, shape):
    """Ordered scatter-accumulate ``arr[idx] = arr[idx] op val``.

    Index vectors and the value are laid out as the frame's C-order lanes
    first (:func:`_lanes`), so updates apply in serial iteration order.
    ``np.{add,subtract,multiply}.at`` is unbuffered and applies updates in
    index order, so the fast path is bit-identical to the serial loop.
    The slow path handles the one case ``.at`` cannot: accumulating float
    values into an integer array, where the interpreter's store truncates
    after every single update.
    """
    idx = tuple(x if isinstance(x, int) else _lanes(x, shape) for x in idx)
    vecs = [np.asarray(x) for x in idx]
    v = np.asarray(val)
    if v.ndim:
        val = v = _lanes(v, shape)
    if arr.dtype.kind in "iu" and v.dtype.kind == "f":
        n = next((x.shape[0] for x in vecs if x.ndim), 0)
        for j in range(n):
            pos = tuple(int(x[j]) if x.ndim else int(x) for x in vecs)
            e = v[j] if v.ndim else v
            cur = arr[pos]
            arr[pos] = cur + e if op == "+" else (cur - e if op == "-" else cur * e)
        return
    fn = np.add if op == "+" else (np.subtract if op == "-" else np.multiply)
    fn.at(arr, idx if len(idx) > 1 else idx[0], val)


def _segred(op, vals, offs, counts):
    """Per-segment reduction of ``vals`` laid out contiguously by segment.

    ``offs``/``counts`` describe each segment's [start, start+count) range
    in ``vals`` (exclusive prefix sum).  Empty segments contribute the
    identity; ``np.add.reduceat`` applies updates left-to-right inside a
    segment, so ``+`` results are bit-identical to the serial inner loop.
    The empty-segment quirk of ``reduceat`` (repeated index returns the
    element) is avoided by reducing only the nonempty segments, whose
    offsets are strictly increasing by construction.
    """
    vals = np.asarray(vals)
    counts = np.asarray(counts)
    n = counts.shape[0]
    fn = np.add if op == "+" else np.multiply
    ident = 0 if op == "+" else 1
    if vals.size == 0:
        return np.full(n, ident, dtype=np.int64)
    out = np.full(n, ident, dtype=vals.dtype)
    ne = counts > 0
    if ne.any():
        out[ne] = fn.reduceat(vals, np.asarray(offs)[ne])
    return out


def _segwin(st, hv, of, ct, nl):
    """A segmented level's lanes: its windows ``[st, hv)`` concatenated.

    When the windows abut and none is reversed (``st[1:] == hv[:-1]`` and
    ``hv >= st``, the monotone row pointer the analysis proves) the lanes
    are exactly ``arange(st[0], hv[-1])`` and come back as that ``slice``,
    with no lane vector built.  Otherwise (and for non-integer bounds,
    which must keep faulting) the C-order lane vector itself.
    """
    if (
        st.shape[0]
        and st.dtype.kind == "i"
        and hv.dtype.kind == "i"
        and (st[1:] == hv[:-1]).all()
        and (hv >= st).all()
    ):
        return slice(int(st[0]), int(hv[-1]))
    return np.repeat(st - of, ct) + np.arange(nl)


def _wvec(w):
    """A segmented level's lanes (:func:`_segwin`) as an index vector."""
    return np.arange(w.start, w.stop) if isinstance(w, slice) else w


def _wix(w, off, c, n):
    """Subscript ``off + c*j`` (``c > 0``) over a segmented level's lanes
    ``w``, on an array axis of length ``n``.

    A window slice stays a basic slice when every index it denotes is in
    range.  Otherwise the lanes become a vector, so a subscript a gather
    would wrap (negative) or reject (past the end, non-integer) does so
    exactly as before, where a slice would silently truncate.
    """
    if isinstance(w, slice):
        a = off + c * w.start
        if isinstance(a, (int, np.integer)) and a >= 0 and off + c * (w.stop - 1) < n:
            return slice(a, off + c * w.stop, c)
        w = np.arange(w.start, w.stop)
    return off + c * w


def _rowg(arr, e, k, j):
    """The gather ``arr[e*k + j]`` over a flat level's index ``j = arange(t)``.

    When ``t == k > 0``, ``arr`` is 1-D and holds whole rows of ``k``, and
    ``e`` and ``k`` are integers, lane ``e`` reads exactly row ``e`` of the
    ``(-1, k)`` view, so whole rows are gathered: a negative or
    out-of-range row wraps or raises as the flat gather does, and the
    result has the flat gather's shape, dtype and C-contiguous layout.
    ``e`` is constant along ``j`` (its last axis has length 1).  Anything
    else (``trunc(e)*k`` differs from ``trunc(e*k)`` for a float ``e``)
    takes the flat gather.
    """
    ea = np.asarray(e)
    if (
        isinstance(k, (int, np.integer))
        and j.shape[0] == k > 0
        and arr.ndim == 1
        and arr.shape[0] % k == 0
        and ea.dtype.kind == "i"
        and (ea.ndim == 0 or ea.shape[-1] == 1)
    ):
        return arr.reshape(-1, k)[ea[..., 0] if ea.ndim else ea]
    return arr[_as_idx(e * k + j)]


def _chg(e, r):
    """Lanes where a change-detection guard ``e != r`` holds.

    ``r`` is updated only as ``if (e != r) { ..; r = e; }``, so at the top
    of lane ``i`` it equals ``e[i-1]`` (lane 0: its entry value ``r``).
    ``==`` is an equivalence on non-NaN values and a NaN lane always
    differs, so comparing each lane with the previous one decides every
    lane as the serial loop does.
    """
    m = np.empty(e.shape[0], dtype=bool)
    if e.shape[0]:
        m[0] = e[0] != r
        np.not_equal(e[1:], e[:-1], out=m[1:])
    return m


def _mmerge(prior, sel, val, shape):
    """Masked merge: ``prior`` with ``val`` written at the ``sel`` lanes.

    ``shape`` is the parent frame's lane grid and ``sel`` indexes its
    C-order lanes.  Promotes the dtype so a float redefinition under a
    mask is not silently truncated into an integer carrier.
    """
    prior_b = np.broadcast_to(np.asarray(prior), shape)
    val_a = np.asarray(val)
    out = np.empty(shape, dtype=np.result_type(prior_b, val_a))
    out[...] = prior_b
    out.reshape(-1)[sel] = val_a
    return out


_MISSING = object()

#: NumPy equivalents usable inside vectorized expressions
_NP_FUNCS: Dict[str, Callable] = {
    "sqrt": np.sqrt,
    "fabs": np.abs,
    "abs": np.abs,
    "exp": np.exp,
    "log": np.log,
    "log2": np.log2,
    "log10": np.log10,
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
}


def _wm_record(loop_id, dt):
    """Serial per-loop wall time -> the workmeter chunk-time registry."""
    from repro.runtime import workmeter

    workmeter.record_loop(loop_id, dt)


def _pred_s(loop_key):
    """Cost-model predicted seconds for a loop, or None when unplanned.

    Looked up at dispatch time from the ``backend=auto`` prediction record
    (:func:`repro.runtime.workmeter.predicted_seconds`); the pool scales
    its per-dispatch supervision deadline by it.  Fixed backends have no
    plan and fall back to the deadline floor.
    """
    try:
        from repro.runtime import workmeter

        v = workmeter.predicted_seconds(loop_key, backend="compiled-parallel")
        if v is None:
            v = workmeter.predicted_seconds(loop_key)
        return v
    except Exception:  # pragma: no cover - advisory only
        return None


def _bind(loc, names):
    """Dispatch-site bindings: the subset of ``names`` defined in ``loc``.

    Generated kernels pass ``locals()`` straight in instead of keeping it
    in a local: the epilogue calls ``locals()`` again, which would copy
    such a local into the same frame dict, a self-reference that keeps
    every env array of a pool-dispatched call alive until the next
    cyclic GC pass.
    """
    return {n: loc["v_" + n] for n in names if "v_" + n in loc}


def _spec_ok(loop_key, reqs):
    """Speculative dispatch gate: every hypothesis must pass live inspection.

    ``reqs`` is a tuple of ``(array_value, required, name)`` triples from a
    verified conditional certificate.  Fails closed: any inspection error
    keeps the loop on the compiled-serial fallback arm.
    """
    try:
        from repro.runtime import inspector

        for arr, required, name in reqs:
            if not inspector.dispatch_check(arr, required, loop_key, array=name):
                return False
        return True
    except Exception:  # pragma: no cover - inspection must never crash the kernel
        return False


def _exec_namespace() -> Dict[str, Any]:
    """Globals for generated code (also used by pool workers)."""
    import time

    ns: Dict[str, Any] = {
        "_np": np,
        "_div": _c_div,
        "_mod": _c_mod,
        "_vdiv": _vec_div,
        "_vmod": _vec_mod,
        "_IE": InterpError,
        "_binop": _apply_binop,
        "_ld": _traced_load,
        "_as_idx": _as_idx,
        "_lanes": _lanes,
        "_axsum": _axsum,
        "_last": _last,
        "_scat": _scat,
        "_segred": _segred,
        "_segwin": _segwin,
        "_wvec": _wvec,
        "_wix": _wix,
        "_rowg": _rowg,
        "_chg": _chg,
        "_mmerge": _mmerge,
        "_time": time.perf_counter,
        "_wm": _wm_record,
        "_pred_s": _pred_s,
        "_bind": _bind,
        "_spec_ok": _spec_ok,
        "_unknown_fn": _unknown_fn,
        "_MISSING": _MISSING,
    }
    for name, fn in _MATH_FUNCS.items():
        ns[f"_f_{name}"] = fn
    for name, fn in _NP_FUNCS.items():
        ns[f"_fv_{name}"] = fn
    return ns


def _mangle(name: str) -> str:
    return "v_" + name


_INT_LIT = re.compile(r"^\(?-?\d+\)?$")


def _const_int(e: Expression) -> Optional[int]:
    """Fold an expression to an int if it is built from integer literals."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, UnOp) and e.op in ("-", "+"):
        v = _const_int(e.operand)
        if v is None:
            return None
        return -v if e.op == "-" else v
    if isinstance(e, BinOp) and e.op in ("+", "-", "*"):
        a, b = _const_int(e.lhs), _const_int(e.rhs)
        if a is None or b is None:
            return None
        return a + b if e.op == "+" else (a - b if e.op == "-" else a * b)
    return None


def _ast_eq(a: Node, b: Node) -> bool:
    """Structural equality of two expression trees."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Id):
        return a.name == b.name
    if isinstance(a, Num):
        return a.value == b.value
    if isinstance(a, FloatNum):
        return a.value == b.value
    if isinstance(a, StrLit):
        return a.value == b.value
    if isinstance(a, ArrayAccess):
        return (
            a.name == b.name
            and len(a.indices) == len(b.indices)
            and all(_ast_eq(x, y) for x, y in zip(a.indices, b.indices))
        )
    if isinstance(a, BinOp):
        return a.op == b.op and _ast_eq(a.lhs, b.lhs) and _ast_eq(a.rhs, b.rhs)
    if isinstance(a, UnOp):
        return a.op == b.op and _ast_eq(a.operand, b.operand)
    if isinstance(a, Call):
        return (
            a.name == b.name
            and len(a.args) == len(b.args)
            and all(_ast_eq(x, y) for x, y in zip(a.args, b.args))
        )
    if isinstance(a, Ternary):
        return _ast_eq(a.cond, b.cond) and _ast_eq(a.then, b.then) and _ast_eq(a.els, b.els)
    return False


def _flatten(stmt: Statement) -> List[Statement]:
    """Compound/Pragma-free statement list of a loop body."""
    if isinstance(stmt, Compound):
        out: List[Statement] = []
        for s in stmt.stmts:
            out.extend(_flatten(s))
        return out
    if isinstance(stmt, Pragma):
        return []
    return [stmt]


def _has_break_at_level(stmt: Statement) -> bool:
    """True if a ``break`` binds to *this* loop (not a nested one)."""
    if isinstance(stmt, Break):
        return True
    if isinstance(stmt, Compound):
        return any(_has_break_at_level(s) for s in stmt.stmts)
    if isinstance(stmt, If):
        if _has_break_at_level(stmt.then):
            return True
        return stmt.els is not None and _has_break_at_level(stmt.els)
    return False


def _names_in(node: Node) -> Set[str]:
    """All identifier/array names referenced inside a subtree."""
    out: Set[str] = set()
    for n in node.walk():
        if isinstance(n, Id):
            out.add(n.name)
        elif isinstance(n, (ArrayAccess,)):
            out.add(n.name)
        elif isinstance(n, Decl):
            out.add(n.name)
    return out


def _assigned_scalars(stmt: Statement) -> Set[str]:
    """Scalar names written anywhere inside a subtree."""
    out: Set[str] = set()
    for n in stmt.walk():
        if isinstance(n, Assign) and isinstance(n.lhs, Id):
            out.add(n.lhs.name)
        elif isinstance(n, Decl) and not n.dims:
            out.add(n.name)
        elif isinstance(n, IncDec) and isinstance(n.target, Id):
            out.add(n.target.name)
        elif isinstance(n, For):
            for part in (n.init, n.step):
                if isinstance(part, Assign) and isinstance(part.lhs, Id):
                    out.add(part.lhs.name)
                elif isinstance(part, Decl):
                    out.add(part.name)
    return out


def _stored_arrays(stmt: Statement) -> Set[str]:
    out: Set[str] = set()
    for n in stmt.walk():
        if isinstance(n, Assign) and isinstance(n.lhs, ArrayAccess):
            out.add(n.lhs.name)
        elif isinstance(n, IncDec) and isinstance(n.target, ArrayAccess):
            out.add(n.target.name)
        elif isinstance(n, Decl) and n.dims:
            out.add(n.name)
    return out


def _array_names(stmt: Node) -> Set[str]:
    return {n.name for n in stmt.walk() if isinstance(n, ArrayAccess)}


def _rw_overlap_arrays(stmt: Statement) -> Set[str]:
    """Arrays a loop body both reads and writes (``a[i] = a[i] + ...``).

    A partially-executed chunk of such a loop cannot safely be re-run —
    the update would double-apply — so the supervised pool snapshots these
    arrays before dispatch and restores them before any retry.  Pure-store
    targets (the exact lhs of a plain ``=``) do not count as reads; their
    subscripts, and every other array occurrence, do.
    """
    store_only = {
        id(n.lhs)
        for n in stmt.walk()
        if isinstance(n, Assign) and n.op == "=" and isinstance(n.lhs, ArrayAccess)
    }
    loaded = {
        n.name
        for n in stmt.walk()
        if isinstance(n, ArrayAccess) and id(n) not in store_only
    }
    return _stored_arrays(stmt) & loaded


def _has_float_literal(e: Expression) -> bool:
    return any(isinstance(n, FloatNum) for n in e.walk())

# ---------------------------------------------------------------------------
# vectorization planning
# ---------------------------------------------------------------------------


class _Idx:
    """Classification of one subscript expression w.r.t. the loop indices.

    ``kind``: 'scalar' (loop-invariant), 'affine' (coef*i + off with a
    compile-time integer coef != 0 in exactly one loop level ``level``)
    or 'vector' (arbitrary vectorized index expression).  ``counter``
    marks a guarded fill-counter read, which is strictly increasing
    across lanes and therefore injective on its own.
    """

    __slots__ = ("kind", "code", "coef", "off", "clean", "level", "counter")

    def __init__(
        self,
        kind: str,
        code: str = "",
        coef: int = 0,
        off: str = "",
        clean: bool = True,
        level=None,
    ):
        self.kind = kind
        self.code = code
        self.coef = coef
        self.off = off
        #: offset code references nothing defined inside the vector block
        #: (safe to evaluate early, e.g. in a bounds guard)
        self.clean = clean
        #: the _Vectorizer frame whose index this subscript is affine in
        self.level = level
        self.counter = False

    def canon(self) -> str:
        if self.kind == "affine":
            uid = self.level.uid if self.level is not None else "?"
            return f"aff:{uid}:{self.coef}:{self.off}"
        return f"{self.kind}:{self.code}"


def _const_distinct(a: _Idx, b: _Idx) -> bool:
    """Both subscripts are distinct integer literals (provably disjoint)."""
    if a.kind != "scalar" or b.kind != "scalar":
        return False
    if not (_INT_LIT.match(a.code) and _INT_LIT.match(b.code)):
        return False
    return int(a.code.strip("()")) != int(b.code.strip("()"))


class _Access:
    __slots__ = ("array", "idx", "is_store", "group", "loops")

    def __init__(
        self,
        array: str,
        idx: List[_Idx],
        is_store: bool,
        group: int,
        loops: FrozenSet["_Vectorizer"],
    ):
        self.array = array
        self.idx = idx
        self.is_store = is_store
        #: index of the top-level body statement this access came from
        self.group = group
        #: the inner-loop (flat and seg) frames the access runs under
        self.loops = loops

    def canon(self) -> Tuple[str, ...]:
        return tuple(i.canon() for i in self.idx)


# ---------------------------------------------------------------------------
# the lowerer
# ---------------------------------------------------------------------------


class _Lowerer:
    """Translates one Program into Python source lines."""

    def __init__(
        self,
        prog: Program,
        decisions: Optional[Dict[str, Any]] = None,
        *,
        vectorize: bool = True,
        trace: bool = False,
        parallel: bool = False,
        parallel_loops: Optional[Set[str]] = None,
        speculative_loops: Optional[Set[str]] = None,
    ):
        self.prog = prog
        self.decisions = decisions or {}
        self.trace = trace
        self.vectorize = vectorize and not trace
        self.parallel = parallel and not trace
        #: when set, only these loop_ids get pool dispatch (backend=auto's
        #: per-loop choice); None = every certified loop (legacy behavior)
        self.parallel_loops = parallel_loops
        #: when set, only these loop_ids get speculative inspector-executor
        #: dispatch; None = every checker-verified speculative decision
        self.speculative_loops = speculative_loops
        self.lines: List[str] = []
        self.depth = 1
        self._tmp = 0
        self._at_top = False
        #: chunk functions for pool workers: loop key -> def source
        self.chunks: Dict[str, str] = {}
        #: loop key -> retry-safety metadata for the supervised pool
        #: (``rw``: arrays the body both reads and writes)
        self.chunk_meta: Dict[str, Dict[str, Any]] = {}
        #: name -> replacement code, used when lowering runtime checks
        self._subst: Dict[str, str] = {}
        #: loop_id -> vectorization tier ('vectorized'/'masked'/'segmented'/
        #: 'flattened'/'scalar'), and the bail reason for scalar loops
        self.loop_tiers: Dict[str, str] = {}
        self.loop_bails: Dict[str, str] = {}
        self._last_bail = ""
        #: runtime diagnostics raised while lowering (refused dispatches);
        #: recorded on every compile, cached or not
        self.runtime_diags: List[Any] = []
        #: >0 while emitting a vector block's guarded scalar fallback, whose
        #: inner loops record no tier
        self._fallback = 0
        self._collect_names()

    # -- bookkeeping --------------------------------------------------------

    def _collect_names(self) -> None:
        names: List[str] = []
        seen: Set[str] = set()
        arrays: Set[str] = set()
        decls: Set[str] = set()
        for n in self.prog.walk():
            name = None
            if isinstance(n, Id):
                name = n.name
            elif isinstance(n, ArrayAccess):
                name = n.name
                arrays.add(n.name)
            elif isinstance(n, Decl):
                name = n.name
                decls.add(n.name)
                if n.dims:
                    arrays.add(n.name)
            if name is not None and name not in seen:
                seen.add(name)
                names.append(name)
        self.names = names
        self.array_names = arrays
        self.decl_names = decls

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.depth + line)

    def fresh(self, stem: str = "t") -> str:
        self._tmp += 1
        return f"_{stem}{self._tmp}"

    def _block(self, stmt: Statement) -> None:
        """Emit a statement as an indented suite (``pass`` if empty)."""
        mark = len(self.lines)
        self.depth += 1
        self.stmt(stmt)
        if len(self.lines) == mark:
            self.emit("pass")
        self.depth -= 1

    # -- statements ---------------------------------------------------------

    def lower_program(self) -> str:
        for s in self.prog.stmts:
            self._at_top = True
            self.stmt(s)
        self._at_top = False
        self.emit("_loc = locals()")
        self.emit("for _n in _NAMES:")
        self.emit("    _v = _loc.get('v_' + _n, _MISSING)")
        self.emit("    if _v is not _MISSING:")
        self.emit("        _env[_n] = _v")
        self.emit("return _env")
        prologue = ["def _kernel(_env, _hook=None, _pool=None):"]
        for name in self.names:
            prologue.append(f"    if {name!r} in _env: {_mangle(name)} = _env[{name!r}]")
        return "\n".join(prologue + self.lines) + "\n"

    def stmt(self, s: Statement) -> None:
        at_top, self._at_top = self._at_top, False
        if isinstance(s, Compound):
            for x in s.stmts:
                self._at_top = at_top
                self.stmt(x)
            self._at_top = False
        elif isinstance(s, Assign):
            self._assign(s)
        elif isinstance(s, ExprStmt):
            if isinstance(s.expr, IncDec):
                raise CompileError("IncDec survives only in unnormalized programs")
            self.emit(self.expr(s.expr))
        elif isinstance(s, Decl):
            self._decl(s)
        elif isinstance(s, If):
            self.emit(f"if {self.expr(s.cond)}:")
            self._block(s.then)
            if s.els is not None:
                self.emit("else:")
                self._block(s.els)
        elif isinstance(s, For):
            self._at_top = at_top
            self._for(s)
            self._at_top = False
        elif isinstance(s, While):
            self._while(s)
        elif isinstance(s, Break):
            self.emit("break")
        elif isinstance(s, Pragma):
            pass
        else:
            raise CompileError(f"cannot lower {type(s).__name__}")

    def _decl(self, s: Decl) -> None:
        m = _mangle(s.name)
        if s.dims:
            dims = ", ".join(f"int({self.expr(d)})" for d in s.dims if d is not None)
            dtype = "_np.float64" if s.ctype in ("double", "float") else "_np.int64"
            self.emit(f"{m} = _np.zeros(({dims},), dtype={dtype})")
        elif s.init is not None:
            self.emit(f"{m} = {self.expr(s.init)}")
        else:
            self.emit(f"{m} = 0")

    def _index_code(self, indices: Sequence[Expression]) -> str:
        return ", ".join(f"int({self.expr(i)})" for i in indices)

    def _assign(self, s: Assign) -> None:
        if isinstance(s.lhs, Id):
            m = _mangle(s.lhs.name)
            rhs = self.expr(s.rhs)
            if s.op == "=":
                self.emit(f"{m} = {rhs}")
            elif s.op in ("+=", "-=", "*="):
                self.emit(f"{m} = {m} {s.op[0]} ({rhs})")
            elif s.op == "/=":
                self.emit(f"{m} = _div({m}, {rhs})")
            elif s.op == "%=":
                self.emit(f"{m} = _mod({m}, {rhs})")
            else:
                raise CompileError(f"assignment operator {s.op!r}")
            return
        if not isinstance(s.lhs, ArrayAccess):
            raise CompileError("bad assignment target")
        m = _mangle(s.lhs.name)
        if self.trace:
            self._traced_store(s, m)
            return
        if s.op == "=":
            self.emit(f"{m}[{self._index_code(s.lhs.indices)}] = {self.expr(s.rhs)}")
            return
        # compound store: evaluate rhs then each index exactly once
        val = self.fresh()
        self.emit(f"{val} = {self.expr(s.rhs)}")
        idx = [self.fresh("i") for _ in s.lhs.indices]
        for tv, e in zip(idx, s.lhs.indices):
            self.emit(f"{tv} = int({self.expr(e)})")
        tgt = f"{m}[{', '.join(idx)}]"
        op = s.op[0]
        if op in "+-*":
            self.emit(f"{tgt} = {tgt} {op} {val}")
        elif op == "/":
            self.emit(f"{tgt} = _div({tgt}, {val})")
        elif op == "%":
            self.emit(f"{tgt} = _mod({tgt}, {val})")
        else:
            raise CompileError(f"assignment operator {s.op!r}")

    def _traced_store(self, s: Assign, m: str) -> None:
        """Array store with hook calls in the interpreter's exact order."""
        name = s.lhs.name
        val = self.fresh()
        self.emit(f"{val} = {self.expr(s.rhs)}")
        idx = [self.fresh("i") for _ in s.lhs.indices]
        for tv, e in zip(idx, s.lhs.indices):
            self.emit(f"{tv} = int({self.expr(e)})")
        tup = "(" + ", ".join(idx) + ("," if len(idx) == 1 else "") + ")"
        if s.op != "=":
            old = self.fresh("o")
            self.emit(f"{old} = _ld(_hook, {name!r}, {m}, {tup})")
            self.emit(f"{val} = _binop({s.op[:-1]!r}, {old}, {val})")
        self.emit(f"if _hook is not None: _hook({name!r}, {tup}, True)")
        self.emit(f"{m}[{', '.join(idx)}] = {val}")

    def _while(self, s: While) -> None:
        g = self.fresh("g")
        self.emit(f"{g} = 0")
        self.emit(f"while {self.expr(s.cond)}:")
        mark = len(self.lines)
        self.depth += 1
        self.stmt(s.body)
        if len(self.lines) == mark:
            self.emit("pass")
        self.emit(f"{g} += 1")
        self.emit(f"if {g} > 100000000:")
        self.emit("    raise _IE('while loop exceeded iteration guard')")
        self.depth -= 1

    # -- for loops ----------------------------------------------------------

    def _generic_for(self, s: For) -> None:
        """Faithful while-form lowering (cond re-evaluated every iteration)."""
        if s.init is not None:
            self.stmt(s.init)
        self.emit("while True:")
        self.depth += 1
        if s.cond is not None:
            self.emit(f"if not ({self.expr(s.cond)}):")
            self.emit("    break")
        mark = len(self.lines)
        self.stmt(s.body)
        if s.step is not None:
            self.stmt(s.step)
        if len(self.lines) == mark:
            self.emit("pass")
        self.depth -= 1

    def _canonical(self, s: For) -> Optional[LoopHeader]:
        """Range-safe canonical header, or None if the loop is irregular.

        Requires loop-invariant bounds (no name in lb/ub written by the
        body), an index the body never reassigns, no ``break`` at this
        level, and no float literal inside the bounds (float bounds would
        make ``range`` lowering silently wrong, so they stay on the
        generic path; a float *value* flowing in at runtime raises).
        """
        h = match_header(s)
        if h is None:
            return None
        if _has_break_at_level(s.body):
            return None
        if _has_float_literal(h.lb) or _has_float_literal(h.ub_expr):
            return None
        bound_names = _names_in(h.lb) | _names_in(h.ub_expr)
        if h.index in bound_names:
            return None
        body_writes = _assigned_scalars(s.body) | _stored_arrays(s.body)
        if bound_names & body_writes:
            return None
        if h.index in _assigned_scalars(s.body):
            return None
        return h

    def _for(self, s: For) -> None:
        at_top = self._at_top
        self._at_top = False
        if self.trace:
            self._generic_for(s)
            return
        h = self._canonical(s)
        if h is None:
            self._generic_for(s)
            return
        k = self._tmp + 1
        lo, hi = f"_lo{k}", f"_hi{k}"
        self._tmp += 1
        self.emit(f"{lo} = {self.expr(h.lb)}")
        ub = self.expr(h.ub_expr)
        self.emit(f"{hi} = ({ub}) + 1" if h.inclusive else f"{hi} = {ub}")
        timed = at_top and bool(s.loop_id) and not self.trace
        if timed:
            wt = self.fresh("wt")
            self.emit(f"{wt} = _time()")
        done = False
        if (
            self.parallel
            and at_top
            and (self.parallel_loops is None or (s.loop_id or "") in self.parallel_loops)
        ):
            d = self.decisions.get(s.loop_id or "")
            if d is not None and getattr(d, "parallel", False):
                done = self._parallel_for(s, h, d, lo, hi)
            elif (
                d is not None
                and getattr(d, "speculation_verified", False)
                and getattr(d, "speculation", None) is not None
                and (
                    self.speculative_loops is None
                    or (s.loop_id or "") in self.speculative_loops
                )
            ):
                # speculative inspector-executor pair: same pool dispatch,
                # but the if-clause additionally requires every hypothesis
                # of the conditional certificate to pass live inspection;
                # a failing scan takes the compiled-serial arm below
                done = self._parallel_for(
                    s, h, d, lo, hi,
                    spec=[
                        (sp.array, sp.required)
                        for sp in d.speculation.speculative
                    ],
                )
        if not done:
            self._serial_loop(s, h, lo, hi)
        if timed:
            self.emit(f"_wm({s.loop_id!r}, _time() - {wt})")
        self.emit(f"{_mangle(h.index)} = {lo} if {lo} > {hi} else {hi}")

    def _serial_loop(
        self, s: For, h: LoopHeader, lo: str, hi: str, cert: Optional[bool] = None
    ) -> None:
        """Vectorized body if provably safe, else a scalar range loop.

        ``cert=None`` derives the certificate from this loop's analysis
        decision: a PARALLEL verdict licenses the cert-relaxed store and
        aliasing rules, with the decision's runtime checks re-emitted as
        vectorization guards (scalar loop on failure).  ``cert=True``
        (chunk functions) asserts the checks were already validated at
        the dispatch site.
        """
        guards: Tuple[str, ...] = ()
        if cert is None:
            cert = False
            d = self.decisions.get(s.loop_id or "")
            if d is not None and getattr(d, "parallel", False):
                checks = []
                for c in getattr(d, "checks", ()) or ():
                    code = self._check_code(getattr(c, "text", str(c)))
                    if code is None:
                        checks = None
                        break
                    checks.append(code)
                if checks is not None:
                    cert = True
                    guards = tuple(checks)
        vec = self._try_vectorize(s, h, lo, hi, cert=cert, guards=guards)
        self._note_tier(s, vec)
        if vec is not None:
            return
        self.emit(f"for {_mangle(h.index)} in range({lo}, {hi}):")
        self._block(s.body)

    def _note_tier(self, s: For, vec) -> None:
        if self._fallback:
            return  # a guarded fallback's loops run only when its guards fail
        key = s.loop_id or f"anon{len(self.loop_tiers)}"
        if vec is None:
            self.loop_tiers[key] = "scalar"
            self.loop_bails[key] = self._last_bail or "unsupported pattern"
            return
        ts = vec.tiers
        for tier in ("segmented", "masked", "flattened"):
            if tier in ts:
                self.loop_tiers[key] = tier
                return
        self.loop_tiers[key] = "vectorized"

    def _try_vectorize(
        self,
        s: For,
        h: LoopHeader,
        lo: str,
        hi: str,
        cert: bool = False,
        guards: Tuple[str, ...] = (),
    ) -> Optional["_Vectorizer"]:
        if not self.vectorize:
            self._last_bail = "vectorization disabled"
            return None
        mark, depth0 = len(self.lines), self.depth
        try:
            v = _Vectorizer(self, h, lo, hi, cert=cert)
            v.guards.extend(guards)
            v.lower(s.body)
            return v
        except _VecBail as exc:
            self._last_bail = str(exc) or "unsupported pattern"
            del self.lines[mark:]
            self.depth = depth0
            return None

    # -- expressions --------------------------------------------------------

    def expr(self, e: Expression) -> str:
        if isinstance(e, Num):
            return repr(e.value)
        if isinstance(e, FloatNum):
            return repr(e.value)
        if isinstance(e, StrLit):
            return repr(e.value)
        if isinstance(e, Id):
            return self._subst.get(e.name, _mangle(e.name))
        if isinstance(e, ArrayAccess):
            m = _mangle(e.name)
            if self.trace:
                idx = ", ".join(f"int({self.expr(i)})" for i in e.indices)
                tail = "," if len(e.indices) == 1 else ""
                return f"_ld(_hook, {e.name!r}, {m}, ({idx}{tail}))"
            return f"{m}[{self._index_code(e.indices)}]"
        if isinstance(e, BinOp):
            return self._binop(e)
        if isinstance(e, UnOp):
            v = self.expr(e.operand)
            if e.op == "-":
                return f"(-({v}))"
            if e.op == "+":
                return f"(+({v}))"
            if e.op == "!":
                return f"(0 if {v} else 1)"
            return f"(~int({v}))"
        if isinstance(e, Call):
            args = ", ".join(self.expr(a) for a in e.args)
            if e.name in _MATH_FUNCS:
                return f"_f_{e.name}({args})"
            return f"_unknown_fn({e.name!r})"
        if isinstance(e, Ternary):
            return f"(({self.expr(e.then)}) if ({self.expr(e.cond)}) else ({self.expr(e.els)}))"
        if isinstance(e, IncDec):
            raise CompileError("IncDec survives only in unnormalized programs")
        raise CompileError(f"cannot lower {type(e).__name__}")

    def _binop(self, e: BinOp) -> str:
        if e.op == "&&":
            return f"(1 if ({self.expr(e.lhs)}) and ({self.expr(e.rhs)}) else 0)"
        if e.op == "||":
            return f"(1 if ({self.expr(e.lhs)}) or ({self.expr(e.rhs)}) else 0)"
        a, b = self.expr(e.lhs), self.expr(e.rhs)
        if e.op in ("+", "-", "*"):
            return f"({a} {e.op} {b})"
        if e.op == "/":
            return f"_div({a}, {b})"
        if e.op == "%":
            return f"_mod({a}, {b})"
        if e.op in ("<", "<=", ">", ">=", "==", "!="):
            return f"(1 if {a} {e.op} {b} else 0)"
        if e.op in ("&", "|", "^", "<<", ">>"):
            return f"(int({a}) {e.op} int({b}))"
        raise CompileError(f"operator {e.op!r}")

    # -- parallel dispatch --------------------------------------------------

    def _parallel_for(
        self, s: For, h: LoopHeader, d, lo: str, hi: str, spec=None
    ) -> bool:
        """Emit pool dispatch + serial fallback for a certified loop.

        Returns False (caller lowers serially) when the decision cannot be
        honored by the chunk runner: scalars outside the private/reduction
        contract, reduction operators other than +/*, arrays declared
        inside the program (workers only see shared-memory env arrays), or
        a runtime-check symbol that cannot be resolved at the loop entry.

        ``spec`` (speculative tier) lists ``(array, required)`` hypotheses
        from a verified conditional certificate; they are appended to the
        dispatch condition as a ``_spec_ok`` call over the *live* array
        values at the loop's program point, so an index array rewritten by
        an earlier loop is inspected in its current state.
        """
        privates = set(getattr(d, "private", ()) or ()) - {h.index}
        reds = list(getattr(d, "reductions", ()) or ())
        if any(op not in ("+", "*") for op, _ in reds):
            return False
        red_vars = {var for _, var in reds}
        assigned = _assigned_scalars(s.body) - {h.index}
        if not assigned <= (privates | red_vars):
            return False
        arrays = sorted(_array_names(s.body))
        if set(arrays) & self.decl_names:
            return False
        checks = []
        for c in getattr(d, "checks", ()) or ():
            code = self._check_code(getattr(c, "text", str(c)))
            if code is None:
                return False
            checks.append(code)
        key = re.sub(r"\W", "_", s.loop_id or f"loop{self._tmp}")
        if key in self.chunks:
            key = f"{key}_{self._tmp}"
        body_ids = {n.name for n in s.body.walk() if isinstance(n, Id)}
        bindings = sorted((body_ids - set(arrays) - red_vars - {h.index}) | privates)
        try:
            self.chunks[key] = self._chunk_source(s, h, key, arrays, bindings, privates, reds)
        except CompileError:
            return False
        meta: Dict[str, Any] = {
            "rw": sorted(_rw_overlap_arrays(s.body) & set(arrays))
        }
        if spec:
            meta["speculative"] = sorted({a for a, _ in spec})
        # static chunk-race verdict: a proven-overlapping loop is refused
        # parallel dispatch outright; a proven chunk-disjoint loop records
        # its proof so the pool can skip snapshotting feedback-free arrays
        try:
            from repro.verify.staticrace import OVERLAPPING, classify_loop

            verdict = classify_loop(s, decision=d)
        except Exception:
            verdict = None
        if verdict is not None:
            meta["static"] = {
                "class": verdict.classification,
                "reason": verdict.reason,
            }
            if verdict.classification == OVERLAPPING:
                from repro.diagnostics import STATIC_RACE_DETECTED, Diagnostic

                self.chunks.pop(key, None)
                self.runtime_diags.append(
                    Diagnostic(
                        STATIC_RACE_DETECTED,
                        f"parallel dispatch of {s.loop_id or key} refused: "
                        f"{verdict.reason}",
                        nest_id=s.loop_id,
                    )
                )
                return False
            meta["snapshot_free"] = [
                a for a in verdict.snapshot_free_arrays() if a in meta["rw"]
            ]
        self.chunk_meta[key] = meta
        arr_code = "(" + ", ".join(f"{a!r}" for a in arrays) + ("," if arrays else "") + ")"
        bnames = "(" + ", ".join(f"{b!r}" for b in bindings) + ("," if bindings else "") + ")"
        pr = self.fresh("pr")
        bd = self.fresh("b")
        cond = f"_pool is not None and ({hi} - {lo}) >= 2"
        for code in checks:
            cond += f" and ({code})"
        if spec:
            args = ", ".join(
                f"({_mangle(a)}, {r!r}, {a!r})" for a, r in sorted(spec)
            )
            cond += f" and _spec_ok({key!r}, ({args},))"
        self.emit(f"{pr} = None")
        self.emit(f"if {cond}:")
        # bindings that are still undefined here (e.g. a private first
        # written inside the loop) are simply omitted from the dict
        self.emit(f"    {bd} = _bind(locals(), {bnames})")
        wv = self._emit_weights(s, h, lo, hi)
        self.emit(
            f"    {pr} = _pool.run_loop({key!r}, {lo}, {hi}, {bd}, {arr_code}, "
            f"weights={wv}, predicted_s=_pred_s({key!r}))"
        )
        self.emit(f"if {pr} is None:")
        self.depth += 1
        self._serial_loop(s, h, lo, hi)
        self.depth -= 1
        self.emit("else:")
        self.depth += 1
        if reds:
            cv = self.fresh("c")
            self.emit(f"for {cv} in {pr}:")
            for op, var in reds:
                ident = "0" if op == "+" else "1"
                self.emit(f"    {_mangle(var)} = {_mangle(var)} {op} {cv}.get({var!r}, {ident})")
        for p in sorted(privates):
            self.emit(f"if {p!r} in {pr}[-1]: {_mangle(p)} = {pr}[-1][{p!r}]")
        if not reds and not privates:
            self.emit("pass")
        self.depth -= 1
        return True

    def _emit_weights(self, s: For, h: LoopHeader, lo: str, hi: str) -> str:
        """Inspector pass: per-iteration inner trip counts for the pool.

        Reads the certified index array's prefix differences straight out
        of the loop's own inner bounds (e.g. ``A_i[m+1] - A_i[m]``) with
        the vectorizer's expression machinery.  The snippet runs guarded
        by try/except at dispatch time — weights are advisory (they only
        steer chunk boundaries), so any fault degrades to uniform chunks.
        Returns the weights variable name, or ``"None"`` for loops with
        no skew signal (uniform inner bounds, no inner loop).
        """
        code = self._weight_code(s, h, lo, hi)
        if code is None:
            return "None"
        w, lines = code
        self.emit(f"    {w} = None")
        self.emit("    try:")
        for ln in lines:
            self.emit(f"        {ln}")
        self.emit("    except Exception:")
        self.emit(f"        {w} = None")
        return w

    def _weight_code(self, s: For, h: LoopHeader, lo: str, hi: str):
        if not self.vectorize:
            return None
        try:
            v = _Vectorizer(self, h, lo, hi)
            v.assigned = _assigned_scalars(s.body)
            v.stored = _stored_arrays(s.body)
            v.body_node = s.body
            for st in _flatten(s.body):
                if isinstance(st, Assign) and isinstance(st.lhs, Id):
                    v._scalar_assign(st)  # leading temps feed the bounds
                    continue
                if not isinstance(st, For):
                    raise _VecBail("no inner loop to inspect")
                h2 = self._canonical(st)
                if h2 is None:
                    raise _VecBail("irregular inner loop")
                kl, lb = v.vexpr(h2.lb)
                ku, ub = v.vexpr(h2.ub_expr)
                if kl == "scalar" and ku == "scalar":
                    raise _VecBail("uniform inner bounds: no skew")
                if h2.inclusive:
                    ub = f"(({ub}) + 1)"
                w = self.fresh("w")
                lines = [f"{v.n} = ({hi}) - ({lo})"] + v.body_lines
                lines.append(
                    f"{w} = _np.maximum(_np.broadcast_to(_np.asarray({ub})"
                    f" - _np.asarray({lb}), (({hi}) - ({lo}),)), 0)"
                )
                return w, lines
            raise _VecBail("no inner loop to inspect")
        except _VecBail:
            return None

    def _check_code(self, text: str) -> Optional[str]:
        """Lower a runtime ``if``-clause to code evaluated at loop entry.

        ``<counter>_max`` bounds the region ``[Λ : <counter>_max]`` a
        counter fill proved monotone, so it is the last subscript the fill
        stored at.  A fill stores at the counter and then bumps it by one,
        so at the consumer loop's entry point that is the counter's value
        minus one (its post-loop value is one past the last store, an
        element the fill never wrote).  An explicit env binding still wins
        if the caller provides one.
        """
        from repro.lang.cparser import parse_expr

        try:
            expr = parse_expr(text)
        except Exception:
            return None
        subst: Dict[str, str] = {}
        for n in expr.walk():
            if isinstance(n, Id) and n.name not in self.names:
                if n.name.endswith("_max") and n.name[: -len("_max")] in self.names:
                    base = _mangle(n.name[: -len("_max")])
                    subst[n.name] = f"(_env[{n.name!r}] if {n.name!r} in _env else {base} - 1)"
                else:
                    return None
        self._subst = subst
        try:
            return self.expr(expr)
        except CompileError:
            return None
        finally:
            self._subst = {}

    def _chunk_source(
        self, s: For, h: LoopHeader, key: str, arrays, bindings, privates, reds
    ) -> str:
        """Generate the worker-side chunk function for one parallel loop.

        The chunk body goes through the same vectorizer as the serial
        lowering (``cert=True``: the decision's runtime checks were
        already validated at the dispatch site), so the pool workers run
        NumPy tiers rather than scalar Python — without this the
        parallel backend could never beat the vectorized serial one.
        """
        sub = _Lowerer(Program([s]), vectorize=self.vectorize)
        sub._tmp = 1000  # keep temp names disjoint from the parent function
        sub.depth = 1
        sub._serial_loop(s, h, "_lo", "_hi", cert=True)
        lines = [f"def _chunk_{key}(_arrs, _lo, _hi, _b):"]
        for a in arrays:
            lines.append(f"    {_mangle(a)} = _arrs[{a!r}]")
        for b in bindings:
            lines.append(f"    if {b!r} in _b: {_mangle(b)} = _b[{b!r}]")
        for op, var in reds:
            lines.append(f"    {_mangle(var)} = {'0' if op == '+' else '1'}")
        lines.extend(sub.lines or ["    pass"])
        ret = [(var, _mangle(var)) for _, var in reds]
        ret += [(p, _mangle(p)) for p in sorted(privates)]
        lines.append("    _loc = locals()")
        ret_code = "(" + ", ".join(f"({k!r}, {v!r})" for k, v in ret) + ("," if ret else "") + ")"
        lines.append(f"    return {{k: _loc[v] for k, v in {ret_code} if v in _loc}}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the vectorizer
# ---------------------------------------------------------------------------


class _Vectorizer:
    """Lowers a canonical loop body to NumPy operations over *lanes*.

    A frame tree mirrors the loop structure.  The root ("base") frame's
    lanes are the outer loop's iterations; child frames refine the lane
    space.  Every frame has a lane *grid* (``dims``): values are arrays
    that broadcast to it, aligned on its trailing axes.

    * **flat** — a uniform-trip inner loop: lanes = parent lanes x T in
      C order, i.e. the grid is the parent's grid plus a trailing
      ``(T,)`` axis.  The level's index is ``arange`` along that axis and
      a parent value enters as the view ``x[..., None]``; reductions into
      the parent sum the last axis of a C-contiguous copy (``_axsum``);
    * **seg** — a variable-trip (CSR-shaped) inner loop whose bounds are
      per-parent-lane vectors: lanes are the concatenation of every
      segment (exclusive prefix-sum offsets, ``np.repeat`` expansion,
      order-preserving ``_segred``/``np.add.reduceat`` reductions).  When
      the windows abut and none is reversed (a monotone row pointer, a
      run-time O(rows) compare in ``_segwin``) the lanes are one range,
      and a subscript affine in the level reads or writes it as a basic
      slice (``_wix``) instead of gathering through a lane vector;
    * **mask** — an ``if`` branch: lanes are the parent lanes where the
      (short-circuit-faithful) condition holds, selected by
      ``np.nonzero``; guarded counter fills ``k = k + c`` become
      ``k + c*arange(nsel)`` lanes, and a change-detection scalar
      ``if (E != r) { ..; r = E; }`` compares consecutive lanes of ``E``
      (``_chg``).

    A linearized read ``a[E*K + t]`` in the flat frame of a level ``t``
    from 0 gathers whole rows of ``a``'s ``(-1, K)`` view when, at run
    time, ``t`` spans exactly ``K`` (``_rowg``).  Windows and row gathers
    check their premise at run time and otherwise compute exactly what
    the lane-vector form computes.

    Seg and mask frames have a 1-D grid: entering one, and feeding
    ``_scat``/``_segred``/``_mmerge`` or a whole-loop reduction,
    materializes the parent's values as C-order lanes (``_lanes``).
    Lane order always equals serial iteration order, so ordered scatters
    (``_scat``) and ``reduceat`` reductions stay bit-identical to the
    scalar loop.  Safety model (raise :class:`_VecBail` on any doubt,
    the scalar range loop is always correct):

    * every subscript is classified *scalar* (loop-invariant), *affine*
      (``coef*i + off`` in exactly one loop level) or *vector*;
    * a store is *plain* (fancy-indexed assignment) only if its affine
      axes cover every non-mask frame level — each lane then owns one
      element.  With a parallelization certificate (``cert``) the base
      level is exempt: the analysis proved cross-iteration independence,
      and its runtime checks are re-emitted as guards with the scalar
      loop as the else-branch;
    * an array with a store is only touched through accesses whose
      subscript tuples are pairwise structurally identical, provably
      disjoint constant cells, or pinned to the same base lane by a
      shared affine axis across different top-level statements.  A
      certificate exempts only pairs that share no inner loop: it says
      nothing about a dependence an inner level carries;
    * other vector-subscripted stores must be self-accumulations
      ``a[S] = a[S] op E`` and the only access to that array (ordered
      ``_scat``);
    * scalar assignments become per-lane temporaries (final value =
      last lane, exported with a lane-count guard for inner frames) or
      ``+``/``-`` reductions; a scalar read before its definition is
      loop-carried and bails, except a change-detection scalar;
    * a subscript tuple whose non-scalar positions are affine in distinct
      base/flat levels (positive step, offset evaluable before the loop)
      becomes basic slices, transposed and expanded to the grid's axis
      order.  Slices are guarded at runtime against negative starts and
      overlong ends; when a guard fails the emitted ``else`` branch runs
      the scalar loop instead;
    * a *dense* flat level (symbolic bounds outside a segmented nest, or
      more than 64 trips) flattens only if every array access under it
      is a slice access and no whole-loop reduction runs across it; a
      subscript spanning two levels (``a[i*n + j]``) keeps the per-row
      slices of the nest's scalar outer loop instead of a gather.
    """

    def __init__(
        self,
        low: _Lowerer,
        h: LoopHeader,
        lo: str,
        hi: str,
        parent: Optional["_Vectorizer"] = None,
        kind: str = "base",
        cert: bool = False,
    ):
        self.low = low
        self.h = h
        self.lo = lo
        self.hi = hi
        self.parent = parent
        self.kind = kind
        self.uid = low.fresh("L")  # unique level identity for canon strings
        self.vi: Optional[str] = None
        self.win: Optional[str] = None  # seg frames: see window()
        #: scalar name -> (kind, temp var) for this-frame definitions
        self.temps: Dict[str, Tuple[str, str]] = {}
        self.temp_order: List[str] = []
        self._exp: Dict[str, str] = {}  # parent-lane code -> expanded code
        #: flat levels only: the bail reason when the level is dense (it
        #: flattens only where its subscripts become slice axes), and
        #: whether its bounds may be evaluated in the pre-loop guards
        self.strict: Optional[str] = None
        self.clean_bounds = True
        if parent is None:
            self.root = self
            self.cert = cert
            self.depth = 0
            self.n = low.fresh("n")
            self.nl = self.n  # lane-count code
            self.dims = [self.n]  # lane-grid extent codes
            self.body_lines: List[str] = []
            self.guards: List[str] = []
            #: reduction var -> (op, [('vector'|'full', code)])
            self.reds: Dict[str, Tuple[str, List[Tuple[str, str]]]] = {}
            self.red_order: List[str] = []
            self.assigned: Set[str] = set()
            self.stored: Set[str] = set()
            self.accesses: List[_Access] = []
            self.scattered: Set[str] = set()
            #: guarded fill counters: name -> {c, frame, bumped}
            self.counters: Dict[str, Dict[str, Any]] = {}
            self.counter_codes: Dict[str, str] = {}
            #: change-detection scalars: name -> (then-frame, guard lanes)
            self.changes: Dict[str, Tuple["_Vectorizer", str]] = {}
            self.tiers: Set[str] = set()
            self.group = 0
            self.body_node: Optional[Statement] = None
        else:
            self.root = parent.root
            self.depth = parent.depth + 1
            if self.depth > 8:
                raise _VecBail("loop nest too deep to flatten")

    def emit(self, line: str) -> None:
        self.root.body_lines.append(line)

    # -- lane-space plumbing ------------------------------------------------

    @property
    def grid(self) -> str:
        """Code for this frame's lane-grid shape tuple."""
        return "(" + ", ".join(self.dims) + ",)"

    def lanes(self, code: str) -> str:
        """A value of this frame as 1-D C-order lanes over its grid."""
        return f"_lanes({code}, {self.grid})"

    def index_vec(self) -> str:
        """This frame's own index values, broadcasting to its grid."""
        if self.vi is not None:
            return self.vi
        if self.kind == "base":
            self.vi = self.low.fresh("vi")
            self.emit(f"{self.vi} = _np.arange({self.lo}, {self.hi})")
        elif self.kind == "flat":
            # laid along the frame's own (last) axis
            self.vi = self.low.fresh("vi")
            self.emit(f"{self.vi} = ({self.lo}) + _np.arange({self.T})")
        elif self.kind == "seg":
            self.vi = self.low.fresh("vi")
            self.emit(f"{self.vi} = _wvec({self.window()})")
        else:  # mask: the parent's index at the selected lanes
            self.vi = self.expand(self.parent.index_vec())
        return self.vi

    def window(self) -> str:
        """A seg frame's lanes as a subscript: a slice when its windows
        abut, else the lane vector (:func:`_segwin`)."""
        if self.win is None:
            self.win = self.low.fresh("w")
            self.emit(
                f"{self.win} = _segwin({self.st}, {self.hv}, {self.of}, {self.ct}, {self.nl})"
            )
        return self.win

    def expand(self, code: str) -> str:
        """Re-express a parent-lane value in this frame's lane space."""
        if self.parent is None:
            return code
        t = self._exp.get(code)
        if t is not None:
            return t
        t = self.low.fresh("vx")
        if self.kind == "flat":
            self.emit(f"{t} = _np.asarray({code})[..., None]")
        elif self.kind == "seg":
            self.emit(f"{t} = _np.repeat({self.parent.lanes(code)}, {self.ct})")
        else:  # mask
            self.emit(f"{t} = {self.parent.lanes(code)}[{self.sel}]")
        self._exp[code] = t
        return t

    def unlanes(self, code: str) -> str:
        """1-D lanes of this frame reshaped back to its grid."""
        return code if len(self.dims) == 1 else f"({code}).reshape({self.grid})"

    def expand_from(self, frame: "_Vectorizer", code: str) -> str:
        if frame is self:
            return code
        return self.expand(self.parent.expand_from(frame, code))

    def find_level(self, name: str) -> Optional["_Vectorizer"]:
        f = self
        while f is not None:
            if f.kind != "mask" and f.h.index == name:
                return f
            f = f.parent
        return None

    def has_level(self, name: str) -> bool:
        return self.find_level(name) is not None

    def level_vec_for(self, frame: "_Vectorizer") -> str:
        """``frame``'s index vector expanded into this frame's lanes."""
        if frame is self:
            return self.index_vec()
        if self.parent is None:
            raise _VecBail("level not on this frame chain")
        return self.expand(self.parent.level_vec_for(frame))

    def frame_levels(self) -> Set["_Vectorizer"]:
        out: Set[_Vectorizer] = set()
        f = self
        while f is not None:
            if f.kind != "mask":
                out.add(f)
            f = f.parent
        return out

    def lookup_temp(self, name: str):
        f = self
        while f is not None:
            if name in f.temps:
                return f, f.temps[name]
            f = f.parent
        return None, None

    def in_seg_context(self) -> bool:
        f = self
        while f is not None:
            if f.kind == "seg":
                return True
            f = f.parent
        return False

    def grid_flats(self) -> List["_Vectorizer"]:
        """The flat levels whose axes follow this frame's first grid axis."""
        out: List[_Vectorizer] = []
        f = self
        while f.kind == "flat":
            out.append(f)
            f = f.parent
        return out

    def axis_levels(self) -> Optional[List["_Vectorizer"]]:
        """One level per grid axis, outermost first, when the grid is a
        plain base x flat x ... product (no seg/mask frame on the chain)."""
        flats = self.grid_flats()
        first = flats[-1].parent if flats else self
        if first.kind != "base":
            return None
        return [first] + flats[::-1]

    def strict_levels(self) -> List["_Vectorizer"]:
        """Dense flat levels on this frame's chain, innermost first."""
        out = []
        f = self
        while f is not None:
            if f.strict is not None:
                out.append(f)
            f = f.parent
        return out

    # -- driver -------------------------------------------------------------

    def lower(self, body: Statement) -> None:
        stmts = _flatten(body)
        if not stmts:
            raise _VecBail("empty body")
        self.assigned = _assigned_scalars(body)
        self.stored = _stored_arrays(body)
        self.body_node = body
        for g, s in enumerate(stmts):
            self.group = g
            self.vstmt(s)
        self._check_aliasing()
        self._finalize()
        low = self.low
        low.emit(f"{self.n} = {self.hi} - {self.lo}")
        cond = f"{self.n} > 0"
        for g in self.guards:
            cond += f" and ({g})"
        low.emit(f"if {cond}:")
        pad = "    " * (low.depth + 1)
        for ln in self.body_lines:
            low.lines.append(pad + ln)
        if self.guards:
            low.emit("else:")
            low.depth += 1
            low._fallback += 1
            low.emit(f"for {_mangle(self.h.index)} in range({self.lo}, {self.hi}):")
            low._block(body)
            low._fallback -= 1
            low.depth -= 1

    def vstmt(self, s: Statement) -> None:
        if isinstance(s, Assign):
            if isinstance(s.lhs, Id):
                self._scalar_assign(s)
            elif isinstance(s.lhs, ArrayAccess):
                self._store(s)
            else:
                raise _VecBail("bad assignment target")
        elif isinstance(s, For):
            self._inner_for(s)
        elif isinstance(s, If):
            self._masked(s)
        elif isinstance(s, Compound):
            for x in _flatten(s):
                self.vstmt(x)
        else:
            raise _VecBail(f"statement {type(s).__name__}")

    def _finalize(self) -> None:
        for name in self.temp_order:
            kind, t = self.temps[name]
            m = _mangle(name)
            self.emit(f"{m} = _last({t})" if kind == "vector" else f"{m} = {t}")
        for name in self.red_order:
            op, parts = self.reds[name]
            m = _mangle(name)
            for kind, code in parts:
                contrib = f"_np.sum({code})" if kind == "vector" else code
                self.emit(f"{m} = {m} {op} {contrib}")
        for name, rec in self.counters.items():
            if rec["bumped"]:
                m = _mangle(name)
                self.emit(f"{m} = {m} + {rec['c']} * {rec['frame'].nl}")

    def _check_aliasing(self) -> None:
        by_array: Dict[str, List[_Access]] = {}
        for a in self.accesses:
            by_array.setdefault(a.array, []).append(a)
        base = self
        for name, accs in by_array.items():
            if not any(a.is_store for a in accs):
                continue
            for i in range(len(accs)):
                for j in range(i + 1, len(accs)):
                    A, B = accs[i], accs[j]
                    if not (A.is_store or B.is_store):
                        continue
                    if self.cert and not (A.loops & B.loops):
                        # the analysis certified the base level's
                        # iterations independent and the per-lane
                        # statement order is preserved by construction;
                        # an inner loop both run under may still carry a
                        # dependence (a[i][j] = a[i][j-1] + .. under i)
                        continue
                    if name in self.scattered:
                        raise _VecBail("scattered array accessed more than once")
                    if A.canon() == B.canon():
                        continue
                    if len(A.idx) == len(B.idx) and all(
                        a.canon() == b.canon() or _const_distinct(a, b)
                        for a, b in zip(A.idx, B.idx)
                    ):
                        continue
                    if (
                        A.group != B.group
                        and len(A.idx) == len(B.idx)
                        and any(
                            a.kind == "affine"
                            and a.level is base
                            and a.canon() == b.canon()
                            for a, b in zip(A.idx, B.idx)
                        )
                    ):
                        # different top-level statements, but a shared
                        # affine axis pins both accesses to the same base
                        # lane: statement-major emission preserves the
                        # serial per-lane order
                        continue
                    raise _VecBail(f"aliasing on {name}")

    # -- statements ---------------------------------------------------------

    @staticmethod
    def _refs(name: str, e: Node) -> bool:
        return any(isinstance(n, Id) and n.name == name for n in e.walk())

    def _define(self, name: str, kind: str, code: str) -> None:
        t = self.low.fresh("vt")
        self.emit(f"{t} = {code}")
        self.temps[name] = (kind, t)
        if code in self.root.counter_codes:
            # straight copy of a fill counter's lane values (the shape
            # normalization gives `t = k; k = k + 1; a[t] = ..`): the
            # alias inherits the strictly-increasing injectivity tag
            self.root.counter_codes[t] = self.root.counter_codes[code]
        if name not in self.temp_order:
            self.temp_order.append(name)

    def _scalar_assign(self, s: Assign) -> None:
        name = s.lhs.name
        root = self.root
        if self.has_level(name):
            raise _VecBail("assigns a loop index")
        if name in root.counters:
            self._counter_bump(s, root.counters[name])
            return
        if name in root.changes:
            # the one update `r = E` of a change-detection scalar: its final
            # value is E at the last lane whose guard held
            f, ev = root.changes[name]
            if f is not self:
                raise _VecBail("loop-carried scalar")
            self.emit(f"if {self.nl} > 0: {_mangle(name)} = {ev}[{self.sel}[-1]]")
            return
        if name in self.temps:
            # redefinition from this-lane state: stays elementwise
            kind, code = self._combine(self.temps[name], s)
            self._define(name, kind, code)
            return
        f, tv = self.lookup_temp(name)
        if f is not None:
            self._outer_temp_assign(s, f, tv)
            return
        if s.op == "=" and not self._refs(name, s.rhs):
            if name in root.reds:
                raise _VecBail("overwrites an accumulator")
            kind, code = self.vexpr(s.rhs)
            self._define(name, kind, code)
            return
        # candidate reduction: name is read before any definition
        op, operand = self._red_pattern(s)
        if self._refs(name, operand):
            raise _VecBail("accumulator read in its own update")
        strict = self.strict_levels()
        if strict:
            # one pairwise sum over the whole dense nest would not
            # reproduce the row-by-row order of its scalar outer loop
            raise _VecBail(strict[0].strict)
        kind, code = self.vexpr(operand)
        t = self.low.fresh("vr")
        self.emit(f"{t} = {self.lanes(code)}" if kind == "vector" else f"{t} = {code}")
        entry = ("vector", t) if kind == "vector" else ("full", f"({self.nl}) * ({t})")
        if name in root.reds:
            if root.reds[name][0] != op:
                raise _VecBail("mixed reduction operators")
            root.reds[name][1].append(entry)
        else:
            root.reds[name] = (op, [entry])
            root.red_order.append(name)

    def _outer_temp_assign(self, s: Assign, f: "_Vectorizer", tv) -> None:
        """Assignment to a temporary defined in an ancestor frame."""
        name = s.lhs.name
        pk, pc = tv
        if self.kind == "mask" and f is self.parent:
            # conditional redefinition: merge back at the selected lanes
            cur = (pk, pc if pk == "scalar" else self.expand(pc))
            kind, code = self._combine(cur, s)
            val = self.low.fresh("vt")
            self.emit(f"{val} = {code}")
            merged = self.low.fresh("vt")
            self.emit(f"{merged} = _mmerge({pc}, {self.sel}, {val}, {self.parent.grid})")
            f.temps[name] = ("vector", merged)
            return
        # additive reduction into an ancestor's per-lane value: evaluate
        # the operand here, then fold the contribution up frame by frame
        # (seg -> reduceat, flat -> reshape-sum, mask -> zero-fill at the
        # unselected lanes) until it reaches the owning frame's lane space
        op, operand = self._red_pattern(s)
        if op not in ("+", "-"):
            raise _VecBail(f"{op!r}-reduction through an inner frame")
        if self._refs(name, operand):
            raise _VecBail("accumulator read in its own update")
        k, c = self.vexpr(operand)
        frame = self
        while frame is not f:
            k, c = frame._lift_contrib(k, c)
            frame = frame.parent
        t = self.low.fresh("vt")
        self.emit(f"{t} = ({pc}) {op} ({c})")
        kind = "vector" if "vector" in (pk, k) else "scalar"
        f.temps[name] = (kind, t)

    def _lift_contrib(self, k: str, c: str) -> Tuple[str, str]:
        """Rewrite an additive contribution from this frame's lane space
        into the parent frame's (sum over this frame's extra dimension)."""
        if self.kind == "flat":
            if k == "scalar":
                return k, f"(({self.T}) * ({c}))"
            return "vector", f"_axsum({c}, {self.T})"
        if self.kind == "seg":
            if k == "scalar":
                return "vector", self.parent.unlanes(f"({self.ct} * ({c}))")
            return "vector", self.parent.unlanes(
                f"_segred('+', {self.lanes(c)}, {self.of}, {self.ct})"
            )
        # mask: unselected lanes contribute the additive identity
        z = self.low.fresh("vt")
        self.emit(f"{z} = _np.zeros({self.parent.grid}, dtype=_np.result_type({c}))")
        self.emit(f"{z}.reshape(-1)[{self.sel}] = {c}")
        return "vector", z

    # -- inner loops (flat / segmented frames) ------------------------------

    def _inner_for(self, s: For) -> None:
        h2 = self.low._canonical(s)
        if h2 is None:
            raise _VecBail("irregular inner loop")
        if self.has_level(h2.index):
            raise _VecBail("inner loop reuses an outer index")
        if self.lookup_temp(h2.index)[0] is not None:
            raise _VecBail("inner index shadows a temporary")
        kl, lb = self.vexpr(h2.lb)
        ku, ub = self.vexpr(h2.ub_expr)
        if h2.inclusive:
            ub = f"(({ub}) + 1)"
        if kl == "scalar" and ku == "scalar":
            clo, chi = _const_int(h2.lb), _const_int(h2.ub_expr)
            child = _Vectorizer(self.low, h2, lb, ub, parent=self, kind="flat")
            if clo is None or chi is None:
                # symbolic uniform bounds: a dense nest, unless it sits in
                # an already-irregular (segmented) one
                if not self.in_seg_context():
                    child.strict = "uniform inner bounds outside a segmented nest"
            elif (chi + 1 if h2.inclusive else chi) - clo > 64:
                child.strict = "inner trip count too large to flatten"
            child.clean_bounds = self._clean(h2.lb) and self._clean(h2.ub_expr)
            child.setup_flat()
        else:
            child = _Vectorizer(self.low, h2, lb, ub, parent=self, kind="seg")
            child.setup_seg()
        for st in _flatten(s.body):
            child.vstmt(st)
        child.close()

    def setup_flat(self) -> None:
        fresh = self.low.fresh
        self.T = fresh("T")
        self.emit(f"{self.T} = ({self.hi}) - ({self.lo})")
        self.emit(f"if {self.T} < 0: {self.T} = 0")
        self.nl = fresh("nl")
        self.emit(f"{self.nl} = {self.parent.nl} * {self.T}")
        self.dims = self.parent.dims + [self.T]
        self.root.tiers.add("flattened")

    def setup_seg(self) -> None:
        fresh = self.low.fresh
        self.st = fresh("st")
        self.hv = fresh("hv")
        self.ct = fresh("ct")
        self.of = fresh("of")
        self.nl = fresh("nl")
        self.emit(f"{self.st} = {self.parent.lanes(self.lo)}")
        self.emit(f"{self.hv} = {self.parent.lanes(self.hi)}")
        self.emit(f"{self.ct} = _np.maximum({self.hv} - {self.st}, 0)")
        self.emit(f"{self.of} = _np.cumsum({self.ct}) - {self.ct}")
        self.emit(f"{self.nl} = int({self.ct}.sum())")
        self.dims = [self.nl]
        self.root.tiers.add("segmented")

    def close(self) -> None:
        """Export the final scalar values the serial loop leaves behind."""
        pn = self.parent.nl
        for name in self.temp_order:
            kind, t = self.temps[name]
            m = _mangle(name)
            val = f"_last({t})" if kind == "vector" else t
            self.emit(f"if {self.nl} > 0: {m} = {val}")
        m = _mangle(self.h.index)
        if self.kind == "flat":
            self.emit(
                f"if {pn} > 0: {m} = ({self.lo}) if ({self.lo}) > ({self.hi})"
                f" else ({self.hi})"
            )
        elif self.kind == "seg":
            self.emit(
                f"if {pn} > 0: {m} = {self.st}[-1] if {self.st}[-1] > {self.hv}[-1]"
                f" else {self.hv}[-1]"
            )

    # -- guarded statements (mask frames) -----------------------------------

    def _masked(self, s: If) -> None:
        mv = self.low.fresh("mk")
        chg = self._change_scalar(s)
        if chg is None:
            self.emit(f"{mv} = {self._mask_vec(s.cond)}")
        else:
            kind, code = self.vexpr(chg[1])
            if kind == "scalar":
                raise _VecBail("loop-carried scalar")
            ev = self.low.fresh("ce")
            self.emit(f"{ev} = {self.lanes(code)}")
            self.emit(f"{mv} = _chg({ev}, {_mangle(chg[0])})")
        then_f = self._make_mask_child(mv)
        if chg is not None:
            self.root.changes[chg[0]] = (then_f, ev)
        self.root.tiers.add("masked")
        self._scan_counters(then_f, s.then)
        for st in _flatten(s.then):
            then_f.vstmt(st)
        then_f.close()
        if s.els is not None:
            els_f = self._make_mask_child(f"~_np.asarray({mv})")
            for st in _flatten(s.els):
                els_f.vstmt(st)
            els_f.close()

    def _change_scalar(self, s: If) -> Optional[Tuple[str, Expression]]:
        """``(r, E)`` when ``s`` is ``if (E != r) { ..; r = E; }`` (or
        ``r != E``) for a change-detection scalar ``r``: assigned only by
        that ``r = E``, at the top of the then-branch, and read nowhere
        else in the loop, with ``E`` reading no array the loop stores and
        no scalar it assigns.  The guard then compares consecutive lanes
        of ``E`` (:func:`_chg`), the paper's Figure 11 fill."""
        c = s.cond
        if not (isinstance(c, BinOp) and c.op == "!="):
            return None
        root = self.root
        for rx, ex in ((c.rhs, c.lhs), (c.lhs, c.rhs)):
            if not isinstance(rx, Id):
                continue
            name = rx.name
            if (
                name not in root.assigned
                or name in root.counters
                or name in root.reds
                or name in root.changes
                or self.has_level(name)
                or self.lookup_temp(name)[0] is not None
                or _names_in(ex) & (root.assigned | root.stored)
            ):
                continue
            upd = [
                st
                for st in _flatten(s.then)
                if isinstance(st, Assign) and isinstance(st.lhs, Id) and st.lhs.name == name
            ]
            if len(upd) != 1 or upd[0].op != "=" or not _ast_eq(upd[0].rhs, ex):
                continue
            # the guard's read and the update's target are its only mentions
            # (a write in an earlier branch would be a temporary of a sibling
            # frame, invisible from here)
            mentions = sum(
                1
                for n in root.body_node.walk()
                if isinstance(n, (Id, ArrayAccess, Decl)) and n.name == name
            )
            if mentions == 2:
                return name, ex
        return None

    def _make_mask_child(self, mask_code: str) -> "_Vectorizer":
        f = _Vectorizer(self.low, self.h, self.lo, self.hi, parent=self, kind="mask")
        f.sel = self.low.fresh("sl")
        f.nl = self.low.fresh("nl")
        f.dims = [f.nl]
        self.emit(f"{f.sel} = _np.nonzero({mask_code})[0]")
        self.emit(f"{f.nl} = {f.sel}.shape[0]")
        return f

    def _mask_vec(self, e: Expression) -> str:
        """Boolean vector over this frame's lanes for an ``if`` condition.

        ``&&``/``||`` evaluate their right operand only on the lanes the
        left operand leaves undecided (a nested mask frame), so per-lane
        faults match the interpreter's short-circuit evaluation exactly.
        """
        if isinstance(e, BinOp) and e.op in ("&&", "||"):
            a = self._mask_vec(e.lhs)
            av = self.low.fresh("mk")
            self.emit(f"{av} = _np.asarray({a})")
            sub = self._make_mask_child(av if e.op == "&&" else f"~{av}")
            b = sub._mask_vec(e.rhs)
            t = self.low.fresh("mk")
            if e.op == "&&":
                self.emit(f"{t} = _np.zeros({self.nl}, dtype=bool)")
            else:
                self.emit(f"{t} = _np.array({av}, dtype=bool)")
            self.emit(f"{t}[{sub.sel}] = _np.asarray({b})")
            return t
        if isinstance(e, BinOp) and e.op in ("<", "<=", ">", ">=", "==", "!="):
            _, a = self.vexpr(e.lhs)
            _, b = self.vexpr(e.rhs)
            t = self.low.fresh("mk")
            self.emit(f"{t} = {self.lanes(f'({a}) {e.op} ({b})')}")
            return t
        if isinstance(e, UnOp) and e.op == "!":
            return f"(~_np.asarray({self._mask_vec(e.operand)}))"
        _, c = self.vexpr(e)
        t = self.low.fresh("mk")
        self.emit(f"{t} = {self.lanes(f'_np.asarray({c}) != 0')}")
        return t

    def _scan_counters(self, frame: "_Vectorizer", then_body: Statement) -> None:
        """Register guarded fill counters ``if (..) {{ a[k] = ..; k = k + c }}``.

        Eligible: ``k`` incremented by a positive constant exactly once in
        the guarded branch and written nowhere else in the loop body.  Its
        per-lane pre-increment values ``k + c*arange(nsel)`` are strictly
        increasing, so a store subscripted by ``k`` is injective.
        """
        root = self.root
        for st in _flatten(then_body):
            if not (isinstance(st, Assign) and isinstance(st.lhs, Id)):
                continue
            nm = st.lhs.name
            if (
                nm in root.counters
                or self.lookup_temp(nm)[0] is not None
                or self.has_level(nm)
            ):
                continue
            try:
                op, operand = self._red_pattern(st)
            except _VecBail:
                continue
            c = _const_int(operand)
            if op != "+" or c is None or c < 1:
                continue
            writes = sum(
                1
                for n in root.body_node.walk()
                if (isinstance(n, Assign) and isinstance(n.lhs, Id) and n.lhs.name == nm)
                or (isinstance(n, IncDec) and isinstance(n.target, Id) and n.target.name == nm)
                or (isinstance(n, Decl) and n.name == nm)
            )
            if writes != 1:
                continue
            root.counters[nm] = {"c": c, "frame": frame, "bumped": False}

    def _counter_bump(self, s: Assign, rec: Dict[str, Any]) -> None:
        if rec["frame"] is not self or rec["bumped"]:
            raise _VecBail("unsupported counter update")
        op, operand = self._red_pattern(s)
        if op != "+" or _const_int(operand) != rec["c"]:
            raise _VecBail("unsupported counter update")
        rec["bumped"] = True

    def _counter_read(self, name: str, rec: Dict[str, Any]) -> Tuple[str, str]:
        if rec["frame"] is not self:
            raise _VecBail("counter read outside its guarded branch")
        t = self.low.fresh("ck")
        shift = f" + {rec['c']}" if rec["bumped"] else ""
        self.emit(f"{t} = {_mangle(name)} + {rec['c']} * _np.arange({self.nl}){shift}")
        self.root.counter_codes[t] = name
        return "vector", t

    def _combine(self, cur: Tuple[str, str], s: Assign) -> Tuple[str, str]:
        """Elementwise re-assignment of an already-defined temporary."""
        ck, cc = cur
        if s.op == "=":
            return self.vexpr(s.rhs)
        rk, rc = self.vexpr(s.rhs)
        kind = "vector" if "vector" in (ck, rk) else "scalar"
        op = s.op[0]
        if op in "+-*":
            return kind, f"({cc} {op} ({rc}))"
        if op == "/":
            fn = "_div" if kind == "scalar" else "_vdiv"
            return kind, f"{fn}({cc}, {rc})"
        if op == "%":
            fn = "_mod" if kind == "scalar" else "_vmod"
            return kind, f"{fn}({cc}, {rc})"
        raise _VecBail

    def _red_pattern(self, s: Assign) -> Tuple[str, Expression]:
        """``s = s + E`` / ``s = s - E`` / ``s += E`` / ``s -= E``."""
        name = s.lhs.name
        if s.op in ("+=", "-="):
            return s.op[0], s.rhs
        if s.op == "=" and isinstance(s.rhs, BinOp) and s.rhs.op in ("+", "-"):
            r = s.rhs
            if isinstance(r.lhs, Id) and r.lhs.name == name:
                return r.op, r.rhs
            if r.op == "+" and isinstance(r.rhs, Id) and r.rhs.name == name:
                return "+", r.lhs
        raise _VecBail

    # -- array accesses -----------------------------------------------------

    def _classify(self, e: Expression) -> _Idx:
        r = self._affine(e)
        if r is not None:
            lvl, coef, off, clean = r
            if coef == 0:
                return _Idx("scalar", code=off, clean=clean)
            return _Idx("affine", coef=coef, off=off, clean=clean, level=lvl)
        kind, code = self.vexpr(e)
        i = _Idx(kind if kind == "scalar" else "vector", code=code, clean=False)
        if code in self.root.counter_codes:
            i.counter = True
        return i

    def _affine(self, e: Expression):
        """``(level_frame, coef, off_code, clean)`` or None.

        Affine means ``coef * level_index + off`` for exactly one loop
        level on this frame's chain; multi-level expressions like
        ``r*k + t`` fall through to the gather path.
        """
        if isinstance(e, Num):
            return None, 0, repr(e.value), True
        if isinstance(e, Id):
            name = e.name
            if name in self.root.counters:
                return None
            lf = self.find_level(name)
            if lf is not None:
                return lf, 1, "0", True
            f, tv = self.lookup_temp(name)
            if f is not None:
                kind, t = tv
                return (None, 0, t, False) if kind == "scalar" else None
            if name in self.root.assigned:
                return None
            return None, 0, _mangle(name), True
        if isinstance(e, UnOp) and e.op in ("-", "+"):
            r = self._affine(e.operand)
            if r is None:
                return None
            lv, c, o, cl = r
            if e.op == "-":
                return (lv if -c != 0 else None), -c, f"(-({o}))", cl
            return r
        if isinstance(e, BinOp) and e.op in ("+", "-"):
            ra, rb = self._affine(e.lhs), self._affine(e.rhs)
            if ra is None or rb is None:
                return None
            la, ca, oa, cla = ra
            lb, cb, ob, clb = rb
            if la is not None and lb is not None and la is not lb:
                return None  # spans two loop levels
            lv = la if la is not None else lb
            c = ca + cb if e.op == "+" else ca - cb
            return (lv if c != 0 else None), c, f"({oa} {e.op} {ob})", cla and clb
        if isinstance(e, BinOp) and e.op == "*":
            k, r = _const_int(e.lhs), self._affine(e.rhs)
            if k is None:
                k, r = _const_int(e.rhs), self._affine(e.lhs)
            if k is None or r is None:
                return None
            lv, c, o, cl = r
            ck = c * k
            return (lv if ck != 0 else None), ck, f"({k} * ({o}))", cl
        return None

    def _affine_vec(self, i: _Idx) -> str:
        return f"({i.off} + {i.coef} * {self.level_vec_for(i.level)})"

    def _clean(self, e: Expression) -> bool:
        """``e`` can be evaluated before the loop (in its entry guards)."""
        root = self.root
        for n in e.walk():
            if isinstance(n, Id):
                if (
                    n.name in root.counters
                    or n.name in root.assigned
                    or self.find_level(n.name) is not None
                    or self.lookup_temp(n.name)[0] is not None
                ):
                    return False
            elif not isinstance(n, (Num, BinOp, UnOp)):
                return False
        return True

    def _guard(self, code: str) -> None:
        if code not in self.root.guards:
            self.root.guards.append(code)

    def _slice_parts(
        self, name: str, idx: List[_Idx], store: bool = False
    ) -> Optional[Tuple[str, str]]:
        """Basic-slice subscript for an access, or None if a slice is unsafe.

        Every non-scalar position must be affine in a distinct level of a
        plain base x flat grid, with a positive step and an offset (and
        level bounds) evaluable before the loop; a store must cover every
        grid axis.  Emits the wrap/clip guards.  Returns the subscript
        text and the suffix that transposes and expands the sliced view
        into the grid's axis order.
        """
        levels = self.axis_levels()
        if levels is None:
            return None
        ax_level: Dict[int, _Vectorizer] = {}  # array axis -> level
        for k, i in enumerate(idx):
            if not i.clean:
                return None
            if i.kind == "scalar":
                continue
            if (
                i.kind != "affine"
                or i.coef <= 0
                or i.level not in levels
                or not i.level.clean_bounds
                or i.level in ax_level.values()
            ):
                return None
            ax_level[k] = i.level
        covered = [lv for lv in levels if lv in ax_level.values()]
        if not covered or (store and len(covered) != len(levels)):
            return None
        m = _mangle(name)
        parts = []
        for k, x in enumerate(idx):
            lv = ax_level.get(k)
            if lv is None:
                parts.append(f"int({x.code})")
                continue
            self._guard(f"({x.off}) + {x.coef} * ({lv.lo}) >= 0")
            self._guard(f"({x.off}) + {x.coef} * ({lv.hi}) - {x.coef} < {m}.shape[{k}]")
            # a flat level ends at lo + T: its clamped trip count keeps a
            # zero-trip level's slice empty when hi < lo
            end = lv.hi if lv.kind == "base" else f"({lv.lo}) + {lv.T}"
            parts.append(
                f"slice(({x.off}) + {x.coef} * ({lv.lo}), "
                f"({x.off}) + {x.coef} * ({end}), {x.coef})"
            )
        order = [ax_level[k] for k in sorted(ax_level)]  # view axis -> level
        perm = [order.index(lv) for lv in covered]
        view = ""
        if perm != sorted(perm):
            view += f".transpose({', '.join(map(str, perm))})"
        tail = levels[levels.index(covered[0]):]
        if len(tail) != len(covered):
            view += "[" + ", ".join(":" if lv in covered else "None" for lv in tail) + "]"
        return ", ".join(parts), view

    def _vector_parts(self, idx: List[_Idx]) -> List[str]:
        """Fancy-index parts for a gather or a non-slice store.

        Under a dense flat level only slice accesses lower: a gather or
        fancy store there would replace the per-row slices of the nest's
        scalar outer loop (e.g. ``a[i*n + j]``).
        """
        strict = self.strict_levels()
        if strict:
            raise _VecBail(strict[0].strict)
        parts = []
        for i in idx:
            if i.kind == "scalar":
                parts.append(f"int({i.code})")
            elif i.kind == "affine":
                parts.append(self._affine_vec(i))
            else:
                parts.append(f"_as_idx({i.code})")
        return parts

    def _record(self, name: str, idx: List[_Idx], is_store: bool) -> None:
        """Note an array access for :meth:`_check_aliasing`."""
        loops = frozenset(self.frame_levels() - {self.root})
        self.root.accesses.append(_Access(name, idx, is_store, self.root.group, loops))

    def _window_parts(self, name: str, idx: List[_Idx], store: bool = False):
        """Subscript for an access through a segmented level's windows, or None.

        One position ``off + c*j`` (``c > 0``) in the level ``j`` of the seg
        frame this frame's grid starts with, every other position scalar:
        :func:`_wix` makes it a basic slice whenever the windows abut.
        Returns the subscript text and the suffix that expands the 1-D
        result over the flat axes after the seg axis.  A store must sit
        in the seg frame itself.
        """
        pos = [k for k, i in enumerate(idx) if i.kind != "scalar"]
        if len(pos) != 1:
            return None
        k, i = pos[0], idx[pos[0]]
        flats = self.grid_flats()
        seg = flats[-1].parent if flats else self
        if (
            seg.kind != "seg"
            or i.kind != "affine"
            or i.level is not seg
            or i.coef <= 0
            or (store and flats)
            or self.strict_levels()
        ):
            return None
        parts = [f"int({x.code})" for x in idx]
        parts[k] = f"_wix({seg.window()}, {i.off}, {i.coef}, {_mangle(name)}.shape[{k}])"
        return ", ".join(parts), ("[:" + ", None" * len(flats) + "]") if flats else ""

    def _row_gather(self, e: ArrayAccess) -> Optional[str]:
        """``a[E*K + t]`` (or ``t + E*K``, ``K*E``) read in the flat frame of
        level ``t`` from 0, for a loop-invariant ``K`` and an ``E`` free of
        ``t``: a row gather on the array's ``(-1, K)`` view (:func:`_rowg`),
        or None."""
        if (
            self.kind != "flat"
            or len(e.indices) != 1
            or _const_int(self.h.lb) != 0
            or self.strict_levels()
        ):
            return None
        x = e.indices[0]
        if not (isinstance(x, BinOp) and x.op == "+"):
            return None
        for tx, px in ((x.rhs, x.lhs), (x.lhs, x.rhs)):
            if isinstance(tx, Id) and tx.name == self.h.index and isinstance(px, BinOp):
                break
        else:
            return None
        if px.op != "*":
            return None
        for kx, ex in ((px.rhs, px.lhs), (px.lhs, px.rhs)):
            if self._clean(kx) and not (_names_in(ex) & ({self.h.index} | set(self.temps))):
                break
        else:
            return None
        _, ec = self.vexpr(ex)
        _, kc = self.vexpr(kx)
        return f"_rowg({_mangle(e.name)}, {ec}, {kc}, {self.index_vec()})"

    def _load(self, e: ArrayAccess) -> Tuple[str, str]:
        idx = [self._classify(i) for i in e.indices]
        self._record(e.name, idx, False)
        m = _mangle(e.name)
        if all(i.kind == "scalar" for i in idx):
            return "scalar", f"{m}[{', '.join(f'int({i.code})' for i in idx)}]"
        sl = self._slice_parts(e.name, idx) or self._window_parts(e.name, idx)
        if sl is None:
            # gathers (rows included) copy by construction
            rows = self._row_gather(e) if idx[0].kind == "vector" else None
            return "vector", rows or f"{m}[{', '.join(self._vector_parts(idx))}]"
        sub, view = sl
        copy = ".copy()" if e.name in self.root.stored else ""
        return "vector", f"{m}[{sub}]{view}{copy}"

    def _injective(self, idx: List[_Idx]) -> bool:
        """Each lane owns a distinct element: plain fancy-store is safe."""
        if any(i.counter for i in idx):
            return True  # counter values are strictly increasing by lane
        need = self.frame_levels()
        if self.root.cert:
            need.discard(self.root)  # cross-base-lane independence certified
        covered = {i.level for i in idx if i.kind == "affine"}
        return need <= covered

    def _full_index(self, idx: List[_Idx]) -> bool:
        """The subscript's index arrays broadcast to this frame's whole grid:
        an affine subscript covers each flat axis and one the first axis."""
        flats = self.grid_flats()
        covered = {i.level for i in idx if i.kind == "affine"}
        return all(f in covered for f in flats) and any(lv not in flats for lv in covered)

    def _store(self, s: Assign) -> None:
        e = s.lhs
        idx = [self._classify(i) for i in e.indices]
        if all(i.kind == "scalar" for i in idx):
            raise _VecBail("store to a loop-invariant cell")
        if not self._injective(idx):
            self._scatter(s, idx)
            return
        self._record(e.name, idx, True)
        m = _mangle(e.name)
        sl = self._slice_parts(e.name, idx, store=True) or self._window_parts(
            e.name, idx, store=True
        )
        rk, rc = self.vexpr(s.rhs)
        if sl is not None:
            sub, view = sl
            tgt = f"{m}[{sub}]" + (f"{view}[...]" if view else "")
        else:
            parts = self._vector_parts(idx)
            if not self._full_index(idx):
                # duplicate targets (certified loops): assign as C-order
                # lanes so the last lane's value wins, as in serial order
                for k, i in enumerate(idx):
                    if i.kind != "scalar":
                        parts[k] = self.low.fresh("ix")
                        self.emit(f"{parts[k]} = {self.lanes(self._vector_parts([i])[0])}")
                if rk == "vector":
                    rc = self.lanes(rc)
            tgt = f"{m}[{', '.join(parts)}]"
        if s.op == "=":
            self.emit(f"{tgt} = {rc}")
        elif s.op in ("+=", "-=", "*="):
            self.emit(f"{tgt} = {tgt} {s.op[0]} ({rc})")
        elif s.op == "/=":
            self.emit(f"{tgt} = _vdiv({tgt}, {rc})")
        elif s.op == "%=":
            self.emit(f"{tgt} = _vmod({tgt}, {rc})")
        else:
            raise _VecBail(f"assignment operator {s.op!r}")

    def _scatter(self, s: Assign, idx: List[_Idx]) -> None:
        """Vector-subscripted store: ordered accumulate or bail."""
        e = s.lhs
        parts = self._vector_parts(idx)
        if s.op in ("+=", "-=", "*="):
            op, val = s.op[0], s.rhs
        elif s.op == "=":
            r = s.rhs
            op = val = None
            if isinstance(r, BinOp) and r.op in ("+", "-", "*"):
                for cand, other in ((r.lhs, r.rhs), (r.rhs, r.lhs)):
                    if (
                        isinstance(cand, ArrayAccess)
                        and cand.name == e.name
                        and len(cand.indices) == len(e.indices)
                        and all(_ast_eq(x, y) for x, y in zip(cand.indices, e.indices))
                        and (cand is r.lhs or r.op != "-")
                    ):
                        op, val = r.op, other
                        break
            if op is None:
                raise _VecBail
        else:
            raise _VecBail
        if e.name in _array_names(val):
            raise _VecBail("scatter value reads the scattered array")
        _, vc = self.vexpr(val)
        tup = "(" + ", ".join(parts) + ("," if len(parts) == 1 else "") + ")"
        self._record(e.name, idx, True)
        self.root.scattered.add(e.name)
        self.emit(f"_scat({op!r}, {_mangle(e.name)}, {tup}, {vc}, {self.grid})")

    # -- expressions --------------------------------------------------------

    def vexpr(self, e: Expression) -> Tuple[str, str]:
        if isinstance(e, (Num, FloatNum)):
            return "scalar", repr(e.value)
        if isinstance(e, Id):
            name = e.name
            rec = self.root.counters.get(name)
            if rec is not None:
                return self._counter_read(name, rec)
            lf = self.find_level(name)
            if lf is not None:
                return "vector", self.level_vec_for(lf)
            f, tv = self.lookup_temp(name)
            if f is not None:
                kind, code = tv
                if kind == "scalar" or f is self:
                    return kind, code
                return "vector", self.expand_from(f, code)
            if name in self.root.assigned:
                raise _VecBail("loop-carried scalar")
            return "scalar", _mangle(name)
        if isinstance(e, ArrayAccess):
            return self._load(e)
        if isinstance(e, BinOp):
            return self._vbinop(e)
        if isinstance(e, UnOp) and e.op in ("-", "+"):
            k, c = self.vexpr(e.operand)
            return k, f"({e.op}({c}))"
        if isinstance(e, Call):
            args = [self.vexpr(a) for a in e.args]
            if all(k == "scalar" for k, _ in args):
                if e.name in _MATH_FUNCS:
                    return "scalar", f"_f_{e.name}({', '.join(c for _, c in args)})"
                raise _VecBail(f"call to {e.name}")
            if e.name in _NP_FUNCS and len(args) == 1:
                return "vector", f"_fv_{e.name}({args[0][1]})"
            raise _VecBail(f"call to {e.name}")
        raise _VecBail(f"expression {type(e).__name__}")

    def _vbinop(self, e: BinOp) -> Tuple[str, str]:
        if e.op not in ("+", "-", "*", "/", "%"):
            raise _VecBail(f"operator {e.op!r}")  # comparisons/logical/bitwise
        ka, a = self.vexpr(e.lhs)
        kb, b = self.vexpr(e.rhs)
        kind = "vector" if "vector" in (ka, kb) else "scalar"
        if e.op in ("+", "-", "*"):
            return kind, f"({a} {e.op} {b})"
        if e.op == "/":
            fn = "_div" if kind == "scalar" else "_vdiv"
            return kind, f"{fn}({a}, {b})"
        fn = "_mod" if kind == "scalar" else "_vmod"
        return kind, f"{fn}({a}, {b})"


# ---------------------------------------------------------------------------
# compilation entry points and backend dispatch
# ---------------------------------------------------------------------------


class CompiledProgram:
    """A Program lowered to a Python closure (or an interpreter shim).

    ``backend`` is what :meth:`run` will actually do — ``"compiled"`` for
    a generated closure, ``"interp"`` when lowering fell back (see
    ``fallback_reason``).  ``chunks`` maps parallel-loop keys to the
    worker-side chunk function sources; ``key`` fingerprints the whole
    generated artifact so worker pools can cache program installs.
    """

    def __init__(
        self,
        prog: Program,
        fn: Optional[Callable],
        source: str,
        backend: str,
        fallback_reason: Optional[str],
        chunks: Dict[str, str],
        trace: bool,
        loop_tiers: Optional[Dict[str, str]] = None,
        loop_bails: Optional[Dict[str, str]] = None,
        lowered_prog: Optional[Program] = None,
        fused_groups: Optional[List[Dict[str, Any]]] = None,
        lowered_decisions: Optional[Dict[str, Any]] = None,
        chunk_meta: Optional[Dict[str, Dict[str, Any]]] = None,
        runtime_diags: Sequence[Any] = (),
    ):
        self.prog = prog
        self.fn = fn
        self.source = source
        self.backend = backend
        self.fallback_reason = fallback_reason
        self.chunks = chunks
        #: loop key -> retry-safety metadata (``rw``: arrays the chunk both
        #: reads and writes; the pool snapshots those before dispatch)
        self.chunk_meta = dict(chunk_meta or {})
        self.trace = trace
        #: loop_id -> best vectorization tier achieved (segmented/masked/
        #: flattened/vectorized/scalar); loop_bails carries the bail reason
        #: for loops that stayed scalar.
        self.loop_tiers = dict(loop_tiers or {})
        self.loop_bails = dict(loop_bails or {})
        #: the normalized (and possibly fused) program the closure was
        #: generated from — what the cost model plans over
        self.lowered_prog = lowered_prog if lowered_prog is not None else prog
        #: metadata for each fusion group actually applied (see
        #: :func:`repro.runtime.fuse.apply_fusion`)
        self.fused_groups = list(fused_groups or [])
        #: decisions keyed by *lowered* loop_ids (fused ids included)
        self.lowered_decisions = dict(lowered_decisions or {})
        #: runtime diagnostics lowering raised (refused dispatches)
        self.runtime_diags = tuple(runtime_diags)
        digest = hashlib.sha256(source.encode())
        for k in sorted(chunks):
            digest.update(chunks[k].encode())
        self.key = digest.hexdigest()

    def run(
        self,
        env: Dict[str, Any],
        *,
        access_hook: Optional[Callable] = None,
        pool=None,
    ) -> Dict[str, Any]:
        """Execute with :func:`run_program` semantics (fresh env dict,
        arrays mutated in place, faults as :class:`InterpError`)."""
        if self.fn is None:
            it = Interpreter(env, access_hook=access_hook)
            it.run(self.prog)
            return it.env
        env2 = dict(env)
        if pool is not None:
            return self._run_with_pool(env2, pool)
        return self._invoke(env2, access_hook, None)

    def _invoke(self, env2, hook, pool):
        try:
            return self.fn(env2, hook, pool)
        except (InterpError, ZeroDivisionError):
            raise
        except (UnboundLocalError, NameError) as exc:
            name = re.findall(r"'(\w+)'", str(exc))
            what = name[0][2:] if name and name[0].startswith("v_") else str(exc)
            raise InterpError(f"undefined variable {what}") from None
        except (IndexError, KeyError, ValueError, TypeError, OverflowError, AttributeError) as exc:
            raise InterpError(f"runtime fault: {exc}") from None

    def _run_with_pool(self, env2, pool):
        pool.ensure_program(self)
        adopted = pool.adopt_env(env2)
        try:
            out = self._invoke(env2, None, pool)
        finally:
            pool.release_env(adopted, env2)
        return out


#: lowered artifacts keyed by :func:`_lowering_key`; values are
#: ``[CompiledProgram, linted]``.  Entries are never handed out directly:
#: every caller gets a private :func:`_shell`.  LRU-bounded
#: (``REPRO_CACHE_MAX_ENTRIES``), emptied by ``perfstats.clear_caches``.
_LOWERED_CACHE: perfstats.BoundedCache = perfstats.BoundedCache()

perfstats.register_cache("lowered", _LOWERED_CACHE)


def compile_program(
    prog: Program,
    decisions: Optional[Dict[str, Any]] = None,
    *,
    vectorize: bool = True,
    trace: bool = False,
    parallel: bool = False,
    parallel_loops: Optional[Set[str]] = None,
    speculative_loops: Optional[Set[str]] = None,
    fusions: Optional[Sequence[Any]] = None,
) -> CompiledProgram:
    """Lower ``prog``; on any lowering failure return an interp-backed shim.

    Lowering runs once per distinct input.  Compiled artifacts are cached
    under :func:`_lowering_key`, and every call, the first included,
    returns a private :func:`_shell` around the shared closure, so a
    warm ``execute`` skips normalization, fusion and lowering.  Interp
    fallbacks are not cached.  The ``lower`` fault seam fires once per
    call, before the lookup.  Cache hits re-record the tier/fallback
    histograms and the runtime diagnostics lowering raised.

    With ``REPRO_VERIFY_LOWERING`` set (test suites, CI) every artifact
    handed out has passed the lowering lint
    (:func:`repro.verify.lint.lint_lowering`): each vectorized or fused
    loop's written arrays must agree with its static effect summary.  An
    entry cached while the lint was off is linted on its first hit with
    the lint on.  The lint raises — miscompile evidence must fail loudly,
    not fall back.
    """
    if faultplan.enabled():
        clause = faultplan.check("lower")
        if clause is not None and clause.kind == "compile-fail":
            reason = "injected fault: lowering failure"
            _record_tiers({}, {}, reason)
            return CompiledProgram(prog, None, "", "interp", reason, {}, trace)
    active = [f for f in (fusions or ()) if getattr(f, "verified", True)]
    flags = (vectorize, trace, parallel, _frozen(parallel_loops), _frozen(speculative_loops))
    key = _lowering_key(prog, decisions, active, flags)
    entry = _LOWERED_CACHE.get(key)
    if entry is None:
        cp = _compile_program_impl(
            prog,
            decisions,
            vectorize=vectorize,
            trace=trace,
            parallel=parallel,
            parallel_loops=parallel_loops,
            speculative_loops=speculative_loops,
            fusions=active,
        )
        if cp.backend != "compiled":
            return cp
        entry = _LOWERED_CACHE[key] = [cp, False]
    cp, linted = entry
    if not linted and os.environ.get("REPRO_VERIFY_LOWERING", "") not in ("", "0"):
        from repro.verify.lint import lint_lowering

        lint_lowering(cp)
        entry[1] = True
    _record_tiers(cp.loop_tiers, cp.loop_bails, None)
    if cp.runtime_diags:
        from repro import diagnostics

        for diag in cp.runtime_diags:
            diagnostics.record_runtime(diag)
    return _shell(cp, prog, decisions)


def _frozen(ids: Optional[Set[str]]) -> Optional[frozenset]:
    return None if ids is None else frozenset(ids)


def _decision_sig(d: Any) -> tuple:
    """The fields of one decision that lowering and ``apply_fusion`` read."""
    spec = getattr(d, "speculation", None)
    cert = getattr(d, "certificate", None)
    facts = getattr(cert, "facts", None)
    return (
        bool(getattr(d, "parallel", False)),
        getattr(d, "index", None),
        tuple(getattr(c, "text", str(c)) for c in getattr(d, "checks", ()) or ()),
        tuple(getattr(d, "private", ()) or ()),
        tuple(tuple(r) for r in getattr(d, "reductions", ()) or ()),
        bool(getattr(d, "speculation_verified", False)),
        tuple((sp.array, sp.required) for sp in getattr(spec, "speculative", ()) or ()),
        # the static chunk-race verdict is rebuilt from these two
        tuple(getattr(cert, "monotonic", ()) or ()),
        frozenset(facts.items()) if facts is not None else None,
    )


def _lowering_key(
    prog: Program,
    decisions: Optional[Dict[str, Any]],
    fusions: Sequence[Any],
    flags: tuple,
) -> tuple:
    """Everything the lowered artifact depends on.

    The structural digest leaves loop ids out, but the generated source
    embeds them (``_wm``, ``_pred_s``, chunk keys), so they are keyed in
    preorder alongside it; one walk yields both.
    """
    from repro.lang.digest import fingerprint_and_loop_ids

    steps = [getattr(f, "step", f) for f in fusions]
    digest, loop_ids = fingerprint_and_loop_ids(prog)
    return (
        digest,
        loop_ids,
        tuple(sorted((lid, _decision_sig(d)) for lid, d in (decisions or {}).items())),
        tuple((tuple(s.loops), s.index, tuple(s.arrays)) for s in steps),
        flags,
    )


def _shell(cp: CompiledProgram, prog: Program, decisions: Optional[Dict[str, Any]]) -> CompiledProgram:
    """One caller's private view of a cached artifact.

    Shares the exec'd closure, the sources, ``key`` and the read-only
    ``lowered_prog``; every field a caller may mutate is a fresh copy, so
    nothing done to a returned program reaches the next caller.
    ``lowered_decisions`` maps the caller's own decisions plus the merged
    contract of each applied fusion group.
    """
    out = copy.copy(cp)
    out.prog = prog
    out.chunks = dict(cp.chunks)
    out.chunk_meta = copy.deepcopy(cp.chunk_meta)
    out.loop_tiers = dict(cp.loop_tiers)
    out.loop_bails = dict(cp.loop_bails)
    out.fused_groups = copy.deepcopy(cp.fused_groups)
    fused = {g["fused_id"] for g in cp.fused_groups}
    out.lowered_decisions = dict(decisions or {})
    out.lowered_decisions.update(
        (lid, d) for lid, d in cp.lowered_decisions.items() if lid in fused
    )
    return out


def _compile_program_impl(
    prog: Program,
    decisions: Optional[Dict[str, Any]] = None,
    *,
    vectorize: bool = True,
    trace: bool = False,
    parallel: bool = False,
    parallel_loops: Optional[Set[str]] = None,
    speculative_loops: Optional[Set[str]] = None,
    fusions: Optional[Sequence[Any]] = None,
) -> CompiledProgram:
    """Lower ``prog`` (uncached); on any lowering failure return an
    interp-backed shim.

    The program is normalized first (Cetus-style, same pass the analysis
    runs), so ``i++`` headers and embedded side effects lower cleanly;
    the ``_temp_k`` scalars normalization introduces are internal and are
    not written back to the returned environment.

    ``fusions`` (the verified :class:`FusionDecision`-likes from
    :func:`repro.parallelizer.driver.parallelize`) is opt-in: when given,
    those groups are fused before lowering.  A fused loop that bails to
    the scalar tier is demoted — the group recompiles unfused — so fusion
    can only ever trade up.
    """
    from repro.analysis.normalize import normalize_program

    try:
        original_names = _names_in(prog)
        normalized = normalize_program(prog)
        eff_decisions = decisions
        applied_groups: List[Dict[str, Any]] = []
        runtime_diags: List[Any] = []
        active = list(fusions or ())
        while True:
            lowered = normalized
            eff_decisions = decisions
            applied_groups = []
            if active:
                from repro.runtime.fuse import apply_fusion

                lowered, eff_decisions, applied_groups = apply_fusion(
                    normalized, decisions, active
                )
            low = _Lowerer(
                lowered,
                eff_decisions,
                vectorize=vectorize,
                trace=trace,
                parallel=parallel,
                parallel_loops=parallel_loops,
                speculative_loops=speculative_loops,
            )
            source = low.lower_program()
            runtime_diags += low.runtime_diags
            if applied_groups:
                # tier guard: a fused loop that fell to scalar lowers the
                # whole group below its unfused tiers — demote and retry
                bad = {
                    g["fused_id"]
                    for g in applied_groups
                    if low.loop_tiers.get(g["fused_id"]) == "scalar"
                }
                if bad:
                    active = [
                        f
                        for f in active
                        if _fused_id_of(f) not in bad
                    ]
                    continue
            break
        ns = _exec_namespace()
        ns["_NAMES"] = tuple(
            n
            for n in low.names
            if n in original_names or not n.startswith("_temp_")
        )
        code = compile(source, "<repro-kernel>", "exec")
        exec(code, ns)
        for key, chunk_src in low.chunks.items():
            exec(compile(chunk_src, f"<repro-chunk-{key}>", "exec"), ns)
        return CompiledProgram(
            prog, ns["_kernel"], source, "compiled", None, dict(low.chunks), trace,
            loop_tiers=low.loop_tiers, loop_bails=low.loop_bails,
            lowered_prog=lowered, fused_groups=applied_groups,
            lowered_decisions=dict(eff_decisions or {}),
            chunk_meta=dict(low.chunk_meta),
            runtime_diags=runtime_diags,
        )
    except CompileError as exc:
        _record_tiers({}, {}, str(exc))
        return CompiledProgram(prog, None, "", "interp", str(exc), {}, trace)
    except Exception as exc:  # pragma: no cover - fail-soft belt
        _record_tiers({}, {}, f"{type(exc).__name__}")
        return CompiledProgram(
            prog, None, "", "interp", f"{type(exc).__name__}: {exc}", {}, trace
        )


def _fused_id_of(f: Any) -> str:
    step = getattr(f, "step", f)
    return "+".join(getattr(step, "loops", ()))


def _record_tiers(
    loop_tiers: Dict[str, str],
    loop_bails: Dict[str, str],
    interp_fallback: Optional[str],
) -> None:
    """Feed the perfstats tier/fallback histograms (advisory, never raises)."""
    try:
        if interp_fallback is not None:
            perfstats.record_tier("interp-fallback")
            perfstats.record_fallback(interp_fallback)
            return
        for tier in loop_tiers.values():
            perfstats.record_tier(tier)
        for reason in loop_bails.values():
            perfstats.record_fallback(reason)
    except Exception:  # pragma: no cover - stats must never break compilation
        pass


_VALID_BACKENDS = ("interp", "compiled", "compiled-parallel", "auto")

#: documented float tolerance of the compiled tier (np.sum is pairwise,
#: chunked parallel reductions reassociate)
DIFF_RTOL = 1e-9
DIFF_ATOL = 1e-12


def resolved_backend(backend: Optional[str] = None) -> str:
    """The effective backend name (argument beats ``REPRO_BACKEND``)."""
    b = backend or os.environ.get("REPRO_BACKEND") or "interp"
    if b not in _VALID_BACKENDS:
        raise ValueError(f"unknown backend {b!r} (expected one of {_VALID_BACKENDS})")
    return b


def _copy_env(env: Dict[str, Any]) -> Dict[str, Any]:
    return {k: v.copy() if isinstance(v, np.ndarray) else v for k, v in env.items()}


def execute(
    prog: Program,
    env: Dict[str, Any],
    *,
    decisions: Optional[Dict[str, Any]] = None,
    backend: Optional[str] = None,
    threads: Optional[int] = None,
    fusions: Optional[Sequence[Any]] = None,
) -> Dict[str, Any]:
    """Run ``prog`` over ``env`` on the selected backend.

    ``backend="auto"`` compiles once, prices every top-level loop with
    the execution cost model (:mod:`repro.runtime.costmodel`) and picks
    interp / compiled / compiled-parallel *per loop*; the decisions and
    their predictions land in :mod:`repro.runtime.workmeter` for
    ``--stats``.  ``fusions`` (from
    :attr:`repro.parallelizer.driver.ParallelizationResult.fusions`)
    enables certified loop fusion on the compiled paths.

    ``REPRO_EXEC_DIFF=1`` additionally runs the reference interpreter and
    raises :class:`BackendMismatch` if the final states diverge beyond
    the documented float tolerance.  The caller's arrays always end up
    with the primary backend's results.
    """
    b = resolved_backend(backend)
    diff = os.environ.get("REPRO_EXEC_DIFF") == "1" and b != "interp"
    if b == "interp":
        return run_program(prog, env)
    if fusions and os.environ.get("REPRO_FUSE") == "0":
        # kill-switch for A/B fusion measurement (benchmarks/run_speed.py)
        fusions = None

    if b == "auto":
        primary = lambda e: _execute_auto(prog, e, decisions, threads, fusions)  # noqa: E731
    else:
        pool = None
        if b == "compiled-parallel":
            from repro.runtime.parbackend import get_pool

            pool = get_pool(threads)
        cp = compile_program(prog, decisions, parallel=pool is not None, fusions=fusions)
        primary = lambda e: cp.run(e, pool=pool)  # noqa: E731

    if not diff:
        return primary(env)

    ref_env = _copy_env(env)
    comp_exc = ref_exc = None
    out = ref_out = None
    try:
        out = primary(env)
    except InterpError as exc:
        comp_exc = exc
    try:
        ref_out = run_program(prog, ref_env)
    except InterpError as exc:
        ref_exc = exc
    if (comp_exc is None) != (ref_exc is None):
        raise BackendMismatch(
            f"one backend faulted: compiled={comp_exc!r} interp={ref_exc!r}"
        )
    if comp_exc is not None:
        raise comp_exc
    from repro.runtime.parexec import states_equivalent

    if not states_equivalent(ref_out, out, ignore=()):
        raise BackendMismatch(
            "compiled vs interp divergence: " + _divergence_detail(ref_out, out)
        )
    return out


def _execute_auto(
    prog: Program,
    env: Dict[str, Any],
    decisions: Optional[Dict[str, Any]],
    threads: Optional[int],
    fusions: Optional[Sequence[Any]],
) -> Dict[str, Any]:
    """Cost-model-driven dispatch: plan per loop, then run the best shape.

    Strategy: compile serially first (fusion applied) — that reveals each
    loop's achieved tier, the strongest cost signal.  The plan then
    chooses, per top-level loop, serial-compiled or pool dispatch; a pool
    is only forked when at least one loop is predicted to win by the
    serial-bias margin.  A whole-program interp escape covers the tiny
    scalar programs where numpy setup costs dominate.
    """
    from repro.runtime import costmodel, workmeter
    from repro.runtime.parbackend import planned_workers

    cp = compile_program(prog, decisions, fusions=fusions)
    if cp.backend == "interp":
        # lowering fell back; nothing to plan over
        return cp.run(env)
    workers = planned_workers(threads)
    try:
        cal = costmodel.get_calibration()
        plans = costmodel.plan_program(cp, env, cal, workers=workers)
    except Exception:  # pragma: no cover - cost model must never break execution
        plans = []
    for p in plans:
        workmeter.record_prediction(
            p.loop_id,
            choice=p.choice,
            tier=p.tier,
            trips=p.trips,
            work=p.work,
            predicted=p.predicted,
        )
    if plans and costmodel.program_prefers_interp(plans):
        return run_program(prog, env)
    par_ids = {p.loop_id for p in plans if p.choice == "compiled-parallel"}
    if par_ids:
        from repro.runtime.parbackend import get_pool

        cp_par = compile_program(
            prog,
            decisions,
            parallel=True,
            parallel_loops=par_ids,
            fusions=fusions,
        )
        if cp_par.backend != "interp":
            return cp_par.run(env, pool=get_pool(threads))
    return cp.run(env)


def _divergence_detail(ref: Dict[str, Any], out: Dict[str, Any]) -> str:
    for k in sorted(set(ref) | set(out)):
        a, b = ref.get(k), out.get(k)
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            if a is None or b is None or a.shape != b.shape:
                return f"array {k}: shape/presence mismatch"
            close = np.isclose(a, b, rtol=DIFF_RTOL, atol=DIFF_ATOL)
            if not close.all():
                where = np.argwhere(~close)[0]
                return f"array {k} at {tuple(where)}: interp={a[tuple(where)]} compiled={b[tuple(where)]}"
        elif isinstance(a, float) or isinstance(b, float):
            if a is None or b is None or not np.isclose(a, b, rtol=DIFF_RTOL):
                return f"scalar {k}: interp={a} compiled={b}"
        elif a != b:
            return f"scalar {k}: interp={a} compiled={b}"
    return "(no differing key found at report tolerance)"
