"""Spans around the calls into each layer, recorded from outside the program.

The benchmark does not edit the program.  It replaces the attributes
through which callers reach a layer (``repro.parallelizer.driver.
check_certificate``, ``WorkerPool.run_loop`` and so on) with timing
wrappers, and puts the originals back afterwards.  A span records its
name, start, end, parent and operation id.  Spans stay in per-thread
lists in memory and are only written out (daemon) or aggregated
(in-process) when the measurement ends.

Self time of a span is its duration minus the part of it that its
children cover; the self times of one operation's spans therefore add up
to the operation's duration, and the self time of the operation's own
root span is the time no named layer covers.
"""

from __future__ import annotations

import asyncio
import importlib
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

_ns = time.perf_counter_ns

#: (module, attribute, span name): the names the program's callers bind.
#: A dotted attribute patches a class method.  Several targets may share
#: a span name; the span name is the layer the time is booked to.
LAYER_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.analysis.analyzer", "parse_program", "lang.parse"),
    ("repro.analysis.analyzer", "normalize_program", "analysis.normalize"),
    ("repro.analysis.analyzer", "run_phase1", "analysis.phase1"),
    ("repro.analysis.analyzer", "run_phase2", "analysis.phase2"),
    ("repro.parallelizer.driver", "analyze_program", "analysis.other"),
    ("repro.parallelizer.driver", "classify_scalars", "dependence.scalars"),
    ("repro.parallelizer.driver", "collect_accesses", "dependence.accesses"),
    ("repro.parallelizer.driver", "classic_independent", "dependence.classic"),
    ("repro.parallelizer.driver", "extended_independent", "dependence.extended"),
    ("repro.parallelizer.driver", "check_certificate", "verify.checker"),
    ("repro.parallelizer.driver", "check_fusion_step", "verify.fusion"),
    ("repro.verify.staticrace", "classify_loop", "verify.staticrace"),
    ("repro.parallelizer", "parallelize", "parallelizer.decide"),
    ("repro.parallelizer.codegen", "emit_openmp", "parallelizer.codegen"),
    ("repro.runtime.compile", "compile_program", "runtime.lower"),
    ("repro.runtime.fuse", "apply_fusion", "runtime.fuse"),
    ("repro.runtime.costmodel", "plan_program", "runtime.plan"),
    ("repro.runtime.compile", "run_program", "runtime.run"),
    ("repro.runtime.compile", "CompiledProgram.run", "runtime.run"),
    ("repro.runtime.parbackend", "WorkerPool.ensure_program", "pool.install"),
    ("repro.runtime.parbackend", "WorkerPool.adopt_env", "pool.adopt"),
    ("repro.runtime.parbackend", "WorkerPool.release_env", "pool.release"),
    ("repro.runtime.parbackend", "WorkerPool.run_loop", "pool.dispatch"),
)

#: daemon-side targets, installed only by the traced daemon launcher
SERVICE_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.service.server", "AnalysisService._dispatch", "service.queue"),
    ("repro.service.server", "AnalysisService._process", "service.compute"),
)

#: request field that carries the benchmark's operation id; the daemon
#: ignores unknown request fields
RID_FIELD = "bench_rid"

# span tuple fields
NAME, START, END, PARENT, OP, TAG = range(6)


class Recorder:
    """Collects spans from every thread that calls a wrapped entry point."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        #: one span list per thread; a span's parent indexes its own list
        self.buffers: List[List[tuple]] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- per-thread state ---------------------------------------------------

    def _state(self):
        loc = self._local
        if not hasattr(loc, "spans"):
            loc.spans, loc.stack, loc.op = [], [], None
            with self._lock:
                self.buffers.append(loc.spans)
        return loc

    def set_op(self, op: Any) -> None:
        """Operation id for the spans this thread records from now on."""
        self._state().op = op

    def begin(self, name: str) -> int:
        loc = self._state()
        idx = len(loc.spans)
        parent = loc.stack[-1] if loc.stack else -1
        loc.stack.append(idx)
        loc.spans.append((name, _ns(), None, parent, loc.op, None))
        return idx

    def end(self, idx: int, tag: Any = None) -> None:
        loc = self._local
        loc.stack.pop()
        name, start, _, parent, op, _ = loc.spans[idx]
        loc.spans[idx] = (name, start, _ns(), parent, op, tag)

    def detached(self, name: str, start: int, end: int, op: Any) -> None:
        """A span with no parent in its thread (joined to others by op id)."""
        self._state().spans.append((name, start, end, -1, op, None))

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, fn: Callable, name: str) -> Callable:
        rec = self
        tagger = _TAGGERS.get(name)

        def wrapper(*args, **kwargs):
            idx = rec.begin(name)
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                rec.end(idx, tagger(out) if tagger and out is not None else None)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_dispatch(self, fn: Callable, name: str) -> Callable:
        """The daemon's per-request coroutine: a detached span per request."""
        rec = self

        async def wrapper(service, request, *args, **kwargs):
            start = _ns()
            try:
                return await fn(service, request, *args, **kwargs)
            finally:
                op = request.get(RID_FIELD) if isinstance(request, dict) else None
                rec.detached(name, start, _ns(), op)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_process(self, fn: Callable, name: str) -> Callable:
        """The daemon's compute-thread handler: it sets the thread's op id."""
        rec = self

        def wrapper(service, request, *args, **kwargs):
            rec.set_op(request.get(RID_FIELD) if isinstance(request, dict) else None)
            idx = rec.begin(name)
            try:
                return fn(service, request, *args, **kwargs)
            finally:
                rec.end(idx)
                rec.set_op(None)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, targets: Iterable[Tuple[str, str, str]]) -> None:
        for module, attr, name in targets:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            fn = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
            if asyncio.iscoroutinefunction(fn):
                wrapped = self._wrap_dispatch(fn, name)
            elif name == "service.compute":
                wrapped = self._wrap_process(fn, name)
            else:
                wrapped = self._wrap(fn, name)
            self._patches.append((owner, leaf, fn))
            setattr(owner, leaf, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, leaf, fn = self._patches.pop()
            setattr(owner, leaf, fn)

    # -- output ---------------------------------------------------------------

    def spans(self) -> List[List[tuple]]:
        with self._lock:
            return [list(b) for b in self.buffers]

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans(), fh)


def _cert_tag(res) -> str:
    return "ok" if getattr(res, "ok", False) else "rejected"


_TAGGERS: Dict[str, Callable[[Any], Any]] = {"verify.checker": _cert_tag}


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def _covered(start: int, end: int, intervals: List[Tuple[int, int]]) -> int:
    """Length of [start, end) covered by the union of ``intervals``."""
    total, cur_s, cur_e = 0, None, None
    for s, e in sorted((max(s, start), min(e, end)) for s, e in intervals):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


class Tree:
    """Spans of several threads or processes, linked into one forest.

    ``link`` maps a (span name, op id) of a thread-root span to the name
    of the span (same op id) that becomes its parent, which is how the
    daemon's compute-thread spans hang under the daemon's per-request
    span, and that under the client's request span.
    """

    def __init__(self) -> None:
        self.nodes: List[tuple] = []
        self.children: Dict[int, List[int]] = defaultdict(list)
        self.roots: List[int] = []

    def add_buffers(self, buffers: Iterable[List[tuple]]) -> None:
        for buf in buffers:
            index: Dict[int, int] = {}  # buffer-local index -> node index
            for local, span in enumerate(buf):
                if span[END] is None:
                    continue  # still open when the buffer was read
                i = index[local] = len(self.nodes)
                self.nodes.append(tuple(span))
                parent = index.get(span[PARENT], -1)
                if parent >= 0:
                    self.children[parent].append(i)
                else:
                    self.roots.append(i)

    def link(self, child_name: str, parent_name: str) -> None:
        by_op = {node[OP]: i for i, node in enumerate(self.nodes) if node[NAME] == parent_name}
        keep = []
        for i in self.roots:
            node = self.nodes[i]
            if node[NAME] == child_name and node[OP] in by_op:
                self.children[by_op[node[OP]]].append(i)
            else:
                keep.append(i)
        self.roots = keep

    def self_times(self, root_name: str, ops: Optional[set] = None) -> Dict[str, Dict[str, float]]:
        """Per layer: total self time (ns) and span count under the roots
        named ``root_name`` whose op id is in ``ops`` (all when None)."""
        out: Dict[str, Dict[str, float]] = defaultdict(lambda: {"self_ns": 0, "calls": 0, "tags": defaultdict(int)})
        stack = [
            i
            for i in self.roots
            if self.nodes[i][NAME] == root_name and (ops is None or self.nodes[i][OP] in ops)
        ]
        while stack:
            i = stack.pop()
            node = self.nodes[i]
            kids = self.children.get(i, ())
            covered = _covered(node[START], node[END], [(self.nodes[k][START], self.nodes[k][END]) for k in kids])
            entry = out[node[NAME]]
            entry["self_ns"] += node[END] - node[START] - covered
            entry["calls"] += 1
            if node[TAG] is not None:
                entry["tags"][node[TAG]] += 1
            stack.extend(kids)
        return out
