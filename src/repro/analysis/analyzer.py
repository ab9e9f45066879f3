"""Program-level analysis driver.

Proceeds in program order (paper §2.2): straight-line statements update a
program-level value state (so facts like ``irownnz = 0`` or
``col_ptr[0] = 0`` are available); each loop nest is analyzed from the
inside out — Phase-1 then Phase-2 per level, collapsing as it goes — and
the aggregated effects are applied back to the program state.  Array
properties proven inside a nest are *resolved* against the program state
(``Λ`` markers replaced by pre-loop values) and recorded in the
:class:`~repro.analysis.properties.PropertyStore`.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.budget import scoped_budget
from repro.diagnostics import (
    UNSUPPORTED_PATTERN,
    Diagnostic,
    diagnostic_from_exception,
)
from repro.ir import perfstats

from repro.analysis.collapse import CollapsedLoop, MarkerBounds, subst_range
from repro.analysis.config import AnalysisConfig
from repro.analysis.irbridge import eval_expr
from repro.analysis.loopinfo import LoopNest, assigned_arrays, assigned_scalars, find_loop_nests, remap_nests
from repro.analysis.normalize import normalize_program
from repro.analysis.phase1 import Phase1Result, run_phase1
from repro.analysis.phase2 import Phase2Result, run_phase2
from repro.analysis.properties import ArrayProperty, MonoKind, PropertyStore
from repro.ir.rangedict import RangeDict
from repro.ir.ranges import Sign, SymRange, sign_of
from repro.ir.symbols import ArrayRef, BigLambda, Expr, IntLit, Sym
from repro.lang.astnodes import ArrayAccess, Assign, Compound, Decl, For, Id, Program, Statement
from repro.lang.cparser import parse_program
from repro.lang.digest import node_fingerprint
from repro.lang.printer import to_c
from repro.verify.lint import lint_phase1, lint_phase2, lint_property


class ProgramState:
    """Known values of scalars and individual array elements between loops."""

    def __init__(self):
        self.scalars: Dict[str, SymRange] = {}
        self.elements: Dict[Tuple, SymRange] = {}  # key: (array, subscript keys)

    def set_scalar(self, name: str, r: SymRange) -> None:
        self.scalars[name] = r

    def kill_scalar(self, name: str) -> None:
        self.scalars.pop(name, None)

    def set_element(self, array: str, idx: Tuple[Expr, ...], r: SymRange) -> None:
        self.elements[(array,) + tuple(k.key() for k in idx)] = r

    def get_element(self, array: str, idx: Tuple[Expr, ...]) -> Optional[SymRange]:
        return self.elements.get((array,) + tuple(k.key() for k in idx))

    def kill_array(self, array: str) -> None:
        for k in [k for k in self.elements if k[0] == array]:
            del self.elements[k]

    def copy(self) -> "ProgramState":
        """Independent state (SymRange values are immutable and shared)."""
        new = ProgramState()
        new.scalars = dict(self.scalars)
        new.elements = dict(self.elements)
        return new


class ProgramBounds:
    """BoundsProvider over the program state (for Λ/element substitution)."""

    def __init__(self, state: ProgramState):
        self.state = state

    def range_of(self, sym) -> Optional[SymRange]:
        if isinstance(sym, BigLambda):
            return self.state.scalars.get(sym.var)
        if isinstance(sym, Sym):
            return self.state.scalars.get(sym.name)
        if isinstance(sym, ArrayRef):
            return self.state.get_element(sym.name, tuple(sym.subs_))
        return None

    # MarkerBounds-compatible callable
    def resolve(self, name: str) -> Optional[SymRange]:
        return self.state.scalars.get(name)


@dataclasses.dataclass
class AnalysisResult:
    """Whole-program analysis output."""

    program: Program
    config: AnalysisConfig
    properties: PropertyStore
    nests: List[LoopNest]
    #: per-loop Phase-2 results keyed by loop_id
    loop_results: Dict[str, Phase2Result]
    #: per-loop Phase-1 results keyed by loop_id (for inspection/tests)
    phase1_results: Dict[str, Phase1Result]
    #: facts usable by downstream passes (counter_max ranges etc.)
    facts: RangeDict
    state: ProgramState
    #: structured diagnostics: unsupported patterns, budget stops, faults
    diagnostics: List[Diagnostic] = dataclasses.field(default_factory=list)

    @property
    def failed_nests(self) -> Set[str]:
        """Nest ids whose analysis was aborted by an exception.

        The parallelizer marks every loop of these nests serial: the
        analysis died mid-flight, so even the classical dependence test is
        not re-attempted on them (conservative downgrade).
        """
        return {d.nest_id for d in self.diagnostics if d.is_fault and d.nest_id}

    @property
    def has_program_fault(self) -> bool:
        """True when whole-program analysis failed (every loop stays serial)."""
        return any(d.is_fault and d.nest_id is None for d in self.diagnostics)

    def clone(self) -> "AnalysisResult":
        """Independent copy that mutating consumers may scribble on.

        The AST is structurally cloned — cheap, since interned
        :mod:`repro.ir.symbols` expressions are shared, never duplicated —
        and the loop nests are re-discovered over the clone;
        ``For.clone()`` preserves ``loop_id``, so nest and decision ids
        line up with the original.  Phase-1/Phase-2 results and ``facts``
        are shared: every consumer treats them as read-only, and
        :class:`~repro.ir.rangedict.RangeDict` is immutable by convention.
        The property store and program state get private registries so
        ``record``/``kill`` cannot leak back into the original.
        """
        program = self.program.clone()
        nests = remap_nests(self.nests, program)
        return AnalysisResult(
            program=program,
            config=self.config,
            properties=self.properties.copy(),
            nests=nests if nests is not None else find_loop_nests(program),
            loop_results=dict(self.loop_results),
            phase1_results=dict(self.phase1_results),
            facts=self.facts,
            state=self.state.copy(),
            diagnostics=list(self.diagnostics),
        )


class ProgramAnalyzer:
    """Drives normalization, Phase-1/Phase-2 per nest, and property resolution."""

    def __init__(self, config: Optional[AnalysisConfig] = None):
        self.config = config or AnalysisConfig.new_algorithm()

    # -- public API -----------------------------------------------------------

    def analyze(self, prog: Union[str, Program]) -> AnalysisResult:
        """Analyze a program (source text or parsed AST).

        **Fail-soft.**  Parse errors raise (there is no program to
        degrade), but once a program exists this method never raises:
        each top-level loop nest is analyzed inside a fault boundary —
        any exception (unsupported pattern, blown
        :class:`~repro.budget.AnalysisBudget`, ``RecursionError``,
        internal bug) downgrades *that nest* to a conservative result
        (assigned arrays/scalars lose all facts, no properties proven)
        plus a :class:`~repro.diagnostics.Diagnostic`, and analysis of
        the remaining nests continues.  A failure outside any nest
        (normalization, nest discovery) degrades the whole program the
        same way.
        """
        if isinstance(prog, str):
            # the statement-level parse memo rides the same production-only
            # gate as the per-nest caches (verify_ir keeps positions exact)
            prog = parse_program(prog, cache=not self.config.verify_ir)
        try:
            return self._analyze_ast(prog)
        except Exception as exc:
            # whole-program fault: nothing proven, every loop stays serial
            return AnalysisResult(
                program=prog,
                config=self.config,
                properties=PropertyStore(),
                nests=[],
                loop_results={},
                phase1_results={},
                facts=RangeDict(),
                state=ProgramState(),
                diagnostics=[diagnostic_from_exception(exc)],
            )

    def _analyze_ast(self, prog: Program) -> AnalysisResult:
        prog = normalize_program(prog)
        state = ProgramState()
        store = PropertyStore()
        loop_results: Dict[str, Phase2Result] = {}
        phase1_results: Dict[str, Phase1Result] = {}
        diagnostics: List[Diagnostic] = []
        facts = RangeDict()
        nests = find_loop_nests(prog)
        nest_by_loop = {id(n.loop): n for nst in nests for n in nst.walk()}

        # every loop_id currently assigned anywhere in the program: a
        # cached nest's ids may only be installed when they collide with
        # none of these (minus the nest's own ids, which they replace)
        used_ids: Set[str] = {
            n.loop_id
            for s in prog.stmts
            for n in s.walk()
            if isinstance(n, For) and n.loop_id
        }
        for stmt in prog.stmts:
            if isinstance(stmt, For):
                nest = nest_by_loop[id(stmt)]
                entry_facts = self._facts_from_state(state, facts)
                # debug-assertions mode (verify_ir) disables per-nest reuse:
                # the IR/SVD linter and any injected faults must genuinely
                # re-run, not be served from a pre-fault cached analysis
                incremental = not self.config.verify_ir
                key = _nest_key(nest, entry_facts, self.config)
                entry = _nest_cache_lookup(key) if incremental else None
                own_ids = {i for i in _nest_for_ids(stmt) if i}
                if entry is not None and _rebase_nest_ids(
                    stmt, entry.ids, used_ids - own_ids
                ):
                    # per-nest incremental hit: the nest's source and the
                    # entry facts it can observe are unchanged, so its
                    # Phase-1/Phase-2 results are reused verbatim (with the
                    # cached loop_ids written onto this AST's For nodes);
                    # only the program-state application re-runs, because
                    # it reads state this nest does NOT key on (elements)
                    perfstats.STATS.nest_hits += 1
                    used_ids -= own_ids
                    used_ids.update(i for i in entry.ids if i)
                    loop_results.update(entry.loop_results)
                    phase1_results.update(entry.phase1_results)
                    if entry.fault is not None:
                        diagnostics.append(
                            dataclasses.replace(
                                entry.fault,
                                nest_id=nest.loop.loop_id,
                                span=nest.loop.pos,
                            )
                        )
                    facts = self._apply_collapsed_to_state(entry.collapsed, state, store, facts)
                    continue
                perfstats.STATS.nest_misses += 1
                fault: Optional[Diagnostic] = None
                try:
                    with scoped_budget(self.config.budget):
                        cl = self._analyze_nest(nest, loop_results, phase1_results, entry_facts)
                        facts = self._apply_collapsed_to_state(cl, state, store, facts)
                except Exception as exc:
                    fault = diagnostic_from_exception(
                        exc, nest_id=nest.loop.loop_id, span=nest.loop.pos
                    )
                    diagnostics.append(fault)
                    cl = _conservative_collapse(nest)
                    self._drop_partial_results(nest, loop_results, phase1_results)
                    facts = self._apply_collapsed_to_state(cl, state, store, facts)
                ids = _nest_for_ids(stmt)
                used_ids.update(i for i in ids if i)
                nest_ids = {i for i in ids if i}
                if not incremental:
                    continue
                _nest_cache_store(
                    key,
                    _NestEntry(
                        ids=ids,
                        loop_results={
                            k: v for k, v in loop_results.items() if k in nest_ids
                        },
                        phase1_results={
                            k: v for k, v in phase1_results.items() if k in nest_ids
                        },
                        collapsed=cl,
                        fault=fault,
                    ),
                )
            else:
                self._exec_straightline(stmt, state, store)

        if self.config.array_analysis:
            diagnostics.extend(_unsupported_pattern_diagnostics(nests))

        return AnalysisResult(
            program=prog,
            config=self.config,
            properties=store,
            nests=nests,
            loop_results=loop_results,
            phase1_results=phase1_results,
            facts=facts,
            state=state,
            diagnostics=diagnostics,
        )

    @staticmethod
    def _drop_partial_results(
        nest: LoopNest,
        loop_results: Dict[str, Phase2Result],
        phase1_results: Dict[str, Phase1Result],
    ) -> None:
        """Remove inner-loop results recorded before the nest's fault.

        The inside-out walk stores per-level results as it goes; when an
        outer level faults, those half-contextualized inner results must
        not leak into ``loop_results`` as if the nest had been analyzed.
        """
        for sub_nest in nest.walk():
            lid = sub_nest.loop.loop_id or ""
            loop_results.pop(lid, None)
            phase1_results.pop(lid, None)

    # -- nest analysis (inside-out) -------------------------------------------

    def _facts_from_state(self, state: ProgramState, facts: RangeDict) -> RangeDict:
        """Known program values exposed as sign/bounds facts for Phase-2."""
        out = facts
        for name, r in state.scalars.items():
            out = out.set(Sym(name), r)
        # element facts resolve via ProgramBounds at property time
        return out

    def _analyze_nest(
        self,
        nest: LoopNest,
        loop_results: Dict[str, Phase2Result],
        phase1_results: Dict[str, Phase1Result],
        entry_facts: Optional[RangeDict] = None,
        depth: int = 0,
    ) -> CollapsedLoop:
        loop_id = nest.loop.loop_id or "L?"
        if not nest.eligible or depth >= self.config.max_depth:
            return CollapsedLoop(
                loop_id=loop_id,
                index=nest.index or "?",
                trip_count=None,
                assigned_scalars=frozenset(assigned_scalars(nest.loop.body))
                | ({nest.index} if nest.index else set()),
                assigned_arrays=frozenset(assigned_arrays(nest.loop.body)),
                analyzed=False,
            )
        collapsed: Dict[str, CollapsedLoop] = {}
        for inner in nest.inner:
            cl = self._analyze_nest(inner, loop_results, phase1_results, entry_facts, depth + 1)
            if cl.analyzed:
                collapsed[cl.loop_id] = cl
        p1 = run_phase1(nest, collapsed)
        if self.config.verify_ir:
            # structural well-formedness of the Phase-1 SVD; a LintError
            # escapes to the nest fault boundary (internal-error downgrade)
            lint_phase1(p1)
        p2 = run_phase2(nest, p1, self.config, entry_facts or RangeDict())
        if self.config.verify_ir:
            lint_phase2(p1, p2)
        loop_results[loop_id] = p2
        phase1_results[loop_id] = p1
        return p2.collapsed

    # -- program-state updates ----------------------------------------------------

    def _apply_collapsed_to_state(
        self,
        cl: CollapsedLoop,
        state: ProgramState,
        store: PropertyStore,
        facts: RangeDict,
    ) -> RangeDict:
        bounds = ProgramBounds(state)
        markers = MarkerBounds(bounds.resolve)

        # resolve and record properties BEFORE updating scalar state (Λ
        # markers refer to pre-loop values)
        for prop in cl.properties:
            resolved = self._resolve_property(prop, cl, state, bounds)
            if resolved is not None:
                if self.config.verify_ir:
                    lint_property(resolved)
                store.record(resolved)
                if resolved.counter_max is not None and resolved.counter_var is not None:
                    eff = cl.scalar_effects.get(resolved.counter_var)
                    if eff is not None:
                        facts = facts.set(resolved.counter_max, subst_range(eff, markers))

        # arrays written by this loop lose stale properties / element facts
        for arr in cl.assigned_arrays:
            state.kill_array(arr)
            established = {p.array for p in cl.properties}
            if arr not in established:
                store.kill(arr)

        # scalar effects
        new_vals: Dict[str, SymRange] = {}
        for name, eff in cl.scalar_effects.items():
            new_vals[name] = subst_range(eff, markers)
        for name in cl.assigned_scalars:
            if name in new_vals and not new_vals[name].is_unknown:
                state.set_scalar(name, new_vals[name])
            else:
                state.kill_scalar(name)
        return facts

    def _resolve_property(
        self,
        prop: ArrayProperty,
        cl: CollapsedLoop,
        state: ProgramState,
        bounds: ProgramBounds,
    ) -> Optional[ArrayProperty]:
        markers = MarkerBounds(bounds.resolve)
        region = subst_range(prop.region, markers) if prop.region is not None else None
        value_range = subst_range(prop.value_range, markers) if prop.value_range is not None else None
        kind = prop.kind

        # prefix extension: if elements below the region's start have known
        # values not exceeding the stored values, the property extends to
        # them (e.g. SDDMM's `col_ptr[0] = 0` before the fill loop)
        if (
            region is not None
            and region.has_lb
            and isinstance(region.lb, IntLit)
            and region.lb.value > 0
            and prop.dim == 0
            and value_range is not None
            and value_range.has_lb
        ):
            lo = region.lb.value
            prefix_ok = True
            strict_ok = True
            prev = None
            for j in range(lo):
                ev = state.get_element(prop.array, (IntLit(j),))
                if ev is None or not ev.has_ub:
                    prefix_ok = False
                    break
                if prev is not None and not prev.le(ev):
                    prefix_ok = False
                    break
                if prev is not None and not prev.lt(ev):
                    strict_ok = False
                prev = ev
            if prefix_ok and prev is not None:
                gap = sign_of(_sub_expr(value_range.lb, prev.ub))
                if gap is Sign.POSITIVE:
                    pass  # strict gap: kind unchanged
                elif gap.is_pnn:
                    kind = kind.meet(MonoKind.MA)
                    prefix_ok = True
                else:
                    prefix_ok = False
            if prefix_ok and prev is not None:
                if not strict_ok:
                    kind = kind.meet(MonoKind.MA)
                region = SymRange(IntLit(0), region.ub)

        evidence = prop.evidence
        if evidence is not None:
            # the certificate step tracks the resolved form (region after Λ
            # substitution / prefix extension, kind after any lattice meet)
            evidence = dataclasses.replace(evidence, kind=kind, region=region)
        return ArrayProperty(
            array=prop.array,
            kind=kind,
            dim=prop.dim,
            region=region,
            value_range=value_range,
            intermittent=prop.intermittent,
            counter_max=prop.counter_max,
            counter_var=prop.counter_var,
            source_loop=prop.source_loop,
            evidence=evidence,
        )

    def _exec_straightline(self, stmt: Statement, state: ProgramState, store: PropertyStore) -> None:
        if isinstance(stmt, Compound):
            for s in stmt.stmts:
                self._exec_straightline(s, state, store)
            return
        if isinstance(stmt, Decl) and stmt.init is not None and not stmt.dims:
            state.set_scalar(stmt.name, eval_expr(stmt.init, _StateResolver(state)))
            return
        if isinstance(stmt, Assign):
            resolver = _StateResolver(state)
            val = eval_expr(stmt.rhs, resolver)
            if isinstance(stmt.lhs, Id):
                if val.is_unknown:
                    state.kill_scalar(stmt.lhs.name)
                else:
                    state.set_scalar(stmt.lhs.name, val)
            elif isinstance(stmt.lhs, ArrayAccess):
                idx = [eval_expr(i, resolver) for i in stmt.lhs.indices]
                if all(i.is_point for i in idx):
                    state.set_element(stmt.lhs.name, tuple(i.lb for i in idx), val)
                else:
                    state.kill_array(stmt.lhs.name)
                    store.kill(stmt.lhs.name)


def _conservative_collapse(nest: LoopNest) -> CollapsedLoop:
    """Downgraded effect summary for a nest whose analysis faulted.

    No properties, no effects: everything the nest assigns is treated as
    clobbered, so applying this collapse kills every fact/property about
    the touched scalars and arrays — the conservative answer.
    """
    return CollapsedLoop(
        loop_id=nest.loop.loop_id or "L?",
        index=nest.index or "?",
        trip_count=None,
        assigned_scalars=frozenset(assigned_scalars(nest.loop))
        | ({nest.index} if nest.index else set()),
        assigned_arrays=frozenset(assigned_arrays(nest.loop)),
        analyzed=False,
    )


def _unsupported_pattern_diagnostics(nests: List[LoopNest]) -> List[Diagnostic]:
    """One ``unsupported-pattern`` diagnostic per ineligible loop.

    These loops were skipped conservatively (not aborted), but a
    ``--strict`` caller wants to know which loops silently cost a
    parallelization opportunity and why.
    """
    out: List[Diagnostic] = []
    for nest in nests:
        for sub_nest in nest.walk():
            if not sub_nest.eligible:
                out.append(
                    Diagnostic(
                        UNSUPPORTED_PATTERN,
                        sub_nest.reason or "loop not analyzable",
                        nest_id=sub_nest.loop.loop_id,
                        span=sub_nest.loop.pos,
                    )
                )
    return out


class _StateResolver:
    """ScalarResolver over the program state (straight-line execution)."""

    def __init__(self, state: ProgramState):
        self.state = state

    def resolve(self, name: str) -> Optional[SymRange]:
        return self.state.scalars.get(name)

    def resolve_array_read(self, name: str, idx) -> Optional[SymRange]:
        if all(i.is_point for i in idx):
            return self.state.get_element(name, tuple(i.lb for i in idx))
        return None


def _sub_expr(a: Expr, b: Expr) -> Expr:
    from repro.ir.symbols import sub as _sub

    return _sub(a, b)


#: pristine whole-program results keyed by (source digest, config
#: fingerprint); entries are never handed out directly — callers always
#: receive a clone (see analyze_program)
_ANALYSIS_CACHE = perfstats.BoundedCache()

perfstats.register_cache("analysis", _ANALYSIS_CACHE)


def _source_digest(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# per-nest incremental cache (memory + disk tier, kind "nest")
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class _NestEntry:
    """Pristine analysis fragment of one top-level loop nest.

    ``ids`` records the ``loop_id`` of every ``For`` node in the nest
    subtree, preorder; on a hit those ids are written back onto the new
    AST's loops (:func:`_rebase_nest_ids`) so the cached Phase-1/Phase-2
    results, collapsed effects, and property ``source_loop`` references
    stay internally consistent without rewriting any dataclass.
    """

    ids: Tuple[Optional[str], ...]
    loop_results: Dict[str, Phase2Result]
    phase1_results: Dict[str, Phase1Result]
    collapsed: CollapsedLoop
    #: recorded fault diagnostic when the nest's analysis was aborted
    fault: Optional[Diagnostic] = None


#: per-nest pristine fragments keyed by (nest digest, config fingerprint);
#: the digest covers the nest's normalized source AND the slice of the
#: entry facts the nest can observe, so a hit is valid wherever the nest
#: reappears — other nests may change freely
_NEST_CACHE = perfstats.BoundedCache()

perfstats.register_cache("nest", _NEST_CACHE)


def _observed_names(loop: For) -> Set[str]:
    """Every identifier/array name the nest subtree mentions."""
    out: Set[str] = set()
    for node in loop.walk():
        if isinstance(node, Id):
            out.add(node.name)
        elif isinstance(node, ArrayAccess):
            out.add(node.name)
        elif isinstance(node, Decl):
            out.add(node.name)
    return out


def _entry_slice(entry_facts: RangeDict, observed: Set[str]) -> str:
    """Canonical rendering of the facts the nest can observe.

    A fact participates when any free symbol of its key names something
    the nest mentions; facts about unrelated symbols cannot influence the
    nest's analysis and are deliberately excluded so edits elsewhere in
    the program do not invalidate this nest's cache entry.
    """
    parts = []
    for k, v in entry_facts.items():
        names = {s.name for s in k.free_symbols()}
        if isinstance(k, (BigLambda,)):
            names.add(k.var)
        if names & observed:
            parts.append(f"{k}={v}")
    return "\n".join(sorted(parts))


def _nest_key(
    nest, entry_facts: RangeDict, config: AnalysisConfig
) -> Tuple[str, str]:
    if nest.fingerprint is None:
        nest.fingerprint = node_fingerprint(nest.loop)
    if nest.observed is None:
        nest.observed = _observed_names(nest.loop)
    payload = nest.fingerprint + "\x00" + _entry_slice(entry_facts, nest.observed)
    return (
        hashlib.sha256(payload.encode("utf-8")).hexdigest(),
        config.fingerprint(),
    )


def _nest_for_ids(stmt: For) -> Tuple[Optional[str], ...]:
    """``loop_id`` of every For node in the subtree, preorder."""
    return tuple(n.loop_id for n in stmt.walk() if isinstance(n, For))


def _rebase_nest_ids(
    stmt: For, cached_ids: Tuple[Optional[str], ...], used_ids: Set[str]
) -> bool:
    """Assign the cached loop_ids onto the new AST's For nodes.

    Returns False — caller treats the lookup as a miss — when the cached
    ids cannot be installed consistently: shape mismatch, an id already
    claimed by an earlier nest of this program (two textually identical
    nests share a cache entry), or internal duplicates from a foreign
    disk entry.
    """
    fors = [n for n in stmt.walk() if isinstance(n, For)]
    if len(fors) != len(cached_ids):
        return False
    concrete = [i for i in cached_ids if i]
    if len(set(concrete)) != len(concrete) or any(i in used_ids for i in concrete):
        return False
    for node, lid in zip(fors, cached_ids):
        if lid:
            node.loop_id = lid
    return True


def _nest_cache_lookup(key: Tuple[str, str]) -> Optional[_NestEntry]:
    hit = _NEST_CACHE.get(key)
    if hit is not None:
        return hit
    from repro import cache as _disk

    disk = _disk.load("nest", key)
    if disk is not None:
        _NEST_CACHE[key] = disk
        return disk
    return None


def _nest_cache_store(key: Tuple[str, str], entry: _NestEntry) -> None:
    _NEST_CACHE[key] = entry
    from repro import cache as _disk

    _disk.store("nest", key, entry)


def analyze_program(
    prog: Union[str, Program], config: Optional[AnalysisConfig] = None
) -> AnalysisResult:
    """Convenience wrapper: analyze source text or an AST.

    Source-text inputs are cached by ``(sha256(source),
    config.fingerprint())`` — the figure/table scripts analyze the same
    dozen benchmark sources hundreds of times, and analysis is a pure
    function of (source, config).  The cache holds a *pristine snapshot*
    and every call (hit or miss) returns a private
    :meth:`AnalysisResult.clone`, so downstream mutation — the
    parallelizer attaching pragmas, a transform rewriting the AST — can
    never poison the cache or another caller's result.  AST inputs bypass
    the cache: the caller owns (and may have mutated) the tree, so there
    is no stable identity to key on.
    """
    config = config or AnalysisConfig.new_algorithm()
    if not isinstance(prog, str):
        return ProgramAnalyzer(config).analyze(prog)
    key = (_source_digest(prog), config.fingerprint())
    hit = _ANALYSIS_CACHE.get(key)
    if hit is not None:
        perfstats.STATS.analysis_hits += 1
        return hit.clone()
    from repro import cache as _disk

    disk = _disk.load("analysis", key)
    if disk is not None:
        perfstats.STATS.analysis_hits += 1
        _ANALYSIS_CACHE[key] = disk
        return disk.clone()
    perfstats.STATS.analysis_misses += 1
    result = ProgramAnalyzer(config).analyze(prog)
    _ANALYSIS_CACHE[key] = result.clone()
    if _disk.cache_dir():  # don't pay the snapshot clone with the tier off
        _disk.store("analysis", key, result.clone())
    return result
