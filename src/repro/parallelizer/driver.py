"""Parallelization decisions per loop nest.

The driver analyzes the whole program first (populating the property store
under the configured capability set), then visits every loop nest outermost
first: the outermost parallelizable loop of each nest gets the OpenMP
annotation; loops enclosed by a parallel loop are left serial (their
parallelism is subsumed); when an outer loop cannot be parallelized the
driver descends and tries the inner loops — this is exactly what produces
the paper's "fork-join overhead" effect when classical Cetus can only
parallelize the inner loops of AMGmk/SDDMM/UA (Figure 13 discussion).
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Dict, List, Optional, Tuple, Union

from repro.analysis.analyzer import (
    AnalysisResult,
    _observed_names,
    _source_digest,
    analyze_program,
)
from repro.analysis.config import AnalysisConfig
from repro.analysis.properties import ArrayProperty, MonoKind
from repro.diagnostics import Diagnostic, diagnostic_from_exception
from repro.ir import perfstats
from repro.analysis.irbridge import eval_expr
from repro.analysis.loopinfo import LoopNest
from repro.dependence.accesses import collect_accesses, collect_inner_loops
from repro.dependence.classic import classic_independent
from repro.dependence.extended import (
    RuntimeCheck,
    extended_independent,
    speculative_candidates,
)
from repro.dependence.privatize import classify_scalars
from repro.diagnostics import CERTIFICATE_REJECTED, FUSION_REJECTED, STATIC_RACE_DETECTED
from repro.parallelizer.fusion import FusionDecision, propose_fusions
from repro.ir.simplify import simplify
from repro.ir.symbols import IntLit, Sym, sub
from repro.lang.astnodes import For, Program
from repro.lang.digest import node_fingerprint
from repro.lang.printer import to_c
from repro.verify.certificate import (
    ROUTE_CLASSICAL,
    SPEC_MONOTONIC,
    SPEC_STRICT,
    Certificate,
    DisproofStep,
    MonoStep,
    ScalarStep,
    SpeculativeStep,
    SSRStep,
)
from repro.verify.checker import CheckResult, check_certificate, check_fusion_step


@dataclasses.dataclass
class LoopDecision:
    """Outcome for one loop."""

    loop_id: str
    index: str
    depth: int  # 0 = outermost of its nest
    parallel: bool
    reason: str
    private: List[str] = dataclasses.field(default_factory=list)
    reductions: List[Tuple[str, str]] = dataclasses.field(default_factory=list)
    checks: List[RuntimeCheck] = dataclasses.field(default_factory=list)
    enclosed_by_parallel: bool = False
    #: proof certificate (PARALLEL verdicts only); frozen, safely shared
    certificate: Optional[Certificate] = None
    #: the independent checker re-validated the certificate
    certificate_verified: bool = False
    #: structured obstacles for serial loops (which property was missing)
    blockers: List[str] = dataclasses.field(default_factory=list)
    #: conditional certificate for the speculative inspector-executor tier:
    #: the verdict stays serial (``parallel`` is False), but IF the named
    #: index arrays pass a dispatch-time monotonicity scan the runtime may
    #: promote this loop to the compiled-parallel executor
    speculation: Optional[Certificate] = None
    #: the trusted-core checker accepted the conditional certificate; only
    #: verified speculations are ever lowered to inspector-executor pairs
    speculation_verified: bool = False

    def clone(self) -> "LoopDecision":
        """Copy with private list fields (RuntimeChecks are shared, read-only)."""
        return dataclasses.replace(
            self,
            private=list(self.private),
            reductions=list(self.reductions),
            checks=list(self.checks),
            blockers=list(self.blockers),
        )

    @property
    def pragma(self) -> Optional[str]:
        if not self.parallel:
            return None
        parts = ["omp parallel for"]
        if self.checks:
            cond = " && ".join(c.text for c in self.checks)
            parts.append(f"if({cond})")
        if self.private:
            parts.append("private(" + ", ".join(self.private) + ")")
        for op, var in self.reductions:
            parts.append(f"reduction({op}:{var})")
        return " ".join(parts)


@dataclasses.dataclass
class ParallelizationResult:
    """Annotated program plus all per-loop decisions."""

    program: Program
    config: AnalysisConfig
    decisions: Dict[str, LoopDecision]
    analysis: AnalysisResult
    #: loop-fusion candidates over adjacent top-level loops, each carrying
    #: the trusted core's verdict; only ``verified`` entries may fuse in the
    #: compiled backend (rejected ones are kept for --audit visibility)
    fusions: Tuple["FusionDecision", ...] = ()

    @property
    def parallel_loops(self) -> List[LoopDecision]:
        return [d for d in self.decisions.values() if d.parallel]

    @property
    def verified_fusions(self) -> Tuple["FusionDecision", ...]:
        return tuple(f for f in self.fusions if f.verified)

    @property
    def diagnostics(self) -> List[Diagnostic]:
        """Structured diagnostics collected across the whole pipeline."""
        return self.analysis.diagnostics

    def decision_for(self, loop_id: str) -> Optional[LoopDecision]:
        return self.decisions.get(loop_id)

    def to_c(self) -> str:
        """The OpenMP-annotated output program."""
        return to_c(self.program)

    def clone(self) -> "ParallelizationResult":
        """Independent copy (same invariant: ``program is analysis.program``)."""
        analysis = self.analysis.clone()
        return ParallelizationResult(
            program=analysis.program,
            config=self.config,
            decisions={k: d.clone() for k, d in self.decisions.items()},
            analysis=analysis,
            fusions=self.fusions,  # frozen dataclasses: safe to share
        )


#: pristine whole-pipeline results keyed by (source digest, config
#: fingerprint); entries are never handed out directly — callers always
#: receive a clone (see parallelize); LRU-bounded (REPRO_CACHE_MAX_ENTRIES)
_PARALLELIZE_CACHE: perfstats.BoundedCache = perfstats.BoundedCache()

perfstats.register_cache("parallelize", _PARALLELIZE_CACHE)


# ---------------------------------------------------------------------------
# per-nest decision cache (incremental re-parallelization)
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class _DecisionEntry:
    """Pristine decision delta for one top-level nest.

    ``decisions`` holds every :class:`LoopDecision` the nest produced
    (outer loop plus all inner loops); ``diagnostics`` the diagnostics the
    decision pass appended while deciding it.  Entries are cloned on every
    hit and diagnostic spans are rebased onto the current AST's positions.
    """

    decisions: Dict[str, LoopDecision]
    diagnostics: List[Diagnostic]


#: pristine per-nest decision deltas keyed by (digest, config fingerprint);
#: the digest covers the nest's source text, its loop ids, the property-store
#: slice the nest can observe (including each property's fill-loop AST) and
#: the program facts — so an edit elsewhere in the program that leaves all
#: of those untouched re-uses the decision without re-running the dependence
#: tests or the certificate checker
_NESTDEC_CACHE: perfstats.BoundedCache = perfstats.BoundedCache()

perfstats.register_cache("nestdec", _NESTDEC_CACHE)


def _mono_sig(ev: MonoStep) -> str:
    """Deterministic identity string for one piece of derivation evidence."""
    ssr = ev.ssr
    ssr_sig = f"{ssr.var}|{ssr.kind}|{ssr.k}|{ssr.conditional}" if ssr is not None else "-"
    return (
        f"{ev.array}|{ev.lemma}|{ev.kind}|{ev.dim}|{ev.source_loop}|{ev.counter_var}|"
        f"{ev.counter_max}|{ev.value_is_index}|{ev.ssr_var}|{ev.alpha}|{ev.rem_range}|"
        f"{ev.region}|{ssr_sig}"
    )


def _nest_decision_key(
    nest: LoopNest,
    analysis: AnalysisResult,
    config: AnalysisConfig,
    loops: Dict[str, For],
) -> Tuple[str, str]:
    """Cache key capturing everything a nest's decisions can depend on.

    The property slice keeps only properties of arrays the nest mentions,
    and folds in a digest of each property's *fill-loop AST* — the checker
    re-derives monotonicity claims against that loop, so a changed fill
    must miss even when the consumer nest itself is untouched.
    """
    src = nest.fingerprint or node_fingerprint(nest.loop)
    ids = ",".join(sn.loop.loop_id or "?" for sn in nest.walk())
    observed = nest.observed if nest.observed is not None else _observed_names(nest.loop)
    parts: List[str] = []
    # source-loop digests the analyzer already computed (top-level nests)
    loop_sigs: Dict[str, str] = {
        tn.loop.loop_id: tn.fingerprint[:16]
        for tn in analysis.nests
        if tn.loop.loop_id and tn.fingerprint
    }
    for prop in analysis.properties.all_properties():
        if prop.array not in observed:
            continue
        ev_sig = _mono_sig(prop.evidence) if prop.evidence is not None else "-"
        loop_sig = "-"
        if prop.source_loop is not None and prop.source_loop in loops:
            loop_sig = loop_sigs.get(prop.source_loop) or loop_sigs.setdefault(
                prop.source_loop, node_fingerprint(loops[prop.source_loop])[:16]
            )
        parts.append(
            f"{prop.array}|{prop.kind}|{prop.dim}|{prop.region}|{prop.value_range}|"
            f"{prop.intermittent}|{prop.counter_max}|{prop.counter_var}|"
            f"{prop.source_loop}|{ev_sig}|{loop_sig}"
        )
    facts_sig = str(analysis.facts) + "||" + ";".join(
        f"{k}={v}" for k, v in sorted(analysis.state.scalars.items(), key=lambda kv: kv[0])
    )
    payload = "\x00".join((src, ids, "\n".join(sorted(parts)), facts_sig))
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    return (digest, config.fingerprint())


def _nestdec_lookup(key: Tuple[str, str]) -> Optional[_DecisionEntry]:
    entry = _NESTDEC_CACHE.get(key)
    if entry is not None:
        return entry
    from repro import cache as _disk

    disk = _disk.load("nestdec", key)
    if disk is not None:
        _NESTDEC_CACHE[key] = disk
    return disk


def _nestdec_store(key: Tuple[str, str], entry: _DecisionEntry) -> None:
    _NESTDEC_CACHE[key] = entry
    from repro import cache as _disk

    _disk.store("nestdec", key, entry)


def _nestdec_install(
    entry: _DecisionEntry,
    decisions: Dict[str, LoopDecision],
    analysis: AnalysisResult,
    loops: Dict[str, For],
) -> None:
    """Replay a cached decision delta onto the current program."""
    for lid, d in entry.decisions.items():
        decisions[lid] = d.clone()
    for diag in entry.diagnostics:
        span = diag.span
        target = loops.get(diag.nest_id) if diag.nest_id else None
        if target is not None:
            span = target.pos
        analysis.diagnostics.append(dataclasses.replace(diag, span=span))


def is_parallelized(source: str, config: AnalysisConfig) -> bool:
    """Whether ``parallelize(source, config)`` would hit the in-memory cache."""
    return (_source_digest(source), config.fingerprint()) in _PARALLELIZE_CACHE


def parallelize(
    prog: Union[str, Program], config: Optional[AnalysisConfig] = None
) -> ParallelizationResult:
    """Run the configured pipeline and annotate the program.

    Like :func:`~repro.analysis.analyzer.analyze_program`, source-text
    inputs are cached by ``(sha256(source), config.fingerprint())`` so the
    experiment harness stops re-deciding identical pipelines.  The cache
    holds a pristine snapshot and every call returns a private
    :meth:`ParallelizationResult.clone`.  Pragma attachment below writes
    into the clone :func:`analyze_program` handed us — never into the
    analysis cache's own entry — so analysis-only consumers keep seeing
    the unannotated program.  AST inputs bypass the cache (the caller owns
    the mutable tree, which *is* annotated in place).
    """
    config = config or AnalysisConfig.new_algorithm()
    key = None
    if isinstance(prog, str):
        key = (_source_digest(prog), config.fingerprint())
        hit = _PARALLELIZE_CACHE.get(key)
        if hit is not None:
            perfstats.STATS.parallelize_hits += 1
            return hit.clone()
        from repro import cache as _disk

        disk = _disk.load("parallelize", key)
        if disk is not None:
            perfstats.STATS.parallelize_hits += 1
            _PARALLELIZE_CACHE[key] = disk
            return disk.clone()
        perfstats.STATS.parallelize_misses += 1
    analysis = analyze_program(prog, config)
    decisions: Dict[str, LoopDecision] = {}
    failed = analysis.failed_nests
    loops = _loops_by_id(analysis.program)
    for nest in analysis.nests:
        loop_id = nest.loop.loop_id or ""
        if analysis.has_program_fault or loop_id in failed:
            # fail-soft: the nest's analysis was aborted — conservative
            # serial, no classical retry on a half-analyzed nest
            _serialize_nest(nest, 0, "analysis aborted: conservative serial", decisions)
            continue
        # debug-assertions mode (verify_ir) disables per-nest reuse so the
        # decision pass, the checker and any injected faults genuinely re-run
        incremental = not config.verify_ir
        dec_key = _nest_decision_key(nest, analysis, config, loops) if incremental else None
        if dec_key is not None:
            cached = _nestdec_lookup(dec_key)
            if cached is not None:
                perfstats.STATS.nestdec_hits += 1
                _nestdec_install(cached, decisions, analysis, loops)
                continue
            perfstats.STATS.nestdec_misses += 1
        n_decisions = dict(decisions)
        n_diags = len(analysis.diagnostics)
        try:
            _decide_nest(nest, 0, False, config, analysis, decisions, loops)
        except Exception as exc:
            # a decision pass crashed on this nest: serialize it, keep going
            analysis.diagnostics.append(
                diagnostic_from_exception(exc, nest_id=loop_id, span=nest.loop.pos)
            )
            _serialize_nest(nest, 0, "analysis aborted: conservative serial", decisions)
        if dec_key is not None:
            _nestdec_store(
                dec_key,
                _DecisionEntry(
                    decisions={
                        k: d.clone() for k, d in decisions.items() if k not in n_decisions
                    },
                    diagnostics=list(analysis.diagnostics[n_diags:]),
                ),
            )
    # attach pragmas to the AST
    for nest in analysis.nests:
        for sub_nest in nest.walk():
            d = decisions.get(sub_nest.loop.loop_id or "")
            if d is not None and d.parallel:
                p = d.pragma
                if p and p not in sub_nest.loop.pragmas:
                    sub_nest.loop.pragmas.append(p)
    fusions = _decide_fusions(analysis, decisions)
    result = ParallelizationResult(
        program=analysis.program,
        config=config,
        decisions=decisions,
        analysis=analysis,
        fusions=fusions,
    )
    if key is not None:
        _PARALLELIZE_CACHE[key] = result.clone()
        from repro import cache as _disk

        if _disk.cache_dir():  # don't pay the snapshot clone with the tier off
            _disk.store("parallelize", key, result.clone())
    return result


def _decide_fusions(
    analysis: AnalysisResult, decisions: Dict[str, LoopDecision]
) -> Tuple[FusionDecision, ...]:
    """Propose fusion groups and put each through the trusted-core checker.

    Fail-soft like the rest of the pipeline: a crash in the (untrusted)
    finder costs the fusion opportunity, never the parallelization result.
    Rejected steps are kept with ``verified=False`` plus a
    ``fusion-rejected`` diagnostic so ``--audit`` shows what was demoted.
    """
    try:
        steps = propose_fusions(analysis.program, decisions)
    except Exception as exc:  # pragma: no cover - defensive boundary
        analysis.diagnostics.append(
            diagnostic_from_exception(exc, nest_id=None, span=None)
        )
        return ()
    out: List[FusionDecision] = []
    for step in steps:
        try:
            res = check_fusion_step(step, analysis.program)
        except Exception as exc:  # pragma: no cover - checker must not crash
            res_failures = [f"checker crashed: {exc}"]
            out.append(FusionDecision(step, False, res_failures[0]))
            analysis.diagnostics.append(
                Diagnostic(
                    FUSION_REJECTED,
                    f"fusion of {'+'.join(step.loops)} demoted: {res_failures[0]}",
                    nest_id=step.loops[0],
                )
            )
            continue
        if res.ok:
            out.append(FusionDecision(step, True, "accepted by checker"))
        else:
            reason = (res.failures or ["rejected"])[0]
            out.append(FusionDecision(step, False, reason))
            analysis.diagnostics.append(
                Diagnostic(
                    FUSION_REJECTED,
                    f"fusion of {'+'.join(step.loops)} demoted: {reason}",
                    nest_id=step.loops[0],
                    detail="; ".join(res.failures),
                )
            )
    return tuple(out)


def _serialize_nest(
    nest: LoopNest, depth: int, reason: str, decisions: Dict[str, LoopDecision]
) -> None:
    """Mark every loop of ``nest`` serial (fault-boundary downgrade)."""
    decisions[nest.loop.loop_id or f"L?{depth}"] = LoopDecision(
        loop_id=nest.loop.loop_id or f"L?{depth}",
        index=nest.index or "?",
        depth=depth,
        parallel=False,
        reason=reason,
    )
    for inner in nest.inner:
        _serialize_nest(inner, depth + 1, reason, decisions)


def _loops_by_id(prog: Program) -> Dict[str, For]:
    """Every ``for`` loop of the (normalized) program keyed by loop_id.

    The certificate checker re-validates derivations against these ASTs;
    ``source_loop`` references in monotonicity steps resolve here too.
    """
    out: Dict[str, For] = {}
    for stmt in prog.stmts:
        for node in stmt.walk():
            if isinstance(node, For) and node.loop_id:
                out[node.loop_id] = node
    return out


def _decide_nest(
    nest: LoopNest,
    depth: int,
    enclosed: bool,
    config: AnalysisConfig,
    analysis: AnalysisResult,
    decisions: Dict[str, LoopDecision],
    loops: Optional[Dict[str, For]] = None,
    scope_properties=None,
) -> None:
    loop_id = nest.loop.loop_id or f"L?{depth}"
    if enclosed:
        decisions[loop_id] = LoopDecision(
            loop_id=loop_id,
            index=nest.index or "?",
            depth=depth,
            parallel=False,
            reason="enclosed by a parallel loop",
            enclosed_by_parallel=True,
        )
        for inner in nest.inner:
            _decide_nest(inner, depth + 1, True, config, analysis, decisions, loops)
        return

    props = scope_properties if scope_properties is not None else analysis.properties
    d = _try_loop(nest, depth, config, analysis, props)
    if d.speculation is not None:
        # conditional certificates gate RUNTIME promotion, so the trusted
        # core must accept them unconditionally — even when the caller
        # opted out of auditing the (weaker) static verdicts
        d = _audit_speculation(d, nest, analysis, loops or {})
    if d.parallel and config.verify_certificates:
        # independent re-validation: any PARALLEL verdict must carry a
        # checker-accepted certificate, else it is demoted BEFORE the
        # recursion so enclosure flags stay correct
        d = _audit_decision(d, nest, analysis, loops or {})
    if d.parallel:
        # static chunk-race sanitizer: a PARALLEL verdict whose effect
        # summary *proves* two iterations collide is unsound regardless of
        # what the dependence test concluded — demote it here, inside the
        # cached pipeline, so every consumer sees the same decision
        d = _static_race_audit(d, nest, analysis, props)
    decisions[loop_id] = d
    inner_scope = props
    if not d.parallel and config.array_analysis and nest.inner:
        # the paper inlines fill loops next to their consumers (§4.1); when
        # those live inside an outer serial loop (e.g. a time loop), the
        # fill's property holds for the consumer within each outer
        # iteration — re-analyze the body as a statement sequence so inner
        # kernels see their sibling fills' properties
        inner_scope = _body_scope_properties(nest, config, props)
    for inner in nest.inner:
        _decide_nest(
            inner, depth + 1, d.parallel, config, analysis, decisions, loops, inner_scope
        )


def _audit_decision(
    d: LoopDecision,
    nest: LoopNest,
    analysis: AnalysisResult,
    loops: Dict[str, For],
) -> LoopDecision:
    """Run the trusted-core checker over a PARALLEL decision's certificate."""
    if d.certificate is None:
        failures = ["no certificate emitted for PARALLEL verdict"]
    elif d.certificate.speculative:
        # a conditional certificate can never back an *unconditional*
        # PARALLEL verdict — its hypotheses are only discharged at dispatch
        failures = [
            "certificate carries speculative steps and cannot back an "
            "unconditional PARALLEL verdict"
        ]
    else:
        res = check_certificate(d.certificate, loops)
        if res.ok:
            d.certificate_verified = True
            return d
        failures = res.failures or ["certificate rejected"]
    analysis.diagnostics.append(
        Diagnostic(
            CERTIFICATE_REJECTED,
            f"PARALLEL verdict demoted: {failures[0]}",
            nest_id=d.loop_id,
            span=nest.loop.pos,
            detail="; ".join(failures),
        )
    )
    return dataclasses.replace(
        d,
        parallel=False,
        reason=f"certificate rejected: {failures[0]}",
        checks=[],
        certificate_verified=False,
        blockers=list(failures),
    )


def _audit_speculation(
    d: LoopDecision,
    nest: LoopNest,
    analysis: AnalysisResult,
    loops: Dict[str, For],
) -> LoopDecision:
    """Validate a conditional certificate; drop the speculation on reject.

    Unlike :func:`_audit_decision` this never changes the (serial) verdict
    — a rejected conditional certificate just loses its runtime-promotion
    privilege and the loop stays on the compiled-serial path.
    """
    try:
        res = check_certificate(d.speculation, loops)
    except Exception as exc:  # pragma: no cover - checker must not crash
        res = CheckResult(False, [f"checker crashed: {exc}"])
    if res.ok:
        d.speculation_verified = True
        return d
    failures = res.failures or ["certificate rejected"]
    analysis.diagnostics.append(
        Diagnostic(
            CERTIFICATE_REJECTED,
            f"speculative certificate rejected: {failures[0]}",
            nest_id=d.loop_id,
            span=nest.loop.pos,
            detail="; ".join(failures),
        )
    )
    return dataclasses.replace(d, speculation=None, speculation_verified=False)


def _static_race_audit(
    d: LoopDecision,
    nest: LoopNest,
    analysis: AnalysisResult,
    props,
) -> LoopDecision:
    """Demote a PARALLEL decision the effect analysis proves racy.

    Only a *proof* of overlap demotes — ``unknown`` keeps the dependence
    test's verdict (the dynamic machinery still guards those loops).
    """
    from repro.verify.staticrace import OVERLAPPING, classify_loop

    try:
        verdict = classify_loop(nest.loop, decision=d, properties=props)
    except Exception:  # sanitizer must never abort the pipeline
        return d
    if verdict.classification != OVERLAPPING:
        return d
    analysis.diagnostics.append(
        Diagnostic(
            STATIC_RACE_DETECTED,
            f"PARALLEL verdict demoted: {verdict.reason}",
            nest_id=d.loop_id,
            span=nest.loop.pos,
            detail="; ".join(
                f"{v.array}: {v.reason}" for v in verdict.arrays
            ),
        )
    )
    return dataclasses.replace(
        d,
        parallel=False,
        reason=f"static race detected: {verdict.reason}",
        checks=[],
        certificate_verified=False,
        blockers=[verdict.reason],
    )


def _body_scope_properties(nest: LoopNest, config: AnalysisConfig, parent):
    """Properties established by the loop body's own statement sequence."""
    from repro.analysis.analyzer import ProgramAnalyzer
    from repro.analysis.properties import PropertyStore
    from repro.lang.astnodes import Compound, Program

    body = nest.loop.body
    stmts = body.stmts if isinstance(body, Compound) else [body]
    try:
        body_analysis = ProgramAnalyzer(config).analyze(Program([s.clone() for s in stmts]))
    except Exception:
        return parent
    merged = PropertyStore()
    for p in parent.all_properties():
        merged.record(p)
    for p in body_analysis.properties.all_properties():
        merged.record(p)
    return merged


def _try_loop(
    nest: LoopNest,
    depth: int,
    config: AnalysisConfig,
    analysis: AnalysisResult,
    properties=None,
) -> LoopDecision:
    properties = properties if properties is not None else analysis.properties
    loop_id = nest.loop.loop_id or f"L?{depth}"
    index = nest.index or "?"
    base = lambda ok, why, **kw: LoopDecision(
        loop_id=loop_id, index=index, depth=depth, parallel=ok, reason=why, **kw
    )
    if not nest.eligible:
        return base(False, f"ineligible: {nest.reason}", blockers=[f"ineligible: {nest.reason}"])
    assert nest.header is not None

    # scalar dependences
    scalars = classify_scalars(nest.loop.body, index)
    if scalars.serial_scalars:
        blockers = [
            f"scalar '{v}' carries a loop dependence (not private, not a reduction)"
            for v in scalars.serial_scalars
        ]
        return base(
            False,
            "loop-carried scalar dependence on " + ", ".join(scalars.serial_scalars),
            blockers=blockers,
        )

    # array dependences
    accesses = collect_accesses(nest.loop.body, index)
    ok, reasons = classic_independent(accesses)
    if ok:
        written = sorted({a.array for a in accesses if a.is_write})
        disproofs = [
            DisproofStep(
                array=arr,
                route=ROUTE_CLASSICAL,
                detail="all loop-carried dependence disproved by classical tests",
            )
            for arr in written
        ]
        cert = _build_certificate(loop_id, index, analysis, properties, scalars, disproofs)
        return base(
            True,
            "classical dependence test passed",
            private=scalars.private,
            reductions=scalars.reductions,
            certificate=cert,
        )
    if not config.array_analysis:
        return base(False, "; ".join(reasons), blockers=list(reasons))

    # extended test with subscript-array properties
    lo = eval_expr(nest.header.lb)
    hi = eval_expr(nest.header.ub_expr)
    if not (lo.is_point and hi.is_point):
        return base(False, "; ".join(reasons), blockers=list(reasons))
    last = hi.lb if nest.header.inclusive else simplify(sub(hi.lb, IntLit(1)))
    inner = collect_inner_loops(nest.loop.body)
    ext = extended_independent(accesses, index, (lo.lb, last), properties, inner)
    if ext.independent:
        cert = _build_certificate(
            loop_id, index, analysis, properties, scalars, ext.disproofs
        )
        return base(
            True,
            "extended subscripted-subscript test passed",
            private=scalars.private,
            reductions=scalars.reductions,
            checks=ext.checks,
            certificate=cert,
        )
    decision = base(
        False,
        "; ".join(reasons + ext.reasons),
        blockers=list(ext.reasons) or list(reasons),
    )
    if config.speculate:
        spec = _try_speculative(
            loop_id, index, accesses, (lo.lb, last), inner, properties, analysis, scalars
        )
        if spec is not None:
            decision.speculation = spec
            decision.reason += " (speculative inspector-executor candidate)"
            # the runtime promotion path honors the same scalar contract an
            # unconditional PARALLEL verdict would carry
            decision.private = scalars.private
            decision.reductions = scalars.reductions
    return decision


def _try_speculative(
    loop_id: str,
    index: str,
    accesses,
    index_range,
    inner,
    properties,
    analysis: AnalysisResult,
    scalars,
) -> Optional[Certificate]:
    """Build a *conditional* certificate for a serial-by-uncertainty loop.

    The static verdict stands — this never flips ``parallel``.  But when
    the only obstacle is an index array whose monotonicity the lemmas could
    not establish (as opposed to *disproved* dependences), the dependence
    test is re-run under the hypothesis that the array is (strictly)
    monotonic.  If it then passes, the derivation is packaged as a
    certificate whose :class:`SpeculativeStep` entries name the hypotheses;
    the runtime inspector discharges them by scanning the live array at
    dispatch time, and a failing scan falls back to the serial loop.
    """
    cands = speculative_candidates(accesses, index, properties, inner)
    if not cands:
        return None
    # predicate persistence: the hypothesis must survive the whole loop
    # execution, so a loop writing its own hypothesized index array is out
    written = {a.array for a in accesses if a.is_write}
    cands = {arr: req for arr, req in cands.items() if arr not in written}
    if not cands:
        return None
    hyp = properties.copy()
    for arr, req in cands.items():
        kind = MonoKind.SMA if req == SPEC_STRICT else MonoKind.MA
        hyp.record(ArrayProperty(array=arr, kind=kind, dim=0, region=None))
    ext = extended_independent(accesses, index, index_range, hyp, inner)
    if not ext.independent:
        return None
    if ext.checks:
        # the hypothetical pass demanded extra run-time region checks; the
        # compiled speculative dispatch does not thread those through yet,
        # so decline rather than under-check
        return None
    spec_steps: List[SpeculativeStep] = []
    monotonic: List[MonoStep] = []
    recurrences: List[SSRStep] = []
    for step in ext.disproofs:
        if step.via_array is None:
            continue
        if step.via_array in cands:
            req = cands[step.via_array]
            need = "strictly increasing" if req == SPEC_STRICT else "nondecreasing"
            sp = SpeculativeStep(
                array=step.via_array,
                required=req,
                predicate=f"inspect({step.via_array}) is {need} over the live array",
            )
            if sp not in spec_steps:
                spec_steps.append(sp)
            continue
        # disproof through a *proven* property: demand real evidence,
        # exactly as _build_certificate does for unconditional verdicts
        prop = properties.property_of(step.via_array, step.via_dim)
        if prop is None:
            prop = properties.any_property_of(step.via_array)
        ev = prop.evidence if prop is not None else None
        if ev is None:
            return None
        if ev not in monotonic:
            monotonic.append(ev)
        if ev.ssr is not None and ev.ssr not in recurrences:
            recurrences.append(ev.ssr)
    if not spec_steps:
        return None
    scalar_steps = [ScalarStep(v, "private") for v in scalars.private]
    scalar_steps += [ScalarStep(v, f"reduction:{op}") for op, v in scalars.reductions]
    facts = analysis.facts
    for name, r in analysis.state.scalars.items():
        facts = facts.set(Sym(name), r)
    return Certificate(
        loop_id=loop_id,
        index=index,
        recurrences=tuple(recurrences),
        monotonic=tuple(monotonic),
        disproofs=tuple(ext.disproofs),
        scalars=tuple(scalar_steps),
        speculative=tuple(spec_steps),
        facts=facts,
    )


def _build_certificate(
    loop_id: str,
    index: str,
    analysis: AnalysisResult,
    properties,
    scalars,
    disproofs: List[DisproofStep],
) -> Optional[Certificate]:
    """Assemble the proof certificate for a PARALLEL verdict.

    Every indirection disproof must be backed by the derivation evidence of
    the property it consumed; when that evidence is missing the certificate
    cannot be completed (returns None — the checker then demotes).
    """
    monotonic: List[MonoStep] = []
    recurrences: List[SSRStep] = []
    for step in disproofs:
        if step.via_array is None:
            continue
        prop = properties.property_of(step.via_array, step.via_dim)
        if prop is None:
            prop = properties.any_property_of(step.via_array)
        ev = prop.evidence if prop is not None else None
        if ev is None:
            return None
        if ev not in monotonic:
            monotonic.append(ev)
        if ev.ssr is not None and ev.ssr not in recurrences:
            recurrences.append(ev.ssr)
    scalar_steps = [ScalarStep(v, "private") for v in scalars.private]
    scalar_steps += [ScalarStep(v, f"reduction:{op}") for op, v in scalars.reductions]
    # declared hypotheses: program facts (counter_max bounds, trip counts)
    # plus known scalar values — the trusted base the derivation assumes
    facts = analysis.facts
    for name, r in analysis.state.scalars.items():
        facts = facts.set(Sym(name), r)
    return Certificate(
        loop_id=loop_id,
        index=index,
        recurrences=tuple(recurrences),
        monotonic=tuple(monotonic),
        disproofs=tuple(disproofs),
        scalars=tuple(scalar_steps),
        facts=facts,
    )
