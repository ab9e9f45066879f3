"""The analysis daemon: an asyncio front end over the cache tiers.

One long-running process answers ``analyze``/``parallelize``/``execute``
requests from the existing latency ladder — in-memory
:class:`~repro.ir.perfstats.BoundedCache` result caches, the per-nest
incremental tier, the sharded on-disk cache, and (for cold batches) a
fan-out over worker processes — so service-style traffic stops paying
process startup, pool spin-up and calibration per call.

Architecture
------------

* **Event loop**: frame parsing, admission control, and a warm-hit fast
  path.  A request whose every program is already in the *reply cache*
  (an LRU of fully rendered per-program reply fragments keyed by
  ``(op, source digest, config fingerprint, render options)``) is
  answered directly on the loop — no queue hop, no compute thread, no
  re-render.  This is what keeps warm p99 in single-digit milliseconds
  under 50 concurrent clients.
* **Admission queue**: a bounded :class:`asyncio.Queue`.  When it is
  full the request is rejected *immediately* with ``status=overloaded``
  (503 semantics) — callers observe backpressure as a fast reply, never
  as an unbounded hang.
* **Compute**: queue consumers hand work to a small thread executor
  (default 1 thread — the analysis is GIL-bound Python; concurrency
  comes from the caches, the batch process fan-out, and the execution
  worker pool).  Batches are deduplicated by source digest before any
  work is dispatched, and cold unique members can fan out over a
  persistent :class:`concurrent.futures.ProcessPoolExecutor`
  (``--procs``) whose children share the same sharded disk cache.
* **Deadlines**: a request's ``deadline_ms`` bounds queue wait (expired
  jobs fast-fail with ``status=timeout``) and is threaded into
  :class:`repro.budget.AnalysisBudget` so cold analysis degrades
  per-nest instead of blowing the deadline.
* **Circuit breaker**: consecutive ``execute`` failures open a breaker
  that degrades further execute requests to analyze-only replies
  (``status=degraded``) until a cooldown passes — a fault storm in the
  execution pool must not take analysis traffic down with it.
* **Metrics**: the ``metrics`` op exports service counters, per-op
  p50/p99 latency histograms, queue depth, and the full perfstats /
  workmeter state (see :mod:`repro.service.metrics`).

Shutdown (SIGTERM/SIGINT or the ``shutdown`` op) stops the listener,
drains in-flight work, tears down both pools (the shared-memory worker
pool's atexit sweep guarantees no orphan ``/dev/shm`` segments), and
removes the Unix socket file.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextlib
import dataclasses
import hashlib
import json
import os
import signal
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.budget import AnalysisBudget
from repro.ir.perfstats import BoundedCache
from repro.service import metrics as service_metrics
from repro.service import protocol

#: ops answered inline on the event loop (never queued)
_INLINE_OPS = ("ping", "metrics", "shutdown")

#: ops that go through the admission queue
_COMPUTE_OPS = ("analyze", "parallelize", "execute")

_ALL_OPS = frozenset(_INLINE_OPS + _COMPUTE_OPS)

#: grace added to a request deadline before the handler gives up waiting
#: for the compute reply (the budget should have degraded the work first)
_DEADLINE_GRACE_S = 30.0


def _pipelines():
    from repro.analysis import AnalysisConfig

    return {
        "classical": AnalysisConfig.classical,
        "base": AnalysisConfig.base_algorithm,
        "new": AnalysisConfig.new_algorithm,
    }


@dataclasses.dataclass
class ServeConfig:
    """Deployment knobs for one daemon instance (see docs/service.md)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port is printed on stdout
    unix_path: Optional[str] = None  # Unix-domain socket (preferred locally)
    queue_size: int = 128  # admission queue bound (backpressure past this)
    compute_threads: int = 1  # threads in the compute executor
    procs: int = 0  # process fan-out for cold batch members (0 = inline)
    reply_cache_entries: int = 4096  # rendered per-program reply fragments
    breaker_threshold: int = 3  # consecutive execute failures to open
    breaker_cooldown_s: float = 30.0
    allow_test_ops: bool = False  # honor __test_sleep_ms (tests/benchmarks)


class _Breaker:
    """Consecutive-failure circuit breaker for the execute path."""

    def __init__(self, threshold: int, cooldown_s: float):
        self.threshold = max(1, threshold)
        self.cooldown_s = cooldown_s
        self.failures = 0
        self.opened_at: Optional[float] = None

    def record_failure(self) -> None:
        self.failures += 1
        if self.failures >= self.threshold:
            self.opened_at = time.monotonic()

    def record_success(self) -> None:
        self.failures = 0
        self.opened_at = None

    @property
    def open(self) -> bool:
        if self.opened_at is None:
            return False
        if time.monotonic() - self.opened_at >= self.cooldown_s:
            # half-open: allow the next execute through as a probe
            self.opened_at = None
            self.failures = max(0, self.threshold - 1)
            return False
        return True


@dataclasses.dataclass
class _Job:
    request: Dict[str, Any]
    future: "asyncio.Future"
    enqueued_at: float
    deadline_at: Optional[float]


# ---------------------------------------------------------------------------
# request processing (compute side; also used by the process fan-out)
# ---------------------------------------------------------------------------


def _build_config(pipeline: str, deadline_ms: Optional[float], speculate: bool):
    pipelines = _pipelines()
    if pipeline not in pipelines:
        raise ValueError(f"unknown pipeline {pipeline!r} (choose from {sorted(pipelines)})")
    config = pipelines[pipeline]()
    if deadline_ms is not None:
        config = dataclasses.replace(config, budget=AnalysisBudget(deadline_ms=float(deadline_ms)))
    if not speculate:
        config = dataclasses.replace(config, speculate=False)
    return config


def _diag_list(diagnostics) -> List[Dict[str, str]]:
    out = []
    for d in diagnostics:
        entry = {"kind": str(getattr(d, "kind", "?")), "message": str(getattr(d, "message", d))}
        loop_id = getattr(d, "loop_id", None)
        if loop_id:
            entry["loop"] = str(loop_id)
        out.append(entry)
    return out


def analyze_one(op: str, source: str, pipeline: str, options: Dict[str, Any]) -> Dict[str, Any]:
    """Analyze or parallelize one source; returns the reply fragment.

    Module-level and JSON-in/JSON-out so the batch process fan-out can
    ship it to a worker child; the child's own cache tiers (and the
    shared sharded disk cache) do their usual write-through.
    """
    config = _build_config(
        pipeline,
        options.get("deadline_ms"),
        bool(options.get("speculate", True)),
    )
    if op == "analyze":
        from repro.analysis import analyze_program

        res = analyze_program(source, config)
        return {
            "properties": [str(p) for p in res.properties.all_properties()],
            "diagnostics": _diag_list(res.diagnostics),
        }
    from repro.parallelizer import parallelize
    from repro.parallelizer.codegen import emit_openmp

    result = parallelize(source, config)
    decisions = {
        lid: {
            "parallel": d.parallel,
            "reason": d.reason,
            "certified": bool(d.certificate_verified),
        }
        for lid, d in result.decisions.items()
    }
    return {
        "annotated_c": emit_openmp(
            result, schedule=options.get("schedule"), chunk=options.get("chunk")
        ),
        "decisions": decisions,
        "parallel_loops": sorted(lid for lid, d in result.decisions.items() if d.parallel),
        "diagnostics": _diag_list(result.diagnostics),
    }


def _source_digest(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


class AnalysisService:
    """One daemon instance: listener + queue + compute + metrics."""

    def __init__(self, config: Optional[ServeConfig] = None):
        self.config = config or ServeConfig()
        self.stats = service_metrics.ServiceStats()
        self.reply_cache: BoundedCache = BoundedCache()
        # pre-encoded whole-reply frames for fully warm requests: the hot
        # path then skips result-dict assembly AND the json.dumps — on a
        # small box that encode is a double-digit share of warm latency.
        # Entries derive purely from reply_cache fragments, so eviction
        # skew between the two caches can never serve stale bytes.
        self.frame_cache: BoundedCache = BoundedCache()
        self._queue: Optional[asyncio.Queue] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._compute = concurrent.futures.ThreadPoolExecutor(
            max_workers=max(1, self.config.compute_threads),
            thread_name_prefix="repro-compute",
        )
        self._procpool: Optional[concurrent.futures.ProcessPoolExecutor] = None
        self._breaker = _Breaker(self.config.breaker_threshold, self.config.breaker_cooldown_s)
        self._shutdown = asyncio.Event()
        self._workers: List["asyncio.Task"] = []
        self.bound_port: Optional[int] = None

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        self._queue = asyncio.Queue(maxsize=self.config.queue_size)
        if self.config.procs > 0:
            ctx = None
            try:
                import multiprocessing

                ctx = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - platforms without fork
                ctx = None
            self._procpool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.config.procs, mp_context=ctx
            )
        if self.config.unix_path:
            with contextlib.suppress(OSError):
                os.unlink(self.config.unix_path)
            self._server = await asyncio.start_unix_server(
                self._handle_conn, path=self.config.unix_path
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_conn, host=self.config.host, port=self.config.port
            )
            self.bound_port = self._server.sockets[0].getsockname()[1]
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError, RuntimeError):
                loop.add_signal_handler(sig, self._shutdown.set)
        # two queue consumers: one can sit in a long run_in_executor await
        # while the other fast-fails deadline-expired jobs behind it
        self._workers = [asyncio.create_task(self._worker()) for _ in range(2)]

    async def serve_forever(self) -> None:
        assert self._server is not None
        async with self._server:
            await self._shutdown.wait()
        await self._drain()

    async def _drain(self) -> None:
        assert self._queue is not None
        # let queued and in-flight work finish (bounded: a wedged compute
        # must not make SIGTERM hang forever)
        with contextlib.suppress(asyncio.TimeoutError):
            await asyncio.wait_for(self._queue.join(), timeout=_DEADLINE_GRACE_S)
        for t in self._workers:
            t.cancel()
        await asyncio.gather(*self._workers, return_exceptions=True)
        self._compute.shutdown(wait=True)
        if self._procpool is not None:
            self._procpool.shutdown(wait=True)
        with contextlib.suppress(Exception):
            from repro.runtime.parbackend import shutdown_pool

            shutdown_pool()
        if self.config.unix_path:
            with contextlib.suppress(OSError):
                os.unlink(self.config.unix_path)

    # -- connection handling ----------------------------------------------

    async def _handle_conn(self, reader, writer) -> None:
        try:
            while not self._shutdown.is_set():
                try:
                    request = await protocol.read_frame_async(reader)
                except protocol.ProtocolError as exc:
                    self.stats.bump("protocol_errors")
                    with contextlib.suppress(Exception):
                        await protocol.write_frame_async(
                            writer,
                            {"status": "bad-request", "code": 400, "error": str(exc)},
                        )
                    return
                if request is None:
                    return  # client closed cleanly
                reply = await self._dispatch(request)
                if isinstance(reply, bytes):  # pre-encoded warm-hit frame
                    writer.write(reply)
                    await writer.drain()
                else:
                    await protocol.write_frame_async(writer, reply)
                if request.get("op") == "shutdown":
                    return
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _dispatch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        t0 = time.perf_counter()
        op = request.get("op")
        if not isinstance(op, str) or op not in _ALL_OPS:
            self.stats.bump("protocol_errors")
            return {"status": "bad-request", "code": 400, "error": f"unknown op {op!r}"}
        self.stats.count_request(op)
        try:
            if op == "ping":
                from repro import __version__

                reply = {
                    "status": "ok",
                    "op": "ping",
                    "version": __version__,
                    "pid": os.getpid(),
                }
            elif op == "metrics":
                assert self._queue is not None
                reply = {
                    "status": "ok",
                    "op": "metrics",
                    "metrics": service_metrics.full_snapshot(
                        self.stats, self._queue.qsize(), self.config.queue_size
                    ),
                }
            elif op == "shutdown":
                self._shutdown.set()
                reply = {"status": "ok", "op": "shutdown"}
            else:
                reply = await self._dispatch_compute(request)
        except Exception as exc:  # the daemon must answer, not die
            self.stats.bump("internal_errors")
            reply = {"status": "error", "code": 500, "error": f"{type(exc).__name__}: {exc}"}
        self.stats.record_latency(op, time.perf_counter() - t0)
        if isinstance(reply, bytes):
            return reply  # cached frame: no per-request fields to stamp
        reply.setdefault("served_ms", round(1e3 * (time.perf_counter() - t0), 3))
        return reply

    async def _dispatch_compute(self, request: Dict[str, Any]) -> Dict[str, Any]:
        op = request["op"]
        if op in ("analyze", "parallelize"):
            fast = self._try_reply_cache(request)
            if fast is not None:
                return fast
        assert self._queue is not None
        loop = asyncio.get_running_loop()
        deadline_ms = request.get("deadline_ms")
        job = _Job(
            request=request,
            future=loop.create_future(),
            enqueued_at=time.monotonic(),
            deadline_at=(
                time.monotonic() + float(deadline_ms) / 1e3 if deadline_ms else None
            ),
        )
        try:
            self._queue.put_nowait(job)
        except asyncio.QueueFull:
            self.stats.bump("overload_rejections")
            return {
                "status": "overloaded",
                "code": 503,
                "error": "admission queue full",
                "queue_depth": self._queue.qsize(),
                "queue_capacity": self.config.queue_size,
            }
        timeout = None
        if job.deadline_at is not None:
            timeout = max(0.0, job.deadline_at - time.monotonic()) + _DEADLINE_GRACE_S
        try:
            return await asyncio.wait_for(job.future, timeout=timeout)
        except asyncio.TimeoutError:
            self.stats.bump("deadline_misses")
            return {"status": "timeout", "code": 504, "error": "request deadline exceeded"}

    # -- queue consumers ---------------------------------------------------

    async def _worker(self) -> None:
        assert self._queue is not None
        loop = asyncio.get_running_loop()
        while True:
            job = await self._queue.get()
            # the queue wait ends when the job leaves the queue, before
            # any compute
            dequeued_at = time.monotonic()
            queued_ms = round(1e3 * (dequeued_at - job.enqueued_at), 3)
            try:
                if job.future.cancelled():
                    continue
                if job.deadline_at is not None and dequeued_at > job.deadline_at:
                    self.stats.bump("deadline_misses")
                    self._safe_set(
                        job.future,
                        {
                            "status": "timeout",
                            "code": 504,
                            "error": "deadline expired while queued",
                            "queued_ms": queued_ms,
                        },
                    )
                    continue
                reply = await loop.run_in_executor(self._compute, self._process, job.request)
                reply["queued_ms"] = queued_ms
                self._safe_set(job.future, reply)
            except asyncio.CancelledError:
                self._safe_set(
                    job.future,
                    {"status": "error", "code": 500, "error": "server shutting down"},
                )
                raise
            except Exception as exc:
                self.stats.bump("internal_errors")
                self._safe_set(
                    job.future,
                    {"status": "error", "code": 500, "error": f"{type(exc).__name__}: {exc}"},
                )
            finally:
                self._queue.task_done()

    @staticmethod
    def _safe_set(future: "asyncio.Future", value: Dict[str, Any]) -> None:
        if not future.done():
            future.set_result(value)

    # -- reply cache -------------------------------------------------------

    @staticmethod
    def _options(request: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "deadline_ms": request.get("deadline_ms"),
            "speculate": bool(request.get("speculate", True)),
            "schedule": request.get("schedule"),
            "chunk": request.get("chunk"),
        }

    def _reply_key(self, op: str, digest: str, request: Dict[str, Any]) -> Tuple:
        opts = self._options(request)
        return (
            op,
            digest,
            request.get("pipeline", "new"),
            opts["deadline_ms"],
            opts["speculate"],
            opts["schedule"],
            opts["chunk"],
        )

    @staticmethod
    def _programs(request: Dict[str, Any]) -> List[Dict[str, str]]:
        if "programs" in request:
            programs = request["programs"]
            if not isinstance(programs, list) or not programs:
                raise ValueError("'programs' must be a non-empty list")
            out = []
            for i, p in enumerate(programs):
                if not isinstance(p, dict) or not isinstance(p.get("source"), str):
                    raise ValueError(f"programs[{i}] must be {{'id', 'source'}}")
                out.append({"id": str(p.get("id", i)), "source": p["source"]})
            return out
        source = request.get("source")
        if not isinstance(source, str):
            raise ValueError("request needs 'source' or 'programs'")
        return [{"id": "0", "source": source}]

    def _try_reply_cache(self, request: Dict[str, Any]):
        """Event-loop fast path: answer entirely from rendered fragments.

        Returns pre-encoded frame ``bytes`` on a full hit (the encoded
        reply is itself cached, so repeat warm traffic pays neither
        result assembly nor ``json.dumps``), a bad-request dict on
        malformed input, or ``None`` when any member is cold.
        """
        try:
            programs = self._programs(request)
        except ValueError as exc:
            self.stats.bump("protocol_errors")
            return {"status": "bad-request", "code": 400, "error": str(exc)}
        op = request["op"]
        opts = self._options(request)
        opt_key = (
            request.get("pipeline", "new"),
            opts["deadline_ms"],
            opts["speculate"],
            opts["schedule"],
            opts["chunk"],
        )
        pairs = tuple((p["id"], _source_digest(p["source"])) for p in programs)
        frame_key = (op, opt_key, pairs)
        frame = self.frame_cache.get(frame_key)
        if frame is not None:
            self.stats.bump("programs_total", len(programs))
            return frame
        results = []
        for prog_id, digest in pairs:
            frag = self.reply_cache.get((op, digest) + opt_key)
            if frag is None:
                return None  # at least one cold member: go through the queue
            results.append({"id": prog_id, "digest": digest, **frag})
        self.stats.bump("programs_total", len(programs))
        frame = protocol.encode_frame(
            {"status": "ok", "op": op, "cached": True, "results": results}
        )
        self.frame_cache[frame_key] = frame
        return frame

    # -- compute-thread processing ----------------------------------------

    def _process(self, request: Dict[str, Any]) -> Dict[str, Any]:
        op = request["op"]
        if self.config.allow_test_ops and request.get("__test_sleep_ms"):
            time.sleep(float(request["__test_sleep_ms"]) / 1e3)
        if op == "execute":
            return self._process_execute(request)
        return self._process_analysis(request)

    def _process_analysis(self, request: Dict[str, Any]) -> Dict[str, Any]:
        op = request["op"]
        programs = self._programs(request)  # validated on the event loop
        pipeline = request.get("pipeline", "new")
        options = self._options(request)
        self.stats.bump("programs_total", len(programs))

        # dedup by source digest: N copies of one kernel analyze once
        order: List[Tuple[str, str]] = []  # (id, digest) in request order
        unique: Dict[str, str] = {}
        for prog in programs:
            digest = _source_digest(prog["source"])
            order.append((prog["id"], digest))
            if digest not in unique:
                unique[digest] = prog["source"]
        self.stats.bump("batch_dedup_hits", len(programs) - len(unique))

        fragments: Dict[str, Dict[str, Any]] = {}
        cold: Dict[str, str] = {}
        for digest, source in unique.items():
            frag = self.reply_cache.get(self._reply_key(op, digest, request))
            if frag is not None:
                fragments[digest] = frag
            else:
                cold[digest] = source

        errors: Dict[str, str] = {}
        if cold:
            fragments.update(self._compute_cold(op, cold, pipeline, options, errors))
        results = []
        for prog_id, digest in order:
            if digest in fragments:
                results.append({"id": prog_id, "digest": digest, **fragments[digest]})
            else:
                results.append(
                    {
                        "id": prog_id,
                        "digest": digest,
                        "error": errors.get(digest, "analysis failed"),
                    }
                )
        status = "ok" if not errors else ("partial" if fragments else "error")
        reply: Dict[str, Any] = {"status": status, "op": op, "results": results}
        if errors:
            reply["code"] = 422
        return reply

    def _compute_cold(
        self,
        op: str,
        cold: Dict[str, str],
        pipeline: str,
        options: Dict[str, Any],
        errors: Dict[str, str],
    ) -> Dict[str, Dict[str, Any]]:
        """Analyze the batch's unique cold members; fan out when possible."""
        fragments: Dict[str, Dict[str, Any]] = {}
        items = list(cold.items())
        futures = {}
        if self._procpool is not None and len(items) > 1:
            try:
                for digest, source in items:
                    futures[digest] = self._procpool.submit(
                        analyze_one, op, source, pipeline, options
                    )
            except (OSError, RuntimeError):
                futures = {}  # pool broken (fork failure): compute inline
        for digest, source in items:
            try:
                if digest in futures:
                    frag = futures[digest].result()
                else:
                    frag = analyze_one(op, source, pipeline, options)
            except Exception as exc:
                errors[digest] = f"{type(exc).__name__}: {exc}"
                continue
            fragments[digest] = frag
            key = (op, digest, pipeline, options["deadline_ms"], options["speculate"],
                   options["schedule"], options["chunk"])
            self.reply_cache[key] = frag
        return fragments

    def _process_execute(self, request: Dict[str, Any]) -> Dict[str, Any]:
        name = request.get("benchmark")
        if not isinstance(name, str):
            raise ValueError("execute needs 'benchmark' (a registered kernel name)")
        if self._breaker.open:
            # fault storm: keep answering, but analysis-only
            self.stats.bump("degraded_executes")
            from repro.benchmarks import get_benchmark

            bench = get_benchmark(name)
            frag = analyze_one(
                "parallelize", bench.source, request.get("pipeline", "new"), self._options(request)
            )
            return {
                "status": "degraded",
                "op": "execute",
                "code": 203,
                "error": "execute circuit breaker open; served analysis only",
                "results": [{"id": "0", "benchmark": name, **frag}],
            }
        from repro.benchmarks import get_benchmark
        from repro.parallelizer import parallelize
        from repro.runtime.simulate import measure_kernel

        bench = get_benchmark(name)
        backend = request.get("backend") or "auto"
        scale = request.get("scale", "small")
        repeats = int(request.get("repeats", 1))
        try:
            config = _build_config(
                request.get("pipeline", "new"),
                None,  # execution is not budget-bounded; the pool supervises
                bool(request.get("speculate", True)),
            )
            result = parallelize(bench.source, config)
            env = bench.paper_env() if scale == "paper" else bench.small_env()
            seconds, _ = measure_kernel(
                result, env, backend=backend,
                threads=request.get("threads"), repeats=repeats,
            )
        except Exception:
            self._breaker.record_failure()
            raise
        self._breaker.record_success()
        return {
            "status": "ok",
            "op": "execute",
            "results": [
                {
                    "id": "0",
                    "benchmark": name,
                    "backend": backend,
                    "scale": scale,
                    "seconds": round(seconds, 6),
                    "repeats": repeats,
                }
            ],
        }


# ---------------------------------------------------------------------------
# entry point used by ``repro serve``
# ---------------------------------------------------------------------------


def serve(config: ServeConfig, ready_fd: Optional[int] = None) -> int:
    """Run one daemon until shutdown; returns the process exit code.

    ``ready_fd``: optional pipe fd; one JSON line with the bound address
    is written there (and to stdout) once the listener is up, so parent
    processes can wait for readiness without polling.
    """

    async def _main() -> int:
        service = AnalysisService(config)
        await service.start()
        addr = (
            {"unix": config.unix_path}
            if config.unix_path
            else {"host": config.host, "port": service.bound_port}
        )
        line = json.dumps({"ready": True, "pid": os.getpid(), **addr})
        print(line, flush=True)
        if ready_fd is not None:
            with contextlib.suppress(OSError):
                os.write(ready_fd, (line + "\n").encode())
                os.close(ready_fd)
        await service.serve_forever()
        return 0

    try:
        return asyncio.run(_main())
    except KeyboardInterrupt:  # pragma: no cover - interactive ^C
        return 0


def main(argv: Optional[List[str]] = None) -> int:  # pragma: no cover - thin shim
    """Standalone ``python -m repro.service.server`` entry point."""
    from repro.cli import main as cli_main

    return cli_main(["serve"] + list(argv or sys.argv[1:]))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
