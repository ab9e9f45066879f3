"""``serve-mixed``: ``repro serve`` driven closed-loop by two connections.

The daemon runs in its own process on a Unix socket, without the disk
cache.  This process holds both client connections, one thread each;
every thread sends its next request only after the previous reply
arrived, as editors and build steps do.  The traffic mix is
:class:`inputs.Traffic`.

A traced run measures half its time against the plain daemon and half
against a daemon started by ``daemon.py``, which installs the same layer
wrappers inside the daemon and writes its spans out when it stops.
Every request carries an id field the daemon ignores, which joins the
client's span of a request to the daemon's spans of the same request.
"""

from __future__ import annotations

import collections
import json
import os
import select
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

import checks
import inputs
import report
import tracing
from repro.service.protocol import ProtocolError

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
_ns = time.perf_counter_ns

CONNECTIONS = 2
#: the daemon's memory is read when this round starts: its caches grow
#: with every new program, so a reading at a fixed point of the request
#: sequence does not depend on how many requests a run fits in
MEMORY_ROUND = 40
#: distinct non-warm sources re-compiled in-process to check the replies
CHECK_SAMPLE = 24
_READY_TIMEOUT_S = 60.0


class Daemon:
    """One ``repro serve`` process (plain, or traced through ``daemon.py``)."""

    def __init__(self, traced: bool):
        out = os.path.join("perfbench", "out")
        os.makedirs(out, exist_ok=True)
        tag = f"{os.getpid()}-{'t' if traced else 'p'}"
        self.socket = os.path.join(out, f"serve-{tag}.sock")
        self.spans_path = os.path.join(out, f"spans-{tag}.json") if traced else None
        serve = ["--socket", self.socket]
        if traced:
            cmd = [sys.executable, os.path.join(HERE, "daemon.py"), "--spans", self.spans_path] + serve
        else:
            cmd = [sys.executable, "-m", "repro", "--no-disk-cache", "serve"] + serve
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
        ready, _, _ = select.select([self.proc.stdout], [], [], _READY_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else b""
        if not line.startswith(b"{"):
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError(f"daemon did not start: {line!r}")
        self.pid = json.loads(line)["pid"]
        self.peak_rss_mb = 0.0
        self.problems: List[str] = []

    def read_peak_rss(self) -> float:
        """The daemon's peak resident memory so far (MB)."""
        try:
            with open(f"/proc/{self.proc.pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024.0
        except OSError:
            pass
        return 0.0

    def stop(self, client) -> None:
        """Shut down over the socket; the daemon must exit 0 and remove its socket."""
        self.peak_rss_mb = self.peak_rss_mb or self.read_peak_rss()
        try:
            client.request({"op": "shutdown"}, check=False)
        finally:
            client.close()
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            self.problems.append("daemon did not exit within 60 s of shutdown")
        if self.proc.returncode != 0:
            self.problems.append(f"daemon exited with code {self.proc.returncode}")
        if os.path.exists(self.socket):
            self.problems.append("daemon left its socket behind")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()


class ServeMixed:
    def __init__(self, seed: int, tiny: bool):
        self.seed, self.tiny = seed, tiny
        self.daemon: Optional[Daemon] = None
        self.clients: List[Any] = []
        self.daemons: List[Dict[str, Any]] = []
        self.problems: List[str] = []

    # -- daemon lifecycle -----------------------------------------------------

    def setup(self) -> None:
        from repro.benchmarks.registry import all_benchmarks
        from repro.service.client import ServiceClient

        self.client_cls = ServiceClient
        self.kernels = [(b.name, b.source) for b in all_benchmarks()]
        self.start(traced=False)

    def start(self, traced: bool) -> None:
        self.daemon = Daemon(traced)
        self.clients = [self.client_cls(unix_path=self.daemon.socket).connect() for _ in range(CONNECTIONS)]
        for i, (name, src) in enumerate(self.kernels):  # warm-up: every kernel analyzed once
            reply = self.clients[0].request(self._request(src, f"warmup.{i}"), check=False)
            if reply.get("status") != "ok":
                raise RuntimeError(f"warm-up of {name} failed: {reply}")

    def stop(self) -> None:
        d, self.daemon = self.daemon, None
        for c in self.clients[1:]:
            c.close()
        d.stop(self.clients[0])
        self.problems += d.problems
        self.daemons.append({"pid": d.pid, "peak_rss_mb": d.peak_rss_mb, "traced": d.spans_path is not None})
        self.last_daemon = d

    def close(self) -> Dict[str, List[str]]:
        if self.daemon is not None:
            self.stop()
        return {"daemon": self.problems} if self.problems else {}

    def kill(self) -> None:
        """Stop the daemon after a failure."""
        for c in self.clients:
            c.close()
        if self.daemon is not None:
            self.daemon.kill()

    @staticmethod
    def _request(source: str, rid: str) -> Dict[str, Any]:
        return {
            "op": "parallelize",
            "programs": [{"id": "0", "source": source}],
            "pipeline": inputs.SERVE_PIPELINE,
            tracing.RID_FIELD: rid,
        }

    # -- traffic ----------------------------------------------------------------

    def phase(self, seconds: float, prefix: str, rec: Optional[tracing.Recorder] = None) -> Tuple[list, float, int]:
        """Closed-loop traffic for whole rounds until ``seconds`` have passed."""
        traffic = inputs.Traffic(self.seed, self.kernels)
        queue: collections.deque = collections.deque()
        lock = threading.Lock()
        records: List[Dict[str, Any]] = []
        deadline = _ns() + int(seconds * 1e9)

        def connection(client, conn: int) -> None:
            while True:
                with lock:
                    if not queue:
                        if _ns() >= deadline:
                            return
                        if traffic.round == MEMORY_ROUND:
                            self.daemon.peak_rss_mb = self.daemon.read_peak_rss()
                        queue.extend(traffic.next_round())
                    req = queue.popleft()
                rid = prefix + req["rid"]
                msg = self._request(req["source"], rid)
                t0 = _ns()
                try:
                    reply = client.request(msg, check=False)
                except (OSError, ProtocolError) as exc:  # counted as a failed request
                    reply = {"status": "error", "error": f"{type(exc).__name__}: {exc}"}
                t1 = _ns()
                if rec is not None:
                    rec.detached("service.wire", t0, t1, rid)
                records.append({**req, "rid": rid, "reply": reply, "t0": t0, "t1": t1, "conn": conn})

        threads = [threading.Thread(target=connection, args=(c, i)) for i, c in enumerate(self.clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = (max(r["t1"] for r in records) - min(r["t0"] for r in records)) / 1e9
        return records, wall, traffic.round

    def metrics_snapshot(self) -> Dict[str, Any]:
        return self.clients[0].request({"op": "metrics"})["metrics"]["perfstats"]

    # -- measurement ------------------------------------------------------------

    def run(self, seconds: float, trace: bool) -> Dict[str, Any]:
        if not trace:
            records, wall, rounds = self.phase(seconds, "u")
            self.stop()
            result = self.summarize(records, rounds)
            lat = result["latency"] = latencies(records)
            result["program_samples_ms"] = samples_by_kind(records)
            result["metrics"] = {
                "peak_rss_mb": self.daemons[-1]["peak_rss_mb"],
                "ops_per_s": len(records) / wall,
                # the classes that run the analysis; warm hits take ~0.2 ms,
                # where wake-up and GIL hand-off delays on a shared VM swing
                # the median by multiples from run to run
                "geomean_ms": report.geomean(lat[f"latency.{c}_p50_ms"] for c in ("edit", "cold")),
            }
            return result
        plain, _, rounds_u = self.phase(seconds / 2, "u")
        self.stop()
        self.start(traced=True)
        rec = tracing.Recorder()
        before = self.metrics_snapshot()
        traced, _, rounds_t = self.phase(seconds / 2, "t", rec)
        after = self.metrics_snapshot()
        self.stop()
        result = self.summarize(plain + traced, rounds_u + rounds_t)
        lat = latencies(plain)
        # compare the rounds both halves completed: the same requests
        common = min(rounds_u, rounds_t)
        same_u = [r for r in plain if int(r["rid"][1:].split(".")[0]) < common]
        same_t = [r for r in traced if int(r["rid"][1:].split(".")[0]) < common]
        tree = tracing.Tree()
        tree.add_buffers(rec.spans())
        with open(self.last_daemon.spans_path) as fh:
            tree.add_buffers(json.load(fh))
        os.remove(self.last_daemon.spans_path)
        tree.link("service.queue", "service.wire")
        tree.link("service.compute", "service.queue")
        selfs = tree.self_times("service.wire", {r["rid"] for r in same_t})
        n = len(traced)
        frags = [r["reply"].get("results", [{}])[0] for r in traced]
        extras = {
            "service.cached_replies": sum(1 for r in traced if r["reply"].get("cached")) / n,
            "parallelizer.parallel_loops": sum(len(f.get("parallel_loops", ())) for f in frags) / n,
            **lat,
            **report.trace_summary(
                selfs, None,
                traced_ns=sum(r["t1"] - r["t0"] for r in same_t),
                untraced_ns=sum(r["t1"] - r["t0"] for r in same_u),
                n_ops=len(same_t),
            ),
        }
        # spans over the common rounds, daemon counters over every traced request
        result["metrics"] = report.layer_metrics(
            selfs, len(same_t),
            report.counter_delta(before["counters"], after["counters"]),
            report.counter_delta(before["tiers"], after["tiers"]),
            extras, {}, n_counted=n,
        )
        return result

    # -- checks -------------------------------------------------------------------

    def summarize(self, records: List[Dict[str, Any]], rounds: int) -> Dict[str, Any]:
        expected = {name: _cold_compile(src) for name, src in self.kernels}
        distinct = sorted({r["source"] for r in records if r["kind"] != "warm"})
        sample = inputs.rng_for(self.seed, "check-sample").sample(distinct, min(CHECK_SAMPLE, len(distinct)))
        recompiled = {src: _cold_compile(src) for src in sample}
        failed, failures = 0, []
        for r in records:
            probs = checks.reply_problems(r, r["reply"], expected, recompiled)
            if probs:
                failed += 1
                if len(failures) < 10:
                    failures.append(f"{r['kind']} {r.get('kernel')}: {probs[0]}")
        return {
            "attempted": len(records),
            "failed": failed,
            "failures": failures,
            "workload_problems": self.close(),
            "rounds": rounds,
            "record": {
                "samples": dict(collections.Counter(r["cls"] for r in records)),
                "kinds": dict(collections.Counter(r["kind"] for r in records)),
                "client_process": os.getpid(),
                "client_connections": CONNECTIONS,
                "daemons": self.daemons,
                "checked_sources": len(recompiled) + len(expected),
            },
        }


def latencies(records: List[Dict[str, Any]]) -> Dict[str, float]:
    """Client-observed latency percentiles, each over one request class."""
    by_class: Dict[str, List[float]] = collections.defaultdict(list)
    for r in records:
        by_class[r["cls"]].append((r["t1"] - r["t0"]) / 1e6)
    return {
        f"latency.{cls}_p{q}_ms": report.percentile(by_class[cls], q)
        for cls, qs in (("warm", (50, 99)), ("edit", (50, 90)), ("cold", (50, 90)))
        for q in qs
    }


def samples_by_kind(records: List[Dict[str, Any]]) -> Dict[str, List[float]]:
    """Every latency (ms) by request kind, in completion order."""
    out: Dict[str, List[float]] = collections.defaultdict(list)
    for r in sorted(records, key=lambda r: r["t1"]):
        out[f"{r['cls']}/{r['kind']}"].append((r["t1"] - r["t0"]) / 1e6)
    return dict(out)


def _cold_compile(source: str) -> Tuple[str, list]:
    """In-process cold ``parallelize`` + ``emit_openmp`` (the reply oracle)."""
    from repro.analysis import AnalysisConfig
    from repro.ir import perfstats
    from repro.parallelizer import parallelize
    from repro.parallelizer.codegen import emit_openmp

    perfstats.clear_all()
    result = parallelize(source, AnalysisConfig.new_algorithm())
    return emit_openmp(result), checks.verdicts(result.decisions)
