"""End-to-end tests for the analysis daemon.

Most tests talk to a real ``repro serve`` subprocess over a Unix socket
— the same deployment shape as production — so framing, admission
control, signal handling, and cache persistence are all exercised for
real.  The circuit breaker is tested in-process where failure injection
is easy.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
import uuid
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

sys.path.insert(0, str(SRC))

from repro.service import protocol  # noqa: E402
from repro.service.client import ServiceClient, ServiceError  # noqa: E402
from repro.service.server import AnalysisService, ServeConfig, _Breaker  # noqa: E402


def _unique_source() -> str:
    # distinct constant => distinct digest => cold at the daemon
    n = uuid.uuid4().int % 10**9
    return f"for (i = 0; i < n; i++) {{ a[i] = b[i] + {n}; }}"


class Daemon:
    """A ``repro serve`` subprocess bound to a Unix socket."""

    def __init__(self, *extra_args: str, cache_dir: str = None, sock: str = None):
        self.dir = tempfile.mkdtemp(prefix="reprosvc-")
        self.sock = sock or os.path.join(self.dir, "d.sock")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        env.pop("REPRO_CACHE_DIR", None)
        if cache_dir:
            env["REPRO_CACHE_DIR"] = cache_dir
        self.stderr_path = os.path.join(self.dir, "stderr.log")
        self._stderr = open(self.stderr_path, "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", self.sock, *extra_args],
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            env=env,
            text=True,
        )
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait(timeout=10)
            raise RuntimeError(
                "daemon failed to start:\n" + Path(self.stderr_path).read_text()
            )
        self.ready = json.loads(line)
        assert self.ready.get("ready") is True
        assert self.ready.get("unix") == self.sock

    def client(self, timeout_s: float = 60.0) -> ServiceClient:
        return ServiceClient(unix_path=self.sock, timeout_s=timeout_s)

    def stop(self, expect_code: int = 0) -> int:
        if self.proc.poll() is None:
            try:
                with self.client(timeout_s=10.0) as c:
                    c.shutdown_server()
            except Exception:
                self.proc.terminate()
            try:
                self.proc.wait(timeout=45)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        code = self.proc.returncode
        self.cleanup()
        if expect_code is not None:
            assert code == expect_code, Path(self.stderr_path).read_text()
        return code

    def cleanup(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=10)
        self.proc.stdout.close()
        self._stderr.close()
        shutil.rmtree(self.dir, ignore_errors=True)


@pytest.fixture(scope="module")
def daemon():
    d = Daemon("--test-ops")
    yield d
    d.stop(expect_code=0)


# ---------------------------------------------------------------------------
# basic request/reply
# ---------------------------------------------------------------------------


class TestRequests:
    def test_ping(self, daemon):
        from repro import __version__

        with daemon.client() as c:
            reply = c.ping()
        assert reply["status"] == "ok"
        assert reply["version"] == __version__
        assert reply["pid"] == daemon.proc.pid

    def test_parallelize_and_warm_fast_path(self, daemon):
        src = _unique_source()
        with daemon.client() as c:
            cold = c.parallelize(src)
            warm = c.parallelize(src)
        assert cold["status"] == "ok"
        assert "cached" not in cold
        result = cold["results"][0]
        assert "#pragma omp parallel for" in result["annotated_c"]
        assert result["parallel_loops"]
        # second hit is answered from the pre-encoded frame cache on the
        # loop (no served_ms: cached frames carry no per-request fields)
        assert warm["status"] == "ok"
        assert warm["cached"] is True
        assert warm["results"][0]["annotated_c"] == result["annotated_c"]
        assert "served_ms" not in warm

    def test_queued_ms_is_the_queue_wait_not_the_compute(self, daemon):
        # idle daemon: the job leaves the queue at once, so its queue wait
        # is a small part of a reply whose compute takes 300 ms
        with daemon.client() as c:
            reply = c.request(
                {"op": "analyze", "source": _unique_source(), "__test_sleep_ms": 300}
            )
        assert reply["status"] == "ok"
        assert reply["served_ms"] >= 300
        assert reply["queued_ms"] < 0.25 * reply["served_ms"]

    def test_analyze_reports_properties(self, daemon):
        src = (
            "for (i = 0; i < m; i++) { idx[i+1] = idx[i] + (flag[i] > 0); }\n"
            "for (j = 0; j < m; j++) { y[idx[j]] = y[idx[j]] + x[j]; }"
        )
        with daemon.client() as c:
            reply = c.analyze(src)
        assert reply["status"] == "ok"
        assert isinstance(reply["results"][0]["properties"], list)

    def test_batch_dedup_counts(self, daemon):
        uniq = [_unique_source() for _ in range(2)]
        batch = [uniq[i % 2] for i in range(8)]  # 8 programs, 2 unique
        with daemon.client() as c:
            before = c.metrics()["counters"]["batch_dedup_hits"]
            reply = c.parallelize(batch)
            after = c.metrics()["counters"]["batch_dedup_hits"]
        assert reply["status"] == "ok"
        assert len(reply["results"]) == 8
        # every duplicate is answered without re-analysis
        assert after - before == 6
        digests = {r["digest"] for r in reply["results"]}
        assert len(digests) == 2
        # duplicates share byte-identical rendered output
        by_digest = {}
        for r in reply["results"]:
            by_digest.setdefault(r["digest"], set()).add(r["annotated_c"])
        assert all(len(v) == 1 for v in by_digest.values())

    def test_bad_op_and_bad_payloads(self, daemon):
        with daemon.client() as c:
            r1 = c.request({"op": "frobnicate"}, check=False)
            r2 = c.request({"op": "analyze"}, check=False)
            r3 = c.request({"op": "analyze", "programs": []}, check=False)
        for r in (r1, r2, r3):
            assert r["status"] == "bad-request"
            assert r["code"] == 400

    def test_unparsable_program_is_a_422_not_a_crash(self, daemon):
        with daemon.client() as c:
            reply = c.request(
                {"op": "analyze", "source": "this is definitely not C"}, check=False
            )
            # and the daemon still answers afterwards
            assert c.ping()["status"] == "ok"
        assert reply["status"] == "error"
        assert reply["code"] == 422
        assert "error" in reply["results"][0]

    def test_mixed_batch_is_partial(self, daemon):
        good, bad = _unique_source(), "syntax }{ error"
        with daemon.client() as c:
            reply = c.parallelize([good, bad], check=False)
        assert reply["status"] == "partial"
        assert reply["code"] == 422
        ok, err = reply["results"]
        assert "annotated_c" in ok
        assert "error" in err

    def test_protocol_error_gets_400_reply(self, daemon):
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        s.settimeout(10.0)
        try:
            s.connect(daemon.sock)
            s.sendall((2**31).to_bytes(4, "big"))  # oversized length prefix
            reply = protocol.recv_frame(s)
        finally:
            s.close()
        assert reply["status"] == "bad-request"
        assert reply["code"] == 400

    def test_service_error_carries_reply(self, daemon):
        with daemon.client() as c:
            with pytest.raises(ServiceError) as ei:
                c.request({"op": "nope"})
        assert ei.value.reply["status"] == "bad-request"

    def test_metrics_shape(self, daemon):
        with daemon.client() as c:
            m = c.metrics()
        assert m["queue"]["capacity"] == 128
        assert m["counters"]["requests_total"] > 0
        assert "parallelize" in m["latency"]
        assert set(m["cache_tiers"]) >= {"analysis", "parallelize", "disk"}
        assert "workmeter" in m and "perfstats" in m


# ---------------------------------------------------------------------------
# deadlines and backpressure
# ---------------------------------------------------------------------------


class TestAdmission:
    def test_deadline_expired_in_queue_fast_fails(self, daemon):
        # Occupy both queue consumers with slow jobs, then submit a
        # short-deadline job: it must come back status=timeout when a
        # worker picks it up past its deadline — not compute anyway.
        def slow():
            with daemon.client() as c:
                c.request(
                    {"op": "analyze", "source": _unique_source(), "__test_sleep_ms": 700},
                )

        blockers = [threading.Thread(target=slow) for _ in range(2)]
        for t in blockers:
            t.start()
        time.sleep(0.2)  # let both workers dequeue the slow jobs
        with daemon.client() as c:
            reply = c.request(
                {"op": "analyze", "source": _unique_source(), "deadline_ms": 100},
                check=False,
            )
        for t in blockers:
            t.join()
        assert reply["status"] == "timeout"
        assert reply["code"] == 504
        assert reply["queued_ms"] >= 100

    def test_backpressure_is_a_fast_reply_not_a_hang(self):
        d = Daemon("--test-ops", "--queue-size", "1")
        try:
            # 2 workers + 1 queue slot: three slow jobs saturate admission.
            # Staggered (and retried) so each blocker is dequeued before
            # the next arrives — simultaneous sends race the workers and
            # would bounce off the still-full queue themselves.
            def slow(delay_s):
                time.sleep(delay_s)
                with d.client() as c:
                    while True:
                        r = c.request(
                            {
                                "op": "analyze",
                                "source": _unique_source(),
                                "__test_sleep_ms": 1000,
                            },
                            check=False,
                        )
                        if r["status"] != "overloaded":
                            return
                        time.sleep(0.05)

            blockers = [
                threading.Thread(target=slow, args=(i * 0.2,)) for i in range(3)
            ]
            for t in blockers:
                t.start()
            time.sleep(0.7)  # both workers + the queue slot now hold blockers
            rejected = []
            t0 = time.perf_counter()
            with d.client() as c:
                for _ in range(3):
                    rejected.append(
                        c.request(
                            {"op": "analyze", "source": _unique_source()}, check=False
                        )
                    )
                elapsed = time.perf_counter() - t0
                m = c.metrics()
            for t in blockers:
                t.join()
            assert [r["status"] for r in rejected] == ["overloaded"] * 3
            assert all(r["code"] == 503 for r in rejected)
            assert rejected[0]["queue_capacity"] == 1
            assert elapsed < 1.0  # fast-fail, did not wait for the slow jobs
            assert m["counters"]["overload_rejections"] >= 3
        finally:
            d.stop(expect_code=0)

    def test_ping_bypasses_saturated_queue(self, daemon):
        def slow():
            with daemon.client() as c:
                c.request(
                    {"op": "analyze", "source": _unique_source(), "__test_sleep_ms": 500},
                )

        t = threading.Thread(target=slow)
        t.start()
        time.sleep(0.1)
        t0 = time.perf_counter()
        with daemon.client() as c:
            assert c.ping()["status"] == "ok"
        assert time.perf_counter() - t0 < 0.4  # inline op, never queued
        t.join()


# ---------------------------------------------------------------------------
# shutdown and restart
# ---------------------------------------------------------------------------


def _shm_entries():
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


class TestLifecycle:
    def test_sigterm_clean_shutdown_no_orphans(self):
        shm_before = _shm_entries()
        d = Daemon()
        try:
            with d.client(timeout_s=180.0) as c:
                # spin up the execution worker pool so shutdown has real
                # shared-memory segments to reclaim
                reply = c.execute("IS", backend="auto", scale="small")
                assert reply["status"] in ("ok", "degraded")
            d.proc.send_signal(signal.SIGTERM)
            code = d.proc.wait(timeout=60)
            assert code == 0, Path(d.stderr_path).read_text()
            assert not os.path.exists(d.sock)  # socket file removed
            leaked = _shm_entries() - shm_before
            assert not leaked, f"orphan /dev/shm segments: {leaked}"
        finally:
            d.cleanup()

    def test_shutdown_op_exits_zero_and_unlinks_socket(self):
        d = Daemon()
        try:
            with d.client() as c:
                assert c.shutdown_server()["status"] == "ok"
            assert d.proc.wait(timeout=45) == 0
            assert not os.path.exists(d.sock)
        finally:
            d.cleanup()

    def test_sigkill_then_restart_reuses_sharded_cache(self):
        cache_dir = tempfile.mkdtemp(prefix="reprocache-")
        src = _unique_source()
        sock = None
        try:
            d1 = Daemon(cache_dir=cache_dir)
            sock = d1.sock
            try:
                with d1.client() as c:
                    assert c.parallelize(src)["status"] == "ok"
                    writes = c.metrics()["cache_tiers"]["disk"]["writes"]
                    assert writes >= 1
            finally:
                d1.proc.kill()  # simulated crash: no drain, no cleanup
                d1.proc.wait(timeout=10)
            # the crashed daemon may leave its socket file; a fresh daemon
            # on the same path and same cache dir must start and serve warm
            d2 = Daemon(cache_dir=cache_dir, sock=sock)
            try:
                with d2.client() as c:
                    reply = c.parallelize(src)
                    assert reply["status"] == "ok"
                    assert "#pragma omp" in reply["results"][0]["annotated_c"]
                    disk = c.metrics()["cache_tiers"]["disk"]
                    # fresh process, empty memory tiers: served from disk
                    assert disk["hits"] >= 1
            finally:
                d2.stop(expect_code=0)
            d1.cleanup()
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# circuit breaker (in-process: failure injection is easy here)
# ---------------------------------------------------------------------------


class TestBreaker:
    def test_breaker_unit(self, monkeypatch):
        clock = [0.0]
        monkeypatch.setattr(time, "monotonic", lambda: clock[0])
        b = _Breaker(threshold=2, cooldown_s=10.0)
        assert not b.open
        b.record_failure()
        assert not b.open
        b.record_failure()
        assert b.open
        clock[0] = 5.0
        assert b.open  # still cooling down
        clock[0] = 10.0
        assert not b.open  # half-open probe allowed
        b.record_failure()  # probe failed: re-opens at threshold
        assert b.open
        clock[0] = 20.0
        assert not b.open
        b.record_success()
        assert not b.open and b.failures == 0

    def test_execute_degrades_to_analysis_under_fault_storm(self, monkeypatch):
        import repro.runtime.simulate as simulate

        def boom(*a, **k):
            raise RuntimeError("injected pool failure")

        monkeypatch.setattr(simulate, "measure_kernel", boom)
        svc = AnalysisService(ServeConfig(breaker_threshold=2, breaker_cooldown_s=300.0))
        try:
            req = {"op": "execute", "benchmark": "IS", "backend": "auto", "scale": "small"}
            for _ in range(2):
                with pytest.raises(RuntimeError, match="injected"):
                    svc._process(dict(req))
            reply = svc._process(dict(req))
            assert reply["status"] == "degraded"
            assert reply["code"] == 203
            assert svc.stats.get("degraded_executes") == 1
            # degraded reply still carries a usable analysis
            assert "annotated_c" in reply["results"][0]
        finally:
            svc._compute.shutdown(wait=False)
