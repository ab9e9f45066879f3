"""One workload of the benchmark, run in this process.

``run.py`` launches this file once per set-up sample and once for the
measured run; see ``README.md`` for the workloads.  The last line of
standard output is one JSON object with the run's results.

    python3 perfbench/bench.py --workload exec-auto --seed 1 --seconds 30 \
        --trace 0 --launch-ns <perf_counter_ns at launch>
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import checks  # noqa: E402
import inputs  # noqa: E402
import report  # noqa: E402
import tracing  # noqa: E402

_ns = time.perf_counter_ns


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def perf_counters() -> Tuple[Dict[str, int], Dict[str, int]]:
    from repro.ir import perfstats

    return perfstats.STATS.as_dict(), dict(perfstats.TIERS)


class InProcess:
    """A workload whose operations are calls made in this process.

    Subclasses list one round of operation keys in :attr:`ops` and
    implement :meth:`prepare` (untimed), :meth:`call` (the timed call),
    :meth:`observe` (untimed, after the call) and :meth:`verify` (after
    the timed phase).  A run repeats whole rounds, each in a seeded
    order, until ``--seconds`` have passed.
    """

    def __init__(self, seed: int, tiny: bool):
        self.seed, self.tiny = seed, tiny
        self.order_rng = inputs.rng_for(seed, "order")
        self.ops: List[Any] = []
        self.first: Dict[Any, Any] = {}
        self.op_problems: Dict[int, List[str]] = {}

    # -- hooks -------------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self, key) -> Any:
        return None

    def call(self, key, args) -> Any:
        raise NotImplementedError

    def observe(self, key, out, op_id: int) -> None:
        """Keep the first output per key; compare later outputs against it."""

    def verify(self) -> Dict[Any, List[str]]:
        """Problems per key, found after the timed phase."""
        return {}

    def program(self, key) -> str:
        """The row a key's timings are reported under."""
        return str(key)

    def layer_sample(self, key, out) -> None:
        """Per-layer readings taken right after a traced call (untimed)."""

    def layer_extras(self, n_ops: int) -> Dict[str, float]:
        return {}

    def close(self) -> Dict[str, List[str]]:
        """Tear down; returns workload-level problems."""
        return {}

    def record(self) -> Dict[str, Any]:
        return {}

    def kill(self) -> None:
        """Stop what set-up started, after a failure."""
        self.close()

    # -- measurement -------------------------------------------------------

    def run(self, seconds: float, trace: bool) -> Dict[str, Any]:
        rec = tracing.Recorder() if trace else None
        ops: List[Tuple[Any, int, bool]] = []  # (key, duration ns, traced)
        counts: Dict[str, int] = {}
        tiers: Dict[str, int] = {}
        rounds = 0
        deadline = _ns() + int(seconds * 1e9)
        while True:
            traced = trace and rounds % 2 == 1
            order = list(self.ops)
            self.order_rng.shuffle(order)
            if traced:
                c0, t0_tiers = perf_counters()
                rec.install(tracing.LAYER_TARGETS)
            for key in order:
                args = self.prepare(key)
                op_id = len(ops)
                if traced:
                    rec.set_op(op_id)
                    span = rec.begin("op")
                t0 = _ns()
                out = self.call(key, args)
                t1 = _ns()
                if traced:
                    rec.end(span)
                    self.layer_sample(key, out)
                ops.append((key, t1 - t0, traced))
                self.observe(key, out, op_id)
                del out, args
            if traced:
                rec.uninstall()
                c1, t_after = perf_counters()
                for k, v in report.counter_delta(c0, c1).items():
                    counts[k] = counts.get(k, 0) + v
                for k, v in report.counter_delta(t0_tiers, t_after).items():
                    tiers[k] = tiers.get(k, 0) + v
            rounds += 1
            if _ns() >= deadline and (not trace or rounds % 2 == 0):
                break
        problems_by_key = self.verify()
        workload_problems = self.close()
        failed = 0
        failures: List[str] = []
        for op_id, (key, _, _) in enumerate(ops):
            probs = self.op_problems.get(op_id, []) + problems_by_key.get(key, [])
            if probs:
                failed += 1
                if len(failures) < 10:
                    failures.append(f"{self.program(key)}: {probs[0]}")
        result: Dict[str, Any] = {
            "attempted": len(ops),
            "failed": failed,
            "failures": failures,
            "workload_problems": workload_problems,
            "rounds": rounds,
            "record": self.record(),
        }
        plain = [(k, d) for k, d, t in ops if not t]  # untraced operations
        per_program: Dict[str, List[int]] = {}
        for key, dur in plain:
            per_program.setdefault(self.program(key), []).append(dur)
        medians = {p: statistics.median(v) / 1e6 for p, v in per_program.items()}
        result["program_ms"] = medians
        result["program_n"] = {p: len(v) for p, v in per_program.items()}
        result["program_samples_ms"] = {p: [d / 1e6 for d in v] for p, v in per_program.items()}
        if not trace:
            result["metrics"] = {
                "peak_rss_mb": peak_rss_mb(),
                # one operation per program, each at its median time: a
                # throughput that slow spells of the machine barely move
                "ops_per_s": len(medians) / (sum(medians.values()) / 1e3),
                "geomean_ms": report.geomean(medians.values()),
            }
            return result
        traced_ops = [(k, d) for k, d, t in ops if t]
        tree = tracing.Tree()
        tree.add_buffers(rec.spans())
        selfs = tree.self_times("op")
        extras = self.layer_extras(len(traced_ops))
        extras.update(report.trace_summary(
            selfs, "op",
            traced_ns=sum(d for _, d in traced_ops),
            untraced_ns=sum(d for _, d in plain),
            n_ops=len(traced_ops),
        ))
        result["metrics"] = report.layer_metrics(
            selfs, len(traced_ops), counts, tiers, extras, self.kernel_rows(medians)
        )
        return result

    def kernel_rows(self, medians: Dict[str, float]) -> Dict[str, float]:
        return medians


# ---------------------------------------------------------------------------
# compile-cold
# ---------------------------------------------------------------------------


class CompileCold(InProcess):
    """Cold source -> OpenMP compiles, each from empty in-memory caches.

    One round: the 12 registry kernels under the classical, base and new
    pipelines, plus 12 seeded fuzz-grammar programs under the new
    pipeline.  Before each compile every result cache and intern table is
    dropped (``perfstats.clear_all()``), garbage is collected and the
    surviving objects are frozen out of the collector's way, so each
    compile starts from a heap like a fresh ``repro parallelize``
    process's.
    """

    N_FUZZ = 12

    def setup(self) -> None:
        from repro.analysis import AnalysisConfig
        from repro.benchmarks.registry import all_benchmarks
        from repro.ir import perfstats

        import repro.parallelizer
        import repro.parallelizer.codegen

        self.perfstats = perfstats
        self.parallelizer = repro.parallelizer
        self.codegen = repro.parallelizer.codegen
        self.configs = {label: getattr(AnalysisConfig, factory)() for label, factory in inputs.PIPELINES}
        benches = all_benchmarks()[:2] if self.tiny else all_benchmarks()
        self.benches = {b.name: b for b in benches}
        self.fuzz = inputs.fuzz_programs(self.seed, 3 if self.tiny else self.N_FUZZ)
        self.sources: Dict[Any, str] = {}
        for b in benches:
            for label, _ in inputs.PIPELINES:
                self.sources[("kernel", b.name, label)] = b.source
        for i, fp in enumerate(self.fuzz):
            self.sources[("fuzz", i, "Cetus+NewAlgo")] = fp.source
        self.ops = list(self.sources)
        self._parallel = 0

    def prepare(self, key):
        self.perfstats.clear_all()
        gc.collect()
        gc.freeze()
        return self.sources[key], self.configs[key[2]]

    def call(self, key, args):
        result = self.parallelizer.parallelize(args[0], args[1])
        return result, self.codegen.emit_openmp(result)

    def observe(self, key, out, op_id):
        result, c_text = out
        signature = (c_text, checks.verdicts(result.decisions))
        if key not in self.first:
            self.first[key] = (result, signature)
        elif signature != self.first[key][1]:
            self.op_problems[op_id] = ["annotated C or verdicts differ from the first compile"]

    def layer_sample(self, key, out):
        self._parallel += sum(1 for d in out[0].decisions.values() if d.parallel)

    def layer_extras(self, n_ops):
        return {"parallelizer.parallel_loops": self._parallel / max(n_ops, 1)}

    def verify(self):
        out: Dict[Any, List[str]] = {}
        for key, (result, _) in self.first.items():
            probs = checks.uncertified(result.decisions)
            if key[0] == "kernel":
                probs += checks.level_problems(self.benches[key[1]], key[2], result)
            else:
                probs += checks.race_problems(result, self.fuzz[key[1]])
            out[key] = probs
        return out

    def program(self, key):
        return f"{key[1]}/{key[2]}" if key[0] == "kernel" else f"fuzz{key[1]}"

    def kernel_rows(self, medians):
        rows = {
            name: report.geomean(medians.get(f"{name}/{label}", 0.0) for label, _ in inputs.PIPELINES)
            for name in self.benches
        }
        rows["fuzz"] = report.geomean(v for k, v in medians.items() if k.startswith("fuzz"))
        return rows

    def record(self):
        return {"fuzz_programs": len(self.fuzz), "kernels": len(self.benches)}


# ---------------------------------------------------------------------------
# exec-auto / exec-pool
# ---------------------------------------------------------------------------


class Execute(InProcess):
    """``execute()`` of registry kernels on fixed inputs.

    Set-up builds the inputs, parallelizes every kernel (new pipeline),
    starts whatever the backend needs and runs each kernel once, so the
    timed calls see a warm process: calibrated cost model, started pool,
    allocated shared-memory segments.  Each timed call gets a fresh copy
    of the kernel's input.
    """

    backend = "auto"
    kernels: Tuple[str, ...] = report.KERNELS

    def setup(self) -> None:
        from repro.analysis import AnalysisConfig
        from repro.benchmarks.registry import get_benchmark
        from repro.parallelizer import parallelize
        from repro.runtime import workmeter

        import repro.runtime.compile

        self.compile_mod = repro.runtime.compile
        self.workmeter = workmeter
        names = self.kernels[:3] if self.tiny else self.kernels
        self.benches = {n: get_benchmark(n) for n in names}
        self.envs = {n: (b.small_env() if self.tiny else b.paper_env()) for n, b in self.benches.items()}
        self.results = {n: parallelize(b.source, AnalysisConfig.new_algorithm()) for n, b in self.benches.items()}
        self.ops = list(names)
        self.start_backend()
        for name in self.ops:
            self.call(name, self.prepare(name))
        self._pred: List[float] = []
        self._chunk_s = 0.0
        self._imbalance: List[float] = []
        self._faults0 = len(workmeter.fault_events())

    def start_backend(self) -> None:
        pass

    def close(self):
        from repro.runtime.parbackend import shutdown_pool

        shutdown_pool()
        return {}

    def prepare(self, key):
        import numpy as np

        self.workmeter.reset(keep_events=True)
        return {k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in self.envs[key].items()}

    def call(self, key, env):
        r = self.results[key]
        return self.compile_mod.execute(
            r.program, env, decisions=r.decisions, backend=self.backend, fusions=r.fusions
        )

    def observe(self, key, out, op_id):
        arrays = checks.output_arrays(key, out)
        if key not in self.first:
            self.first[key] = arrays
            return
        probs = checks.array_problems(arrays, self.first[key])
        if probs:
            self.op_problems[op_id] = probs

    def layer_sample(self, key, out):
        for entry in self.workmeter.summary().values():
            pred = entry.get("costmodel")
            if pred and entry.get("calls"):
                want = pred["predicted"].get(pred["choice"])
                if want:
                    self._pred.append(entry["loop_s"] / entry["calls"] / want)
            if "chunk_s" in entry:
                self._chunk_s += entry["chunk_s"]
                self._imbalance.append(entry["imbalance"])

    def layer_extras(self, n_ops):
        n = max(n_ops, 1)
        return {
            "runtime.pred_ratio": report.geomean(self._pred),
            "pool.chunk_ms": 1e3 * self._chunk_s / n,
            "pool.imbalance": statistics.fmean(self._imbalance) if self._imbalance else 0.0,
            "pool.faults": (len(self.workmeter.fault_events()) - self._faults0) / n,
        }

    def verify(self):
        return {
            name: checks.array_problems(
                self.first[name], checks.reference_outputs(self.benches[name], self.envs[name])
            )
            for name in self.first
        }

    def record(self):
        return {"kernels": list(self.ops), "scale": "small" if self.tiny else "paper"}


class ExecAuto(Execute):
    """``backend="auto"`` on all 12 kernels (paper scale where one exists)."""


class ExecPool(Execute):
    """``backend="compiled-parallel"`` on the six paper-scale kernels, with
    the pool's default worker count."""

    backend = "compiled-parallel"
    kernels = report.POOL_KERNELS

    def start_backend(self) -> None:
        from repro.runtime import parbackend

        self.parbackend = parbackend
        self.shm_before = _shm_names()
        parbackend.get_pool()
        self.workers = parbackend.get_pool().size

    def close(self):
        super().close()
        problems = []
        live = self.parbackend.live_segments()
        leaked = sorted(_shm_names() - self.shm_before)
        if live or leaked:
            problems.append(f"shared-memory segments left behind: {sorted(set(live) | set(leaked))}")
        return {"shm": problems} if problems else {}

    def record(self):
        return {**super().record(), "pool_workers": self.workers}


def _shm_names() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def workloads() -> Dict[str, type]:
    from serve import ServeMixed

    return {
        "compile-cold": CompileCold,
        "exec-auto": ExecAuto,
        "exec-pool": ExecPool,
        "serve-mixed": ServeMixed,
    }


def environment_record() -> Dict[str, Any]:
    import platform

    import numpy as np

    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    return {
        "cpus": cpus,
        "cpu_count": len(cpus) or os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pid": os.getpid(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "(unset: randomized)"),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--launch-ns", type=int, required=True,
                   help="time.perf_counter_ns() of the launching process just before launch")
    p.add_argument("--setup-only", action="store_true", help="set up, tear down, report set-up time")
    p.add_argument("--tiny", action="store_true", help="tiny inputs (self-test)")
    args = p.parse_args(argv)
    for path in (os.path.join(ROOT, "src"), ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    os.chdir(ROOT)  # the daemon's socket path is relative to the checkout
    wl = workloads()[args.workload](args.seed, args.tiny)
    try:
        wl.setup()
        setup_s = (_ns() - args.launch_ns) / 1e9
        if args.setup_only:
            problems = wl.close()
            print(json.dumps({"setup_s": setup_s, "workload_problems": problems}))
            return 0
        result = wl.run(args.seconds, bool(args.trace))
    except BaseException:
        wl.kill()
        raise
    result["setup_s"] = setup_s
    result["environment"] = environment_record()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
