"""The repository's benchmark: one workload per invocation, in fresh processes.

    python3 perfbench/run.py --workload exec-auto --seed 1 --seconds 30 --trace 0

Workloads: compile-cold, exec-auto, exec-pool, serve-mixed (see
``perfbench/README.md``).  ``--trace 0`` reports the end-to-end metrics
of ``BENCHMARK.json``; ``--trace 1`` runs the per-layer breakdown
instead.  The workload runs in a child process (``bench.py``); set-up
time is measured from just before each launch to the first timed
operation, over three launches, and reported as their median.  The last
line of standard output is one JSON object::

    {"correct": true, "attempted": 1000, "failed": 0, "metrics": {...}}

Exits non-zero, without that line, when the repository's sources are not
next to this directory or a child fails.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("compile-cold", "exec-auto", "exec-pool", "serve-mixed")
#: launches per run whose set-up time is measured (the last one measures)
SETUP_SAMPLES = 3
#: every child must finish within this; a run must end within 180 s
_CHILD_BUDGET_S = 170.0


class BenchError(Exception):
    pass


def child_env() -> Dict[str, str]:
    """The caller's environment without ``REPRO_*`` knobs, which would
    change what is measured; ``PYTHONHASHSEED`` is left as the caller has it."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), ROOT])
    return env


def launch(args: List[str], timeout: float) -> Dict[str, Any]:
    """Run ``bench.py`` in its own process group and return its result.

    On timeout the whole group is killed, so a daemon or pool worker the
    child started cannot outlive the run.
    """
    cmd = [sys.executable, os.path.join(HERE, "bench.py")] + args
    launch_ns = time.perf_counter_ns()
    proc = subprocess.Popen(
        cmd + ["--launch-ns", str(launch_ns)],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{' '.join(args)}: no result within {timeout:.0f} s") from None
    lines = out.decode(errors="replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{' '.join(args)}: exit code {proc.returncode}")
    return json.loads(lines[-1])


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the timed phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    args = p.parse_args(argv)
    for needed in ("src/repro/__init__.py", "tests/fuzz/gen.py", "BENCHMARK.json"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"error: {needed} not found next to {HERE}; run from a checkout", file=sys.stderr)
            return 2
    spec = load_spec()
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    common = ["--workload", args.workload, "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])
    started = time.monotonic()
    try:
        setups = []
        problems: Dict[str, List[str]] = {}
        for _ in range(SETUP_SAMPLES - 1):
            probe = launch(common + ["--seconds", "0", "--setup-only"], _CHILD_BUDGET_S / 4)
            setups.append(probe["setup_s"])
            problems.update(probe["workload_problems"])
        remaining = _CHILD_BUDGET_S - (time.monotonic() - started)
        res = launch(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], remaining)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(res["setup_s"])
    problems.update(res["workload_problems"])
    metrics = dict(res["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
    if set(metrics) != set(wanted):
        print(f"error: metrics {sorted(set(metrics) ^ set(wanted))} disagree with BENCHMARK.json", file=sys.stderr)
        return 1
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_samples_s": setups,
        "rounds": res["rounds"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        **res["environment"],
        **res["record"],
    }
    print(f"perfbench {args.workload}: seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    for name, unit in wanted.items():
        print(f"  {name:<36} {metrics[name]:>14.6g} {unit}")
    if res.get("latency") and not args.trace:
        for name, value in res["latency"].items():
            print(f"  {name:<36} {value:>14.6g} ms")
    if res.get("program_ms"):
        print("  per-program median (untraced operations):")
        for prog, ms in sorted(res["program_ms"].items()):
            print(f"    {prog:<34} {ms:>12.4f} ms  (n={res['program_n'][prog]})")
    for line in res["failures"]:
        print(f"  FAILED {line}")
    for where, probs in problems.items():
        for line in probs:
            print(f"  PROBLEM [{where}] {line}")
    print("run record: " + json.dumps(record, sort_keys=True))
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({"record": record, "metrics": metrics, "samples_ms": res.get("program_samples_ms", {})}, fh)
    print(json.dumps({
        "correct": not problems,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in wanted.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
