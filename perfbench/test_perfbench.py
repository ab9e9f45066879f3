"""Self-test of the benchmark.

* every workload runs for a second at tiny size, traced and untraced,
  and prints exactly the metrics ``BENCHMARK.json`` lists;
* a corrupted output counts its operation as failed: one flipped
  verdict, one perturbed array element, one altered daemon reply;
* without the repository's sources next to it the benchmark exits
  non-zero without printing a result.

Run from the repository root (it is not part of the tier-1 suite, whose
``testpaths`` is ``tests``)::

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for _p in (HERE, os.path.join(ROOT, "src"), ROOT):
    if _p not in sys.path:
        sys.path.insert(0, _p)

import bench  # noqa: E402
import checks  # noqa: E402
import report  # noqa: E402
import run  # noqa: E402
import serve  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170,
    )
    assert proc.returncode == 0
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["attempted"] >= 1 and res["failed"] == 0
    listed = {m["name"]: m["unit"] for m in _spec()["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == listed
    if not trace:
        assert all(v["value"] > 0 for v in res["metrics"].values())


def test_per_layer_list_matches_the_code():
    assert _spec()["per_layer"] == report.per_layer_spec()


def test_without_the_sources_it_exits_nonzero(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exec-auto", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()


# ---------------------------------------------------------------------------
# corrupted outputs
# ---------------------------------------------------------------------------


class _FlipFirstCompile(bench.CompileCold):
    """Marks a serial loop parallel in the first compile of the first program."""

    flipped = False

    def call(self, key, args):
        result, c_text = super().call(key, args)
        if not self.flipped and key == self.ops[0]:
            self.flipped = True
            d = next(d for d in result.decisions.values() if not d.parallel)
            d.parallel = True
        return result, c_text


def test_flipped_verdict_counts_as_failed():
    wl = _FlipFirstCompile(7, tiny=True)
    wl.setup()
    res = wl.run(0.0, trace=False)  # one round: each program once
    assert res["attempted"] == len(wl.ops) and res["failed"] == 1


class _PerturbFirstOutput(bench.ExecAuto):
    """Perturbs one element of the first execution's output (the one the
    reference check covers)."""

    perturbed = False

    def call(self, key, env):
        out = super().call(key, env)
        if not self.perturbed and key == "SDDMM":
            self.perturbed = True
            out["p"][0] += 1e-3
        return out


def test_perturbed_element_counts_as_failed():
    wl = _PerturbFirstOutput(7, tiny=True)
    wl.setup()
    wl.perturbed = False  # set-up's warm-up calls do not count
    res = wl.run(0.0, trace=False)  # one round: each kernel once
    assert res["attempted"] == 3 and res["failed"] == 1


def test_altered_reply_counts_as_failed():
    from repro.benchmarks.registry import all_benchmarks
    from repro.service.server import analyze_one

    wl = serve.ServeMixed(7, tiny=True)
    wl.kernels = [(b.name, b.source) for b in all_benchmarks()[:2]]
    records = []
    for i, (name, src) in enumerate(wl.kernels):
        frag = analyze_one("parallelize", src, "new", {})
        reply = {"status": "ok", "op": "parallelize", "results": [{"id": "0", **frag}]}
        records.append({"cls": "warm", "kind": "warm", "kernel": name, "source": src,
                        "reply": reply, "t0": i, "t1": i + 1})
    assert wl.summarize(records, 1)["failed"] == 0
    bad = json.loads(json.dumps(records[1]["reply"]))
    bad["results"][0]["annotated_c"] += "\n"
    records[1]["reply"] = bad
    assert wl.summarize(records, 1)["failed"] == 1


def test_uncertified_parallel_reply_is_a_problem():
    decisions = {"L1": {"parallel": True, "certified": False, "reason": ""}}
    assert checks.uncertified(decisions)
