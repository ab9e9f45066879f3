"""Start ``repro serve`` with the benchmark's layer wrappers installed.

Used by traced ``serve-mixed`` runs only.  The daemon records spans for
every layer the in-process workloads trace, plus its per-request
dispatch (admission, reply-cache lookup and queue wait) and its
compute-thread handler, and writes them to ``--spans`` when it stops.

    python3 perfbench/daemon.py --spans perfbench/out/spans.json --socket perfbench/out/s.sock
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import tracing  # noqa: E402


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--spans", required=True, help="file the spans are written to on exit")
    p.add_argument("--socket", required=True, help="Unix socket to serve on")
    args = p.parse_args()
    from repro.cli import main as repro_main

    rec = tracing.Recorder()
    rec.install(tracing.LAYER_TARGETS + tracing.SERVICE_TARGETS)
    try:
        return repro_main(["--no-disk-cache", "serve", "--socket", args.socket])
    finally:
        rec.uninstall()
        rec.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
