#!/usr/bin/env python3
"""Smoke and determinism test for the pipeline benchmark.

    python3 perfbench/smoke.py

Runs every workload at --size tiny (a second or two each), twice
untraced and twice traced, with REVISE_THREADS=1 and a fixed seed.
Each run must exit 0 and report correct answers with no failed
operations.  The exact outputs (stored size, result model counts, SAT
solves, wrong answers) must be identical across the four runs: the two
untraced runs agree with each other, the two traced runs likewise, and
the layer replay makes exactly the SAT calls the KnowledgeBase pass made.
Exits 1 on the first violation.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ["delayed_ask", "delayed_wide", "compact_chain",
             "explicit_persist"]
SEED = "7"


def run(workload, trace):
    env = dict(os.environ, REVISE_THREADS="1")
    p = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", SEED,
         "--seconds", "1", "--trace", trace, "--size", "tiny"],
        capture_output=True, text=True, env=env, timeout=300)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or len(lines) < 2:
        sys.exit(f"{workload} trace={trace}: exit {p.returncode}\n"
                 f"{p.stderr[-3000:]}")
    result = json.loads(lines[-1])
    meta = json.loads(lines[-2])["meta"]
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"{workload} trace={trace}: correct={result['correct']} "
                 f"failed={result['failed']} {meta.get('verification')}")
    return meta["exact"]


def main():
    for workload in WORKLOADS:
        runs = [run(workload, trace) for trace in ("0", "0", "1", "1")]
        if any(r != runs[0] for r in runs):
            sys.exit(f"{workload}: exact outputs differ between runs: "
                     f"{runs}")
        print(f"{workload}: ok {runs[0]}")


if __name__ == "__main__":
    main()
