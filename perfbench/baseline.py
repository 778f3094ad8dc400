"""Run every workload untraced and traced, print all metrics, record them.

    python3 perfbench/baseline.py [--seed N] [--out perfbench/baseline.json]

Run from the root of a checkout.  Each of the eight runs is one
`perfbench/run.py` process with BENCHMARK.json's run_seconds.  Prints
every end-to-end and per-layer metric by name and unit for each workload
and writes the results, with the machine they ran on, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _commit() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=run.ROOT,
            capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return proc.stdout.strip()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=str(run.BENCH / "baseline.json"))
    args = parser.parse_args()
    seconds = BENCHMARK["run_seconds"]
    results = {}
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        results[workload] = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=run.ROOT, capture_output=True, text=True, check=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            results[workload]["traced" if trace else "untraced"] = result
            print(f"{workload} trace={trace}: {result['attempted']} attempted, "
                  f"fail_frac {result['failed'] / result['attempted']:.3g}")
            for name, m in result["metrics"].items():
                print(f"  {name:<44} {m['value']:>16.6g} {m['unit']}")
    record = {
        "commit": _commit(),
        "seed": args.seed,
        "run_seconds": seconds,
        "machine": {
            "platform": platform.platform(),
            "processor": platform.processor() or platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "results": results,
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
