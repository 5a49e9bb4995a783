"""Run every workload once and print all of its metrics, each with its unit.

Usage (from the root of a checkout)::

    python3 perfbench/all.py [--seed 0] [--seconds 20] [--trace 0]

Each workload runs as its own ``run.py`` process.  Exits with code 1 when a
run fails or reports a failed operation.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    failed = 0
    for workload in (entry["name"] for entry in spec["workloads"]):
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        completed = subprocess.run(command, cwd=HERE.parent, capture_output=True, text=True, check=False)
        if completed.returncode != 0:
            print(f"{workload}: exit code {completed.returncode}\n{completed.stderr[-2000:]}")
            failed += 1
            continue
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        print(
            f"{workload}: correct={result['correct']} attempted={result['attempted']} "
            f"failed={result['failed']}"
        )
        for name, metric in result["metrics"].items():
            print(f"  {name:<24} {metric['value']:>14.6g} {metric['unit']}")
        failed += result["failed"]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
