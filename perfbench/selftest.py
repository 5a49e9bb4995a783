"""Smoke-size self-test of the benchmark itself.

Usage: ``python3 perfbench/selftest.py`` from the root of a checkout (about a
minute).  It checks that

* every workload prints, as its last line, the result object with every
  end-to-end metric (``--trace 0``) or per-layer metric (``--trace 1``) named
  in ``BENCHMARK.json``, each with its declared unit, and no failures;
* a deliberately corrupted verdict or answer (``--corrupt``) is counted as a
  failure on every workload;
* the traced run reports a non-zero value for each layer that does work on
  the workload;
* in a directory holding only ``BENCHMARK.json`` and the benchmark's files,
  the benchmark exits with a non-zero code and prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 3

#: Per-layer metrics that must be non-zero, per workload: the layers that
#: do work there even at smoke size.
BUSY_LAYERS = {
    "decide-cold": (
        "setup.import_s",
        "session.self_ms",
        "core.encode_ms",
        "core.certificate_ms",
        "diophantine.self_ms",
        "linalg.fm_ms",
        "engine.busy_ms",
        "engine.calls",
        "evaluation.self_ms",
        "trace.traced_rps",
        "trace.untraced_rps",
    ),
    "bag-eval": (
        "session.self_ms",
        "engine.busy_ms",
        "engine.calls",
        "engine.plan_hit_rate",
        "evaluation.self_ms",
    ),
    "warm-restart": (
        "session.self_ms",
        "persist.load_ms",
        "persist.store_ms",
        "persist.hit_rate",
        "core.encode_ms",
    ),
    "oneshot-cli": ("cli.main_ms", "queries.parse_ms", "session.self_ms", "core.encode_ms"),
}


def run(workload: str, *extra: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
        "--seconds", "1", "--smoke", *extra,
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300, check=False)


def result_of(completed: subprocess.CompletedProcess) -> dict:
    if completed.returncode != 0:
        raise AssertionError(f"exit {completed.returncode}: {completed.stderr[-2000:]}")
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, sorted(result)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, result
    assert isinstance(result["failed"], int), result
    return result


def check_metrics(result: dict, declared: list[dict], label: str) -> None:
    expected = {metric["name"]: metric["unit"] for metric in declared}
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert got == expected, f"{label}: metric names/units {got} != {expected}"
    for name, entry in result["metrics"].items():
        assert isinstance(entry["value"], (int, float)), f"{label}: {name} is not a number"


def check_workload(workload: str) -> None:
    plain = result_of(run(workload, "--trace", "0"))
    assert plain["correct"] and plain["failed"] == 0, f"{workload}: {plain}"
    check_metrics(plain, SPEC["end_to_end"], f"{workload} --trace 0")
    for name, entry in plain["metrics"].items():
        assert entry["value"] > 0, f"{workload}: end-to-end metric {name} is 0"

    traced = result_of(run(workload, "--trace", "1"))
    assert traced["correct"] and traced["failed"] == 0, f"{workload} traced: {traced}"
    check_metrics(traced, SPEC["per_layer"], f"{workload} --trace 1")
    for name in BUSY_LAYERS[workload]:
        assert traced["metrics"][name]["value"] > 0, f"{workload}: {name} is 0 in the traced run"

    corrupted = result_of(run(workload, "--trace", "0", "--corrupt"))
    assert corrupted["failed"] >= 1 and not corrupted["correct"], (
        f"{workload}: a corrupted output was not counted as failed: {corrupted}"
    )


def check_bare_directory() -> None:
    with tempfile.TemporaryDirectory() as scratch:
        bare = Path(scratch)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
        completed = run("decide-cold", "--trace", "0", cwd=bare)
        assert completed.returncode != 0, "the benchmark succeeded without the program's source"
        assert '"metrics"' not in completed.stdout, "a result was printed without the program"


def main() -> int:
    for workload in (entry["name"] for entry in SPEC["workloads"]):
        check_workload(workload)
        print(f"ok   {workload}: metrics, units, traced layers, corruption counted", flush=True)
    check_bare_directory()
    print("ok   bare directory: non-zero exit, no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
