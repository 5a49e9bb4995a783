"""End-to-end benchmark of ``repro``: four closed-loop workloads, one client.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload decide-cold --seed 0 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the line before it
is a human-readable summary.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import zlib
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("decide-cold", "bag-eval", "warm-restart", "oneshot-cli")

#: Fresh-process set-up samples per run: one before the timed phase, one
#: half-way through it and one after it.
PROBES = 3

#: Alternating untraced/traced segments of a traced run.
TRACE_SEGMENTS = 8


def hash_seed(workload: str, seed: int) -> str:
    """The ``PYTHONHASHSEED`` of a run, derived from its workload and seed."""
    return str((seed * 1_000_003 + zlib.crc32(workload.encode())) % 4_294_967_296)


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="timed work per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    parser.add_argument(
        "--corrupt",
        action="store_true",
        help="self-test only: falsify one checked output, which must count as failed",
    )
    return parser.parse_args(argv)


def run_probe(args: list[str], env: dict[str, str]) -> tuple[float, float, float]:
    """One set-up sample: ``(normalised total s, raw import s, raw session s)``."""
    from clock import calibration_slice, speed_factor

    before = [calibration_slice() for _ in range(3)]
    completed = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        check=False,
    )
    after = [calibration_slice() for _ in range(3)]
    if completed.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {completed.stderr.strip()[-400:]}")
    sample = json.loads(completed.stdout.strip().splitlines()[-1])
    total = sample["import_s"] + sample["session_s"]
    return total * speed_factor(before + after), sample["import_s"], sample["session_s"]


def load_reference(workload: str) -> str:
    """The decision pool's recorded verdicts, or the default seed's bag-eval answer digest."""
    from workloads import verdict_digest

    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    if workload == "bag-eval":
        return reference["bag_answers_sha256"]
    if verdict_digest(reference["verdicts"]) != reference["sha256"]:
        raise RuntimeError("reference.json: the verdicts do not match their digest")
    return reference["verdicts"]


def build_workload(args, sizes, tally, env, workdir):
    import workloads

    reference = load_reference(args.workload)
    if args.workload == "bag-eval" and args.seed != workloads.DEFAULT_SEED:
        reference = None  # the digest covers the default seed's graphs only
    if args.workload == "decide-cold":
        return workloads.DecideCold(args.seed, sizes, tally, reference)
    if args.workload == "bag-eval":
        return workloads.BagEval(args.seed, sizes, tally, reference)
    if args.workload == "warm-restart":
        return workloads.WarmRestart(args.seed, sizes, tally, reference, workdir)
    return workloads.OneshotCli(args.seed, sizes, tally, reference, ROOT, env)


def corrupt(result):
    """Falsify a result the way a wrong program would (``--corrupt``)."""
    import dataclasses

    if isinstance(result, tuple):  # oneshot-cli: (exit code, stdout)
        return (1 - result[0], result[1])
    if result.verdict is not None:
        return dataclasses.replace(result, verdict=not result.verdict)
    from repro.evaluation.bag_evaluation import AnswerBag

    answers = dict(result.value.items())
    first = next(iter(answers), None)
    answers[first if first is not None else ()] = answers.get(first, 0) + 1
    return dataclasses.replace(result, value=AnswerBag(answers))


class Counters:
    """What the traced requests did to caches, from their outcomes."""

    def __init__(self) -> None:
        self.layers = {"plans": [0, 0], "indexes": [0, 0]}
        self.memo_lookups = 0
        self.memo_hits = 0

    def add(self, result) -> None:
        cache = getattr(result, "cache", None)
        if not cache:
            return
        for layer, counts in self.layers.items():
            hits, misses, _ = cache.get(layer, (0, 0, 0))
            counts[0] += hits
            counts[1] += misses
        from repro.session import ContainmentRequest

        if isinstance(result.request, ContainmentRequest):
            self.memo_lookups += 1
            hits, misses, _ = cache.get("results", (0, 0, 0))
            self.memo_hits += int(hits == 1 and misses == 0)

    def hit_rate(self, layer: str) -> float:
        hits, misses = self.layers[layer]
        return hits / (hits + misses) if hits + misses else 0.0


def measure(args, env: dict[str, str]) -> dict:
    from clock import Meter, percentile
    from spans import Tracer, install
    from workloads import Sizes, Tally, clean

    sizes = Sizes.smoke() if args.smoke else Sizes()
    tally = Tally()
    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    workload = build_workload(args, sizes, tally, env, workdir)
    started = time.perf_counter()
    try:
        workload.prepare()
        # Move the set-up's long-lived objects (the pool, the reference, the
        # store snapshot) out of the collector's way, so they do not slow
        # every full collection of the program's own garbage.
        gc.collect()
        gc.freeze()
        if args.trace and args.workload == "oneshot-cli":
            workload.in_process = True
        probes = [run_probe(workload.probe_args(), env)]
        probe_marks = [args.seconds * k / (PROBES - 1) for k in range(1, PROBES)]
        if args.smoke:
            probe_marks = []

        tracer = Tracer()
        counters = Counters()
        undo = None
        segment_s = args.seconds / TRACE_SEGMENTS
        totals = {False: [0, 0.0], True: [0, 0.0]}  # traced -> [requests, raw seconds]
        meter = Meter()
        corrupted = False
        while meter.work_s < args.seconds or not workload.at_boundary():
            if probe_marks and meter.work_s >= probe_marks[0]:
                probe_marks.pop(0)
                meter.flush()
                probes.append(run_probe(workload.probe_args(), env))
            traced = bool(args.trace) and int(meter.work_s / segment_s) % 2 == 1
            if traced and undo is None:
                undo = install(tracer)
            elif not traced and undo is not None:
                undo()
                undo = None
            job, context = workload.next_job()
            tracer.request = tally.attempted
            tracer.recording = traced
            error = None
            begun = time.perf_counter()
            try:
                result = job()
            except Exception as failure:  # noqa: BLE001 - a failed request is counted, not fatal
                error = failure
            latency = time.perf_counter() - begun
            tracer.recording = False
            meter.add(latency)
            tally.attempted += 1
            totals[traced][0] += 1
            totals[traced][1] += latency
            if error is not None:
                tally.fail("errors", repr(error))
                continue
            if traced:
                counters.add(result)
            if args.corrupt and not corrupted:
                result, corrupted = corrupt(result), True
            workload.check(context, result)
        if undo is not None:
            undo()
        meter.flush()
        probes.extend(run_probe(workload.probe_args(), env) for _ in probe_marks)
        workload.finish()
    finally:
        clean(workdir)
    wall = time.perf_counter() - started

    latencies = meter.normalised()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss_kb = max(rss_kb, getattr(workload, "child_rss_kb", 0))
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "pythonhashseed": env["PYTHONHASHSEED"],
        "wall_s": round(wall, 2),
        "requests": len(latencies),
        "raw_throughput_rps": round(len(meter.raw) / sum(meter.raw), 3),
        "raw_latency_p50_ms": round(statistics.median(meter.raw) * 1e3, 4),
        "speed_factor_median": round(statistics.median(meter.factors()), 4),
        "problems": tally.problems,
    }
    if not args.trace:
        metrics = {
            "throughput_rps": (len(latencies) / sum(latencies), "1/s"),
            "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "latency_p99_ms": (percentile(latencies, 0.99) * 1e3, "ms"),
            "setup_s": (statistics.median(probe[0] for probe in probes), "s"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        }
    else:
        metrics = layer_metrics(workload, tracer, counters, totals, probes)
        traces = HERE / ".work" / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
        tracer.write(traces)
        summary["trace_file"] = str(traces.relative_to(ROOT))
    return {
        "summary": summary,
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def layer_metrics(workload, tracer, counters: Counters, totals, probes) -> dict:
    traced_requests, traced_s = totals[True]
    untraced_requests, untraced_s = totals[False]
    per_request = max(traced_requests, 1)

    def ms(*layers: str) -> tuple[float, str]:
        return sum(tracer.self_ns[layer] for layer in layers) / 1e6 / per_request, "ms/req"

    persist = getattr(workload, "persist_totals", None) or {
        "hits": 0, "misses": 0, "errors": 0, "retries": 0,
    }
    lookups = persist["hits"] + persist["misses"]
    untraced_rps = untraced_requests / untraced_s if untraced_s else 0.0
    traced_rps = traced_requests / traced_s if traced_s else 0.0
    attributed_s = sum(tracer.self_ns.values()) / 1e9 / per_request
    return {
        "setup.import_s": (statistics.median(probe[1] for probe in probes), "s"),
        "setup.session_s": (statistics.median(probe[2] for probe in probes), "s"),
        "session.self_ms": ms("session"),
        "session.memo_hit_rate": (
            counters.memo_hits / counters.memo_lookups if counters.memo_lookups else 0.0,
            "ratio",
        ),
        "core.decide_ms": ms("core.decide"),
        "core.encode_ms": ms("core.encode"),
        "core.certificate_ms": ms("core.certificate"),
        "diophantine.self_ms": ms("diophantine"),
        "linalg.fm_ms": ms("linalg.fm"),
        "linalg.lp_ms": ms("linalg.lp"),
        "linalg.lp_fallbacks": (tracer.lp_fallbacks, "count"),
        "engine.busy_ms": ms("engine"),
        "engine.calls": (tracer.outer_calls["engine"] / per_request, "1/req"),
        "engine.plan_hit_rate": (counters.hit_rate("plans"), "ratio"),
        "engine.index_hit_rate": (counters.hit_rate("indexes"), "ratio"),
        "evaluation.self_ms": ms("evaluation"),
        "persist.load_ms": ms("persist.load"),
        "persist.store_ms": ms("persist.store"),
        "persist.hit_rate": (persist["hits"] / lookups if lookups else 0.0, "ratio"),
        "persist.errors": (persist["errors"], "count"),
        "persist.retries": (persist["retries"], "count"),
        "cli.main_ms": ms("cli.main"),
        "queries.parse_ms": ms("queries.parse"),
        "python.gc_ms": ms("python.gc"),
        "trace.untraced_rps": (untraced_rps, "1/s"),
        "trace.traced_rps": (traced_rps, "1/s"),
        "trace.overhead_pct": ((untraced_rps / traced_rps - 1.0) * 100 if traced_rps else 0.0, "%"),
        "trace.attributed_share": (
            attributed_s * untraced_rps if untraced_rps else 0.0,
            "ratio",
        ),
    }


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    wanted = hash_seed(args.workload, args.seed)
    if os.environ.get("PYTHONHASHSEED") != wanted:
        # Start over in a fresh interpreter whose hash seed follows the run seed.
        env = dict(os.environ, PYTHONHASHSEED=wanted)
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv], env)
    sys.path.insert(0, str(SRC))
    # One core for the run and every child it starts, so the calibration
    # slices measure the core the timed work ran on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=wanted)
    result = measure(args, env)
    summary = result.pop("summary")
    print("summary " + json.dumps(summary, ensure_ascii=False))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
