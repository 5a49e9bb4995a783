"""E11 — engine A/B: naive vs interned vs generated backends.

The engine claims that compiling a ``(source, target, fixed)`` triple once
into the **interned** data plane — terms interned to dense integer ids,
columnar target storage, packed-key signature indexes, cost-ordered plans,
static-filter hoisting, iterative trail-based execution — beats the naive
recursive backtracker, and that the **generated** backend (plan suffixes
compiled to dedicated nested-loop functions, compiled static-filter passes,
lazy substitution materialisation, adaptive mid-execution replanning)
beats interned again on enumeration-bound work.  This experiment A/Bs the
three backends on the workloads the decision procedures actually run:

* the E7 *containee-scaling* family (chain containment mappings): the
  hom-search cost grows with the containee length; the interned backend
  must be **at least 6× faster** than naive, and the generated backend
  **at least 2× faster** than interned on its best family — the headline
  acceptance assertions;
* the E7 *containing-scaling* family (star queries, ``rays^rays``
  containment mappings): enumeration-bound, the interned win here comes
  from integer candidate filtering and trusted substitution construction —
  interned must be **at least 2× faster** than naive on every star size;
* the E1 bag-evaluation scaling workload (Section 2 instance, scaled).

Cross-backend identity is asserted before any timing: verdicts,
certificates, counts and enumerated answer bags must be bit-identical
across all three backends.

A machine-readable record of the run (timings, speedup ratios, committed
thresholds, case counts) is written to ``BENCH_E11.json`` at the repo root
(see ``benchmarks/record.py``); ``$BENCH_SMOKE=1`` shrinks the workload
sizes for CI smoke runs, where the hard speedup assertions are deferred to
``report.py --check``'s tolerance-based gate (small sizes on shared
runners are too noisy for exact thresholds).

Run standalone (``PYTHONPATH=src python benchmarks/bench_e11_engine.py``)
for the comparison table, or through pytest with the bench collection
options used by the other experiments.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path
from typing import Callable

sys.path.insert(0, str(Path(__file__).resolve().parent))

from record import write_record  # noqa: E402

from repro.core.decision import decide_bag_containment
from repro.core.probe_tuples import most_general_probe_tuple
from repro.engine import use_backend
from repro.evaluation.bag_evaluation import evaluate_bag
from repro.evaluation.homomorphisms import containment_mappings_to_ground
from repro.queries.cq import ConjunctiveQuery
from repro.relational.atoms import Atom
from repro.relational.instances import BagInstance
from repro.relational.terms import Constant
from repro.workloads.paper_examples import section2_q1, section2_q2, section2_query
from repro.workloads.structured import chain_containment_pair, star_containment_pair

#: Minimum interned-over-naive speedup on the E7 chain (decider-scaling)
#: workload, worst case over the chain lengths.
REQUIRED_E7_SPEEDUP = 6.0

#: Minimum interned-over-naive speedup on the E7 star (containing-scaling)
#: workload, worst case over the star sizes.
REQUIRED_STAR_SPEEDUP = 2.0

#: Minimum generated-over-interned speedup on the *best* E7 decider-scaling
#: family.  The generated backend's codegen win is workload-shaped — the
#: enumeration-bound star family is where compiled suffixes plus lazy
#: substitution materialisation pay off; the chain family is a static-filter
#: fold where both integer backends are already probe-bound — so the
#: acceptance is "at least one family", not "every family".
REQUIRED_GENERATED_SPEEDUP = 2.0

#: The three backends under test, in comparison order.
BACKENDS = ("naive", "interned", "generated")

#: ``BENCH_SMOKE=1`` shrinks sizes for CI smoke runs (assertions deferred
#: to the record check, which allows the documented regression tolerance).
SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")

CHAIN_LENGTHS = (4, 8) if SMOKE else (8, 16, 24)
STAR_RAYS = (3,) if SMOKE else (4, 5)
EVAL_COPIES = 4 if SMOKE else 12


def _best_of(fn: Callable[[], object], repeats: int = 5) -> float:
    """Minimum wall-clock over *repeats* runs (the usual noise-robust timer)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _timed(fn: Callable[[], object], backend: str, repeats: int = 5) -> float:
    with use_backend(backend):
        fn()  # warm the plan caches once; steady-state is what the engine sells
        return _best_of(fn, repeats)


def _ab(fn: Callable[[], object], repeats: int = 5) -> tuple[float, float]:
    """(naive seconds, interned seconds) for one workload closure."""
    with use_backend("naive"):
        naive = _best_of(fn, repeats)
    interned = _timed(fn, "interned", repeats)
    return naive, interned


# --------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------- #
def chain_mapping_workload(length: int) -> Callable[[], int]:
    """E7 containee scaling: containment mappings into a grounded chain."""
    containee, containing = chain_containment_pair(length)
    probe = most_general_probe_tuple(containee)
    grounded = containee.ground(probe)

    def run() -> int:
        return sum(1 for _ in containment_mappings_to_ground(containing, grounded, probe))

    return run


def star_mapping_workload(rays: int) -> Callable[[], int]:
    """E7 containing scaling: ``rays^rays`` containment mappings into a star."""
    containee, containing = star_containment_pair(rays)
    probe = most_general_probe_tuple(containee)
    grounded = containee.ground(probe)

    def run() -> int:
        return sum(1 for _ in containment_mappings_to_ground(containing, grounded, probe))

    return run


def scaled_section2_bag(copies: int, multiplicity: int = 1) -> BagInstance:
    """Disjoint copies of the Section 2 running instance (as in bench E1)."""
    counts: dict[Atom, int] = {}
    for copy in range(copies):
        c = {i: Constant(f"c{i}_{copy}") for i in range(1, 6)}
        counts[Atom("R", (c[1], c[2]))] = 2 * multiplicity
        counts[Atom("R", (c[1], c[3]))] = multiplicity
        counts[Atom("P", (c[2], c[4]))] = multiplicity
        counts[Atom("P", (c[5], c[4]))] = 3 * multiplicity
    return BagInstance(counts)


def evaluation_workload(copies: int) -> Callable[[], object]:
    """E1 scaling: bag evaluation of the running query on a scaled instance."""
    query: ConjunctiveQuery = section2_query()
    bag = scaled_section2_bag(copies)
    return lambda: evaluate_bag(query, bag)


# --------------------------------------------------------------------- #
# Benchmarks (collected with the bench_* options, also runnable directly)
# --------------------------------------------------------------------- #
def bench_e11_e7_chain_speedup():
    """Headline assertion: interned ≥ 6× naive on the E7 decider-scaling chains."""
    speedups = []
    for length in CHAIN_LENGTHS:
        workload = chain_mapping_workload(length)
        naive, interned = _ab(workload, repeats=7)
        speedups.append(naive / interned)
    worst = min(speedups)
    if not SMOKE:
        assert worst >= REQUIRED_E7_SPEEDUP, (
            f"interned backend only {worst:.1f}x faster than the naive shim on the "
            f"E7 chain workload (required {REQUIRED_E7_SPEEDUP}x); speedups={speedups}"
        )
    return speedups


def bench_e11_generated_speedup():
    """Headline assertion: generated ≥ 2× interned on ≥ 1 E7 decider-scaling family."""
    speedups: dict[str, float] = {}
    for length in CHAIN_LENGTHS:
        workload = chain_mapping_workload(length)
        interned = _timed(workload, "interned", repeats=7)
        generated = _timed(workload, "generated", repeats=7)
        speedups[f"chain{length}"] = interned / generated
    for rays in STAR_RAYS:
        workload = star_mapping_workload(rays)
        interned = _timed(workload, "interned")
        generated = _timed(workload, "generated")
        speedups[f"star{rays}"] = interned / generated
    best = max(speedups.values())
    if not SMOKE:
        assert best >= REQUIRED_GENERATED_SPEEDUP, (
            f"generated backend peaks at {best:.2f}x over interned across the E7 "
            f"decider-scaling families (required {REQUIRED_GENERATED_SPEEDUP}x on "
            f"at least one); speedups={speedups}"
        )
    return speedups


def bench_e11_e7_star_speedup():
    """Enumeration-bound star family: interned ≥ 2× naive on every star size."""
    speedups = []
    for rays in STAR_RAYS:
        naive, interned = _ab(star_mapping_workload(rays))
        assert interned < naive, "interned backend should not be slower on the star family"
        speedups.append(naive / interned)
    worst = min(speedups)
    if not SMOKE:
        assert worst >= REQUIRED_STAR_SPEEDUP, (
            f"interned backend only {worst:.1f}x faster than naive on the E7 star "
            f"workload (required {REQUIRED_STAR_SPEEDUP}x); speedups={speedups}"
        )
    return speedups


def bench_e11_e1_evaluation_speedup():
    """Bag evaluation on the scaled Section 2 instance (bench E1's sweep)."""
    workload = evaluation_workload(EVAL_COPIES)
    naive, interned = _ab(workload, repeats=3)
    if not SMOKE:
        assert naive / interned >= 1.5, (
            f"interned backend only {naive / interned:.1f}x faster on E1 evaluation"
        )
    return naive / interned


def bench_e11_backends_agree():
    """Bit-identical verdicts, certificates, counts and answers across backends."""
    # Mapping counts agree on both E7 families.
    for workload in [chain_mapping_workload(4), chain_mapping_workload(8),
                     star_mapping_workload(3)]:
        counts = {}
        for backend in BACKENDS:
            with use_backend(backend):
                counts[backend] = workload()
        assert len(set(counts.values())) == 1, f"mapping counts diverge: {counts}"

    # Bag evaluation returns identical answer bags.
    query = section2_query()
    bag = scaled_section2_bag(2)
    answers = {}
    for backend in BACKENDS:
        with use_backend(backend):
            answers[backend] = evaluate_bag(query, bag)
    assert all(answers[backend] == answers["naive"] for backend in BACKENDS), (
        f"answer bags diverge: {answers}"
    )

    # Full decisions ship identical verdicts and certificates.
    pairs = [
        chain_containment_pair(3),
        star_containment_pair(2),
        (section2_q2(), section2_q1()),  # the paper's refuted instance
    ]
    for containee, containing in pairs:
        results = {}
        for backend in BACKENDS:
            with use_backend(backend):
                results[backend] = decide_bag_containment(containee, containing)
        verdicts = {backend: result.contained for backend, result in results.items()}
        assert len(set(verdicts.values())) == 1, f"verdicts diverge: {verdicts}"
        certificates = {
            backend: result.counterexample for backend, result in results.items()
        }
        assert all(
            certificates[backend] == certificates["naive"] for backend in BACKENDS
        ), f"certificates diverge on {containee.name} vs {containing.name}"


def main() -> None:
    workloads = [
        *[(f"E7 chain len={n}", chain_mapping_workload(n)) for n in CHAIN_LENGTHS],
        *[(f"E7 star rays={n}", star_mapping_workload(n)) for n in STAR_RAYS],
        (f"E1 eval copies={EVAL_COPIES}", evaluation_workload(EVAL_COPIES)),
    ]
    timings: dict[str, dict[str, float]] = {}
    print(
        f"{'workload':<20} {'naive':>10} {'interned':>10} {'generated':>10} "
        f"{'nai/int':>8} {'int/gen':>8}"
    )
    for name, workload in workloads:
        row = {backend: _timed(workload, backend, repeats=3) for backend in BACKENDS}
        timings[name] = {backend: round(seconds, 6) for backend, seconds in row.items()}
        print(
            f"{name:<20} {row['naive'] * 1e3:>8.2f}ms "
            f"{row['interned'] * 1e3:>8.2f}ms {row['generated'] * 1e3:>8.2f}ms "
            f"{row['naive'] / row['interned']:>7.2f}x "
            f"{row['interned'] / row['generated']:>7.2f}x"
        )

    bench_e11_backends_agree()
    chain_speedups = bench_e11_e7_chain_speedup()
    star_speedups = bench_e11_e7_star_speedup()
    generated_speedups = bench_e11_generated_speedup()
    worst_chain = min(chain_speedups)
    worst_star = min(star_speedups)
    best_generated = max(generated_speedups.values())
    print(
        f"\nE7 chain interned/naive speedups: "
        f"{', '.join(f'{s:.1f}x' for s in chain_speedups)} (required ≥ {REQUIRED_E7_SPEEDUP}x) — "
        + ("recorded (smoke run)" if SMOKE else "OK")
    )
    print(
        f"E7 star interned/naive speedups: "
        f"{', '.join(f'{s:.1f}x' for s in star_speedups)} (required ≥ {REQUIRED_STAR_SPEEDUP}x) — "
        + ("recorded (smoke run)" if SMOKE else "OK")
    )
    print(
        f"E7 generated/interned speedups: "
        f"{', '.join(f'{k}={v:.2f}x' for k, v in generated_speedups.items())} "
        f"(required ≥ {REQUIRED_GENERATED_SPEEDUP}x on the best family) — "
        + ("recorded (smoke run)" if SMOKE else "OK")
    )

    path = write_record(
        "e11",
        {
            "source": "bench_e11_engine",
            "smoke": SMOKE,
            "backends": list(BACKENDS),
            "case_count": len(workloads),
            "chain_lengths": list(CHAIN_LENGTHS),
            "star_rays": list(STAR_RAYS),
            "timings_seconds": timings,
            "metrics": {
                "interned_over_naive_chain": round(worst_chain, 3),
                "interned_over_naive_star": round(worst_star, 3),
                "generated_over_interned": round(best_generated, 3),
                **{
                    f"interned_over_naive_chain{length}": round(value, 3)
                    for length, value in zip(CHAIN_LENGTHS, chain_speedups)
                },
                **{
                    f"interned_over_naive_star{rays}": round(value, 3)
                    for rays, value in zip(STAR_RAYS, star_speedups)
                },
                **{
                    f"generated_over_interned_{name}": round(value, 3)
                    for name, value in generated_speedups.items()
                },
            },
            "thresholds": {
                "interned_over_naive_chain": REQUIRED_E7_SPEEDUP,
                "interned_over_naive_star": REQUIRED_STAR_SPEEDUP,
                "generated_over_interned": REQUIRED_GENERATED_SPEEDUP,
            },
            "backends_identical": True,  # asserted above
        },
    )
    print(f"json record written to {path}")


if __name__ == "__main__":
    main()
