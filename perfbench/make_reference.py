"""Regenerate ``perfbench/reference.json`` for the default seed.

Usage: ``python3 perfbench/make_reference.py`` from the root of a checkout
(about a minute).  Every decision workload replays a prefix of one fixed
pool (the distinct 6x6 mixed pairs of the default seed), so one verdict
string covers decide-cold, warm-restart and oneshot-cli.  Each verdict is the consensus of
the differential oracle (``repro.verify.oracles``: the production strategy on
the naive and indexed backends, exact and LP paths, certificate replay,
refuters and the set-semantics implication); any discrepancy aborts.  The
bag-eval entry is a digest of the naive backend's answer bags.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import repro  # noqa: E402
from repro.verify.oracles import OracleConfig, run_differential_oracle  # noqa: E402
from workloads import (  # noqa: E402
    COLD_SIZES,
    DEFAULT_SEED,
    BagEval,
    Sizes,
    Tally,
    answers_digest,
    pool_requests,
    verdict_digest,
)

#: The production strategy on two backends and both Diophantine paths, with
#: certificate replay, refuters and the set-semantics implication.
ORACLE = OracleConfig(strategies=("most-general",), backends=("naive", "indexed"), refuter_trials=5)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.parse_args()

    started = time.perf_counter()
    verdicts = []
    for index, request in enumerate(pool_requests(Sizes().pool)):
        report = run_differential_oracle(request.containee, request.containing, ORACLE)
        if not report.ok or report.consensus is None:
            print(f"pair {index}: {report.describe()}", file=sys.stderr)
            return 1
        verdicts.append("1" if report.consensus else "0")
        if (index + 1) % 1000 == 0:
            print(f"{index + 1} pairs, {time.perf_counter() - started:.0f} s", flush=True)

    bag = BagEval(DEFAULT_SEED, Sizes(), Tally(), None)
    bag.prepare()
    text = "".join(verdicts)
    reference = {
        "seed": DEFAULT_SEED,
        "pairs": f"the decision pool: distinct mixed pairs, acyclic {COLD_SIZES}",
        "verdicts": text,
        "sha256": verdict_digest(text),
        "bag_answers_sha256": answers_digest(bag.expected),
        "repro_version": getattr(repro, "__version__", "unknown"),
    }
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(text)} verdicts in {time.perf_counter() - started:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
