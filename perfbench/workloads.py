"""The four closed-loop workloads: inputs, jobs and output checks.

Each workload is driven by one client on one thread through the public API
of ``repro``, with the default backend.  A workload object builds its inputs
from the seed (:meth:`prepare`), hands the runner one zero-argument *job*
per request (:meth:`next_job`, untimed), and checks each job's result
(:meth:`check`, untimed).  Only the job call itself is timed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import repro
from repro.containment.set_containment import is_set_contained
from repro.exceptions import CertificateError
from repro.queries.cq import ConjunctiveQuery
from repro.queries.parser import parse_cq
from repro.queries.printer import format_query
from repro.relational.atoms import Atom
from repro.relational.instances import BagInstance
from repro.relational.terms import Constant, Variable
from repro.session import ContainmentRequest
from repro.workloads import scale
from repro.workloads.structured import (
    chain_query,
    cycle_query,
    projection_free_chain,
    projection_free_star,
    star_query,
)

#: The seed whose pair stream is the decision pool and whose bag-eval
#: answers ``reference.json`` records.
DEFAULT_SEED = 0

#: Body sizes of the acyclic pairs of every decision workload (6 atoms, 6
#: variables).  The library's default sizes (4 x 5) run out of distinct
#: pairs after a few hundred.
COLD_SIZES = {"acyclic_atoms": 6, "acyclic_variables": 6}


@dataclass
class Sizes:
    """Input sizes; ``smoke()`` shrinks them for the self-test."""

    pool: int = 1000
    warmup: int = 150
    warm_warmup: int = 60
    graphs: int = 4
    graph_vertices: int = 16
    oneshot_pool: int = 12

    @classmethod
    def smoke(cls) -> "Sizes":
        return cls(
            pool=60,
            warmup=10,
            warm_warmup=8,
            graphs=1,
            graph_vertices=8,
            oneshot_pool=4,
        )


@dataclass
class Tally:
    """Correctness accounting: every failure is counted against attempts."""

    attempted: int = 0
    errors: int = 0
    degraded: int = 0
    wrong: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.errors + self.degraded + self.wrong

    def fail(self, kind: str, detail: str) -> None:
        setattr(self, kind, getattr(self, kind) + 1)
        if len(self.problems) < 20:
            self.problems.append(f"{kind}: {detail}")


def verdict_digest(verdicts: str) -> str:
    return hashlib.sha256(verdicts.encode("ascii")).hexdigest()


def cold_requests(seed: int, part: int, count: int) -> list[ContainmentRequest]:
    """``scale.mixed_requests(count, distinct=True)`` of stream *part* of *seed*, 6x6 bodies."""
    return scale.mixed_requests(
        count, seed=seed + part * 1_000_003, distinct=True, verify_certificates=True, **COLD_SIZES
    )


def pool_requests(count: int) -> list[ContainmentRequest]:
    """The first *count* pairs of the fixed pool every seed replays.

    The pool is the default seed's first stream part; ``reference.json``
    records its verdicts.  Seeds permute it (``README.md`` says why the
    pairs themselves do not change with the seed).
    """
    return cold_requests(DEFAULT_SEED, 0, count)


def warmup_requests(
    seed: int, count: int, timed: list[ContainmentRequest]
) -> list[ContainmentRequest]:
    """*count* pairs from the seed's own second stream part, none of them in *timed*."""
    pool_keys = {
        frozenset(query.body_atoms())
        for request in timed
        for query in (request.containee, request.containing)
    }
    fresh = [
        request
        for request in cold_requests(seed, 1, 2 * count)
        if frozenset(request.containee.body_atoms()) not in pool_keys
        and frozenset(request.containing.body_atoms()) not in pool_keys
    ]
    return fresh[:count]


class PoolReplay:
    """Shared loop of the two in-process decision workloads.

    The corpus is replayed in *passes*; each pass opens a new session
    (untimed, through :meth:`open_pass`) and visits every pair once in a
    seeded order, so no request repeats within a session.
    """

    def __init__(self, seed: int, sizes: Sizes, tally: Tally, reference: str) -> None:
        self.seed, self.sizes, self.tally, self.reference = seed, sizes, tally, reference
        self.rng = random.Random(seed)
        self.corpus: list[ContainmentRequest] = []
        self.session: repro.Session | None = None
        self.order: list[int] = []
        # Certificates already replayed, per pair: a pass that returns an
        # equal certificate for the same pair needs no second replay.
        self.replayed: dict[tuple[int, Any], bool] = {}

    def open_pass(self) -> repro.Session:
        raise NotImplementedError

    def close_pass(self) -> None:
        self.session = None

    def probe_args(self) -> list[str]:
        return []

    def at_boundary(self) -> bool:
        """True between passes: a run ends only there."""
        return not self.order

    def next_job(self) -> tuple[Callable[[], Any], Any]:
        if not self.order:
            self.close_pass()
            self.session = self.open_pass()
            self.order = self.rng.sample(range(len(self.corpus)), len(self.corpus))
        index = self.order.pop()
        request = self.corpus[index]
        session = self.session
        return (lambda: session.submit(request)), index

    def check(self, index: int, outcome: Any) -> None:
        """Check one decision outcome against its recorded verdict.

        The verdict must equal the reference (the differential oracle's
        consensus); a negative verdict's certificate must also replay under
        direct bag evaluation on the naive backend, and a positive verdict
        must agree with set containment, which bag containment implies.
        """
        tally = self.tally
        if outcome.error is not None:
            tally.fail("errors", outcome.error)
            return
        if outcome.degraded is not None:
            tally.fail("degraded", outcome.degraded)
            return
        verdict, expected = outcome.verdict, self.reference[index] == "1"
        if verdict != expected:
            tally.fail("wrong", f"pair {index}: verdict {verdict}, reference {expected}")
            return
        request = self.corpus[index]
        with repro.use_backend("naive"):
            if verdict:
                if not is_set_contained(request.containee, request.containing):
                    tally.fail("wrong", f"pair {index}: contained under bags but not under sets")
            elif outcome.certificate is None:
                tally.fail("wrong", f"pair {index}: negative verdict without a certificate")
            elif not self._replays(index, outcome.certificate):
                tally.fail("wrong", f"pair {index}: certificate does not replay")

    def _replays(self, index: int, certificate: Any) -> bool:
        key = (index, certificate)
        if key not in self.replayed:
            request = self.corpus[index]
            try:
                self.replayed[key] = certificate.verify(request.containee, request.containing)
            except CertificateError as error:
                self.tally.problems.append(str(error))
                self.replayed[key] = False
        return self.replayed[key]

    def finish(self) -> None:
        self.close_pass()


class DecideCold(PoolReplay):
    """Distinct 6x6 mixed pairs through ``Session.submit``: no cache can hit."""


    def prepare(self) -> None:
        self.corpus = pool_requests(self.sizes.pool)
        warmup = repro.Session()
        for request in warmup_requests(self.seed, self.sizes.warmup, self.corpus):
            warmup.submit(request)

    def open_pass(self) -> repro.Session:
        return repro.Session()


def restore_store(snapshot: dict[str, bytes], path: Path) -> None:
    """Write a store snapshot back to *path*, byte for byte."""
    for suffix in ("", "-wal", "-shm"):
        Path(f"{path}{suffix}").unlink(missing_ok=True)
    for suffix, payload in snapshot.items():
        Path(f"{path}{suffix}").write_bytes(payload)


def prepare_store(requests: list[ContainmentRequest], path: Path) -> dict[str, bytes]:
    """Decide *requests* into a fresh store at *path* and snapshot its bytes."""
    for suffix in ("", "-wal", "-shm"):
        Path(f"{path}{suffix}").unlink(missing_ok=True)
    session = repro.Session(persist_path=path)
    for request in requests:
        session.submit(request)
    session.close()
    return {
        suffix: Path(f"{path}{suffix}").read_bytes()
        for suffix in ("", "-wal")
        if Path(f"{path}{suffix}").exists()
    }


def stored_share(count: int) -> list[int]:
    """The fixed three quarters of a corpus that a warm-restart store holds."""
    return sorted(random.Random(DEFAULT_SEED).sample(range(count), count * 3 // 4))


class WarmRestart(PoolReplay):
    """Restarts on a prepared store: three quarters persist hits, one quarter misses.

    Every pass restores the store to the prepared bytes and opens a new
    ``Session(persist_path=...)``, so the miss share is exactly a quarter in
    every pass and every run.
    """


    def __init__(
        self, seed: int, sizes: Sizes, tally: Tally, reference: str, workdir: Path
    ) -> None:
        super().__init__(seed, sizes, tally, reference)
        self.workdir = workdir
        self.snapshot: dict[str, bytes] = {}
        self.store = workdir / "warm-pass.sqlite"
        self.persist_totals = {"hits": 0, "misses": 0, "errors": 0, "retries": 0}

    def prepare(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.corpus = pool_requests(self.sizes.pool)
        stored = [self.corpus[index] for index in stored_share(len(self.corpus))]
        self.snapshot = prepare_store(stored, self.workdir / "warm-prep.sqlite")
        warmup = warmup_requests(self.seed, self.sizes.warm_warmup, self.corpus)
        stored = [warmup[index] for index in stored_share(len(warmup))]
        restore_store(prepare_store(stored, self.workdir / "warm-warmup.sqlite"), self.store)
        session = repro.Session(persist_path=self.store)
        for request in warmup:
            session.submit(request)
        session.close()

    def probe_args(self) -> list[str]:
        probe_store = self.workdir / "warm-probe.sqlite"
        restore_store(self.snapshot, probe_store)
        return [str(probe_store)]

    def open_pass(self) -> repro.Session:
        restore_store(self.snapshot, self.store)
        return repro.Session(persist_path=self.store)

    def close_pass(self) -> None:
        if self.session is not None:
            stats = self.session.persistent.stats
            for key in self.persist_totals:
                self.persist_totals[key] += getattr(stats, key)
            self.session.close()
        self.session = None


def bag_graph(rng: random.Random, vertices: int, out_degree: int = 3) -> BagInstance:
    """A random bag digraph ``R(a, b)^k`` in which every vertex has *out_degree* edges.

    With a fixed out-degree the number of homomorphisms of every chain and
    star query is the same for every seed (``vertices * out_degree**k``), so
    seeds vary the answers but hardly the work; only the cycle counts vary.
    Multiplicities ``k`` are drawn from 1..3.
    """
    nodes = [Constant(f"n{index}") for index in range(vertices)]
    facts = {}
    for source in nodes:
        for target in rng.sample([node for node in nodes if node != source], out_degree):
            facts[Atom("R", (source, target))] = rng.randint(1, 3)
    return BagInstance(facts)


def bag_queries() -> list[ConjunctiveQuery]:
    """The fixed query mix: chains, stars and cycles, projecting and projection-free."""
    return [
        chain_query(3, name="chain3"),
        projection_free_chain(2, name="pfchain2"),
        star_query(3, name="star3"),
        projection_free_star(2, name="pfstar2"),
        cycle_query(3, projection_free=True, name="pfcycle3"),
        cycle_query(4, projection_free=False, name="cycle4"),
    ]


def answers_digest(answers: list[Any]) -> str:
    digest = hashlib.sha256()
    for bag in answers:
        for answer, count in sorted((tuple(map(str, a)), c) for a, c in bag.items()):
            digest.update(f"{answer}={count};".encode())
        digest.update(b"|")
    return digest.hexdigest()


class BagEval:
    """``Session.evaluate`` of a fixed query mix over seeded bag graphs."""

    def __init__(self, seed: int, sizes: Sizes, tally: Tally, reference: str | None) -> None:
        self.sizes, self.tally, self.reference = sizes, tally, reference
        self.rng = random.Random(seed)
        self.requests: list[tuple[ConjunctiveQuery, BagInstance]] = []
        self.expected: list[Any] = []
        self.session: repro.Session | None = None
        self.order: list[int] = []

    def prepare(self) -> None:
        graphs = [bag_graph(self.rng, self.sizes.graph_vertices) for _ in range(self.sizes.graphs)]
        self.requests = [(query, graph) for graph in graphs for query in bag_queries()]
        naive = repro.Session(backend="naive")
        self.expected = [naive.evaluate(query, graph).value for query, graph in self.requests]
        if self.reference is not None and answers_digest(self.expected) != self.reference:
            self.tally.fail("wrong", "naive answers differ from the reference digest")
        self.session = repro.Session()
        # The workload measures the hot-cache steady state, so warming up on
        # the mix itself is the point: plans and indexes fill the cache.
        for query, graph in self.requests:
            self.session.evaluate(query, graph)

    def probe_args(self) -> list[str]:
        return []

    def at_boundary(self) -> bool:
        """True between passes: a run ends only there."""
        return not self.order

    def next_job(self) -> tuple[Callable[[], Any], Any]:
        if not self.order:
            self.order = self.rng.sample(range(len(self.requests)), len(self.requests))
        index = self.order.pop()
        query, graph = self.requests[index]
        session = self.session
        return (lambda: session.evaluate(query, graph)), index

    def check(self, index: int, outcome: Any) -> None:
        if outcome.error is not None:
            self.tally.fail("errors", outcome.error)
        elif outcome.degraded is not None:
            self.tally.fail("degraded", outcome.degraded)
        elif outcome.value != self.expected[index]:
            self.tally.fail("wrong", f"answer bag of request {index} differs from the naive backend")

    def finish(self) -> None:
        pass


def render_pair(containee: ConjunctiveQuery, containing: ConjunctiveQuery) -> tuple[str, str]:
    """Render a pair as CLI text that parses back to the same pair.

    ``format_query`` does not round-trip the scale families: the star
    variables ``c`` and ``l0`` parse as constants (``parse_cq`` reads only
    names starting with ``x y z u v w`` as variables).  Variables are
    renamed to ``x<i>`` first, and the parse is checked to equal the renamed
    pair; the renaming is a bijection, so that pair equals the original up
    to renaming.
    """
    texts = []
    for query in (containee, containing):
        ordered = sorted(query.variables(), key=lambda variable: variable.name)
        renamed = query.rename_variables(
            {variable: Variable(f"x{index}") for index, variable in enumerate(ordered)}
        )
        text = format_query(renamed)
        if parse_cq(text) != renamed:
            raise ValueError(f"rendering does not round-trip: {text}")
        texts.append(text)
    return texts[0], texts[1]


def first_verdict_line(stdout: str) -> bool | None:
    first = stdout.splitlines()[0] if stdout else ""
    if " ⋢b " in first:
        return False
    if " ⊑b " in first:
        return True
    return None


class OneshotCli:
    """Sequential ``python -m repro decide "<q1>" "<q2>"`` processes.

    The pairs are the pool's first ``Sizes.oneshot_pool``, rendered as text
    and cycled in a seeded order; a 20 s run visits each one or two times.
    """


    def __init__(
        self, seed: int, sizes: Sizes, tally: Tally, reference: str, root: Path, env: dict[str, str]
    ) -> None:
        self.sizes, self.tally, self.reference = sizes, tally, reference
        self.rng = random.Random(seed)
        self.root, self.env = root, env
        self.pairs: list[tuple[str, str]] = []
        self.order: list[int] = []
        self.in_process = False
        self.child_rss_kb = 0

    def prepare(self) -> None:
        self.pairs = [
            render_pair(request.containee, request.containing)
            for request in pool_requests(self.sizes.oneshot_pool)
        ]
        # One untimed process warms the file cache.
        self._spawn(*self.pairs[-1])

    def probe_args(self) -> list[str]:
        return []

    def _spawn(self, containee: str, containing: str) -> tuple[int, str]:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "decide", containee, containing],
            cwd=self.root,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        )
        stdout = process.stdout.read()
        process.stdout.close()
        _, status, usage = os.wait4(process.pid, 0)
        process.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
        return process.returncode, stdout.decode("utf-8", "replace")

    @staticmethod
    def _in_process(containee: str, containing: str) -> tuple[int, str]:
        import repro.cli

        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = repro.cli.main(["decide", containee, containing])
        return code, buffer.getvalue()

    @staticmethod
    def at_boundary() -> bool:
        """A run may end after any process: the pairs' decisions cost about
        the same (a few ms of a ~0.9 s process), so a part pass adds no
        spread, and a whole pass of 12 processes would add up to 10 s."""
        return True

    def next_job(self) -> tuple[Callable[[], Any], Any]:
        if not self.order:
            self.order = self.rng.sample(range(len(self.pairs)), len(self.pairs))
        index = self.order.pop()
        containee, containing = self.pairs[index]
        run = self._in_process if self.in_process else self._spawn
        return (lambda: run(containee, containing)), index

    def check(self, index: int, result: tuple[int, str]) -> None:
        code, stdout = result
        if code not in (0, 1):
            self.tally.fail("errors", f"exit code {code}")
            return
        printed = first_verdict_line(stdout)
        if printed is None or printed != (code == 0):
            self.tally.fail("wrong", f"stdout {stdout[:80]!r} disagrees with exit code {code}")
        elif printed != (self.reference[index] == "1"):
            self.tally.fail("wrong", f"pair {index}: printed {printed}, reference differs")

    def finish(self) -> None:
        pass


def clean(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
