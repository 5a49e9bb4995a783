"""The generated backend: compiled closure-chains plus adaptive replanning.

This backend reuses the entire interned data plane — the
:class:`~repro.engine.interning.TermDictionary`, the columnar
:class:`~repro.engine.interning.InternedTarget`, and the cost-ordered
:class:`~repro.engine.interned.InternedPlan` — but replaces the interpreted
step loop with functions generated by :mod:`repro.engine.codegen`: the plan
suffix (everything after the first search step) becomes one nested-loop
function with slot locals and baked-in key arithmetic.

The split at the first step is what makes **adaptive replanning** possible:
the driver owns the top-level candidate loop, and between top-level rows —
every :attr:`GeneratedPlan.replan_interval` of them — it compares the live
per-signature selectivity counters against the estimates the suffix was
ordered by.  When a step's observed candidates-per-probe diverges from its
planned estimate by more than :attr:`GeneratedPlan.replan_threshold` (as a
ratio, either direction), the unexecuted suffix is re-ordered greedily under
the live statistics, recompiled, and swapped in.  Reordering join steps
permutes only the enumeration order, never the solution multiset, so
verdicts, certificates and counts are bit-identical with replanning on or
off; the learned order persists on the (cached) plan, so later executions
start from it.  Replan activity is tracked per backend and surfaced by
``--engine-stats``.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from repro.analysis import hooks as _verify_hooks
from repro.engine.codegen import compile_static, compile_suffix
from repro.engine.interned import (
    ExecutionStats,
    InternedPlan,
    InternedStep,
    SelectivityCounters,
    _prepare,
    compile_step,
    greedy_order,
    step_cost,
)
from repro.engine.interning import ID_BITS, InternedTarget, TermDictionary, observed_average
from repro.faults.runtime import TICK_INTERVAL, tick_handle
from repro.relational.substitutions import Substitution
from repro.relational.terms import Term, Variable

__all__ = [
    "DEFAULT_REPLAN_INTERVAL",
    "DEFAULT_REPLAN_THRESHOLD",
    "GeneratedPlan",
    "generated_count",
    "generated_exists",
    "generated_iterate",
]

#: Top-level candidate rows between replan checks.  Small enough to react
#: within one skewed bucket, large enough that the check (a handful of
#: divisions) never shows up next to the per-row work it samples.
DEFAULT_REPLAN_INTERVAL = 64

#: Divergence ratio that triggers a replan: a suffix step whose observed
#: candidates-per-probe is more than this factor away from its planned
#: estimate (in either direction) invalidates the order it justified.
DEFAULT_REPLAN_THRESHOLD = 4.0


class GeneratedPlan:
    """An interned plan plus its compiled suffix functions and replan state.

    The ``base`` plan's first search step stays interpreted (the driver
    loops its candidate rows so it can interleave replan checks); the
    remaining steps live in ``suffix`` — initially the compile-time order,
    thereafter whatever the replanner last settled on — and are compiled
    on demand, per execution mode, into one function each.  ``events`` is
    the owning backend's shared ``[checks, replans]`` pair.
    """

    __slots__ = (
        "base",
        "dictionary",
        "target",
        "selectivity",
        "suffix",
        "planned",
        "chains",
        "static_chain",
        "counters",
        "fast_materialise",
        "replan_interval",
        "replan_threshold",
        "events",
    )

    def __init__(
        self,
        base: InternedPlan,
        dictionary: TermDictionary,
        target: InternedTarget,
        selectivity: SelectivityCounters,
        replan_interval: int = DEFAULT_REPLAN_INTERVAL,
        replan_threshold: float = DEFAULT_REPLAN_THRESHOLD,
        events: list[int] | None = None,
    ) -> None:
        self.base = base
        self.dictionary = dictionary
        self.target = target
        self.selectivity = selectivity
        self.suffix: list[InternedStep] = list(base.steps[1:])
        self.planned: list[float] = self._planned_costs()
        self.chains: dict[str, object] = {}
        self.static_chain = compile_static(base.static_steps)
        self.counters: tuple[list[int], ...] = self._plan_counters()
        if _verify_hooks.verification_enabled():
            _verify_hooks.check_generated(self.static_chain.__source__, self, "static")
        self.replan_interval = replan_interval
        self.replan_threshold = replan_threshold
        self.events = events if events is not None else [0, 0]
        # Fast materialisation is sound when every slot is guaranteed bound
        # (covered by the fixed contract or some step's fresh ops) and no
        # target id collides with a slot's own variable id — then solutions
        # never contain -1 or identity entries, so the substitution dict can
        # be built wholesale at C level instead of filtering slot by slot.
        covered = {slot for _, slot in base.fixed_slots}
        for step in base.steps:
            covered.update(slot for _, slot in step.new_ops)
        self.fast_materialise = len(covered) == len(base.slot_variables) and frozenset(
            base.self_ids
        ).isdisjoint(target.term_ids)

    # ------------------------------------------------------------------ #
    # Suffix compilation
    # ------------------------------------------------------------------ #
    def chain(self, mode: str):
        """The compiled suffix function for *mode*, built on first use."""
        function = self.chains.get(mode)
        if function is None:
            function = compile_suffix(
                tuple(self.suffix), mode, len(self.base.slot_variables)
            )
            self.chains[mode] = function
            # Replanning clears the chains, so every recompilation — not
            # just the first — passes back through this verification gate.
            if _verify_hooks.verification_enabled():
                _verify_hooks.check_generated(function.__source__, self, mode)
        return function

    # ------------------------------------------------------------------ #
    # Adaptive replanning
    # ------------------------------------------------------------------ #
    def _suffix_bound(self) -> set[Variable]:
        """Variables bound before the suffix runs (fixed + first step)."""
        bound = set(self.base.fixed_variables)
        if self.base.steps:
            bound.update(self.base.steps[0].atom.variables())
        return bound

    def _planned_costs(self) -> list[float]:
        """The estimate each suffix step was (re-)ordered by, in order."""
        costs: list[float] = []
        bound = self._suffix_bound()
        for step in self.suffix:
            costs.append(step_cost(self.target, self.selectivity, step.atom, bound)[0])
            bound.update(step.atom.variables())
        return costs

    def _plan_counters(self) -> tuple[list[int], ...]:
        """The distinct selectivity counters this plan's probes tick."""
        counters: dict[int, list[int]] = {}
        for step in (*self.base.static_steps, *self.base.steps[:1], *self.suffix):
            counters[id(step.counter)] = step.counter
        return tuple(counters.values())

    def maybe_replan(self) -> bool:
        """Re-order and recompile the suffix if live statistics diverged.

        Returns ``True`` when the suffix actually changed (the caller must
        refresh its chain reference).  When the live statistics merely
        confirm the current order, the planned baselines are refreshed so
        the same — now accounted-for — divergence stops re-triggering.
        """
        self.events[0] += 1
        suffix = self.suffix
        if len(suffix) < 2:
            return False
        threshold = self.replan_threshold
        diverged = False
        for step, planned in zip(suffix, self.planned):
            observed = observed_average(step.counter)
            if observed is None:
                continue
            if observed > planned * threshold + 1e-9 or observed < planned / threshold - 1e-9:
                diverged = True
                break
        if not diverged:
            return False

        atoms = [step.atom for step in suffix]
        slot_of = self.base.slot_of

        def estimate(atom, bound):
            return step_cost(self.target, self.selectivity, atom, bound, live=True)

        rebuilt: list[InternedStep] = []
        costs: list[float] = []
        bound = self._suffix_bound()
        for atom, cost in greedy_order(atoms, bound, estimate):
            rebuilt.append(
                compile_step(
                    self.dictionary, self.target, self.selectivity, slot_of, atom, bound
                )
            )
            costs.append(cost[0])
        self.planned = costs
        if [step.atom for step in rebuilt] == atoms:
            # Same order under fresh statistics: keep the compiled chains,
            # the refreshed baselines absorb the observed drift.
            return False
        self.suffix = rebuilt
        self.chains.clear()
        self.counters = self._plan_counters()
        self.events[1] += 1
        return True


class _LazySubstitution(Substitution):
    """A substitution whose mapping dict is built on first inspection.

    The generated ``collect`` chain emits complete slot tuples, so on the
    fast materialisation path the (variables, id-to-term, solution) triple
    *is* the substitution — the dict of term images only needs to exist if
    a consumer actually looks at it.  Iterate-mode callers that merely count
    or drain the stream (the E7 benchmark families, decider sweeps) never
    trigger the build; everyone else pays it once, on first access, via the
    unset-slot ``__getattr__`` hook below, after which reads go straight to
    the slot at normal speed.
    """

    __slots__ = ("_delayed",)

    def __getattr__(self, name: str):
        if name == "_mapping":
            variables, term_of, solution = self._delayed
            mapping = dict(zip(variables, map(term_of, solution)))
            self._mapping = mapping
            return mapping
        raise AttributeError(name)

    def __reduce__(self):
        # Pickle (and copy) as an ordinary eager substitution: the delayed
        # triple holds a bound method of the backend's term list, which must
        # never cross a process boundary.
        return (Substitution._trusted, (dict(self._mapping),))


def _probe(step: InternedStep, binding: list[int]) -> tuple[tuple[int, ...], ...]:
    """One interpreted probe of the driver-owned first step."""
    group = step.group
    if group is None:
        rows = step.bucket
    else:
        key = 0
        for op in step.key_ops:
            key = (key << ID_BITS) | (binding[op] if op >= 0 else -1 - op)
        rows = group.get(key, ())
    counter = step.counter
    counter[0] += 1
    counter[1] += len(rows)
    return rows


def _candidates_snapshot(plan: GeneratedPlan) -> int:
    """Total candidates the plan's counters ever returned, for stats deltas.

    The generated inner loops do not thread a per-execution candidate
    counter (that bookkeeping is part of what they eliminate); the
    execution statistics instead charge the delta of the plan's own
    signature counters, which is exact for non-interleaved executions.
    """
    return sum(counter[1] for counter in plan.counters)


def generated_count(
    plan: GeneratedPlan,
    dictionary: TermDictionary,
    fixed: Mapping[Variable, Term] | None = None,
    stats: ExecutionStats | None = None,
) -> int:
    """Count homomorphisms through the compiled suffix chain."""
    base = plan.base
    binding, _ = _prepare(base, dictionary, fixed)
    before = _candidates_snapshot(plan) if stats is not None else 0
    solutions = 0
    try:
        # Fetched before any probing: its up-front deadline check covers
        # executions that never reach a polling interval (static-only plans).
        runtime_tick = tick_handle()
        if not plan.static_chain(binding):
            return 0
        steps = base.steps
        if not steps:
            solutions = 1
            return 1
        step0 = steps[0]
        chain = plan.chain("count")
        rows = _probe(step0, binding)
        new_ops = step0.new_ops
        if not new_ops:
            if rows:
                solutions = chain(binding)
            return solutions
        interval = plan.replan_interval
        tick = 0
        # Deadline/fault polling piggybacks on the replan tick: one extra
        # None-test per interval, nothing per row when inactive.
        for row in rows:
            ok = True
            for position, slot in new_ops:
                value = row[position]
                current = binding[slot]
                if current < 0:
                    binding[slot] = value
                elif current != value:
                    ok = False
                    break
            if ok:
                solutions += chain(binding)
            for _, slot in new_ops:
                binding[slot] = -1
            tick += 1
            if tick >= interval:
                tick = 0
                if runtime_tick is not None:
                    runtime_tick()
                if plan.maybe_replan():
                    chain = plan.chain("count")
        return solutions
    finally:
        if stats is not None:
            stats.candidates_tried += _candidates_snapshot(plan) - before
            stats.solutions_found += solutions
            stats.executions += 1


def generated_exists(
    plan: GeneratedPlan,
    dictionary: TermDictionary,
    fixed: Mapping[Variable, Term] | None = None,
    stats: ExecutionStats | None = None,
) -> bool:
    """``True`` as soon as the compiled chain reaches a solution."""
    base = plan.base
    binding, _ = _prepare(base, dictionary, fixed)
    before = _candidates_snapshot(plan) if stats is not None else 0
    found = False
    try:
        runtime_tick = tick_handle()  # the up-front check (see generated_count)
        if not plan.static_chain(binding):
            return False
        steps = base.steps
        if not steps:
            found = True
            return True
        step0 = steps[0]
        chain = plan.chain("exists")
        rows = _probe(step0, binding)
        new_ops = step0.new_ops
        if not new_ops:
            found = bool(rows) and chain(binding)
            return found
        # Exists has no replan tick to piggyback on; a countdown keeps the
        # inactive cost at one falsy integer test per top-level row.
        countdown = TICK_INTERVAL if runtime_tick is not None else 0
        for row in rows:
            if countdown:
                countdown -= 1
                if not countdown:
                    assert runtime_tick is not None
                    runtime_tick()
                    countdown = TICK_INTERVAL
            ok = True
            for position, slot in new_ops:
                value = row[position]
                current = binding[slot]
                if current < 0:
                    binding[slot] = value
                elif current != value:
                    ok = False
                    break
            if ok and chain(binding):
                found = True
            for _, slot in new_ops:
                binding[slot] = -1
            if found:
                return True
        return False
    finally:
        if stats is not None:
            stats.candidates_tried += _candidates_snapshot(plan) - before
            stats.solutions_found += 1 if found else 0
            stats.executions += 1


def generated_iterate(
    plan: GeneratedPlan,
    dictionary: TermDictionary,
    fixed: Mapping[Variable, Term] | None = None,
    stats: ExecutionStats | None = None,
) -> Iterator[Substitution]:
    """Enumerate homomorphisms; solutions surface per top-level candidate.

    The compiled ``collect`` chain emits raw slot tuples into a sink, and
    the driver materialises them into substitutions after each top-level
    row — the same laziness granularity callers get from the interned
    generator, minus the per-row trail bookkeeping.
    """
    base = plan.base
    binding, extra = _prepare(base, dictionary, fixed)
    before = _candidates_snapshot(plan) if stats is not None else 0
    solutions = 0

    slot_variables = base.slot_variables
    self_ids = base.self_ids
    terms = dictionary.terms

    # The plan-level ``fast_materialise`` guarantee covers unbound and
    # identity slots for searched solutions; the fixed contract can still
    # inject identities (``fixed={x: x}``) or out-of-slot extras, so those
    # two per-execution conditions complete the check.
    fast = (
        plan.fast_materialise
        and not extra
        and all(
            binding[slot] >= 0 and binding[slot] != self_ids[slot]
            for _, slot in base.fixed_slots
        )
    )
    if fast:
        lazy = _LazySubstitution
        new = lazy.__new__
        term_of = terms.__getitem__

        def materialise(solution: tuple[int, ...]) -> Substitution:
            # Every slot is bound and non-identity: the raw solution tuple
            # is the substitution, so defer the dict until it is inspected.
            substitution = new(lazy)
            substitution._delayed = (slot_variables, term_of, solution)
            return substitution

    else:

        def materialise(solution: tuple[int, ...]) -> Substitution:
            mapping = dict(extra)
            # Unbound (-1) and identity (x -> x) slots are both dropped,
            # mirroring the interned materialisation exactly.
            for variable, self_id, image in zip(slot_variables, self_ids, solution):
                if image >= 0 and image != self_id:
                    mapping[variable] = terms[image]
            return Substitution._trusted(mapping)

    try:
        runtime_tick = tick_handle()  # the up-front check (see generated_count)
        if not plan.static_chain(binding):
            return
        steps = base.steps
        if not steps:
            solutions = 1
            yield materialise(tuple(binding))
            return
        step0 = steps[0]
        chain = plan.chain("collect")
        rows = _probe(step0, binding)
        new_ops = step0.new_ops
        sink: list[tuple[int, ...]] = []
        emit = sink.append
        if not new_ops:
            if rows:
                chain(binding, emit)
                solutions += len(sink)
                for solution in sink:
                    yield materialise(solution)
            return
        interval = plan.replan_interval
        tick = 0
        # Deadline/fault polling piggybacks on the replan tick (see
        # generated_count).
        for row in rows:
            ok = True
            for position, slot in new_ops:
                value = row[position]
                current = binding[slot]
                if current < 0:
                    binding[slot] = value
                elif current != value:
                    ok = False
                    break
            if ok:
                chain(binding, emit)
            for _, slot in new_ops:
                binding[slot] = -1
            if sink:
                solutions += len(sink)
                for solution in sink:
                    yield materialise(solution)
                sink.clear()
            tick += 1
            if tick >= interval:
                tick = 0
                if runtime_tick is not None:
                    runtime_tick()
                if plan.maybe_replan():
                    chain = plan.chain("collect")
    finally:
        if stats is not None:
            stats.candidates_tried += _candidates_snapshot(plan) - before
            stats.solutions_found += solutions
            stats.executions += 1
