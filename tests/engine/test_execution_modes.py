"""Execution-mode, stats and plan-contract tests for the compiled backends.

Every test runs on both compiled backends (``interned`` and ``generated``),
which share the interned planner and differ only in how a plan executes.
The generated backend wraps its :class:`InternedPlan` (``plan.base``) and
counts the candidates its probes *return* rather than the rows it tries,
so its early-exit bounds are per probe, not per row.
"""

import pytest

from repro.engine import EngineCache, ExecutionStats, create_backend, use_backend
from repro.exceptions import ReproError
from repro.relational.atoms import Atom
from repro.relational.terms import Constant, Variable

x, y, z = Variable("x"), Variable("y"), Variable("z")
a, b, c = Constant("a"), Constant("b"), Constant("c")

COMPILED_BACKENDS = ("interned", "generated")


@pytest.fixture(params=COMPILED_BACKENDS)
def backend(request):
    return create_backend(request.param, EngineCache())


def _path_facts(n: int) -> list[Atom]:
    nodes = [Constant(f"n{i}") for i in range(n + 1)]
    return [Atom("R", (nodes[i], nodes[i + 1])) for i in range(n)]


def _plan(backend, source, target, fixed=None):
    """The interned plan a backend compiled (unwrapping a generated plan)."""
    plan = backend.plan(source, target, fixed)
    return getattr(plan, "base", plan)


def _all_steps(plan):
    return plan.static_steps + plan.steps


class TestModes:
    def test_iterate_yields_substitutions_with_fixed_included(self, backend):
        (solution,) = list(backend.iterate([Atom("R", (x, y))], [Atom("R", (a, b))], {x: a}))
        assert solution.apply_term(x) == a
        assert solution.apply_term(y) == b

    def test_count_matches_iterate(self, backend):
        source = [Atom("R", (x, y)), Atom("R", (y, z))]
        facts = _path_facts(6)
        assert backend.count(source, facts) == len(list(backend.iterate(source, facts))) == 5

    def test_exists_on_empty_target(self, backend):
        source = [Atom("R", (x, y))]
        assert backend.exists(source, []) is False
        assert backend.count(source, []) == 0

    def test_empty_source_yields_the_fixed_bindings_once(self, backend):
        solutions = list(backend.iterate([], [Atom("R", (a, b))], {x: a}))
        assert len(solutions) == 1
        assert solutions[0].apply_term(x) == a

    def test_repeated_variable_within_atom(self, backend):
        target = [Atom("R", (a, b)), Atom("R", (b, b))]
        (solution,) = list(backend.iterate([Atom("R", (x, x))], target))
        assert solution.apply_term(x) == b
        assert backend.count([Atom("R", (x, x))], target) == 1


class TestEarlyExit:
    def test_exists_stops_at_the_first_solution(self, backend):
        # 50 facts, 50 solutions: exists must not visit them all.
        facts = [Atom("R", (Constant(f"u{i}"), Constant(f"v{i}"))) for i in range(50)]
        assert backend.exists([Atom("R", (x, y))], facts)
        assert backend.stats.solutions_found == 1
        assert backend.stats.executions == 1
        if backend.name == "interned":
            assert backend.stats.candidates_tried == 1

    def test_count_visits_everything(self, backend):
        facts = [Atom("R", (Constant(f"u{i}"), Constant(f"v{i}"))) for i in range(50)]
        assert backend.count([Atom("R", (x, y))], facts) == 50
        assert backend.stats.candidates_tried == 50

    @pytest.mark.parametrize("name, bound", [("interned", 3), ("generated", 80)])
    def test_has_homomorphism_routes_through_exists_mode(self, name, bound):
        """Regression: ``has_homomorphism`` must not enumerate all solutions.

        With a join producing quadratically many homomorphisms the exists
        mode must touch a bounded prefix of the search only.
        """
        from repro.evaluation.homomorphisms import count_homomorphisms, has_homomorphism

        hub = Constant("hub")
        facts = [Atom("R", (hub, Constant(f"s{i}"))) for i in range(40)]
        facts += [Atom("S", (hub, Constant(f"t{i}"))) for i in range(40)]
        source = [Atom("R", (x, y)), Atom("S", (x, z))]

        with use_backend(name) as active:
            assert active.stats is not None
            before = active.stats.candidates_tried
            assert has_homomorphism(source, facts)
            tried = active.stats.candidates_tried - before
            # 1600 homomorphisms exist; the early exit needs one candidate
            # (interned) or one probe (generated) per join level, where
            # counting touches 40 + 40 * 40.
            assert count_homomorphisms(source, facts) == 1600
        assert tried <= bound


class TestStats:
    def test_merge_accumulates(self):
        first = ExecutionStats(candidates_tried=2, solutions_found=1, executions=1)
        second = ExecutionStats(candidates_tried=3, solutions_found=0, executions=1)
        first.merge(second)
        assert (first.candidates_tried, first.solutions_found, first.executions) == (5, 1, 2)


class TestPlanShape:
    def test_deduplicates_source_atoms(self, backend):
        plan = _plan(backend, [Atom("R", (x, y)), Atom("R", (x, y))], [Atom("R", (a, b))])
        assert plan.num_steps == 1

    def test_every_source_atom_is_scheduled_once(self, backend):
        source = [Atom("R", (x, y)), Atom("S", (y, z)), Atom("T", (z,))]
        plan = _plan(backend, source, [Atom("R", (a, b))])
        assert sorted(str(step.atom) for step in _all_steps(plan)) == sorted(map(str, source))

    def test_fixed_variables_count_as_bound(self, backend):
        plan = _plan(backend, [Atom("R", (x, y))], [Atom("R", (a, b))], {x: a})
        (step,) = _all_steps(plan)
        assert step.key_ops == (plan.slot_of[x],)
        assert step.new_ops == ((1, plan.slot_of[y]),)

    def test_constants_count_as_bound(self, backend):
        plan = _plan(backend, [Atom("R", (a, y))], [Atom("R", (a, b))])
        (step,) = _all_steps(plan)
        assert len(step.key_ops) == 1 and step.key_ops[0] < 0  # a constant-id op
        assert step.new_ops == ((1, plan.slot_of[y]),)

    def test_later_steps_see_earlier_bindings(self, backend):
        # Whatever order is chosen for a chain, the second step must have the
        # shared variable in its probe key.
        plan = _plan(backend, [Atom("R", (x, y)), Atom("R", (y, z))], _path_facts(3))
        second = _all_steps(plan)[1]
        assert second.key_ops, "the join variable of the second step should be bound"

    def test_fail_first_prefers_smaller_relations(self, backend):
        target = [Atom("Big", (Constant(f"u{i}"), Constant(f"v{i}"))) for i in range(100)]
        target.append(Atom("Small", (a, b)))
        plan = _plan(backend, [Atom("Big", (x, y)), Atom("Small", (x, y))], target)
        assert _all_steps(plan)[0].atom.relation == "Small"

    def test_describe_mentions_every_step(self, backend):
        plan = _plan(backend, [Atom("R", (x, y)), Atom("S", (y, z))], [Atom("R", (a, b))])
        text = plan.describe()
        assert "step 0" in text and "step 1" in text


class TestFixedContract:
    def test_rejects_unplanned_fixed_bindings(self, backend):
        plan = _plan(backend, [Atom("R", (x, y))], [Atom("R", (a, b))])
        with pytest.raises(ReproError, match="compiled without fixed bindings"):
            plan.check_fixed({x: a})

    def test_rejects_missing_planned_fixed_bindings(self, backend):
        plan = _plan(backend, [Atom("R", (x, y))], [Atom("R", (a, b))], {x: a})
        with pytest.raises(ReproError, match="expecting fixed bindings"):
            plan.check_fixed({})

    def test_accepts_planned_and_foreign_fixed_bindings(self, backend):
        plan = _plan(backend, [Atom("R", (x, y))], [Atom("R", (a, b))], {x: a})
        plan.check_fixed({x: a})
        # Bindings for variables outside the source ride along harmlessly.
        plan.check_fixed({x: a, Variable("unrelated"): b})
        [substitution] = list(backend.iterate([Atom("R", (x, y))], [Atom("R", (a, b))], {x: a, z: c}))
        assert substitution[z] == c
        assert substitution[y] == b


class TestDeadlineProtocol:
    def test_static_only_plans_observe_an_expired_deadline(self, backend):
        """Regression: every execution makes the up-front deadline check.

        A projection-free fold compiles to static filters only, so it never
        reaches a polling interval; the check must still happen before the
        first probe, or a budget spent in earlier layers goes unnoticed.
        """
        import time

        from repro.exceptions import DeadlineExceeded
        from repro.faults.runtime import deadline_scope

        source = [Atom("R", (x, y)), Atom("R", (y, x))]
        target = [Atom("R", (a, b)), Atom("R", (b, a))]
        assert not _plan(backend, source, target, {x: a, y: b}).steps
        with deadline_scope(0.001):
            time.sleep(0.002)
            for mode in ("count", "exists"):
                with pytest.raises(DeadlineExceeded):
                    getattr(backend, mode)(source, target, {x: a, y: b})
            with pytest.raises(DeadlineExceeded):
                list(backend.iterate(source, target, {x: a, y: b}))
        assert backend.count(source, target, {x: a, y: b}) == 1
