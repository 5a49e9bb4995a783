"""Unit tests for the plan/codegen soundness verifier."""

import dataclasses

import pytest

from repro.analysis.soundness import Violation, verify_generated, verify_plan
from repro.engine import EngineCache, create_backend
from repro.engine.interning import ID_BITS, TermDictionary
from repro.queries.parser import parse_cq
from repro.relational.terms import Constant, Variable


def plan_for(backend_name, source_text, target_text, fixed=frozenset()):
    backend = create_backend(backend_name, cache=EngineCache())
    source = parse_cq(source_text).body_atoms()
    target = parse_cq(target_text).body_atoms()
    plan = backend.plan(source, target, fixed)
    return backend, plan, source, target


SOURCE = "q() :- e(x,y), e(y,z), e(z,x), f(x,w)"
TARGET = "p() :- e('a','b'), e('b','c'), e('c','a'), e('a','a'), f('a','u'), f('b','v')"


class TestVerifyInternedPlan:
    def test_compiled_plan_is_clean(self):
        backend, plan, source, _ = plan_for("interned", SOURCE, TARGET)
        assert (
            verify_plan(
                plan,
                source_atoms=source,
                fixed_variables=frozenset(),
                dictionary=backend.dictionary,
            )
            == []
        )

    def test_accepts_query_objects_for_source(self):
        _, plan, _, _ = plan_for("interned", SOURCE, TARGET)
        assert verify_plan(plan, source_atoms=parse_cq(SOURCE)) == []

    def test_fixed_contract_mismatch_is_reported(self):
        _, plan, source, _ = plan_for("interned", SOURCE, TARGET)
        violations = verify_plan(
            plan, source_atoms=source, fixed_variables=frozenset({Variable("x")})
        )
        assert any(v.code == "fixed-mismatch" for v in violations)

    def test_wrong_source_atoms_break_the_permutation(self):
        _, plan, _, _ = plan_for("interned", SOURCE, TARGET)
        other = parse_cq("q() :- e(x,y)").body_atoms()
        violations = verify_plan(plan, source_atoms=other)
        assert any(v.code == "order-permutation" for v in violations)

    def test_unknown_plan_type_is_reported(self):
        violations = verify_plan(object())
        assert [v.code for v in violations] == ["unknown-plan"]

    def test_fixed_plan_with_static_filter_is_clean(self):
        fixed = frozenset({Variable("x")})
        backend, plan, source, _ = plan_for(
            "interned", "q(x) :- e(x,x), e(x,y)", TARGET, fixed
        )
        assert plan.static_steps  # e(x,x) hoists once x is fixed
        assert (
            verify_plan(
                plan,
                source_atoms=source,
                fixed_variables=fixed,
                dictionary=backend.dictionary,
            )
            == []
        )

    def test_reordered_steps_surface_unbound_reads(self):
        backend, plan, source, _ = plan_for(
            "interned", "q() :- e(x,y), e(y,z), e(z,w)", "p() :- e('a','b'), e('b','c')"
        )
        steps = list(plan.steps)
        assert len(steps) == 3
        tampered = dataclasses.replace(plan, steps=(steps[0], steps[2], steps[1]))
        codes = {
            v.code
            for v in verify_plan(
                tampered, source_atoms=source, dictionary=backend.dictionary
            )
        }
        assert "unbound-read" in codes or "signature-mismatch" in codes

    def test_wrong_constant_id_is_reported(self):
        backend, plan, source, _ = plan_for(
            "interned", "q() :- e(x,'a')", "p() :- e('a','a')"
        )
        step = plan.steps[0]
        constant_position = next(i for i, op in enumerate(step.key_ops) if op < 0)
        bad_ops = list(step.key_ops)
        bad_ops[constant_position] = bad_ops[constant_position] - 1  # off-by-one id
        # InternedStep uses __slots__, not a dataclass: rebuild it in place.
        type(step).__init__(
            step, step.atom, step.group, step.bucket, tuple(bad_ops), step.new_ops, step.counter
        )
        violations = verify_plan(
            plan, source_atoms=source, dictionary=backend.dictionary
        )
        assert any(v.code == "signature-mismatch" for v in violations)

    def test_key_budget_flags_oversized_dictionary_window(self):
        # A dictionary whose capacity exceeds the ID_BITS pack window could
        # assign ids past the injectivity bound before its own guard fires.
        backend, plan, source, _ = plan_for("interned", SOURCE, TARGET)
        assert any(len(step.key_ops) >= 2 for step in plan.steps)
        roomy = TermDictionary(id_bits=ID_BITS + 1)
        for index in range(len(backend.dictionary)):
            roomy.intern(backend.dictionary.term(index))
        violations = verify_plan(plan, source_atoms=source, dictionary=roomy)
        assert any(v.code == "key-overflow" for v in violations)

    def test_violation_describe_mentions_code_and_subject(self):
        violation = Violation("unbound-read", "step 2", "slot 4 read before bound")
        text = violation.describe()
        assert "unbound-read" in text and "step 2" in text


class TestVerifyGeneratedPlan:
    def test_plan_and_all_chains_are_clean(self):
        backend, plan, source, target = plan_for("generated", SOURCE, TARGET)
        assert backend.count(source, target, None) > 0
        assert backend.exists(source, target, None)
        assert sum(1 for _ in backend.iterate(source, target, None)) > 0
        assert sorted(plan.chains) == ["collect", "count", "exists"]
        assert (
            verify_plan(plan, source_atoms=source, fixed_variables=frozenset()) == []
        )

    def test_static_chain_is_verified(self):
        fixed = frozenset({Variable("x")})
        backend, plan, source, _ = plan_for(
            "generated", "q(x) :- e(x,x), e(x,y)", TARGET, fixed
        )
        assert plan.base.static_steps
        assert verify_plan(plan, source_atoms=source, fixed_variables=fixed) == []

    def test_shuffled_suffix_without_recompilation_is_caught(self):
        backend, plan, source, _ = plan_for(
            "generated", "q() :- e(x,y), e(y,z), e(z,w)", "p() :- e('a','b'), e('b','c')"
        )
        assert len(plan.suffix) == 2
        plan.suffix[0], plan.suffix[1] = plan.suffix[1], plan.suffix[0]
        violations = verify_plan(plan, source_atoms=source, include_chains=False)
        assert violations

    def test_foreign_suffix_step_breaks_the_permutation(self):
        backend, plan, source, _ = plan_for("generated", SOURCE, TARGET)
        _, other_plan, _, _ = plan_for(
            "generated", "q() :- g(x,y), g(y,x)", "p() :- g('a','b'), g('b','a')"
        )
        plan.suffix[-1] = other_plan.base.steps[0]
        violations = verify_plan(plan, source_atoms=source, include_chains=False)
        assert any(v.code == "order-permutation" for v in violations)


class TestVerifyGenerated:
    def _compiled(self):
        backend, plan, source, target = plan_for("generated", SOURCE, TARGET)
        backend.count(source, target, None)
        backend.exists(source, target, None)
        list(backend.iterate(source, target, None))
        return plan

    def test_every_mode_verifies_clean(self):
        plan = self._compiled()
        for mode, function in plan.chains.items():
            assert verify_generated(function.__source__, plan, mode) == []
        assert verify_generated(plan.static_chain.__source__, plan, "static") == []

    def test_missing_counter_tick_is_caught(self):
        plan = self._compiled()
        source = plan.chains["count"].__source__
        broken = source.replace("C0[0] += 1", "C0[0] += 2", 1)
        assert any(
            "counter tick" in v.message
            for v in verify_generated(broken, plan, "count")
        )

    def test_wrong_probe_key_is_caught(self):
        plan = self._compiled()
        source = plan.chains["count"].__source__
        assert "<< 32" in source
        broken = source.replace("<< 32", "<< 16", 1)
        assert any(
            "probe expression" in v.message
            for v in verify_generated(broken, plan, "count")
        )

    def test_illegal_names_and_imports_are_caught(self):
        plan = self._compiled()
        source = plan.chains["exists"].__source__
        header = "def _run(binding):"
        evil = source.replace(header, header + "\n    import os\n    os.system('x')", 1)
        codes = {v.code for v in verify_generated(evil, plan, "exists")}
        assert "illegal-node" in codes

    def test_foreign_call_is_caught(self):
        plan = self._compiled()
        source = plan.chains["count"].__source__
        broken = source.replace("len(rows0)", "eval(rows0)", 1)
        codes = {v.code for v in verify_generated(broken, plan, "count")}
        assert "illegal-call" in codes or "illegal-name" in codes

    def test_dropped_duplicate_check_is_caught(self):
        # e(z,z) forces a duplicate-fresh-variable row check in the suffix.
        backend, plan, source, target = plan_for(
            "generated",
            "q() :- e(x,y), f(y,z,z)",
            "p() :- e('a','b'), f('b','c','c'), f('b','c','d')",
        )
        assert backend.count(source, target, None) == 1
        fn_source = plan.chains["count"].__source__
        assert "!=" in fn_source
        import re

        broken = re.sub(r" *if row\d+\[\d+\] != row\d+\[\d+\]:\n *continue\n", "", fn_source)
        assert broken != fn_source
        assert any(
            "duplicate" in v.message or "structure" == v.code
            for v in verify_generated(broken, plan, "count")
        )

    def test_unknown_mode_and_unparseable_source(self):
        plan = self._compiled()
        assert verify_generated("def _run(binding): pass", plan, "nope")[0].code == "unknown-mode"
        assert verify_generated("def _run(:", plan, "count")[0].code == "syntax-error"

    def test_empty_suffix_single_atom_query(self):
        backend, plan, source, target = plan_for(
            "generated", "q() :- e(x,y)", "p() :- e('a','b')"
        )
        assert backend.count(source, target, None) == 1
        for mode, function in plan.chains.items():
            assert verify_generated(function.__source__, plan, mode) == []
