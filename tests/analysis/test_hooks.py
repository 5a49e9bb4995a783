"""Online verification hooks: session flag, counters, campaign reporting."""

import pytest

from repro.analysis import hooks
from repro.exceptions import PlanVerificationError
from repro.queries.parser import parse_cq
from repro.session import Session


@pytest.fixture(autouse=True)
def _reset_counts():
    hooks.reset_verification_counts()
    yield
    hooks.reset_verification_counts()


Q1 = parse_cq("q(x,y) :- e(x,y), e(y,x)")
Q2 = parse_cq("q(x,y) :- e(x,y)")


class TestContextFlag:
    def test_disabled_by_default(self):
        assert not hooks.verification_enabled()

    def test_context_manager_sets_and_restores(self):
        with hooks.debug_verify_plans():
            assert hooks.verification_enabled()
            with hooks.debug_verify_plans(False):
                assert not hooks.verification_enabled()
            assert hooks.verification_enabled()
        assert not hooks.verification_enabled()

    def test_token_api_round_trips(self):
        token = hooks.set_enabled(True)
        assert hooks.verification_enabled()
        hooks.reset(token)
        assert not hooks.verification_enabled()


class TestSessionIntegration:
    @pytest.mark.parametrize("backend", ["interned", "generated"])
    def test_decisions_are_verified_when_enabled(self, backend):
        session = Session(backend=backend, debug_verify_plans=True)
        outcome = session.decide(Q2, Q1)
        assert outcome.value is not None
        plans, generated, violations = hooks.verification_counts()
        assert plans > 0
        assert violations == 0
        if backend == "generated":
            assert generated > 0

    def test_flag_off_verifies_nothing(self):
        session = Session(backend="interned")
        session.decide(Q2, Q1)
        assert hooks.verification_counts() == (0, 0, 0)

    def test_flag_does_not_leak_outside_activation(self):
        session = Session(backend="interned", debug_verify_plans=True)
        with session.activate():
            assert hooks.verification_enabled()
        assert not hooks.verification_enabled()

    def test_spec_round_trips_the_flag(self):
        session = Session(backend="generated", debug_verify_plans=True)
        spec = session.spec()
        assert spec.debug_verify_plans is True
        rebuilt = spec.build()
        assert rebuilt.debug_verify_plans is True
        assert Session(backend="interned").spec().debug_verify_plans is False

    def test_evaluation_and_mpi_paths_are_covered(self):
        from repro.relational.instances import BagInstance
        from repro.relational.atoms import Atom
        from repro.relational.terms import Constant

        session = Session(backend="generated", debug_verify_plans=True)
        instance = BagInstance({Atom("e", (Constant("a"), Constant("b"))): 2})
        session.evaluate(Q2, instance)
        assert hooks.verification_counts()[0] > 0


class TestRaisingChecks:
    def test_check_plan_raises_with_violations(self):
        from repro.engine import EngineCache, create_backend

        backend = create_backend("interned", cache=EngineCache())
        plan = backend.plan(Q1.body_atoms(), Q2.body_atoms(), frozenset())
        with pytest.raises(PlanVerificationError) as excinfo:
            hooks.check_plan(
                plan,
                source_atoms=parse_cq("q() :- zzz(a)").body_atoms(),
                dictionary=backend.dictionary,
            )
        assert excinfo.value.violations
        assert hooks.verification_counts()[2] == len(excinfo.value.violations)

    def test_check_generated_raises_on_tampered_source(self):
        from repro.engine import EngineCache, create_backend

        backend = create_backend("generated", cache=EngineCache())
        source = parse_cq("q() :- e(x,y), e(y,z)").body_atoms()
        target = parse_cq("p() :- e('a','b'), e('b','c')").body_atoms()
        plan = backend.plan(source, target, frozenset())
        assert backend.count(source, target, None) == 1
        fn = plan.chains["count"]
        with pytest.raises(PlanVerificationError):
            hooks.check_generated(fn.__source__.replace("+= 1", "+= 3"), plan, "count")


class TestCampaignReporting:
    def test_verify_pseudo_layer_rides_the_snapshot(self):
        session = Session(backend="generated")
        report = session.fuzz(
            cases=3,
            seed=0,
            debug_verify_plans=True,
            mutation_rate=0.0,
            shrink_failures=False,
        ).value
        assert "verify" in report.engine_stats
        plans, generated, violations = report.engine_stats["verify"]
        assert plans > 0
        assert violations == 0
        assert "verify" in report.describe()

    def test_session_flag_defaults_the_campaign_flag(self):
        session = Session(backend="interned", debug_verify_plans=True)
        report = session.fuzz(
            cases=2, seed=1, mutation_rate=0.0, shrink_failures=False
        ).value
        assert report.config.debug_verify_plans is True
        assert "verify" in report.engine_stats

    def test_plain_campaign_has_no_verify_layer(self):
        session = Session(backend="interned")
        report = session.fuzz(
            cases=2, seed=1, mutation_rate=0.0, shrink_failures=False
        ).value
        assert "verify" not in report.engine_stats
