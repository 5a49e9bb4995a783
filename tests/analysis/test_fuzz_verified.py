"""The verified fuzz campaign: 300 cases with online soundness checks.

Every plan the interned/generated backends compile during the
differential campaign is pushed through ``verify_plan``, and every function
the generated backend synthesizes (including post-replan recompilations) is
AST-verified by ``verify_generated``.  The campaign must stay green AND
report zero violations — a regression in either the engines or the verifier
itself fails here.
"""

from repro.session import Session
from repro.verify.runner import BACKEND_NAMES


def test_300_case_campaign_verifies_every_plan_and_function():
    session = Session(backend="generated", debug_verify_plans=True)
    report = session.fuzz(
        cases=300,
        seed=0,
        jobs=2,
        shrink_failures=False,
    ).value
    assert report.ok, report.describe()
    assert report.cases_run == 300
    # The differential oracle runs every registered backend per case, so the
    # verified counts cover interned and generated plans alike.
    assert set(report.config.backends) == set(BACKEND_NAMES)
    plans, functions, violations = report.engine_stats["verify"]
    assert violations == 0, report.describe()
    assert plans > 300  # several plans per case across the backends
    assert functions > 0  # the generated backend compiled real code
    assert "0 violations" in report.describe()
