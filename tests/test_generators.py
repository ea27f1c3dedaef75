import dataclasses

import numpy as np
import pytest

from ccfund import (
    BudgetStatus,
    ContributionProfile,
    LinearAdditiveRefund,
    PprRefund,
    SamplerConfig,
    ValuationDist,
    best_response_exact,
    build_appendix_b,
    build_example1,
    build_example2,
    build_procedure1,
    build_theorem2_witness,
    check_budget_surplus,
    check_subset_feasibility,
    evaluate,
    make_view,
    sample_instance,
    solve_pstar_bruteforce,
    thresholds,
    welfare_of,
)
from ccfund.io import dumps_canonical, instance_to_jsonable


class TestSampler:
    def test_claimed_constraints_hold(self):
        cfg = SamplerConfig(n=50, p=8, seed=1)
        for k in range(30):
            inst, sol = sample_instance(cfg, seed=(1, k))
            assert check_budget_surplus(inst) == BudgetStatus.DEFICIT
            assert np.all(inst.vartheta > inst.targets)
            assert np.all(inst.bonuses > 0)
            assert np.all(inst.bonuses <= inst.vartheta - inst.targets + 1e-9)
            thr = thresholds(inst)
            assert check_subset_feasibility(inst, sol.subset, thr)

    def test_shipped_solution_is_exact_for_final_budgets(self):
        cfg = SamplerConfig(n=40, p=7, seed=2, bonus_fraction=0.9)
        for k in range(30):
            inst, sol = sample_instance(cfg, seed=(2, k))
            again = solve_pstar_bruteforce(inst)
            assert again.subset == sol.subset
            assert again.welfare == pytest.approx(sol.welfare, abs=1e-9)

    def test_exponential_distribution(self):
        cfg = SamplerConfig(
            n=50, p=8, valuation_dist=ValuationDist("exponential", rate=1.5), seed=3
        )
        inst, sol = sample_instance(cfg)
        assert check_budget_surplus(inst) == BudgetStatus.DEFICIT
        assert check_subset_feasibility(inst, sol.subset, thresholds(inst))

    def test_single_project_boundary(self):
        cfg = SamplerConfig(n=5, p=1, target_fraction=(0.85, 0.95), budget_rho=(0.2, 0.4), seed=4)
        inst, sol = sample_instance(cfg)
        assert sol.subset in ((), (0,))

    def test_determinism_byte_for_byte(self):
        cfg = SamplerConfig(n=20, p=5, seed=5)
        a, _ = sample_instance(cfg, seed=(5, 0))
        b, _ = sample_instance(cfg, seed=(5, 0))
        assert dumps_canonical(instance_to_jsonable(a)) == dumps_canonical(instance_to_jsonable(b))

    def test_acceptance_rate_of_default_config(self):
        # regression: the default configuration accepts at least half its draws
        cfg = SamplerConfig(seed=6)
        accepted = 0
        for k in range(40):
            try:
                sample_instance(
                    SamplerConfig(n=cfg.n, p=cfg.p, seed=6, max_rejections=1), seed=(6, k)
                )
                accepted += 1
            except Exception:
                pass
        assert accepted >= 20

    def test_linear_scheme_sampling(self):
        # slope sized to the target fractions, else thresholds (valuation
        # over one plus slope) dwarf the targets and the lift breaks the deficit
        cfg = SamplerConfig(
            n=20, p=5, refund=LinearAdditiveRefund(1.0),
            target_fraction=(0.45, 0.6), budget_rho=(0.3, 0.6), seed=7,
        )
        inst, sol = sample_instance(cfg)
        assert isinstance(inst.refund, LinearAdditiveRefund)
        assert check_subset_feasibility(inst, sol.subset, thresholds(inst))


@pytest.mark.parametrize("build, flag", [
    (lambda: build_procedure1(PprRefund()), "all_pass"),
    (lambda: build_theorem2_witness(LinearAdditiveRefund(0.2)), "all_pass"),
    (build_appendix_b, "expected_findings_hold"),
])
def test_any_failing_check_fails_the_certificate(build, flag):
    _, cert = build()
    assert getattr(cert, flag)
    for k, (_, text) in enumerate(cert.checks):
        checks = cert.checks[:k] + ((False, text),) + cert.checks[k + 1:]
        assert not getattr(dataclasses.replace(cert, checks=checks), flag)


class TestProcedure1:
    def test_worked_parameterization(self):
        _, cert = build_procedure1(PprRefund(), 10.0, 10.9, 0.4, 1.0)
        assert cert.threshold_11 == pytest.approx(10.0 * 10.9 / 11.0, abs=1e-9)
        assert cert.threshold_21 == pytest.approx(10.0 - 10.0 * 10.9 / 11.0, abs=1e-9)
        assert cert.theta_21 == pytest.approx(0.1, abs=1e-9)
        assert cert.target_2 == pytest.approx(cert.threshold_21, abs=1e-12)
        assert cert.theta_22 == pytest.approx(0.49636363636, abs=1e-6)
        assert cert.all_pass

    def test_certificate_checks_individually(self):
        instance, cert = build_procedure1(PprRefund())
        assert cert.pstar == (0,)
        assert cert.pstar_unique
        assert cert.subset_feasible
        assert check_budget_surplus(instance) == BudgetStatus.DEFICIT
        assert cert.deviation_utility > cert.on_path_utility

    def test_bracket_violation_rejected(self):
        with pytest.raises(ValueError, match="bracket"):
            build_procedure1(PprRefund(), 10.0, 10.0, 0.4, 1.0)  # valuation at the target
        with pytest.raises(ValueError, match="bracket"):
            build_procedure1(PprRefund(), 10.0, 11.5, 0.4, 1.0)  # threshold above target

    def test_deviation_window_stays_open(self):
        # the decoy valuation interpolates a strictly open interval
        with pytest.raises(ValueError, match="theta22_fraction"):
            build_procedure1(PprRefund(), 10.0, 10.9, 1.0, 1.0)
        _, cert = build_procedure1(PprRefund(), 10.0, 10.9, 0.999, 1.0)
        assert cert.theta_22 < 10.9 + cert.theta_21 - cert.threshold_11

    def test_random_parameterizations_both_schemes(self):
        rng = np.random.default_rng(8)
        for _ in range(60):
            t1 = float(rng.uniform(1.0, 20.0))
            b1 = float(rng.uniform(0.2, 2.0))
            fraction = float(rng.uniform(0.05, 0.95))
            theta11 = t1 + float(rng.uniform(0.05, 0.95)) * b1
            _, cert = build_procedure1(PprRefund(), t1, theta11, fraction, b1)
            assert cert.all_pass
            slope = float(rng.uniform(0.05, 0.5))
            theta11_lin = t1 * (1.0 + float(rng.uniform(0.05, 0.95)) * slope)
            _, cert_lin = build_procedure1(LinearAdditiveRefund(slope), t1, theta11_lin, fraction)
            assert cert_lin.all_pass


class TestExample1:
    def test_constrained_optimum_is_the_cheap_project(self):
        inst = build_example1()
        assert solve_pstar_bruteforce(inst).subset == (1,)

    def test_unconstrained_welfare_prefers_the_rich_project(self):
        inst = build_example1()
        assert welfare_of(inst, (0,)) == pytest.approx(9.0)
        assert welfare_of(inst, (1,)) == pytest.approx(2.0)

    def test_budgeted_agent_funds_the_cheap_project(self):
        inst = build_example1()
        view = make_view(inst, np.zeros((2, 2)), 0)
        response = best_response_exact(view, 0.01)
        assert list(response.funded) == [False, True]
        assert response.contributions == pytest.approx([0.0, 1.0])
        assert response.utility == pytest.approx(1.0)

    def test_broke_agent_contributes_nothing(self):
        inst = build_example1()
        assert inst.budgets[1] == 0.0


class TestExample2:
    def test_fixture_numbers(self):
        inst = build_example2(PprRefund(), 6.0, 10.0)
        assert np.all(inst.bonuses == pytest.approx(2.0))
        assert inst.budgets == pytest.approx([5.0, 5.0], abs=1e-9)
        assert inst.budgets.sum() == pytest.approx(inst.targets[0], abs=1e-8)

    def test_funding_one_project_exactly(self):
        inst = build_example2(PprRefund(), 6.0, 10.0)
        out = evaluate(inst, ContributionProfile([[5.0, 0.0, 0.0], [5.0, 0.0, 0.0]]))
        assert list(out.funded) == [True, False, False]
        assert out.per_pair_utilities[:, 0] == pytest.approx([1.0, 1.0])

    def test_precondition(self):
        with pytest.raises(ValueError, match="above the target"):
            build_example2(PprRefund(), 4.0, 10.0)


class TestSurplusWitness:
    def test_default_construction(self):
        instance, cert = build_theorem2_witness(PprRefund(), 2, 1, 1)
        assert cert.budget_surplus
        assert cert.poor_block_below_min_target
        assert not cert.subset_feasible_all
        assert cert.forces_above_threshold
        assert cert.all_pass
        assert check_budget_surplus(instance) == BudgetStatus.SURPLUS

    def test_various_sizes(self):
        for p, n1, n2 in ((2, 1, 1), (3, 2, 2), (4, 1, 3), (2, 2, 5)):
            _, cert = build_theorem2_witness(PprRefund(), p, n1, n2)
            assert cert.all_pass

    def test_linear_scheme(self):
        _, cert = build_theorem2_witness(LinearAdditiveRefund(0.2), 2, 1, 1)
        assert cert.all_pass


class TestLiteralNumbers:
    def test_formula_spot_checks_pass(self):
        _, report = build_appendix_b()
        assert report.threshold_11_rounds_to_9_91
        assert report.threshold_21_is_0_99
        assert report.pstar == (0,)
        assert report.welfare_values_match
        assert report.budget_deficit

    def test_documented_inconsistency_is_flagged(self):
        _, report = build_appendix_b()
        assert not report.split_consistent
        assert report.remainder_after_11 == pytest.approx(0.0909090909, abs=1e-9)
        assert report.expected_findings_hold
