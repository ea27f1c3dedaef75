"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to stream the
pass lines). Every tolerance and size is pinned here.
"""

import time

import numpy as np
import pytest
from conftest import random_view

from ccfund import (
    Assignment,
    ExperimentConfig,
    Heuristic,
    Instance,
    LinearAdditiveRefund,
    PprRefund,
    SamplerConfig,
    ValuationDist,
    best_response_bruteforce,
    best_response_exact,
    build_example2,
    build_procedure1,
    demonstrate_nonexistence,
    evaluate,
    knapsack_form_oracle,
    play,
    run_experiment,
    sample_surplus_sf_instance,
    solve_pstar_bruteforce,
    solve_pstar_dp,
    sw_n,
    threshold_general,
    thresholds,
)
from ccfund.cli import main


def _report(name: str, elapsed: float, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"PASS {name} in {elapsed:.2f}s{suffix}")


def test_criterion_1_threshold_closed_form_matches_bisection():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    ppr = PprRefund()
    worst = 0.0
    for _ in range(10_000):
        theta = float(rng.uniform(0.0, 10.0))
        vartheta = theta + float(rng.uniform(0.1, 20.0))
        target = float(rng.uniform(0.2, 0.9)) * vartheta
        bonus = float(rng.uniform(0.05, 1.0)) * (vartheta - target)
        gap = abs(
            threshold_general(ppr, theta, target, bonus)
            - ppr.closed_form_threshold(theta, target, bonus)
        )
        worst = max(worst, gap)
    assert worst <= 1e-9

    first = ppr.closed_form_threshold(10.9, 10.0, 1.0)
    assert round(first, 4) == 9.9091
    assert round(first, 2) == 9.91
    assert abs(ppr.closed_form_threshold(1.089, 10.0, 1.0) - 0.99) <= 1e-9

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("criterion 1 (closed-form thresholds)", elapsed, f"worst gap {worst:.2e}")


def test_criterion_2_full_bonus_thresholds_sum_to_targets():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 501))
        p = int(rng.integers(1, 21))
        theta = rng.uniform(0.0, 10.0, size=(n, p))
        theta[0] += 0.5
        vartheta = theta.sum(axis=0)
        targets = rng.uniform(0.2, 0.8, size=p) * vartheta
        bonuses = vartheta - targets
        inst = Instance(theta, np.full(n, targets.sum()), targets, bonuses, PprRefund())
        sums = thresholds(inst).sum(axis=0)
        rel = np.abs(sums - targets) / targets
        worst = max(worst, float(rel.max()))
        assert np.all(rel <= 1e-6)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report("criterion 2 (threshold sums hit targets)", elapsed, f"worst rel {worst:.2e}")


def test_criterion_3_welfare_solvers_agree():
    start = time.perf_counter()
    rng = np.random.default_rng(103)
    for _ in range(10_000):
        p = int(rng.integers(1, 13))
        targets = rng.integers(50, 500, size=p) * 0.01  # on the quantization grid
        headroom = rng.uniform(0.1, 10.0, size=p)
        vartheta = targets + headroom
        budget = float(rng.uniform(0.0, 0.9 * targets.sum()))
        inst = Instance(
            vartheta[None, :], [budget], targets, 0.9 * headroom, PprRefund()
        )
        bf = solve_pstar_bruteforce(inst)
        dp = solve_pstar_dp(inst, resolution=0.01)
        assert dp.subset == bf.subset
        assert abs(dp.welfare - bf.welfare) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report("criterion 3 (welfare oracle equivalence)", elapsed, "10000 instances")


def test_criterion_4_best_response_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(104)
    for k in range(1000):
        scheme = (
            PprRefund()
            if k % 2 == 0
            else LinearAdditiveRefund(float(rng.uniform(0.02, 0.4)))
        )
        view = random_view(rng, scheme=scheme)
        exact = best_response_exact(view, 1.0)
        brute = best_response_bruteforce(view, 1.0)
        assert abs(exact.utility - brute.utility) <= 1e-9
        assert np.array_equal(exact.contributions, brute.contributions)
        assert np.array_equal(exact.funded, brute.funded)
    for _ in range(1000):
        view = random_view(
            rng,
            scheme=LinearAdditiveRefund(float(rng.uniform(0.02, 0.4))),
            grid_aligned=True,
        )
        exact = best_response_exact(view, 1.0)
        oracle = knapsack_form_oracle(view, 1.0)
        assert abs(exact.utility - oracle.utility) <= 1e-9
        assert np.array_equal(exact.funded, oracle.funded)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report("criterion 4 (best-response oracles)", elapsed, "1000 + 1000 views")


def test_criterion_5_surplus_play_out_funds_everything():
    start = time.perf_counter()
    cfg = SamplerConfig(n=50, p=8, bonus_fraction=1.0, seed=105)
    for k in range(100):
        inst, sol = sample_surplus_sf_instance(cfg, seed=(105, k))
        thr = thresholds(inst)
        profile = play(
            inst, Assignment.uniform(Heuristic.OPT_WELFARE, inst.n_agents), sol.subset, thr
        )
        outcome = evaluate(inst, profile)
        assert outcome.funded.all()
        assert np.all(np.abs(outcome.totals - inst.targets) <= 1e-9)
        assert sw_n(inst, outcome, sol.welfare) == pytest.approx(1.0, abs=1e-12)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report("criterion 5 (surplus play-out)", elapsed, "100 instances")


def test_criterion_6_deviation_certificates_hold():
    start = time.perf_counter()
    rng = np.random.default_rng(106)
    for _ in range(100):
        t1 = float(rng.uniform(1.0, 20.0))
        fraction = float(rng.uniform(0.05, 0.95))
        b1 = float(rng.uniform(0.2, 2.0))
        theta11 = t1 + float(rng.uniform(0.05, 0.95)) * b1
        _, cert = build_procedure1(PprRefund(), t1, theta11, fraction, b1)
        assert cert.pstar == (0,) and cert.pstar_unique
        assert cert.subset_feasible
        assert cert.budget_deficit
        assert cert.deviation_utility > cert.on_path_utility

        slope = float(rng.uniform(0.05, 0.5))
        theta11_lin = t1 * (1.0 + float(rng.uniform(0.05, 0.95)) * slope)
        _, cert_lin = build_procedure1(
            LinearAdditiveRefund(slope), t1, theta11_lin, fraction
        )
        assert cert_lin.all_pass
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    _report("criterion 6 (deviation certificates)", elapsed, "100 draws x 2 schemes")


def test_criterion_7_discontinuity_demonstration():
    start = time.perf_counter()
    instance = build_example2(PprRefund(), 6.0, 10.0)
    report = demonstrate_nonexistence(instance, (0.1, 0.01, 0.001))
    assert report.strictly_increasing
    assert report.all_exceed_funded
    assert report.funded_utility == pytest.approx(6.0 - float(instance.budgets[1]), abs=1e-9)
    assert main(["verify", "example2"]) == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("criterion 7 (discontinuity)", elapsed, f"gap {report.gap:.3f}")


# -- criterion 8: trend reproduction -------------------------------------------

DEVIANTS = ("symmetric", "weighted", "greedy-theta", "greedy-vartheta")


def _experiment_config(dist: ValuationDist) -> ExperimentConfig:
    return ExperimentConfig(
        sampler=SamplerConfig(
            n=100,
            p=10,
            valuation_dist=dist,
            target_fraction=(0.3, 0.7),
            bonus_fraction=0.9,
            budget_rho=(0.3, 0.8),
            refund=PprRefund(),
            seed=108,
        ),
        alphas=tuple(round(0.1 * k, 1) for k in range(1, 11)),
        instances_per_cell=1000,
        seed=108,
    )


@pytest.fixture(scope="module")
def uniform_report():
    return run_experiment(_experiment_config(ValuationDist("uniform", lo=0.0, hi=10.0)))


@pytest.fixture(scope="module")
def exponential_report():
    return run_experiment(_experiment_config(ValuationDist("exponential", rate=1.5)))


def _check_trends(report) -> list[str]:
    notes = []
    curves = {h: report.curve(h, "sw_mean") for h in DEVIANTS}
    errors = {h: report.curve(h, "sw_se")[1] for h in DEVIANTS}

    # (a) welfare falls as more agents deviate, up to one noise violation
    for h in DEVIANTS:
        means = curves[h][1]
        ses = errors[h]
        violations = sum(
            1
            for k in range(len(means) - 1)
            if means[k + 1] - means[k] > max(ses[k], ses[k + 1])
        )
        assert violations <= 1, f"{h}: {violations} monotonicity violations"
        notes.append(f"{h} monotone ({violations} allowed violation)")

    # (b) the value-density greedy dominates the other deviants everywhere
    gv = curves["greedy-vartheta"][1]
    for h in ("symmetric", "weighted", "greedy-theta"):
        other = curves[h][1]
        assert all(g >= o for g, o in zip(gv, other)), f"greedy-vartheta below {h}"
    notes.append("greedy-vartheta dominates")

    # (c) at alpha 0.2 deviators profit, except under the value-density greedy
    cells = {(c.heuristic, c.alpha): c for c in report.cells}
    for h in ("symmetric", "weighted", "greedy-theta"):
        cell = cells[(h, 0.2)]
        assert cell.au_dev_mean > cell.au_nondev_mean, f"{h}: deviators did not profit"
    gv_cell = cells[("greedy-vartheta", 0.2)]
    assert gv_cell.au_dev_mean < gv_cell.au_nondev_mean
    notes.append("alpha=0.2 utility split signs correct")
    return notes


def test_criterion_8_trends_uniform(uniform_report):
    start = time.perf_counter()
    notes = _check_trends(uniform_report)
    _report("criterion 8a-c (uniform trends)", time.perf_counter() - start, "; ".join(notes))


def test_criterion_8_trends_exponential(exponential_report):
    start = time.perf_counter()
    notes = _check_trends(exponential_report)
    _report("criterion 8d (exponential trends)", time.perf_counter() - start, "; ".join(notes))


def test_criterion_8_runtime_budget(uniform_report, exponential_report):
    # both 1000-instance-per-cell experiments exist; re-running one from
    # scratch must stay inside the desk-scale budget
    start = time.perf_counter()
    run_experiment(_experiment_config(ValuationDist("uniform", lo=0.0, hi=10.0)))
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    _report("criterion 8 runtime", elapsed, "one full distribution rerun")


def test_criterion_9_reports_are_byte_identical(uniform_report):
    start = time.perf_counter()
    again = run_experiment(_experiment_config(ValuationDist("uniform", lo=0.0, hi=10.0)))
    assert again.to_csv_text() == uniform_report.to_csv_text()
    elapsed = time.perf_counter() - start
    _report("criterion 9 (byte-identical reports)", elapsed)
