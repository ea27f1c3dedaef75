import math
import multiprocessing
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ccfund import (
    TOL,
    Assignment,
    ExperimentConfig,
    Heuristic,
    Instance,
    LinearAdditiveRefund,
    PlayOrder,
    PprRefund,
    SamplerConfig,
    au_n,
    deviation_split,
    evaluate,
    play,
    run_experiment,
    sample_instance,
    sw_n,
    thresholds,
)
from ccfund import harness
from ccfund.harness import (
    _BLOCK,
    _DEVIATOR_SALT,
    CSV_HEADER,
    FULL_SCALE_INSTANCES,
    _choice_masks,
    _deviator_masks,
    _seed_states,
    _words,
    worker_count,
)
from ccfund.errors import SolverError
from ccfund.generators import ValuationDist
from ccfund.model import ContributionProfile


def small_config(**overrides):
    kwargs = dict(
        sampler=SamplerConfig(n=20, p=4, bonus_fraction=0.9, seed=5),
        alphas=(0.2, 0.5, 1.0),
        instances_per_cell=15,
        seed=5,
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


class TestNormalizedWelfare:
    def test_baseline_play_scores_one(self):
        cfg = SamplerConfig(n=20, p=4, seed=9)
        inst, sol = sample_instance(cfg)
        thr = thresholds(inst)
        out = evaluate(inst, play(inst, Assignment.uniform(Heuristic.OPT_WELFARE, 20), sol.subset, thr))
        assert sw_n(inst, out, sol.welfare) == pytest.approx(1.0)

    def test_nothing_funded_scores_zero(self):
        cfg = SamplerConfig(n=20, p=4, seed=9)
        inst, sol = sample_instance(cfg)
        out = evaluate(inst, ContributionProfile(np.zeros((20, 4))))
        assert sw_n(inst, out, sol.welfare) == 0.0

    def test_partial_funding_strictly_between(self):
        cfg = SamplerConfig(n=20, p=4, seed=9)
        for k in range(10):
            inst, sol = sample_instance(cfg, seed=(9, k))
            if len(sol.subset) < 2:
                continue
            thr = thresholds(inst)
            x = np.zeros((20, 4))
            j = sol.subset[0]
            x[:, j] = thr[:, j] * inst.targets[j] / thr[:, j].sum()
            out = evaluate(inst, ContributionProfile(np.minimum(x, inst.budgets[:, None])))
            value = sw_n(inst, out, sol.welfare)
            if out.funded[j]:
                assert 0.0 < value < 1.0

    def test_undefined_when_optimum_is_empty(self):
        inst = Instance([[10.0]], [0.1], [5.0], [1.0], PprRefund())
        out = evaluate(inst, ContributionProfile([[0.0]]))
        assert sw_n(inst, out, 0.0) is None


class TestNormalizedUtility:
    def test_threshold_play_on_funded_projects_scores_one(self):
        cfg = SamplerConfig(n=10, p=3, bonus_fraction=1.0, seed=13)
        inst, sol = sample_instance(cfg)
        thr = thresholds(inst)
        out = evaluate(inst, ContributionProfile(thr * 0))
        # hand-build: every agent at threshold everywhere and everything funded
        # has utility exactly equal to the baseline
        full = ContributionProfile(np.minimum(thr, inst.budgets[:, None] * 0 + thr))
        lifted = Instance(inst.valuations, thr.sum(axis=1), inst.targets, inst.bonuses, inst.refund)
        out = evaluate(lifted, full)
        values = au_n(lifted, out, thr)
        funded_all = out.funded.all()
        if funded_all:
            assert np.allclose(values[~np.isnan(values)], 1.0, atol=1e-9)

    def test_zero_utility_scores_zero(self):
        cfg = SamplerConfig(n=10, p=3, seed=13)
        inst, _ = sample_instance(cfg)
        out = evaluate(inst, ContributionProfile(np.zeros((10, 3))))
        thr = thresholds(inst)
        values = au_n(inst, out, thr)
        assert np.allclose(values[~np.isnan(values)], 0.0)

    def test_baseline_closed_form_under_full_bonus(self):
        cfg = SamplerConfig(n=10, p=3, bonus_fraction=1.0, seed=17)
        inst, _ = sample_instance(cfg)
        thr = thresholds(inst)
        baseline = (inst.valuations - thr).sum(axis=1)
        closed = (inst.valuations * inst.bonuses / (inst.bonuses + inst.targets)).sum(axis=1)
        assert np.allclose(baseline, closed, atol=1e-9)

    def test_excluded_agents_are_nan(self):
        inst = Instance([[8.0], [0.0]], [4.0, 4.0], [4.0], [2.0], PprRefund())
        out = evaluate(inst, ContributionProfile([[4.0], [0.0]]))
        values = au_n(inst, out, thresholds(inst))
        assert not np.isnan(values[0])
        assert np.isnan(values[1])


class TestDeviationSplit:
    def test_both_classes(self):
        values = np.array([1.0, 2.0, 3.0, 4.0])
        mask = np.array([True, False, True, False])
        dev, nondev = deviation_split(values, mask)
        assert dev == pytest.approx(2.0)
        assert nondev == pytest.approx(3.0)

    def test_empty_class_is_absent_not_zero(self):
        values = np.array([1.0, 2.0])
        dev, nondev = deviation_split(values, np.array([True, True]))
        assert dev == pytest.approx(1.5)
        assert nondev is None

    def test_nan_values_skipped(self):
        values = np.array([1.0, np.nan])
        dev, nondev = deviation_split(values, np.array([False, True]))
        assert dev is None
        assert nondev == pytest.approx(1.0)


class TestRunExperiment:
    def test_report_shape_and_header(self):
        report = run_experiment(small_config())
        # four deviants plus the baseline control, three alphas
        assert len(report.cells) == 15
        text = report.to_csv_text()
        assert text.splitlines()[0] == CSV_HEADER
        assert len(text.splitlines()) == 16

    def test_control_cells_score_one(self):
        report = run_experiment(small_config())
        for cell in report.cells:
            if cell.heuristic == "opt-welfare":
                assert cell.sw_mean == pytest.approx(1.0, abs=1e-9)

    def test_control_dominates_every_deviant_cell(self):
        report = run_experiment(small_config())
        control = {c.alpha: c.sw_mean for c in report.cells if c.heuristic == "opt-welfare"}
        for cell in report.cells:
            assert cell.sw_mean <= control[cell.alpha] + 1e-9

    def test_normalized_welfare_never_exceeds_one(self):
        report = run_experiment(small_config(seed=23))
        for cell in report.cells:
            assert cell.sw_mean <= 1.0 + 1e-9

    def test_alpha_one_has_no_nondeviators(self):
        report = run_experiment(small_config())
        for cell in report.cells:
            if cell.heuristic != "opt-welfare" and cell.alpha == 1.0:
                assert cell.au_nondev_mean is None
            if cell.heuristic != "opt-welfare" and cell.alpha < 1.0:
                assert cell.au_nondev_mean is not None

    def test_metric_accounting(self):
        report = run_experiment(small_config())
        for cell in report.cells:
            assert cell.excluded == 0
            assert cell.instances == 15

    def test_deterministic_reports(self):
        cfg = small_config()
        assert run_experiment(cfg).to_csv_text() == run_experiment(cfg).to_csv_text()

    def test_seed_changes_report(self):
        assert (
            run_experiment(small_config(seed=5)).to_csv_text()
            != run_experiment(small_config(seed=6)).to_csv_text()
        )

    def test_series_emission(self, tmp_path):
        report = run_experiment(small_config())
        files = report.write_series(tmp_path)
        assert len(files) == 4 * 5  # four metrics, five heuristics
        import json

        with open(files[0], "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        assert payload["alpha"] == [0.2, 0.5, 1.0]
        assert len(payload["mean"]) == 3

    def test_parallel_worker_matches_sequential(self, monkeypatch):
        # two blocks, so two workers start a pool
        cfg = small_config(instances_per_cell=_BLOCK + 1)
        sequential = run_experiment(cfg).to_csv_text()
        monkeypatch.setenv("CCFUND_THREADS", "2")
        parallel = run_experiment(cfg).to_csv_text()
        assert parallel == sequential

    @pytest.mark.parametrize("count, workers, pools", [(_BLOCK, 2, []), (_BLOCK + 1, 4, [2])])
    def test_pool_has_no_more_workers_than_blocks(self, monkeypatch, count, workers, pools):
        real, started = multiprocessing.Pool, []

        def spy(processes):
            started.append(processes)
            return real(processes)

        monkeypatch.setattr(multiprocessing, "Pool", spy)
        run_experiment(small_config(instances_per_cell=count), workers=workers)
        assert started == pools

    # each example starts one pool of two workers
    @settings(max_examples=4, deadline=None)
    @given(
        n=st.integers(2, 12),
        p=st.integers(1, 4),
        blocks=st.integers(1, 2),
        rest=st.integers(1, _BLOCK - 1),
        alphas=st.lists(st.sampled_from([0.1, 0.25, 0.5, 1.0]), min_size=1, max_size=3,
                        unique=True).map(sorted),
        deviants=st.lists(st.sampled_from(list(ExperimentConfig().deviant_heuristics)),
                          max_size=2, unique=True),
        play_order=st.sampled_from(["ascending", "random"]),
        seed=st.integers(0, 2**40),
    )
    def test_reports_are_the_same_bytes_for_one_and_two_workers(
        self, n, p, blocks, rest, alphas, deviants, play_order, seed
    ):
        # the last block is partial, so the pool merges full and partial blocks
        cfg = ExperimentConfig(
            sampler=SamplerConfig(n=n, p=p, bonus_fraction=0.9),
            alphas=alphas,
            deviant_heuristics=deviants,
            instances_per_cell=blocks * _BLOCK + rest,
            seed=seed,
            play_order=play_order,
        )
        one = run_experiment(cfg, workers=1).to_csv_text()
        assert run_experiment(cfg, workers=2).to_csv_text() == one

    def test_random_play_order_is_deterministic(self):
        cfg = small_config(play_order="random")
        assert run_experiment(cfg).to_csv_text() == run_experiment(cfg).to_csv_text()
        assert run_experiment(cfg).to_csv_text() != run_experiment(small_config()).to_csv_text()

    def test_adjacent_seeds_play_in_different_orders(self, monkeypatch):
        # instance k + 1 of a run at seed s and instance k at seed s + 1 once
        # shared one permutation
        orders = []

        class Recording(PlayOrder):
            def permutation(self, n_agents):
                orders.append(super().permutation(n_agents))
                return orders[-1]

        monkeypatch.setattr(harness, "PlayOrder", Recording)
        for seed in (5, 6):
            run_experiment(small_config(play_order="random", seed=seed, instances_per_cell=2),
                           workers=1)
        assert len(orders) == 4
        assert not np.array_equal(orders[1], orders[2])

    @staticmethod
    def _corrupt_weighted(monkeypatch, instance, value):
        # the weighted rows of one instance of the block's one draw batch,
        # position 2 of its rule stack (opt-welfare, then the deviant rules)
        real_rows = harness._intent_rows

        def corrupt(rule, valuations, *args):
            rows = real_rows(rule, valuations, *args)
            if rule == Heuristic.WEIGHTED:
                rows[instance, 3, 1] = value  # agent 3, project 1
            return rows

        monkeypatch.setattr(harness, "_intent_rows", corrupt)

    @staticmethod
    def _refused_before_play(monkeypatch, message, error=ValueError):
        # refused with the text ContributionProfile(stack).validate_against(instance)
        # gives, before any group plays out
        real_play, played = harness.clamp_play, []

        def spy(intents, targets, **kwargs):
            played.append(intents.shape)
            return real_play(intents, targets, **kwargs)

        monkeypatch.setattr(harness, "clamp_play", spy)
        with pytest.raises(error, match=re.escape(message)):
            run_experiment(small_config(), workers=1)
        assert played == []

    @pytest.mark.parametrize(
        "value, message",
        [
            (np.nan, "contributions must be finite, got nan at index (2, 3, 1)"),
            (np.inf, "contributions must be finite, got inf at index (2, 3, 1)"),
            (-np.inf, "contributions must be finite, got -inf at index (2, 3, 1)"),
            (-1.0, "contribution by agent 3 to project 1 in profile (2,) is negative (-1)"),
            (1e6, "agent 3 in profile (2,) spends 1000003.69915, exceeding its budget 3.86127277171"),
        ],
    )
    def test_bad_play_is_refused_as_a_profile_would_be(self, monkeypatch, value, message):
        cfg = small_config()
        rows = len(cfg.deviant_heuristics) * len(cfg.alphas) + 1
        # instances 0 and 1 share the first group, so nothing has played yet,
        # and the block's 15 instances are one draw batch
        assert harness._PLAY_VALUES // (rows * cfg.sampler.n * cfg.sampler.p) >= 2
        assert harness._PLAY_VALUES // ((len(cfg.deviant_heuristics) + 1) * cfg.sampler.n
                                        * cfg.sampler.p) >= cfg.instances_per_cell
        self._corrupt_weighted(monkeypatch, 1, value)
        self._refused_before_play(monkeypatch, message)

    @pytest.mark.parametrize(
        "value, message",
        [
            (np.nan, "contributions must be finite, got nan at index (2, 3, 1)"),
            (1e6, "agent 3 in profile (2,) spends 1000001.72999, exceeding its budget 3.40544023067"),
        ],
    )
    def test_bad_last_instance_is_refused_before_any_play(self, monkeypatch, value, message):
        # play groups of five instances, but the block's last instance is
        # drawn, and its rows checked, before the first group plays
        monkeypatch.setattr(harness, "_PLAY_VALUES", 6000)
        cfg = small_config()
        n, p = cfg.sampler.n, cfg.sampler.p
        rows = len(cfg.deviant_heuristics) * len(cfg.alphas) + 1
        assert harness._PLAY_VALUES // (rows * n * p) == 5
        assert harness._PLAY_VALUES // ((len(cfg.deviant_heuristics) + 1) * n * p) == 15
        self._corrupt_weighted(monkeypatch, cfg.instances_per_cell - 1, value)
        self._refused_before_play(monkeypatch, message)

    @pytest.mark.parametrize("bad_row", [True, False])
    def test_failed_draw_waits_for_the_earlier_instances_checks(self, monkeypatch, bad_row):
        # the sampler fails at instance 4 of the batch; instance 1's bad row
        # is refused first, as when each instance was checked once drawn,
        # and with no bad row the sampler's own error comes out
        real_sample = harness._sample

        def failing(sampler, seed):
            if seed[1] == 4:
                raise SolverError("sampler rejected instance 4")
            return real_sample(sampler, seed)

        monkeypatch.setattr(harness, "_sample", failing)
        if bad_row:
            self._corrupt_weighted(monkeypatch, 1, np.nan)
            self._refused_before_play(
                monkeypatch, "contributions must be finite, got nan at index (2, 3, 1)")
        else:
            self._refused_before_play(monkeypatch, "sampler rejected instance 4", SolverError)

    @pytest.mark.parametrize("bad_row", [True, False])
    def test_bonus_past_headroom_is_refused_as_instance_would(self, monkeypatch, bad_row):
        # the batch checks its games in one pass; instance 4's bonus past its
        # headroom then gets Instance's own text, after instance 1's bad row
        real_sample = harness._sample
        cfg = small_config()

        def loose(sampler, seed):
            drawn = real_sample(sampler, seed)
            if seed[1] != 4:
                return drawn
            bonuses = drawn.bonuses.copy()
            bonuses[2] = drawn.valuations[:, 2].sum() - drawn.targets[2] + 1.0
            return drawn._replace(bonuses=bonuses)

        monkeypatch.setattr(harness, "_sample", loose)
        with pytest.raises(ValueError) as refused:
            Instance(*loose(cfg.sampler, (cfg.seed, 4))[:4], cfg.sampler.refund)
        assert "bonus" in str(refused.value) and "exceeds welfare headroom" in str(refused.value)
        if bad_row:
            self._corrupt_weighted(monkeypatch, 1, np.nan)
            self._refused_before_play(
                monkeypatch, "contributions must be finite, got nan at index (2, 3, 1)")
        else:
            self._refused_before_play(monkeypatch, str(refused.value))

    def test_over_budget_row_nobody_plays_is_refused(self, monkeypatch):
        # the first deviant rule's row for an agent who is not among the
        # first instance's deviators is never played, and is refused all the same
        cfg = small_config(alphas=(0.2,), instances_per_cell=1)
        rule = cfg.deviant_heuristics[0]
        deviators = harness._deviator_masks(cfg, cfg.sampler.n, [0])[0, 0]
        agent = int(np.flatnonzero(~deviators)[0])
        real_rows = harness._intent_rows

        def corrupt(heuristic, valuations, *args):
            rows = real_rows(heuristic, valuations, *args)
            if heuristic == rule:
                rows[0, agent, 1] = 1e6
            return rows

        monkeypatch.setattr(harness, "_intent_rows", corrupt)
        message = rf"agent {agent} in profile \(1,\) spends [0-9.]+, exceeding its budget"
        with pytest.raises(ValueError, match=message):
            run_experiment(cfg, workers=1)

    def test_ascending_order_draws_no_permutation(self, monkeypatch):
        cfg = small_config(instances_per_cell=2)

        def no_order(*args, **kwargs):
            raise AssertionError("the ascending order needs no generator")

        monkeypatch.setattr(harness, "PlayOrder", no_order)
        run_experiment(cfg, workers=1)


def _mean_and_se(values):
    mean = float(np.mean(values)) if len(values) else None
    se = float(np.std(values, ddof=1) / math.sqrt(len(values))) if len(values) > 1 else None
    return mean, se


def reference_values(cfg):
    """Each cell's welfare values, pooled utilities and deviator masks, one profile at a time.

    Every profile is checked on the way: no project overfunded, no agent over
    budget, normalized welfare at most one and every threshold in [0, θ].
    """
    n = cfg.sampler.n
    keys = cfg.cell_keys
    deviant_cells = len(cfg.deviant_heuristics) * len(cfg.alphas)
    welfare = [[] for _ in keys]
    utilities = [[] for _ in keys]
    masks = [[] for _ in keys]
    for k in range(cfg.instances_per_cell):
        instance, solution = sample_instance(cfg.sampler, seed=(cfg.seed, k))
        thr = baseline = thresholds(instance)
        if not cfg.matched_baseline:
            baseline = thresholds(instance, scheme=PprRefund())
        for matrix in (thr, baseline):
            assert np.all((matrix >= 0.0) & (matrix <= instance.valuations))
        order = PlayOrder(cfg.play_order, seed=(cfg.seed, harness._PLAY_ORDER_SALT, k))
        for ci, (rule, alpha) in enumerate(keys):
            mask = np.zeros(n, dtype=bool)
            if ci < deviant_cells:
                rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, _DEVIATOR_SALT, ci, k)))
                mask[rng.choice(n, math.floor(alpha * n + 1e-9), replace=False)] = True
            assignment = Assignment(tuple(rule if m else Heuristic.OPT_WELFARE for m in mask))
            profile = play(instance, assignment, solution.subset, thr, order)
            outcome = evaluate(instance, profile)
            assert np.all(outcome.totals <= instance.targets + TOL)
            assert np.all(profile.contributions.sum(axis=1) <= instance.budgets + TOL)
            sw = sw_n(instance, outcome, solution.welfare)
            if sw is not None:
                assert sw <= 1.0 + 1e-9
                welfare[ci].append(sw)
            utilities[ci].append(harness.au_n(instance, outcome, baseline))
            masks[ci].append(mask)
    return [(welfare[ci], np.concatenate(utilities[ci]), np.concatenate(masks[ci]))
            for ci in range(len(keys))]


def reference_cells(cfg):
    """Each cell's report fields, in order, from one instance and one profile at a time."""
    cells = []
    for welfare, pooled, masks in reference_values(cfg):
        dev, nondev = deviation_split(pooled, masks)
        cells += [cfg.instances_per_cell - len(welfare), *_mean_and_se(welfare),
                  *_mean_and_se(pooled[~np.isnan(pooled)]), dev, nondev]
    return cells


@st.composite
def experiment_configs(draw, instances=st.integers(1, 5)):
    """Small random experiment configs over every protocol knob."""
    deviants = draw(st.lists(st.sampled_from(ExperimentConfig().deviant_heuristics),
                             max_size=3, unique=True))
    sampler = SamplerConfig(
        n=draw(st.integers(1, 9)),
        p=draw(st.integers(1, 5)),
        valuation_dist=draw(st.sampled_from([ValuationDist(), ValuationDist("exponential")])),
        bonus_fraction=draw(st.sampled_from([0.5, 0.9, 1.0])),
        refund=draw(st.sampled_from([PprRefund(), *map(LinearAdditiveRefund, (0.1, 0.5, 0.9))])),
    )
    return ExperimentConfig(
        sampler=sampler,
        alphas=draw(st.lists(st.sampled_from([0.1, 0.3, 0.5, 1.0]), min_size=1, max_size=3,
                             unique=True).map(sorted)),
        deviant_heuristics=deviants,
        instances_per_cell=draw(instances),
        seed=draw(st.integers(0, 2**40)),
        play_order=draw(st.sampled_from(["ascending", "random"])),
        include_control=draw(st.booleans()) or not deviants,
        matched_baseline=draw(st.booleans()),
    )


class TestRandomConfigs:
    """The experiment path against the public API, and its invariants, on random configs."""

    @settings(max_examples=150, deadline=None)
    @given(experiment_configs())
    def test_cells_match_the_public_api(self, cfg):
        try:
            report = run_experiment(cfg, workers=1)
        except SolverError:
            # the sampler refuses the same configs on either path
            with pytest.raises(SolverError):
                reference_values(cfg)
            return
        for cell, (welfare, pooled, masks) in zip(report.cells, reference_values(cfg), strict=True):
            assert cell.excluded == cfg.instances_per_cell - len(welfare)
            defined = pooled[~np.isnan(pooled)]
            for values, mean, se in ((np.array(welfare), cell.sw_mean, cell.sw_se),
                                     (defined, cell.au_mean, cell.au_se)):
                expected_mean, expected_se = _mean_and_se(values)
                rms = math.sqrt(np.square(values).mean()) if len(values) else 0.0
                assert mean == pytest.approx(expected_mean, rel=1e-9, abs=1e-9 * rms)
                # the report takes its variance from moment sums, which cancel
                # to a few ulps of the sum of squares: the SE holds to about
                # √eps·rms/√(m − 1), nearer 0 than that only by luck
                floor = 2.0 * math.sqrt(np.finfo(float).eps) * rms / math.sqrt(max(len(values) - 1, 1))
                assert se == pytest.approx(expected_se, rel=1e-9, abs=floor)
            for mean, expected in zip((cell.au_dev_mean, cell.au_nondev_mean),
                                      deviation_split(pooled, masks)):
                assert mean == pytest.approx(expected, rel=1e-9,
                                             abs=1e-9 * math.sqrt(np.square(defined).mean()))

    # each example starts one pool of two workers
    @settings(max_examples=3, deadline=None)
    @given(experiment_configs(instances=st.integers(_BLOCK + 1, 2 * _BLOCK)))
    def test_one_and_two_workers_write_the_same_bytes(self, cfg):
        try:
            one = run_experiment(cfg, workers=1).to_csv_text()
        except SolverError:
            with pytest.raises(SolverError):
                run_experiment(cfg, workers=2)
            return
        assert run_experiment(cfg, workers=2).to_csv_text() == one


class TestProtocolReference:
    """The harness's batched cells against the public per-profile API."""

    @staticmethod
    def tiny_config(play_order, refund=PprRefund(), matched_baseline=False):
        return ExperimentConfig(
            sampler=SamplerConfig(n=9, p=3, bonus_fraction=0.9, refund=refund),
            alphas=(0.3, 1.0),
            deviant_heuristics=(Heuristic.WEIGHTED, Heuristic.GREEDY_THETA),
            instances_per_cell=5,
            seed=13,
            play_order=play_order,
            matched_baseline=matched_baseline,
        )

    @staticmethod
    def report_cells(cfg):
        return [field for c in run_experiment(cfg, workers=1).cells
                for field in (c.excluded, c.sw_mean, c.sw_se, c.au_mean, c.au_se,
                              c.au_dev_mean, c.au_nondev_mean)]

    @pytest.mark.parametrize("play_order", ["ascending", "random"])
    def test_cells_match_per_profile_reference(self, play_order):
        cfg = self.tiny_config(play_order)
        assert self.report_cells(cfg) == pytest.approx(reference_cells(cfg))

    @pytest.mark.parametrize("matched", [False, True])
    @pytest.mark.parametrize("play_order", ["ascending", "random"])
    def test_linear_refund_cells_match_reference(self, play_order, matched):
        # an unmatched utility baseline is the proportional refund's thresholds
        cfg = self.tiny_config(play_order, LinearAdditiveRefund(0.5), matched_baseline=matched)
        assert self.report_cells(cfg) == pytest.approx(reference_cells(cfg))

    def test_excluded_agents_match_reference(self, monkeypatch):
        # au_n and the harness's scoring share one normalization; the
        # harness's carries each row's welfare in a last column
        real = harness._normalized

        def blank_agent_zero(values, base):
            values = real(values, base)
            values[..., 0] = np.nan
            return values

        monkeypatch.setattr(harness, "_normalized", blank_agent_zero)
        cfg = self.tiny_config("random")
        assert self.report_cells(cfg) == pytest.approx(reference_cells(cfg))


class TestPlayGroups:
    @pytest.mark.parametrize("play_order", ["ascending", "random"])
    @pytest.mark.parametrize("count", [_BLOCK + 5, 2 * _BLOCK])
    def test_group_size_leaves_no_trace(self, monkeypatch, play_order, count):
        # the acceptance configuration plays four instances a group and
        # draws the whole block first; at 15,000 it plays one instance a
        # group and draws three at a time, so a block of 32 ends with a
        # partial draw; at 1 << 40 every group is the whole block
        cfg = ExperimentConfig(seed=3, play_order=play_order)
        default = harness._block_moments(cfg, count, _BLOCK).tobytes()
        for per_group in (1, 15_000, 1 << 40):
            monkeypatch.setattr(harness, "_PLAY_VALUES", per_group)
            assert harness._block_moments(cfg, count, _BLOCK).tobytes() == default

    @pytest.mark.parametrize("play_order", ["ascending", "random"])
    @pytest.mark.parametrize("per_group", [None, 15_000])
    def test_groups_evaluate_into_the_spare_play_buffer(self, monkeypatch, play_order, per_group):
        # eight groups of four instances in one draw batch, or 32 groups of
        # one in eleven batches: each group's per-pair utilities go into the
        # block's play buffer that its play-out left free, one array for all
        cfg = ExperimentConfig(seed=3, play_order=play_order)
        if per_group is not None:
            monkeypatch.setattr(harness, "_PLAY_VALUES", per_group)
        real, calls = harness._evaluate, []

        def spy(*args):
            calls.append(args[-2:])
            return real(*args)

        monkeypatch.setattr(harness, "_evaluate", spy)
        harness._block_moments(cfg, _BLOCK, 0)
        assert len(calls) == (8 if per_group is None else _BLOCK)
        # the views are kept, so their bases stay alive and their ids distinct
        assert len({id(out.base) for _, out in calls}) == 1
        for played, out in calls:
            assert played.base is out.base and not np.shares_memory(played, out)


    @pytest.mark.parametrize("play_order", ["ascending", "random"])
    def test_scheme_without_out_scores_the_same(self, play_order):
        # a scheme whose share takes no out has its shares copied into the
        # spare buffer, and scores what the scheme that writes them there does
        class _PprWithoutOut(PprRefund):
            writes_out = False

            def share(self, x, bonus, total):
                return PprRefund.share(self, x, bonus, total)

        cfg = small_config(play_order=play_order)
        plain = small_config(play_order=play_order, sampler=SamplerConfig(
            n=20, p=4, bonus_fraction=0.9, seed=5, refund=_PprWithoutOut()))
        count = cfg.instances_per_cell
        assert (harness._block_moments(plain, count, 0).tobytes()
                == harness._block_moments(cfg, count, 0).tobytes())


class TestDeviationAdvantageShrinks:
    def test_half_deviating_narrows_the_gap(self):
        # free-riding pays much less once half the crowd does it too
        cfg = ExperimentConfig(
            sampler=SamplerConfig(n=60, p=6, bonus_fraction=0.9, seed=41),
            alphas=(0.2, 0.5),
            instances_per_cell=150,
            seed=41,
        )
        report = run_experiment(cfg)
        cells = {(c.heuristic, c.alpha): c for c in report.cells}
        for h in ("symmetric", "weighted", "greedy-theta"):
            low = cells[(h, 0.2)]
            high = cells[(h, 0.5)]
            gap_low = low.au_dev_mean / low.au_nondev_mean
            gap_high = high.au_dev_mean / high.au_nondev_mean
            assert gap_high < gap_low
            assert gap_high < 1.0 + 0.5 * (gap_low - 1.0)


class TestConfigValidation:
    def test_alphas_in_range(self):
        with pytest.raises(ValueError, match="alphas"):
            ExperimentConfig(alphas=(0.0, 0.5))

    def test_alphas_sorted(self):
        with pytest.raises(ValueError, match="sorted"):
            ExperimentConfig(alphas=(0.5, 0.2))

    def test_alphas_do_not_repeat(self):
        # a repeated alpha used to run twice and write two CSV rows per rule
        with pytest.raises(ValueError, match=r"must not repeat, got 0.5 twice"):
            ExperimentConfig(alphas=(0.2, 0.5, 0.5))

    def test_play_order_is_known(self):
        # an unknown order used to pass here and fail at the first instance
        with pytest.raises(ValueError, match="unknown play order 'randm'"):
            ExperimentConfig(play_order="randm")

    def test_baseline_not_a_deviant(self):
        with pytest.raises(ValueError, match="baseline"):
            ExperimentConfig(deviant_heuristics=(Heuristic.OPT_WELFARE,))


class TestDeviatorDraws:
    """The batched deviator draws reproduce numpy's seeded draws bit for bit."""

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**40 + 7, 2**64 + 3, 2**96 - 1])
    @pytest.mark.parametrize("k", [0, 1, 99999])
    def test_seed_states_match_seed_sequence(self, seed, k):
        # seeds of two and more words reach the pool's third mixing loop
        entropy = np.array(
            [_words(seed) + [_DEVIATOR_SALT, ci] + _words(k) for ci in range(6)], dtype=np.uint32
        )
        expected = [
            np.random.SeedSequence((seed, _DEVIATOR_SALT, ci, k)).generate_state(4, np.uint64)
            for ci in range(6)
        ]
        assert np.array_equal(_seed_states(entropy), np.array(expected))

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**96 - 1),
        block=st.integers(0, FULL_SCALE_INSTANCES // _BLOCK),
        length=st.integers(1, _BLOCK),
        n=st.integers(1, 200),
        alphas=st.lists(st.floats(0.001, 1.0), min_size=1, max_size=4, unique=True).map(sorted),
    )
    # floor(0.001 * 7) = 0: a cell without deviators, and one of all agents
    @example(seed=3, block=0, length=_BLOCK, n=7, alphas=[0.001, 0.5, 1.0])
    # the last block whose indices take one entropy word, and the first of two
    @example(seed=2**64 + 3, block=2**32 // _BLOCK - 1, length=_BLOCK, n=30, alphas=[0.5, 1.0])
    @example(seed=2**64 + 3, block=2**32 // _BLOCK, length=5, n=30, alphas=[0.5, 1.0])
    def test_masks_match_seeded_choice(self, seed, block, length, n, alphas):
        cfg = ExperimentConfig(seed=seed, alphas=alphas)
        ks = range(block * _BLOCK, block * _BLOCK + length)
        masks = _deviator_masks(cfg, n, ks)
        assert masks.shape == (length, len(cfg.deviant_heuristics) * len(alphas), n)
        for row, k in zip(masks, ks):
            for ci, (_, alpha) in enumerate(cfg.cell_keys[: len(row)]):
                rng = np.random.default_rng(np.random.SeedSequence((seed, _DEVIATOR_SALT, ci, k)))
                picked = rng.choice(n, size=int(math.floor(alpha * n + 1e-9)), replace=False)
                expected = np.zeros(n, dtype=bool)
                expected[picked] = True
                assert np.array_equal(row[ci], expected)

    @staticmethod
    def _generator(state, inc):
        bits = np.random.PCG64(0)
        bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                      "has_uint32": 0, "uinteger": 0}
        return np.random.Generator(bits)

    def _choice_mask(self, state, inc, n, size):
        mask = np.zeros(n, dtype=bool)
        mask[self._generator(state, inc).choice(n, size=size, replace=False)] = True
        return mask

    @staticmethod
    def _state_yielding(word, index, rng):
        """A PCG64 (state, inc) whose raw word ``index`` is ``word``.

        PCG64 steps its 128-bit state, then outputs ``rotr(hi ^ lo, hi >> 58)``:
        with the high state word fixed the output gives the low one, and the
        step runs backwards through the inverse of the odd multiplier.
        """
        inc = int(rng.integers(0, 2**63)) << 1 | 1
        hi = int(rng.integers(0, 2**63)) << 1 | int(rng.integers(0, 2))
        rot = hi >> 58
        lo = hi ^ ((word << rot | word >> (64 - rot)) & (2**64 - 1) if rot else word)
        state = hi << 64 | lo
        inverse = pow(harness._PCG_MULT, -1, 2**128)
        for _ in range(index + 1):
            state = (state - inc) * inverse % 2**128
        return state, inc

    @pytest.mark.parametrize(
        "n, size, word, index",
        [
            # a low half of 0 is refused for every range not a power of two
            (100, 50, 0xDEADBEEF << 32, 0),  # the first draw
            (100, 50, 0xDEADBEEF << 32, 2),  # the fifth draw
            (100, 9, 0xDEADBEEF << 32, 4),  # the last draw
            # both halves refused: the longest row's redraws run past the
            # words first read
            (7, 3, 0, 0),
            (7, 3, 0, 1),
        ],
    )
    def test_rejected_draws_are_redrawn_as_numpy_does(self, n, size, word, index):
        rng = np.random.default_rng(index)
        crafted = self._state_yielding(word, index, rng)
        assert int(self._generator(*crafted).bit_generator.random_raw(index + 1)[-1]) == word
        # the crafted row among ordinary rows, none drawing longer
        states = [self._state_yielding(int(rng.integers(0, 2**63)), 0, rng) for _ in range(5)]
        states.insert(2, crafted)
        sizes = np.array([size, 0, size, size - 1, 1, size // 2])
        masks = _choice_masks(states, n, sizes)
        for (state, inc), got, s in zip(states, masks, sizes):
            assert np.array_equal(got, self._choice_mask(state, inc, n, int(s)))

    @pytest.mark.parametrize("n", [10_000, 10_001])
    def test_tail_shuffle_matches_choice(self, n):
        # past 10,000 agents numpy shuffles a tail when it picks over a 50th
        rng = np.random.default_rng(n)
        sizes = np.array([0, 1, n // 50, n // 50 + 1, n // 2, n - 1, n])
        states = [self._state_yielding(int(rng.integers(0, 2**63)), 0, rng) for _ in sizes]
        states.append(self._state_yielding(0xDEADBEEF << 32, 3, rng))
        sizes = np.append(sizes, n // 2)
        masks = _choice_masks(states, n, sizes)
        for (state, inc), got, s in zip(states, masks, sizes):
            assert np.array_equal(got, self._choice_mask(state, inc, n, int(s)))


class TestDeviatorDrawBatch:
    """Ordinary rows stay in the batch; ``choice`` gets only the rows left to it."""

    @pytest.fixture
    def choice_sizes(self, monkeypatch):
        sizes, choice = [], harness._choice

        def counted(bits, n, size):
            sizes.append(size)
            return choice(bits, n, size)

        monkeypatch.setattr(harness, "_choice", counted)
        return sizes

    def test_acceptance_block_calls_choice_for_no_row(self, choice_sizes):
        # n=100, one 32-instance block of 40 deviant cells: per-row choice
        # would give the same masks at about twice the cost
        cfg = ExperimentConfig(seed=3)
        masks = _deviator_masks(cfg, 100, range(_BLOCK))
        assert masks.shape == (_BLOCK, 40, 100)
        assert choice_sizes == []

    @pytest.mark.parametrize("past", [0, 1])
    def test_batch_cutoff_matches_per_row_choice(self, choice_sizes, past):
        # up to the cutoff the batch draws every row; one agent past it,
        # numpy's choice draws every row that picks some but not all agents
        n = harness._BATCH_MAX_N + past
        cfg = ExperimentConfig(seed=3, alphas=(0.01, 0.5, 1.0))
        masks = _deviator_masks(cfg, n, range(2))
        for k, row in enumerate(masks):
            for ci, (_, alpha) in enumerate(cfg.cell_keys[: len(row)]):
                rng = np.random.default_rng(np.random.SeedSequence((3, _DEVIATOR_SALT, ci, k)))
                expected = np.zeros(n, dtype=bool)
                expected[rng.choice(n, size=int(math.floor(alpha * n + 1e-9)), replace=False)] = True
                assert np.array_equal(row[ci], expected)
        assert len(choice_sizes) == past * 2 * len(cfg.deviant_heuristics) * 2

    def test_rows_past_floyd_range_call_choice(self, choice_sizes):
        # past 10,000 agents every row that draws goes to numpy; none or all
        # of the agents draw nothing
        n = harness._FLOYD_MAX_N + 1
        cfg = ExperimentConfig(seed=3, alphas=(0.00005, 0.01, 0.5, 1.0))
        masks = _deviator_masks(cfg, n, range(2))
        assert sorted(set(choice_sizes)) == [100, n // 2]
        assert len(choice_sizes) == 2 * len(cfg.deviant_heuristics) * 2
        assert (masks.sum(axis=2) == [0, 100, n // 2, n] * len(cfg.deviant_heuristics)).all()


class TestRowMoments:
    @staticmethod
    def assert_one_dimensional_sums(values, keep):
        moments = harness._row_moments(values, keep)
        assert moments.shape == keep.shape[:-1] + (3,)
        values = np.broadcast_to(values, keep.shape)
        for row in np.ndindex(keep.shape[:-1]):
            picked = values[row][keep[row]]
            total, square, count = moments[row]
            assert count == len(picked)
            assert total == (float(picked.sum()) if len(picked) else 0.0)
            assert square == (float((picked * picked).sum()) if len(picked) else 0.0)

    def test_matches_one_dimensional_sums_bit_for_bit(self):
        rng = np.random.default_rng(3)
        for n in (1, 7, 8, 9, 100, 129, 300):
            values = rng.exponential(size=(12, n))
            values[rng.random((12, n)) < 0.05] = np.nan
            keep = ~np.isnan(values) & (rng.random((12, n)) < rng.random((12, 1)))
            keep[0] = False
            self.assert_one_dimensional_sums(values, keep)
        # a play group's shape: (instance, row, agent) utilities under an
        # (all, deviators, others) keep
        for n in (9, 100):
            values = rng.exponential(size=(4, 5, n))
            values[rng.random(values.shape) < 0.1] = np.nan
            defined = ~np.isnan(values)
            split = rng.random(values.shape) < rng.random((4, 5, 1))
            keep = np.stack([defined, defined & split, defined & ~split])
            counts = keep.sum(axis=-1)
            assert len(np.unique(counts[1:])) < counts[1:].size  # counts repeat across rows
            self.assert_one_dimensional_sums(values, keep)


class TestWorkerCount:
    def test_default_is_one_worker(self, monkeypatch, capsys):
        monkeypatch.delenv("CCFUND_THREADS", raising=False)
        assert worker_count() == 1
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("raw", ["abc", "0", "-3", ""])
    def test_garbage_falls_back_to_one_and_says_so(self, monkeypatch, capsys, raw):
        monkeypatch.setenv("CCFUND_THREADS", raw)
        assert worker_count() == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "CCFUND_THREADS" in err

    def test_capped_at_core_count_and_says_so(self, monkeypatch, capsys):
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        monkeypatch.setenv("CCFUND_THREADS", "64")
        assert worker_count() == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "64" in err

    def test_within_core_count_is_silent(self, monkeypatch, capsys):
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        monkeypatch.setenv("CCFUND_THREADS", "2")
        assert worker_count() == 2
        assert capsys.readouterr().err == ""
