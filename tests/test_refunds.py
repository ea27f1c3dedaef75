import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ccfund import (
    LinearAdditiveRefund,
    PprRefund,
    RefundScheme,
    SolverError,
    certify_cm,
    scheme_from_tag,
    threshold_general,
    threshold_matrix,
    thresholds,
)
from ccfund.refunds import BISECTION_TOL
from conftest import random_instance


class _ConstantRefund(RefundScheme):
    """Negative control: pays the same no matter the contribution."""

    tag = "constant"

    def __init__(self, level=0.3):
        self.level = level

    def share(self, x, bonus, total):
        return self.level + 0.0 * np.asarray(x)


class TestRefundShare:
    def test_sole_contributor_takes_full_pool(self):
        assert PprRefund().share(4.0, 2.0, 4.0) == pytest.approx(2.0)

    def test_proportional_share(self):
        assert PprRefund().share(1.0, 2.0, 4.0) == pytest.approx(0.5)

    def test_linear(self):
        assert LinearAdditiveRefund(0.1).share(7.0, 2.0, 9.0) == pytest.approx(0.7)

    def test_zero_total_pays_nothing(self):
        assert PprRefund().share(0.0, 2.0, 0.0) == 0.0

    def test_array_shares_equal_scalar_shares_bit_for_bit(self):
        # callers pass +0.0 <= x <= total, so a zero total comes with a zero x
        rng = np.random.default_rng(17)
        total = rng.exponential(size=500)
        total[rng.random(500) < 0.2] = 0.0
        x = total * rng.random(500)
        whole = rng.random(500) < 0.1
        x[whole] = total[whole]
        bonus = rng.exponential(size=500)
        bonus[rng.random(500) < 0.1] = 0.0
        scheme = PprRefund()
        scalar = [scheme.share(float(a), float(b), float(c)) for a, b, c in zip(x, bonus, total)]
        assert (total == 0.0).any() and (x == total).any()
        assert scheme.share(x, bonus, total).tobytes() == np.array(scalar).tobytes()

    @pytest.mark.parametrize("scheme", [PprRefund(), LinearAdditiveRefund(0.5)],
                             ids=["ppr", "linear"])
    def test_out_takes_the_shares_bits(self, scheme):
        # agent-major contributions against per-(stack, project) pools and totals
        rng = np.random.default_rng(29)
        x = rng.exponential(size=(7, 3, 5))
        x[rng.random(x.shape) < 0.2] = 0.0
        x[rng.random(x.shape) < 0.1] = -0.0
        x[:, 1, 2] = rng.choice([0.0, -0.0], size=7)
        total = x.sum(axis=0)
        bonus = rng.exponential(size=(3, 5))
        out = np.full(x.shape, np.nan)
        assert scheme.writes_out and scheme.share(x, bonus, total, out=out) is out
        assert out.tobytes() == scheme.share(x, bonus, total).tobytes()


class TestCertifyCm:
    def test_ppr_passes(self):
        report = certify_cm(PprRefund())
        assert report.passed
        assert report.min_forward_difference > 0
        assert report.first_violation is None

    def test_linear_passes_with_slope_step_difference(self):
        report = certify_cm(LinearAdditiveRefund(0.1))
        assert report.passed
        assert report.min_forward_difference == pytest.approx(0.1 * report.step)

    def test_constant_scheme_fails(self):
        report = certify_cm(_ConstantRefund())
        assert not report.passed
        assert report.first_violation is not None

    def test_nan_scheme_fails(self):
        # a NaN difference is not an increase; it used to pass with no violation
        report = certify_cm(_ConstantRefund(math.nan))
        assert not report.passed
        assert report.first_violation == (10.0 / 256, 0.5, 0.5)

    def test_degenerate_grid_rejected(self):
        for x_max in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="degenerate"):
                certify_cm(PprRefund(), x_max)


class TestThresholdPpr:
    def test_worked_example_first_value(self):
        bar = PprRefund().closed_form_threshold(10.9, 10.0, 1.0)
        assert bar == pytest.approx(9.909090909090908, abs=1e-12)
        assert round(bar, 2) == 9.91

    def test_worked_example_second_value(self):
        assert PprRefund().closed_form_threshold(1.089, 10.0, 1.0) == pytest.approx(0.99, abs=1e-12)

    def test_zero_valuation(self):
        assert PprRefund().closed_form_threshold(0.0, 10.0, 1.0) == 0.0


class TestThresholdGeneral:
    def test_matches_closed_form_for_proportional(self):
        bar = threshold_general(PprRefund(), 10.9, 10.0, 1.0)
        assert bar == pytest.approx(PprRefund().closed_form_threshold(10.9, 10.0, 1.0), abs=1e-9)

    def test_linear_algebraic_oracle(self):
        # theta - x = a x  =>  x = theta / (1 + a)
        assert threshold_general(LinearAdditiveRefund(0.1), 11.0, 10.0, 1.0) == pytest.approx(
            10.0, abs=1e-9
        )

    def test_zero_valuation(self):
        assert threshold_general(PprRefund(), 0.0, 10.0, 1.0) == 0.0

    def test_randomized_agreement_with_closed_form(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            theta = rng.uniform(0.0, 20.0)
            target = rng.uniform(0.5, 20.0)
            bonus = rng.uniform(0.1, 10.0)
            bar = threshold_general(PprRefund(), theta, target, bonus)
            assert abs(bar - PprRefund().closed_form_threshold(theta, target, bonus)) <= 1e-9

    def test_no_sign_change_reports_bracket(self):
        class _NegativeRefund(RefundScheme):
            tag = "negative"

            def share(self, x, bonus, total):
                return -np.asarray(x) * 0.5

        with pytest.raises(SolverError, match="no sign change"):
            threshold_general(_NegativeRefund(), 5.0, 10.0, 1.0)


class TestThresholdMatrix:
    def test_scheme_without_closed_form_bisects_every_entry(self):
        class _BisectedLinear(LinearAdditiveRefund):
            def closed_form_threshold(self, theta, target, bonus):
                return None

        scheme = _BisectedLinear(0.2)
        rng = np.random.default_rng(31)
        valuations = rng.uniform(0.0, 10.0, size=(4, 3))
        targets, bonuses = rng.uniform(1.0, 5.0, size=3), rng.uniform(0.1, 2.0, size=3)
        thr = threshold_matrix(valuations, targets, bonuses, scheme)
        assert thr.shape == (4, 3)
        for (i, j), bar in np.ndenumerate(thr):
            assert bar == threshold_general(scheme, valuations[i, j], targets[j], bonuses[j])
        # theta - x = 0.2 x has the root theta / 1.2
        assert np.allclose(thr, valuations / 1.2, rtol=0.0, atol=BISECTION_TOL)
        # leading axes stack games, each bisected as it would be alone
        games = [(valuations, targets, bonuses), (valuations[::-1], bonuses + 1.0, targets / 4.0)]
        theta, pools, bonus = (np.stack(arrays) for arrays in zip(*games))
        stacked = threshold_matrix(theta, pools[:, None], bonus[:, None], scheme)
        for game, rows in zip(games, stacked):
            assert rows.tobytes() == threshold_matrix(*game, scheme).tobytes()

    @pytest.mark.parametrize("scheme", [PprRefund(), LinearAdditiveRefund(0.3)],
                             ids=["ppr", "linear"])
    @pytest.mark.parametrize("name, args", [
        ("valuations", ([[1.0, math.nan]], [1.0, 1.0], [0.5, 0.5])),
        ("targets", ([[1.0, 1.0]], [1.0, math.inf], [0.5, 0.5])),
        ("bonuses", ([[1.0, 1.0]], [1.0, 1.0], [-math.inf, 0.5])),
    ])
    def test_non_finite_inputs_are_named(self, scheme, name, args):
        # a NaN valuation used to come back as a NaN threshold, and an
        # infinite target warned, then did the same
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                threshold_matrix(*args, scheme)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", range(3))
    def test_the_bad_field_is_named(self, field, bad):
        args = [np.ones((2, 3)), np.ones(3), np.full(3, 0.5)]
        args[field][..., 1] = bad
        name = ("valuations", "targets", "bonuses")[field]
        index = "(0, 1)" if field == 0 else "(1,)"
        with pytest.raises(ValueError) as caught:
            threshold_matrix(*args, PprRefund())
        assert str(caught.value) == f"{name} must be finite, got {bad} at index {index}"

    @pytest.mark.parametrize("bad, first", [((0, 1), "valuations"), ((1, 2), "targets"),
                                            ((0, 2), "valuations"), ((0, 1, 2), "valuations")])
    def test_the_first_bad_field_is_named(self, bad, first):
        args = [np.ones((2, 3)), np.ones(3), np.full(3, 0.5)]
        for field in bad:
            args[field][..., -1] = math.nan
        with pytest.raises(ValueError, match=f"^{first} must be finite"):
            threshold_matrix(*args, LinearAdditiveRefund(0.3))

    def test_closed_form_elementwise(self):
        # the whole-matrix closed form gives the scalar one's bits, capped at θ
        rng = np.random.default_rng(11)
        for scheme in (PprRefund(), LinearAdditiveRefund(0.3)):
            inst = random_instance(rng, n=4, p=3, scheme=scheme)
            thr = thresholds(inst)
            for i in range(4):
                for j in range(3):
                    theta = float(inst.valuations[i, j])
                    expected = scheme.closed_form_threshold(
                        theta, float(inst.targets[j]), float(inst.bonuses[j]))
                    assert thr[i, j] == min(expected, theta)

    def test_full_bonus_thresholds_sum_to_target(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            inst = random_instance(rng, bonus_fraction=1.0)
            thr = thresholds(inst)
            sums = thr.sum(axis=0)
            assert np.all(np.abs(sums - inst.targets) <= 1e-6 * inst.targets)

    def test_zero_valuation_row_gives_zero_thresholds(self):
        from ccfund import Instance

        inst = Instance(
            [[8.0, 6.0], [0.0, 0.0]], [3.0, 3.0], [4.0, 3.0], [2.0, 1.5], PprRefund()
        )
        assert np.all(thresholds(inst)[1] == 0.0)

    def test_scheme_override(self):
        rng = np.random.default_rng(19)
        inst = random_instance(rng, n=2, p=2, scheme=LinearAdditiveRefund(0.2))
        thr = thresholds(inst, scheme=PprRefund())
        expected = inst.targets * inst.valuations / (inst.bonuses + inst.targets)
        assert np.allclose(thr, expected, atol=1e-12)

    def test_one_matrix_per_distinct_scheme(self, monkeypatch):
        from ccfund import refunds

        inst = random_instance(np.random.default_rng(23), n=5, p=5)
        calls = []
        real = refunds.threshold_matrix

        def counting(*args):
            calls.append(args[-1])
            return real(*args)

        monkeypatch.setattr(refunds, "threshold_matrix", counting)
        linear = LinearAdditiveRefund(0.2)
        for override, scheme in ((None, inst.refund), (linear, linear)):
            calls.clear()
            thr = thresholds(inst, scheme=override)
            assert calls == [scheme]
            assert np.array_equal(
                thr, real(inst.valuations, inst.targets, inst.bonuses, scheme)
            )


class TestThresholdProperties:
    @given(
        theta=st.floats(0.0, 50.0),
        target=st.floats(0.1, 50.0),
        bonus=st.floats(0.05, 25.0),
    )
    @settings(max_examples=200)
    def test_threshold_between_zero_and_valuation(self, theta, target, bonus):
        bar = threshold_general(PprRefund(), theta, target, bonus)
        assert -1e-12 <= bar <= theta + 1e-12

    @given(
        theta=st.floats(0.01, 50.0),
        bump=st.floats(0.01, 10.0),
        target=st.floats(0.1, 50.0),
        bonus=st.floats(0.05, 25.0),
    )
    @settings(max_examples=200)
    def test_threshold_monotone_in_valuation(self, theta, bump, target, bonus):
        low = threshold_general(PprRefund(), theta, target, bonus)
        high = threshold_general(PprRefund(), theta + bump, target, bonus)
        assert high >= low - 1e-9

    @pytest.mark.parametrize("scheme", [PprRefund(), LinearAdditiveRefund(0.05),
                                        LinearAdditiveRefund(0.4), LinearAdditiveRefund(3.0)],
                             ids=["ppr", "linear-0.05", "linear-0.4", "linear-3"])
    @pytest.mark.parametrize("method", ["closed-form", "bisection"])
    @given(
        theta=st.floats(0.0, 50.0),
        bump=st.floats(0.0, 10.0),
        target=st.floats(0.1, 50.0),
        bonus=st.floats(0.0, 25.0),
    )
    @settings(max_examples=100)
    # bonus + target == target: target·θ / target rounds one ulp above θ
    @example(theta=14.0, bump=9.483341552665394, target=11.0, bonus=0.0)
    def test_every_scheme_stays_in_range_and_grows_with_valuation(
        self, scheme, method, theta, bump, target, bonus
    ):
        thetas = (theta, theta + bump)
        if method == "closed-form":
            # the matrix route, column-wise as the sampler and harness call it
            low, high = threshold_matrix([[t] for t in thetas], [target], [bonus], scheme)[:, 0]
            assert high >= low
        else:
            low, high = (threshold_general(scheme, t, target, bonus) for t in thetas)
            # bisection stops within its bracket tolerance of the root
            assert high >= low - BISECTION_TOL
        for bar, t in zip((low, high), thetas):
            assert 0.0 <= bar <= t

    def test_indifference_consistency(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            theta = rng.uniform(0.1, 20.0)
            target = rng.uniform(0.5, 20.0)
            bonus = rng.uniform(0.1, 10.0)
            scheme = PprRefund() if rng.random() < 0.5 else LinearAdditiveRefund(rng.uniform(0.05, 0.5))
            bar = threshold_general(scheme, theta, target, bonus)
            assert abs(theta - bar - scheme.share(bar, bonus, target)) <= 1e-8


class TestSchemeSelection:
    def test_tags_round_trip(self):
        assert isinstance(scheme_from_tag("ppr"), PprRefund)
        linear = scheme_from_tag("linear-additive", 0.25)
        assert isinstance(linear, LinearAdditiveRefund)
        assert linear.slope == 0.25

    def test_linear_requires_slope(self):
        with pytest.raises(ValueError, match="slope"):
            scheme_from_tag("linear-additive")

    @pytest.mark.parametrize("slope", [0.0, -0.5, math.inf, math.nan])
    def test_linear_slope_must_be_positive_and_finite(self, slope):
        with pytest.raises(ValueError, match="slope must be positive and finite"):
            LinearAdditiveRefund(slope)

    def test_unknown_tag(self):
        with pytest.raises(ValueError, match="unknown"):
            scheme_from_tag("exotic")
