import itertools

import numpy as np
import pytest
from conftest import clamp_stacked, random_instance, random_intents
from evaluate_reference import evaluate_reference, validate_reference
from hypothesis import given, settings
from hypothesis import strategies as st

from ccfund import (
    BudgetStatus,
    ContributionProfile,
    Instance,
    LinearAdditiveRefund,
    PprRefund,
    check_budget_surplus,
    check_subset_feasibility,
    evaluate,
    thresholds,
)
from ccfund.model import TOL, _project_sum


def single(theta=10.0, target=5.0, bonus=1.0):
    return Instance([[theta]], [20.0], [target], [bonus], PprRefund())


class TestEvaluate:
    def test_exact_funding(self):
        out = evaluate(single(), ContributionProfile([[5.0]]))
        assert out.funded[0]
        assert out.agent_utilities[0] == pytest.approx(5.0)
        assert out.social_welfare == pytest.approx(5.0)

    def test_sole_contributor_takes_whole_bonus(self):
        out = evaluate(single(), ContributionProfile([[2.0]]))
        assert not out.funded[0]
        assert out.agent_utilities[0] == pytest.approx(1.0)

    def test_proportional_refund_shares(self):
        # direct refund arithmetic: shares (3/4, 1/4) of a unit pool
        inst = Instance([[6.0], [6.0]], [5.0, 5.0], [5.0], [1.0], PprRefund())
        out = evaluate(inst, ContributionProfile([[3.0], [1.0]]))
        assert not out.funded[0]
        assert out.per_pair_utilities[:, 0] == pytest.approx([0.75, 0.25])
        assert out.per_pair_utilities[:, 0].sum() == pytest.approx(1.0)

    def test_untouched_project_pays_nothing(self):
        inst = Instance([[6.0], [6.0]], [5.0, 5.0], [5.0], [1.0], PprRefund())
        out = evaluate(inst, ContributionProfile([[0.0], [0.0]]))
        assert out.agent_utilities == pytest.approx([0.0, 0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            evaluate(single(), ContributionProfile([[1.0, 2.0]]))

    def test_budget_violation_reports_agent_and_amounts(self):
        inst = Instance([[6.0], [6.0]], [5.0, 0.5], [5.0], [1.0], PprRefund())
        with pytest.raises(ValueError, match="agent 1 spends 2.*budget 0.5"):
            evaluate(inst, ContributionProfile([[1.0], [2.0]]))

    def test_negative_contribution_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            ContributionProfile([[-0.1]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_contribution_rejected(self, bad):
        with pytest.raises(ValueError, match=r"contributions must be finite.*index \(1, 0\)"):
            ContributionProfile([[1.0], [bad]])

    def test_stacked_errors_name_the_profile(self):
        inst = Instance([[6.0], [6.0]], [5.0, 0.5], [5.0], [1.0], PprRefund())
        stack = np.zeros((3, 2, 1))
        stack[2, 1, 0] = 2.0
        with pytest.raises(ValueError, match=r"agent 1 in profile \(2,\) spends 2"):
            evaluate(inst, ContributionProfile(stack))
        stack[1, 0, 0] = -1.0
        with pytest.raises(ValueError, match=r"agent 0 to project 0 in profile \(1,\) is negative"):
            ContributionProfile(stack)

    def test_stacked_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            evaluate(single(), ContributionProfile(np.zeros((2, 1, 2))))

    def test_stacked_outcome_rows_match_single_profiles(self):
        inst = Instance([[6.0, 3.0], [6.0, 4.0]], [5.0, 5.0], [5.0, 2.0], [1.0, 1.0], PprRefund())
        stack = np.array([[[5.0, 0.0], [0.0, 1.0]], [[2.0, 2.0], [3.0, 0.0]]])
        batched = evaluate(inst, ContributionProfile(stack))
        assert batched.social_welfare.shape == (2,)
        for b, x in enumerate(stack):
            one = evaluate(inst, ContributionProfile(x))
            assert isinstance(one.social_welfare, float)
            assert batched.social_welfare[b] == one.social_welfare
            assert np.array_equal(batched.per_pair_utilities[b], one.per_pair_utilities)


def _binades(rng, shape):
    """Values of both signs over 80 binades, a third of them zeros of either sign."""
    values = rng.standard_normal(shape) * 2.0 ** rng.integers(-40, 40, size=shape)
    values[rng.random(shape) < 0.15] = 0.0
    values[rng.random(shape) < 0.15] = -0.0
    return values


class TestProjectSum:
    def test_matches_numpy_row_sums(self):
        rng = np.random.default_rng(3)
        for p in [*range(1, 141), 255, 256, 257]:
            x = _binades(rng, (2, 5, p))
            x[0, 0] = -0.0  # numpy sums a row of negative zeros to +0.0
            x[0, 1, ::2] = -0.0
            kept = x.copy()
            want = x.sum(axis=-1).tobytes()
            assert _project_sum(np.moveaxis(x, -1, 0)).tobytes() == want, p
            # the layout evaluate hands it: projects before agents
            xt = np.ascontiguousarray(np.swapaxes(x, -1, -2))
            assert _project_sum(np.moveaxis(xt, -2, 0)).tobytes() == want, p
            assert x.tobytes() == kept.tobytes()


@st.composite
def stacked_profiles(draw):
    """An instance and a stack of played-out profiles with signed zeros."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 12))
    p = draw(st.one_of(st.integers(1, 20), st.sampled_from([31, 64, 127, 128, 129, 140])))
    batch = draw(st.sampled_from([(), (1,), (4,), (2, 3)]))
    scheme = draw(st.one_of(st.just(PprRefund()), st.floats(0.05, 0.5).map(LinearAdditiveRefund)))
    instance = random_instance(rng, n=n, p=p, scheme=scheme)
    realized = clamp_stacked(random_intents(rng, instance, batch), instance.targets)
    realized[(realized == 0.0) & (rng.random(realized.shape) < 0.5)] = -0.0
    return instance, ContributionProfile(realized)


class TestEvaluateMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(stacked_profiles())
    def test_every_field_has_the_reference_bytes(self, game):
        instance, profile = game
        got, want = evaluate(instance, profile), evaluate_reference(instance, profile)
        for field in ("funded", "totals", "agent_utilities", "per_pair_utilities"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.shape == b.shape and a.dtype == b.dtype, field
            assert a.tobytes() == b.tobytes(), field
        assert type(got.social_welfare) is type(want.social_welfare)
        assert np.asarray(got.social_welfare).tobytes() == np.asarray(want.social_welfare).tobytes()

    @pytest.mark.parametrize("p", [3, 10, 17, 140])
    def test_budget_check_matches_reference_at_the_edge(self, p):
        # a budget within an ulp of spend - TOL: a row summed in another
        # order passes where the reference refuses, or the other way round
        rng = np.random.default_rng(p)
        base = random_instance(rng, n=1, p=p)
        for _ in range(200):
            x = (rng.random((1, p)) + 0.01) * 2.0 ** rng.integers(-20, 4, size=(1, p))
            edge = x.sum(axis=-1) - TOL
            for step in (-1, 0, 1):
                budgets = edge + step * np.spacing(edge)
                instance = Instance(
                    base.valuations, budgets, base.targets, base.bonuses, base.refund
                )
                profile = ContributionProfile(x)
                try:
                    validate_reference(profile, instance)
                except ValueError as exc:
                    with pytest.raises(ValueError) as caught:
                        profile.validate_against(instance)
                    assert str(caught.value) == str(exc)
                else:
                    profile.validate_against(instance)


class TestOutcomeInvariants:
    def test_refund_conservation_on_random_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            inst = random_instance(rng, scheme=PprRefund())
            x = rng.uniform(0.0, 1.0, size=inst.valuations.shape)
            x *= (inst.budgets / np.maximum(x.sum(axis=1), 1e-12))[:, None]
            out = evaluate(inst, ContributionProfile(x))
            for j in range(inst.n_projects):
                if not out.funded[j] and out.totals[j] > 0:
                    refunds = out.per_pair_utilities[:, j].sum()
                    assert abs(refunds - inst.bonuses[j]) <= 1e-9

    def test_monotone_funding(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            inst = random_instance(rng)
            x = rng.uniform(0.0, 1.0, size=inst.valuations.shape)
            x *= (0.5 * inst.budgets / np.maximum(x.sum(axis=1), 1e-12))[:, None]
            out = evaluate(inst, ContributionProfile(x))
            funded = np.flatnonzero(out.funded)
            if not len(funded):
                continue
            j = int(funded[0])
            bumped = x.copy()
            bumped[0, j] += 0.1 * (inst.budgets[0] - x[0].sum())
            out2 = evaluate(inst, ContributionProfile(bumped))
            assert out2.funded[j]

    def test_welfare_identity_cross_sum(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            inst = random_instance(rng)
            x = rng.uniform(0.0, 1.0, size=inst.valuations.shape)
            x *= (inst.budgets / np.maximum(x.sum(axis=1), 1e-12))[:, None]
            out = evaluate(inst, ContributionProfile(x))
            funded = out.funded
            alt = float(
                ((inst.vartheta - out.totals) * funded).sum()
                + ((out.totals - inst.targets) * funded).sum()
            )
            assert abs(alt - out.social_welfare) <= 1e-9 * max(1.0, abs(out.social_welfare))

    def test_subset_feasibility_everywhere_implies_surplus(self):
        # whenever per-project threshold sums reach the targets, an agent-wise
        # feasible budget split must cover the total cost
        rng = np.random.default_rng(3)
        for _ in range(200):
            inst = random_instance(rng, bonus_fraction=1.0)
            thr = thresholds(inst)
            assert np.all(thr.sum(axis=0) >= inst.targets - 1e-6)
            lifted = Instance(
                inst.valuations,
                thr.sum(axis=1) * (1.0 + rng.uniform(0.0, 0.5)),
                inst.targets,
                inst.bonuses,
                inst.refund,
            )
            assert check_subset_feasibility(lifted, range(inst.n_projects), thr)
            assert check_budget_surplus(lifted) == BudgetStatus.SURPLUS


class TestBudgetStatus:
    def test_surplus(self):
        inst = Instance(
            [[20.0, 20.0]], [20.0], [5.0, 5.0], [1.0, 1.0], PprRefund()
        )
        assert check_budget_surplus(inst) == BudgetStatus.SURPLUS

    def test_equality_boundary_counts_as_surplus(self):
        inst = Instance([[20.0, 20.0]], [10.0], [5.0, 5.0], [1.0, 1.0], PprRefund())
        assert check_budget_surplus(inst) == BudgetStatus.SURPLUS

    def test_deficit(self):
        inst = Instance(
            [[2.0, 2.0]], [1.0], [1.0, 0.99], [0.5, 0.5], PprRefund()
        )
        assert check_budget_surplus(inst) == BudgetStatus.DEFICIT

    def test_rounded_threshold_budgets_run_deficit(self):
        # budgets 9.91 + 0.99 = 10.9 below targets 10 + 0.99 = 10.99
        inst = Instance(
            [[10.9, 0.0], [1.089, 1.9]],
            [9.91, 0.99],
            [10.0, 0.99],
            [1.0, 0.91],
            PprRefund(),
        )
        assert check_budget_surplus(inst) == BudgetStatus.DEFICIT


class TestSubsetFeasibility:
    def test_empty_subset_always_feasible(self):
        inst = single()
        thr = thresholds(inst)
        assert check_subset_feasibility(inst, (), thr)

    def test_budgets_exactly_at_thresholds(self):
        inst = Instance([[10.9], [1.089]], [9.90909090909091, 0.99], [10.0], [1.0], PprRefund())
        thr = thresholds(inst)
        assert check_subset_feasibility(inst, (0,), thr)

    def test_strict_violation(self):
        inst = Instance([[10.9], [1.089]], [9.899, 0.99], [10.0], [1.0], PprRefund())
        thr = thresholds(inst)
        assert not check_subset_feasibility(inst, (0,), thr)

    def test_out_of_range_index(self):
        inst = single()
        with pytest.raises(ValueError, match="out of range"):
            check_subset_feasibility(inst, (3,), thresholds(inst))


FIELDS = ("valuations", "budgets", "targets", "bonuses")
SIGN_TEXTS = {
    "valuations": "valuations must be non-negative",
    "budgets": "budgets must be non-negative",
    "targets": "targets must be positive",
    "bonuses": "bonuses must be positive",
}


#: Each field's sign fault; zero is one only where the field must be positive.
SIGN_FAULTS = {"valuations": -1.0, "budgets": -1.0, "targets": 0.0, "bonuses": -0.0}


def faulty_instance(*faults):
    """A valid two-agent, two-project instance with (field, flat index, value) entries set."""
    args = {"valuations": np.full((2, 2), 10.0), "budgets": np.ones(2),
            "targets": np.full(2, 5.0), "bonuses": np.ones(2)}
    for field, index, value in faults:
        args[field].flat[index] = value
    return Instance(*(args[field] for field in FIELDS), PprRefund())


class TestInstanceValidation:
    def test_total_valuation_must_exceed_target(self):
        with pytest.raises(ValueError, match="total valuation"):
            Instance([[5.0]], [1.0], [5.0], [1.0], PprRefund())

    def test_bonus_capped_by_headroom(self):
        with pytest.raises(ValueError, match="headroom"):
            Instance([[10.0]], [1.0], [5.0], [6.0], PprRefund())

    @pytest.mark.parametrize("field", ["valuations", "budgets", "targets", "bonuses"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_field_rejected(self, field, bad):
        args = {"valuations": [[10.0]], "budgets": [1.0], "targets": [5.0], "bonuses": [1.0]}
        args[field] = np.array(args[field]) * bad
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            Instance(args["valuations"], args["budgets"], args["targets"], args["bonuses"], PprRefund())

    @pytest.mark.parametrize("field, bad, text", [
        ("valuations", -1.0, "valuations must be non-negative"),
        ("valuations", -5e-324, "valuations must be non-negative"),
        ("budgets", -1.0, "budgets must be non-negative"),
        ("targets", -1.0, "targets must be positive"),
        ("targets", 0.0, "targets must be positive"),
        ("targets", -0.0, "targets must be positive"),
        ("bonuses", -1.0, "bonuses must be positive"),
        ("bonuses", 0.0, "bonuses must be positive"),
        ("bonuses", -0.0, "bonuses must be positive"),
    ])
    def test_sign_rule_is_named(self, field, bad, text):
        with pytest.raises(ValueError, match=f"^{text}$"):
            faulty_instance((field, -1, bad))

    def test_negative_zero_valuations_and_budgets_pass(self):
        instance = faulty_instance(("valuations", 0, -0.0), ("budgets", 0, -0.0))
        assert np.signbit(instance.valuations[0, 0]) and np.signbit(instance.budgets[0])

    def test_two_faults_refuse_in_declared_order(self):
        # every finiteness check comes before any sign check, each in field
        # order: one pass over all four fields must not change which wins
        faults = [(field, value) for field in FIELDS
                  for value in (np.nan, np.inf, -np.inf, SIGN_FAULTS[field])]
        for first, second in itertools.permutations(faults, 2):
            field, value = min(first, second, key=lambda f: (np.isfinite(f[1]), FIELDS.index(f[0])))
            text = (f"{SIGN_TEXTS[field]}$" if np.isfinite(value)
                    else f"{field} must be finite, got {value} at index ")
            with pytest.raises(ValueError, match=f"^{text}"):
                faulty_instance((first[0], 0, first[1]), (second[0], -1, second[1]))

    def test_arrays_frozen(self):
        inst = single()
        with pytest.raises(ValueError):
            inst.valuations[0, 0] = 3.0
