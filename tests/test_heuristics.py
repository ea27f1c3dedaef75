import math

import numpy as np
import pytest
import rules_reference
from conftest import clamp_stacked, random_instance
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ccfund import (
    Assignment,
    BudgetStatus,
    Heuristic,
    Instance,
    LinearAdditiveRefund,
    PlayOrder,
    PprRefund,
    SamplerConfig,
    check_budget_surplus,
    evaluate,
    intent_matrix,
    play,
    sample_instance,
    sample_surplus_sf_instance,
    thresholds,
)
from ccfund.heuristics import _CUMSUM_MAX_WIDTH, _intent_rows, _running_before
from ccfund.model import _project_sum


def intent_row(heuristic, inst, agent, pstar=None, thresholds=None):
    """One agent's row of the intent matrix where every agent plays ``heuristic``."""
    assignment = Assignment.uniform(heuristic, inst.n_agents)
    return intent_matrix(inst, assignment, pstar, thresholds)[agent]


class TestIntent:
    def test_symmetric_even_split(self):
        inst = Instance(np.full((1, 5), 100.0), [10.0], np.full(5, 50.0), np.full(5, 50.0), PprRefund())
        assert intent_row(Heuristic.SYMMETRIC, inst, 0) == pytest.approx([2.0] * 5)

    def test_symmetric_caps_at_valuation(self):
        inst = Instance([[1.0, 100.0]], [10.0], [0.5, 50.0], [0.5, 50.0], PprRefund())
        assert intent_row(Heuristic.SYMMETRIC, inst, 0) == pytest.approx([1.0, 5.0])

    def test_weighted_proportional(self):
        inst = Instance([[1.0, 3.0], [1.0, 3.0]], [8.0, 8.0], [1.0, 2.0], [1.0, 1.0], PprRefund())
        assert intent_row(Heuristic.WEIGHTED, inst, 0) == pytest.approx([2.0, 6.0])

    def test_weighted_zero_row_contributes_nothing(self):
        inst = Instance([[1.0, 3.0], [0.0, 0.0]], [8.0, 8.0], [0.5, 2.0], [0.4, 1.0], PprRefund())
        assert intent_row(Heuristic.WEIGHTED, inst, 1) == pytest.approx([0.0, 0.0])

    def test_greedy_theta_hand_trace(self):
        # higher-valued project first at its threshold, remainder to the next
        inst = Instance([[5.0, 9.0], [5.0, 9.0]], [4.0, 4.0], [6.0, 6.0], [4.0, 12.0], PprRefund())
        caps = np.array([[2.0, 3.0], [2.0, 3.0]])
        row = intent_row(Heuristic.GREEDY_THETA, inst, 0, thresholds=caps)
        assert row == pytest.approx([1.0, 3.0])

    def test_greedy_vartheta_orders_by_value_density(self):
        # ratios 2.0 vs 4.0: the second project fills first
        inst = Instance(
            [[8.0, 8.0], [8.0, 8.0]], [3.0, 3.0], [8.0, 4.0], [8.0, 4.0], PprRefund()
        )
        caps = np.array([[2.5, 2.0], [2.5, 2.0]])
        row = intent_row(Heuristic.GREEDY_VARTHETA, inst, 0, thresholds=caps)
        assert row == pytest.approx([1.0, 2.0])

    def test_opt_welfare_threshold_then_even_spread(self):
        inst = Instance(
            [[6.0, 6.0, 6.0]], [5.0], [3.0, 3.0, 3.0], [3.0, 3.0, 3.0], PprRefund()
        )
        caps = np.array([[1.5, 1.5, 1.5]])
        row = intent_row(Heuristic.OPT_WELFARE, inst, 0, pstar=(0,), thresholds=caps)
        assert row == pytest.approx([1.5, 1.75, 1.75])

    def test_opt_welfare_without_complement_leaves_budget(self):
        inst = Instance([[6.0]], [5.0], [3.0], [3.0], PprRefund())
        caps = np.array([[1.5]])
        row = intent_row(Heuristic.OPT_WELFARE, inst, 0, pstar=(0,), thresholds=caps)
        assert row == pytest.approx([1.5])

    def test_opt_welfare_requires_pstar(self):
        inst = Instance([[6.0]], [5.0], [3.0], [3.0], PprRefund())
        with pytest.raises(ValueError, match="welfare-optimal subset"):
            intent_row(Heuristic.OPT_WELFARE, inst, 0, thresholds=np.array([[1.5]]))

    def test_greedy_requires_thresholds(self):
        inst = Instance([[6.0]], [5.0], [3.0], [3.0], PprRefund())
        with pytest.raises(ValueError, match="threshold"):
            intent_row(Heuristic.GREEDY_THETA, inst, 0)

    def test_rows_respect_budgets(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            inst = random_instance(rng)
            thr = thresholds(inst)
            pstar = tuple(range(0, inst.n_projects, 2))
            for h in Heuristic:
                row = intent_row(h, inst, 0, pstar=pstar or (0,), thresholds=thr)
                assert row.sum() <= inst.budgets[0] + 1e-9
                assert np.all(row >= 0)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12),
           st.one_of(st.integers(1, 5), st.sampled_from([8, 9, 16, 17])), st.booleans())
    def test_matrix_matches_per_agent(self, seed, n, p, linear):
        # a mixed assignment's rows carry the bits of each rule's uniform rows,
        # whichever agents share a rule; from 8 projects numpy sums a row pairwise
        rng = np.random.default_rng(seed)
        scheme = LinearAdditiveRefund(float(rng.uniform(0.05, 0.5))) if linear else PprRefund()
        inst = random_instance(rng, n=n, p=p, scheme=scheme)
        thr = thresholds(inst)
        pstar = tuple(np.flatnonzero(rng.random(p) < 0.5).tolist())
        rules = list(Heuristic)
        assignment = Assignment(tuple(rules[k] for k in rng.integers(0, len(rules), n)))
        matrix = intent_matrix(inst, assignment, pstar, thr)
        for i, h in enumerate(assignment.heuristics):
            assert matrix[i].tobytes() == intent_row(h, inst, i, pstar, thr).tobytes()

    def test_assignment_must_cover_every_agent(self):
        inst = Instance([[6.0], [6.0]], [5.0, 5.0], [3.0], [3.0], PprRefund())
        with pytest.raises(ValueError, match="assignment covers 3 agents, instance has 2"):
            intent_matrix(inst, Assignment.uniform(Heuristic.SYMMETRIC, 3))


def _reference_rows(heuristic, inst, pstar, thresholds):
    """One instance's (n, p) rows under one rule, one agent at a time."""
    theta, budgets, p = inst.valuations, inst.budgets, inst.n_projects

    def prefix_capped(caps, budget):
        before = np.concatenate([[0.0], np.cumsum(caps)[:-1]])
        return np.clip(budget - before, 0.0, caps)

    rows = np.zeros((inst.n_agents, p))
    for i, budget in enumerate(budgets):
        if heuristic == Heuristic.SYMMETRIC:
            rows[i] = np.minimum(theta[i], budget / p)
        elif heuristic == Heuristic.WEIGHTED and theta[i].sum() > 0.0:
            rows[i] = budget * theta[i] / theta[i].sum()
        elif heuristic == Heuristic.OPT_WELFARE:
            chosen = sorted(pstar)
            rest = [j for j in range(p) if j not in chosen]
            rows[i, chosen] = prefix_capped(thresholds[i, chosen], budget)
            if rest:
                rows[i, rest] = max(budget - rows[i].sum(), 0.0) / len(rest)
        elif heuristic in (Heuristic.GREEDY_THETA, Heuristic.GREEDY_VARTHETA):
            key = theta[i] if heuristic == Heuristic.GREEDY_THETA else inst.vartheta / inst.targets
            order = sorted(range(p), key=lambda j: -key[j])  # ties keep index order
            rows[i, order] = prefix_capped(thresholds[i, order], budget)
    return rows


@st.composite
def rule_batches(draw):
    """Instances of one shape, each with a welfare-optimal subset guess and thresholds.

    Copied projects tie every agent's valuations and the projects' ratios
    and thresholds; whole-number valuations over halved totals tie many
    valuations and every ratio; one agent may value nothing (the weighted
    rule's zero-row branch).
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, p, batch = draw(st.integers(1, 9)), draw(st.integers(1, 6)), draw(st.integers(1, 4))
    scheme = draw(st.sampled_from([PprRefund(), LinearAdditiveRefund(0.5)]))
    exponential = draw(st.booleans())
    ties = draw(st.sampled_from(["none", "copies", "whole"]))
    games = []
    for _ in range(batch):
        theta = rng.exponential(1.0 / 1.5, (n, p)) if exponential else rng.uniform(0.0, 10.0, (n, p))
        src = np.arange(p)
        if ties == "copies":
            src = np.minimum(src, rng.integers(0, 2, p))
        elif ties == "whole":
            theta = np.ceil(theta)
        theta = theta[:, src]
        theta[0] += 1.0  # every project valued
        if n > 1 and draw(st.booleans()):
            theta[int(rng.integers(1, n))] = 0.0
        vartheta = theta.sum(axis=0)
        targets = vartheta / 2.0 if ties == "whole" else rng.uniform(0.3, 0.7, p)[src] * vartheta
        bonuses = draw(st.sampled_from([0.5, 1.0])) * (vartheta - targets)
        budgets = rng.uniform(0.0, 1.2, n) * targets.sum() / n
        inst = Instance(theta, budgets, targets, bonuses, scheme)
        pstar = draw(st.sampled_from(
            [(), tuple(range(p)), tuple(np.flatnonzero(rng.random(p) < 0.5).tolist())]))
        games.append((inst, pstar, thresholds(inst)))
    return games


class TestBatchedRules:
    @settings(max_examples=300, deadline=None)
    @given(rule_batches())
    def test_batch_rows_are_each_instances_own_bits(self, games):
        # one call over the batch gives each instance the rows of its own
        # call and of the rule-by-rule reference, as int64 bits
        insts = [inst for inst, _, _ in games]
        chosen = np.zeros((len(games), insts[0].n_projects), dtype=bool)
        for slot, (_, pstar, _) in enumerate(games):
            chosen[slot, list(pstar)] = True
        stacked = [np.stack([getattr(inst, name) for inst in insts]) for name in
                   ("valuations", "budgets", "vartheta", "targets")]
        thr = np.stack([t for _, _, t in games])
        ratios = stacked[2] / stacked[3]
        for rule in Heuristic:
            batch = _intent_rows(rule, stacked[0], stacked[1], ratios, chosen, thr)
            for slot, (inst, pstar, t) in enumerate(games):
                alone = intent_matrix(inst, Assignment.uniform(rule, inst.n_agents), pstar, t)
                reference = _reference_rows(rule, inst, pstar, t)
                assert batch[slot].view(np.int64).tolist() == alone.view(np.int64).tolist()
                assert alone.view(np.int64).tolist() == reference.view(np.int64).tolist(), rule


#: Signed zeros, ties and ordinary values the rule-row parity draws from.
_PARITY_VALUES = np.array([0.0, -0.0, 0.5, 1.0, 1.0, 2.5])


@st.composite
def rule_stacks(draw):
    """Stacked rule-row inputs of p 1-12 whose fold slices fall on either side
    of the width cutoff: valuations, budgets and caps of either zero sign,
    tied valuations and ratios, and budgets under the first cap."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p, batch = draw(st.integers(1, 12)), draw(st.integers(1, 3))
    if draw(st.booleans()):  # at least _CUMSUM_MAX_WIDTH rows a project slice
        n = draw(st.integers(-(-_CUMSUM_MAX_WIDTH // batch), -(-_CUMSUM_MAX_WIDTH // batch) + 4))
    else:
        n = draw(st.integers(1, 12))
    shape = (batch, n, p)

    def values(size, tied):
        out = rng.uniform(0.0, 3.0, size)
        picked = rng.random(size) < tied
        out[picked] = rng.choice(_PARITY_VALUES, size)[picked]
        return out

    valuations = values(shape, draw(st.sampled_from([0.0, 0.5, 1.0])))
    valuations[:, 0] += 1.0  # every project valued, for the instances below
    caps = np.minimum(values(shape, draw(st.sampled_from([0.0, 0.5]))), valuations)
    budgets = values((batch, n), 0.3) * draw(st.sampled_from([0.1, 1.0, 4.0]))
    under = rng.random((batch, n)) < 0.3  # under the first cap
    budgets[under] = (caps[..., 0] * rng.uniform(0.0, 1.0, (batch, n)))[under]
    ratios = (rng.choice([1.5, 2.0], (batch, p)) if draw(st.booleans())
              else rng.uniform(1.1, 3.0, (batch, p)))
    chosen = rng.random((batch, p)) < draw(st.sampled_from([0.0, 0.5, 1.0]))
    return valuations, budgets, ratios, chosen, caps


class TestRuleRowParity:
    @settings(max_examples=150, deadline=None)
    @given(rule_stacks())
    # one entry, whose -0.0 budget a clip in place kept as -0.0
    @example((np.array([[[3.4]]]), np.array([[-0.0]]), np.array([[1.9]]), np.array([[False]]),
              np.array([[[0.4]]])))
    def test_rows_have_the_reference_bytes(self, stack):
        # the project-major folds and the flat gather and scatter give every
        # rule the bytes of the cumsum and take/put_along_axis builder
        valuations, budgets, ratios, chosen, caps = stack
        for rule in Heuristic:
            rows = _intent_rows(rule, valuations, budgets, ratios, chosen, caps)
            want = rules_reference._intent_rows(rule, valuations, budgets, ratios, chosen, caps)
            assert rows.shape == want.shape
            assert np.ascontiguousarray(rows).tobytes() == want.tobytes(), rule
        # intent_matrix lays each instance's rows end to end and picks them
        vartheta = valuations[0].sum(axis=0)
        inst = Instance(valuations[0], budgets[0], vartheta / 2.0, vartheta / 4.0, PprRefund())
        rules = list(Heuristic)
        assignment = Assignment(tuple(rules[i % len(rules)] for i in range(inst.n_agents)))
        used = [h for h in rules if h in assignment.heuristics]
        ratios = inst.vartheta / inst.targets
        laid = np.concatenate([rules_reference._intent_rows(
            h, inst.valuations, inst.budgets, ratios, chosen[0], caps[0]) for h in used])
        picks = np.array([used.index(h) for h in assignment.heuristics]) * inst.n_agents
        want = laid[picks + np.arange(inst.n_agents)]
        pstar = tuple(np.flatnonzero(chosen[0]).tolist())
        assert intent_matrix(inst, assignment, pstar, caps[0]).tobytes() == want.tobytes()

    @pytest.mark.parametrize("width", [1, _CUMSUM_MAX_WIDTH])  # np.cumsum, then one add a step
    def test_running_sum_starts_from_the_first_term(self, width):
        # the fold keeps a leading -0.0 as np.cumsum does; one that starts
        # from 0.0 + term turns it into +0.0. Rule rows cannot show the
        # difference: their clip at 0.0 maps a zero of either sign alike
        terms = np.full((4, width, 3), -0.0)
        terms[2:, :, 1] = 1.5
        out = _running_before(terms, np.full(terms.shape, np.nan))
        want = np.concatenate([np.zeros((1, width, 3)), np.cumsum(terms[:-1], axis=0)])
        assert out.tobytes() == want.tobytes()
        assert np.signbit(out[1:]).sum() == 2 * width * 3 + width * 2


class TestPlay:
    def test_single_agent_clamped_at_target(self):
        inst = Instance([[20.0]], [10.0], [5.0], [5.0], PprRefund())
        profile = play(inst, Assignment.uniform(Heuristic.SYMMETRIC, 1))
        assert profile.contributions[0, 0] == pytest.approx(5.0)

    def test_second_agent_clamped_to_exact_target(self):
        inst = Instance([[20.0], [20.0]], [4.0, 4.0], [5.0], [5.0], PprRefund())
        profile = play(inst, Assignment.uniform(Heuristic.SYMMETRIC, 2))
        assert profile.contributions[:, 0] == pytest.approx([4.0, 1.0])

    def test_never_overfunds(self):
        rng = np.random.default_rng(7)
        cfg = SamplerConfig(n=30, p=5, seed=3)
        for k in range(30):
            inst, sol = sample_instance(cfg, seed=(3, k))
            thr = thresholds(inst)
            for h in Heuristic:
                profile = play(inst, Assignment.uniform(h, 30), sol.subset, thr)
                profile.validate_against(inst)
                totals = profile.contributions.sum(axis=0)
                assert np.all(totals <= inst.targets + 1e-9)

    def test_all_baseline_funds_the_optimum_exactly(self):
        cfg = SamplerConfig(n=40, p=6, seed=11)
        for k in range(20):
            inst, sol = sample_instance(cfg, seed=(11, k))
            thr = thresholds(inst)
            profile = play(inst, Assignment.uniform(Heuristic.OPT_WELFARE, 40), sol.subset, thr)
            out = evaluate(inst, profile)
            assert set(np.flatnonzero(out.funded)) == set(sol.subset)
            chosen = list(sol.subset)
            assert np.all(np.abs(out.totals[chosen] - inst.targets[chosen]) <= 1e-9)

    def test_order_invariant_when_no_clamping(self):
        rng = np.random.default_rng(13)
        inst = random_instance(rng, n=5, p=3)
        shrunk = Instance(
            inst.valuations, inst.budgets * 1e-3, inst.targets, inst.bonuses, inst.refund
        )
        a = play(shrunk, Assignment.uniform(Heuristic.WEIGHTED, 5))
        b = play(shrunk, Assignment.uniform(Heuristic.WEIGHTED, 5),
                 order=PlayOrder("random", seed=99))
        assert np.allclose(
            a.contributions.sum(axis=0), b.contributions.sum(axis=0), atol=1e-12
        )

    def test_seeded_permutation_regression(self):
        inst = Instance([[20.0], [20.0], [20.0]], [4.0, 4.0, 4.0], [5.0], [5.0], PprRefund())
        ascending = play(inst, Assignment.uniform(Heuristic.SYMMETRIC, 3))
        permuted = play(inst, Assignment.uniform(Heuristic.SYMMETRIC, 3),
                        order=PlayOrder("random", seed=0))
        assert ascending.contributions[:, 0] == pytest.approx([4.0, 1.0, 0.0])
        # the identical seeded shuffle stays pinned
        assert permuted.contributions[:, 0] == pytest.approx(
            play(inst, Assignment.uniform(Heuristic.SYMMETRIC, 3),
                 order=PlayOrder("random", seed=0)).contributions[:, 0]
        )
        assert permuted.contributions.sum() == pytest.approx(5.0)


def _cumsum_clamp(intents, targets, permutation=None):
    """The play-out as one ``np.cumsum`` over agents, with targets per leading index."""
    ordered = intents if permutation is None else intents[..., permutation, :]
    missing = np.zeros(ordered.shape)
    np.cumsum(ordered[..., :-1, :], axis=-2, out=missing[..., 1:, :])
    np.subtract(np.asarray(targets)[..., None, :], missing, out=missing)
    np.maximum(missing, 0.0, out=missing)
    realized = np.minimum(ordered, missing, out=missing)
    if permutation is None:
        return realized
    out = np.empty(realized.shape)
    out[..., permutation, :] = realized
    return out


@st.composite
def clamp_cases(draw):
    """Intents with 0-2 leading axes on either side of the width cutoff, laid
    out in C order or agents first, targets shared or per leading index, and
    an optional play order; some intents are exact zeros of either sign."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, p = draw(st.integers(1, 40)), draw(st.integers(1, 7))
    lead = ()
    if draw(st.integers(0, 2)) >= 1:
        outer = draw(st.integers(1, 8))
        lead = (outer,) if draw(st.booleans()) else (outer, 1)
        if draw(st.booleans()):  # at least _CUMSUM_MAX_WIDTH values per agent
            need = math.ceil(_CUMSUM_MAX_WIDTH / (p * outer))
            last = draw(st.integers(need, need + 8))
        else:
            last = draw(st.integers(1, max(1, (_CUMSUM_MAX_WIDTH - 1) // (p * outer))))
        lead = lead[:-1] + (lead[-1] * last,)
    intents = rng.uniform(0.0, 3.0, size=lead + (n, p))
    zeros = rng.random(intents.shape) < 0.2
    intents[zeros] = np.where(rng.random(intents.shape) < 0.5, 0.0, -0.0)[zeros]
    if draw(st.booleans()):
        intents = np.moveaxis(np.ascontiguousarray(np.moveaxis(intents, -2, 0)), 0, -2)
    shape = lead + (p,) if draw(st.booleans()) else (p,)
    targets = rng.uniform(0.5, 2.0 * n, size=shape)
    permutation = rng.permutation(n) if draw(st.booleans()) else None
    return intents, targets, permutation


class TestClampReference:
    @staticmethod
    def _sequential_clamp(intents, targets, order):
        realized = np.zeros_like(intents)
        totals = np.zeros(len(targets))
        for i in order:
            for j in range(len(targets)):
                give = min(intents[i, j], max(0.0, targets[j] - totals[j]))
                realized[i, j] = give
                totals[j] += give
        return realized

    def test_vectorized_clamp_matches_sequential_loop(self):
        rng = np.random.default_rng(51)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            p = int(rng.integers(1, 6))
            intents = rng.uniform(0.0, 3.0, size=(n, p))
            targets = rng.uniform(0.5, 10.0, size=p)
            perm = rng.permutation(n)
            fast = clamp_stacked(intents, targets, perm)
            slow = self._sequential_clamp(intents, targets, perm)
            assert np.allclose(fast, slow, atol=1e-12)

    @pytest.mark.parametrize("target", [np.nan, np.inf])
    def test_non_finite_targets_are_named(self, target):
        # a NaN target used to come back as a NaN contribution
        from ccfund.heuristics import clamp_play

        with pytest.raises(ValueError, match="targets must be finite"):
            clamp_play(np.ones((3, 2)), np.array([1.0, target]))

    @pytest.mark.parametrize("stack", [1, _CUMSUM_MAX_WIDTH])  # np.cumsum, then one add per agent
    def test_out_takes_the_fresh_bits(self, stack):
        from ccfund.heuristics import clamp_play

        rng = np.random.default_rng(57)
        intents = rng.uniform(0.0, 3.0, size=(30, stack, 4))
        targets = rng.uniform(0.5, 60.0, size=(stack, 4))
        buf = np.full(intents.shape, np.nan)
        assert clamp_play(intents, targets, out=buf) is buf
        fresh = clamp_play(intents, targets)
        assert np.array_equal(buf.view(np.int64), fresh.view(np.int64))

    def test_out_of_another_shape_is_named(self):
        from ccfund.heuristics import clamp_play

        with pytest.raises(ValueError, match=r"out must be a float64 array of the intents' shape"):
            clamp_play(np.ones((3, 2)), np.ones(2), out=np.empty((2, 3)))

    def test_out_overlapping_intents_is_named(self):
        # the running sums would overwrite intents not yet read
        from ccfund.heuristics import clamp_play

        buf = np.ones((2, 3, 2))
        with pytest.raises(ValueError, match="out must not overlap intents"):
            clamp_play(buf[0], np.ones(2), out=buf[0])
        with pytest.raises(ValueError, match="out must not overlap intents"):
            clamp_play(buf.reshape(6, 2)[:3], np.ones(2), out=buf.reshape(6, 2)[1:4])

    @settings(max_examples=300, deadline=None)
    @given(clamp_cases())
    def test_same_bytes_as_one_cumsum(self, case):
        intents, targets, permutation = case
        realized = clamp_stacked(intents, targets, permutation)
        expected = _cumsum_clamp(intents, targets, permutation)
        assert realized.shape == expected.shape
        assert realized.tobytes() == expected.tobytes()
        assert np.all(realized.sum(axis=-2) <= targets + 1e-9), "a project was overfunded"
        # the experiment checks the rules' rows and not the play, which holds
        # only while each realized entry lies in [0, its intent]; additions
        # being monotone, no agent's spending then exceeds its row's
        assert np.all(realized >= 0.0)
        assert np.all(realized <= intents)
        spent = _project_sum(np.moveaxis(realized, -1, 0))
        assert np.all(spent <= _project_sum(np.moveaxis(intents, -1, 0)))

    def test_greedy_allocation_matches_scalar_loop(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            p = int(rng.integers(1, 7))
            caps = rng.uniform(0.0, 4.0, size=p)
            budget = float(rng.uniform(0.0, caps.sum() * 1.2))
            inst = Instance(
                np.full((1, p), caps.sum() + budget + 10.0),
                [budget],
                np.full(p, 1.0),
                np.full(p, 1.0),
                PprRefund(),
            )
            thr = caps[None, :]
            row = intent_row(Heuristic.GREEDY_VARTHETA, inst, 0, thresholds=thr)
            remaining = budget
            expected = np.zeros(p)
            for j in range(p):  # uniform ratios keep the index order
                expected[j] = min(caps[j], remaining)
                remaining -= expected[j]
            assert np.allclose(row, expected, atol=1e-12)


class TestSurplusPlayout:
    def test_surplus_instances_fund_everything_at_targets(self):
        cfg = SamplerConfig(n=25, p=4, seed=21, bonus_fraction=1.0)
        for k in range(20):
            inst, sol = sample_surplus_sf_instance(cfg, seed=(21, k))
            assert check_budget_surplus(inst) == BudgetStatus.SURPLUS
            thr = thresholds(inst)
            profile = play(inst, Assignment.uniform(Heuristic.OPT_WELFARE, 25), sol.subset, thr)
            out = evaluate(inst, profile)
            assert out.funded.all()
            assert np.all(np.abs(out.totals - inst.targets) <= 1e-9)
