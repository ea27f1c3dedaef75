"""Stacked play-outs and evaluations against one profile at a time.

``clamp_play`` takes axes between its agents and projects, and ``evaluate``
leading axes, that stack independent profiles of one instance. Every stacked row must be bit-identical to the
2-D call on that row, whatever the refund scheme, play order or stack
shape, and the game's invariants must hold row by row.
"""

import numpy as np
from conftest import clamp_stacked, random_instance, random_intents
from hypothesis import given, settings
from hypothesis import strategies as st

from ccfund import (
    TOL,
    ContributionProfile,
    LinearAdditiveRefund,
    PprRefund,
    evaluate,
    solve_pstar_bruteforce,
    sw_n,
)


@st.composite
def stacked_games(draw):
    """An instance, a stack of budget-feasible intents and a play order."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 8))
    # from 8 projects on numpy sums a row pairwise, not as a left fold
    p = draw(st.one_of(st.integers(1, 5), st.sampled_from([8, 9, 16, 17])))
    batch = draw(st.sampled_from([(1,), (3,), (6,), (2, 3)]))
    scheme = draw(st.one_of(st.just(PprRefund()), st.floats(0.05, 0.5).map(LinearAdditiveRefund)))
    instance = random_instance(rng, n=n, p=p, scheme=scheme)
    intents = random_intents(rng, instance, batch)
    permutation = rng.permutation(n) if draw(st.booleans()) else None
    return instance, intents, permutation


@settings(max_examples=150, deadline=None)
@given(stacked_games())
def test_stacked_rows_equal_single_profile_calls(game):
    instance, intents, permutation = game
    realized = clamp_stacked(intents, instance.targets, permutation)
    stacked = evaluate(instance, ContributionProfile(realized))
    for index in np.ndindex(intents.shape[:-2]):
        alone = clamp_stacked(intents[index], instance.targets, permutation)
        assert np.array_equal(realized[index], alone)
        one = evaluate(instance, ContributionProfile(alone))
        assert np.array_equal(stacked.funded[index], one.funded)
        assert np.array_equal(stacked.totals[index], one.totals)
        assert np.array_equal(stacked.per_pair_utilities[index], one.per_pair_utilities)
        assert np.array_equal(stacked.agent_utilities[index], one.agent_utilities)
        assert stacked.social_welfare[index] == one.social_welfare


@settings(max_examples=150, deadline=None)
@given(stacked_games())
def test_stacked_play_keeps_the_invariants(game):
    instance, intents, permutation = game
    realized = clamp_stacked(intents, instance.targets, permutation)
    outcome = evaluate(instance, ContributionProfile(realized))
    assert np.all(outcome.totals <= instance.targets + TOL), "a project was overfunded"
    assert np.all(realized.sum(axis=-1) <= instance.budgets + TOL), "an agent overspent"
    sw = sw_n(instance, outcome, solve_pstar_bruteforce(instance).welfare)
    if sw is not None:
        assert np.all(sw >= 0.0) and np.all(sw <= 1.0 + 1e-9)
