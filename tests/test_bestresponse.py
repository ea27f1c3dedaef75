import numpy as np
import pytest
from conftest import random_instance, random_view
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ccfund import (
    Assignment,
    ContributionProfile,
    Heuristic,
    Instance,
    LinearAdditiveRefund,
    PlayOrder,
    PprRefund,
    ResidualView,
    SamplerConfig,
    SolverError,
    best_response_bruteforce,
    best_response_exact,
    build_example2,
    demonstrate_nonexistence,
    evaluate,
    knapsack_form_oracle,
    make_view,
    play,
    response_utility,
    sample_instance,
    solve_pstar_bruteforce,
    thresholds,
)
from ccfund import bestresponse
from ccfund.heuristics import PLAY_ORDERS
from ccfund.bestresponse import UTILITY_TIE_TOL, _concave_maxplus, _value_tables


def bisection_maxplus_reference(t: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``w[k] = max(t[b] + u[k - b] for 0 <= b <= min(k, len(t) - 1))`` for concave ``t``.

    With ``t`` concave, the matrix ``A[k, i] = t[k - i] + u[i]`` is inverse
    Monge, so the leftmost maximizing column of row k never moves left as k grows
    (Aggarwal et al., Algorithmica 1987). Divide and conquer over the rows
    then bounds each row's columns by the argmaxes of the rows around it.
    Each level of that recursion is one batch of numpy calls over all of
    its row segments, whose column ranges overlap only at their ends:
    about log2(len(u)) levels of O(len(u)) work.
    """
    m = len(t) - 1
    n = len(u)
    w = np.empty(n)
    # one entry per open segment: rows row_lo..row_hi, columns col_lo..col_hi
    row_lo, row_hi = np.array([0]), np.array([n - 1])
    col_lo, col_hi = np.array([0]), np.array([n - 1])
    while row_lo.size:
        mid = (row_lo + row_hi) // 2
        lo = np.maximum(col_lo, mid - m)
        hi = np.minimum(col_hi, mid)
        lengths = hi - lo + 1
        starts = np.cumsum(lengths) - lengths
        cols = np.arange(starts[-1] + lengths[-1]) + np.repeat(lo - starts, lengths)
        vals = t[np.repeat(mid, lengths) - cols] + u[cols]
        top = np.maximum.reduceat(vals, starts)
        arg = np.minimum.reduceat(np.where(vals == np.repeat(top, lengths), cols, n), starts)
        w[mid] = top
        left, right = row_lo < mid, mid < row_hi
        row_lo, row_hi = (np.concatenate([row_lo[left], mid[right] + 1]),
                          np.concatenate([mid[left] - 1, row_hi[right]]))
        col_lo, col_hi = (np.concatenate([col_lo[left], arg[right]]),
                          np.concatenate([arg[left], col_hi[right]]))
    return w


def two_project_linear_view():
    # budget 2, unit grid, shortfalls (2, 1), valuations (3, 1.5), slope 0.1:
    # funding the first project (utility 1.0) beats funding the second plus a
    # refund (0.6) and beats pure refunds (at most 0.2)
    return ResidualView(
        agent=0,
        others_totals=np.array([3.0, 1.0]),
        remaining=np.array([2.0, 1.0]),
        budget=2.0,
        valuations=np.array([3.0, 1.5]),
        bonuses=np.array([2.0, 2.0]),
        scheme=LinearAdditiveRefund(0.1),
    )


def view_as_instance_and_profile(view):
    """Embed a view into a two-agent game so the outcome engine can re-check it.

    Agent zero stands in for everyone else; already-funded projects keep a
    target equal to the others' total so funding flags carry over.
    """
    targets = view.others_totals + view.remaining
    targets = np.where(targets <= 0.0, 1.0, targets)
    filler = np.maximum(targets - view.valuations, 0.0) + view.bonuses + 1.0
    valuations = np.vstack([filler, view.valuations])
    budgets = np.array([float(view.others_totals.sum()), view.budget])
    instance = Instance(valuations, budgets, targets, view.bonuses, view.scheme)
    return instance, np.vstack([view.others_totals, np.zeros(view.n_projects)])


class TestExactSolver:
    def test_two_project_linear_example(self):
        response = best_response_exact(two_project_linear_view(), 1.0)
        assert response.contributions == pytest.approx([2.0, 0.0])
        assert list(response.funded) == [True, False]
        assert response.utility == pytest.approx(1.0)

    @pytest.mark.parametrize("solver", [best_response_exact, best_response_bruteforce])
    @pytest.mark.parametrize("delta", [0.0, -1.0, float("inf"), float("nan")])
    def test_bad_delta_is_named(self, solver, delta):
        with pytest.raises(ValueError, match="delta must be positive and finite"):
            solver(two_project_linear_view(), delta)

    def test_zero_budget(self):
        view = two_project_linear_view()
        broke = ResidualView(0, view.others_totals, view.remaining, 0.0,
                             view.valuations, view.bonuses, view.scheme)
        response = best_response_exact(broke, 1.0)
        assert response.contributions == pytest.approx([0.0, 0.0])
        assert response.utility == pytest.approx(0.0)

    def test_single_project_two_branch(self):
        # funding pays theta - r = 2.0, best unfunded grid point pays
        # 3 / 8 * 4 = 1.5, so fund exactly
        view = ResidualView(0, np.array([5.0]), np.array([4.0]), 6.0,
                            np.array([6.0]), np.array([4.0]), PprRefund())
        response = best_response_exact(view, 1.0)
        assert response.contributions == pytest.approx([4.0])
        assert list(response.funded) == [True]
        assert response.utility == pytest.approx(2.0)

    def test_already_funded_project_costs_nothing(self):
        view = ResidualView(0, np.array([7.0]), np.array([0.0]), 3.0,
                            np.array([2.5]), np.array([1.0]), PprRefund())
        response = best_response_exact(view, 0.5)
        assert response.contributions == pytest.approx([0.0])
        assert list(response.funded) == [True]
        assert response.utility == pytest.approx(2.5)

    def test_unit_guard(self):
        view = ResidualView(0, np.array([0.0]), np.array([1.0]), 2e6,
                            np.array([2.0]), np.array([1.0]), PprRefund())
        with pytest.raises(SolverError, match="guard"):
            best_response_exact(view, 1e-3)

    def test_utility_matches_independent_reevaluation(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            view = random_view(rng)
            response = best_response_exact(view, 1.0)
            assert response.utility == pytest.approx(
                response_utility(view, response.contributions), abs=1e-9
            )

    def test_beats_all_zeros(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            view = random_view(rng)
            response = best_response_exact(view, 1.0)
            assert response.utility >= response_utility(view, np.zeros(view.n_projects)) - 1e-9

    def test_outcome_engine_agrees(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            view = random_view(rng)
            response = best_response_exact(view, 1.0)
            instance, others_rows = view_as_instance_and_profile(view)
            full = others_rows.copy()
            full[1] = response.contributions
            outcome = evaluate(instance, ContributionProfile(full))
            assert outcome.agent_utilities[1] == pytest.approx(response.utility, abs=1e-9)
            assert np.array_equal(outcome.funded, response.funded)


SCHEMES = st.one_of(
    st.just(PprRefund()),
    st.sampled_from([0.25, 0.5]).map(LinearAdditiveRefund),
    st.floats(0.01, 0.5).map(LinearAdditiveRefund),
)


@st.composite
def oracle_views(draw):
    """Views small enough to enumerate on the unit grid.

    Half the views draw every amount as an integer, so ties are everywhere;
    others' totals are often zero, which turns a proportional table into a
    step (the first unit takes the whole pool).
    """
    p = draw(st.integers(1, 4))
    if draw(st.booleans()):
        amount = lambda lo, hi: st.integers(lo, int(hi)).map(float)
    else:
        amount = st.floats
    vector = lambda lo, hi: st.lists(amount(lo, hi), min_size=p, max_size=p)
    remaining = draw(vector(0, 6))
    return ResidualView(
        agent=0,
        others_totals=draw(st.lists(st.one_of(st.just(0.0), amount(0, 6)),
                                    min_size=p, max_size=p)),
        remaining=remaining,
        budget=draw(amount(0, sum(remaining) + 2)),
        valuations=draw(vector(0, 8)),
        bonuses=draw(vector(0, 3)),
        scheme=draw(SCHEMES),
    )


@settings(max_examples=400, deadline=None)
@given(oracle_views())
def test_exact_matches_enumeration(view):
    exact = best_response_exact(view, 1.0)
    brute = best_response_bruteforce(view, 1.0)
    assert np.array_equal(exact.contributions, brute.contributions)
    assert np.array_equal(exact.funded, brute.funded)
    assert exact.utility == pytest.approx(brute.utility, abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(scheme=SCHEMES, bonus=st.floats(1e-3, 10.0),
       others=st.one_of(st.just(0.0), st.floats(0.0, 50.0)),
       delta=st.sampled_from([1.0, 0.1, 0.01]), units=st.integers(2, 300))
def test_below_fund_tables_are_concave(scheme, bonus, others, delta, units):
    # the exact solver's monotone-argmax step is correct only for concave
    # refund tables; a shortfall past the budget keeps the funded point out
    view = ResidualView(0, [others], [(units + 5) * delta], units * delta, [1.0], [bonus], scheme)
    (table,) = _value_tables(view, delta, units, [units + 5])
    assert len(table) == units + 1
    assert np.all(np.diff(table, 2) <= 1e-12)


@pytest.mark.parametrize("scheme", [PprRefund(), LinearAdditiveRefund(0.6)], ids=["ppr", "linear"])
@pytest.mark.parametrize("budget", [0.0, 2.5])
@pytest.mark.parametrize("delta", [0.1, 0.01, 0.003])
def test_value_tables_share_one_grid(scheme, budget, delta):
    # slicing one grid gives the bits of building each project's own grid;
    # shortfalls of zero, inside the budget and past it
    view = ResidualView(0, [0.0, 1.3, 0.4, 0.9], [0.0, 0.7, 4.0, 2.5], budget,
                        [1.0, 2.0, 3.0, 4.0], [0.5, 1.5, 2.0, 0.8], scheme)
    budget_units, fund_units = bestresponse._grid_layout(view, delta)
    tables = _value_tables(view, delta, budget_units, fund_units)
    assert len(tables) == len(fund_units)
    for j, (units, table) in enumerate(zip(fund_units, tables)):
        x = np.arange(min(units, budget_units) + 1, dtype=float) * delta
        own = np.asarray(scheme.share(x, view.bonuses[j], view.others_totals[j] + x), dtype=float)
        if units <= budget_units:
            own[units] = view.valuations[j] - units * delta
        assert np.array_equal(table.view(np.int64), own.view(np.int64))


@st.composite
def maxplus_inputs(draw):
    """A refund table and a non-decreasing continuation, as one solver step sees them.

    Tables are proportional shares over a positive others' total (concave),
    steps (others' total zero: the first unit takes the pool) or linear
    shares, optionally with one entry an ulp low; continuations climb in
    quarter steps with plateaus, so a unit grid with a linear table ties
    exactly in float, or in those steps scaled by uniform draws. Boundary
    cases: a flat continuation, one of the table's own slope (equal slopes),
    and one-entry tables and continuations.
    """
    width = draw(st.integers(1, 600) | st.just(1))
    length = draw(st.one_of(st.integers(1, 2), st.integers(1, width)))
    step = draw(st.sampled_from([1.0, 0.1, 0.01]))
    x = np.arange(length) * step
    bonus = draw(st.sampled_from([0.5, 1.0, 3.0]) | st.floats(0.01, 10.0))
    shape = draw(st.sampled_from(["proportional", "step", "linear"]))
    slope = draw(st.sampled_from([0.25, 0.5, 1.0]))
    if shape == "proportional":
        t = PprRefund().share(x, bonus, draw(st.floats(0.01, 50.0)) + x)
    elif shape == "step":
        t = PprRefund().share(x, bonus, x)
    else:
        t = LinearAdditiveRefund(slope).share(x, bonus, x)
    if length > 2 and draw(st.booleans()):
        dip = draw(st.integers(1, length - 2))
        t[dip] = np.nextafter(t[dip], -np.inf)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    climb = np.where(rng.random(width) < draw(st.floats(0.0, 1.0)), 0.0,
                     rng.integers(1, 5, width) * 0.25)
    if draw(st.booleans()):
        climb = climb * rng.random(width)
    u = draw(st.sampled_from(["climb", "flat", "equal-slope"]))
    if u == "flat":
        return t, np.full(width, draw(st.sampled_from([0.0, 2.5])))
    if u == "equal-slope":
        return t, LinearAdditiveRefund(slope).share(np.arange(width) * step, bonus, 0.0)
    return t, np.cumsum(climb)


def bruteforce_maxplus(t: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Every row's maximum over all of its splits, one row at a time."""
    return np.array([max(t[b] + u[k - b] for b in range(min(k, len(t) - 1) + 1))
                     for k in range(len(u))])


def falling(x: np.ndarray) -> bool:
    """Whether the computed increments of ``x`` never rise."""
    steps = np.diff(x)
    return bool((steps[1:] <= steps[:-1]).all())


@settings(max_examples=300, deadline=None)
@given(maxplus_inputs())
def test_maxplus_kernel_matches_reference(inputs):
    t, u = inputs
    assert np.array_equal(_concave_maxplus(t, u), bisection_maxplus_reference(t, u))


@settings(max_examples=300, deadline=None)
@given(maxplus_inputs())
def test_maxplus_merge_matches_every_split(inputs):
    # where both increment sequences fall, the merge (or a dominance test)
    # settles the step, and its rows are the true maxima over every split
    t, u = inputs
    assume(falling(t) and falling(u))
    w = _concave_maxplus(t, u)
    assert np.array_equal(w, bruteforce_maxplus(t, u))
    assert np.array_equal(w, bisection_maxplus_reference(t, u))


class TestSearchSkips:
    """Steps whose slope sequences dominate or merge skip the search."""

    @pytest.fixture
    def steps(self, monkeypatch):
        counts = {"steps": 0, "searches": 0, "plans": 0}
        kernel, search, plan = (bestresponse._concave_maxplus, bestresponse._monotone_search,
                                bestresponse._row_plan)

        def counted_kernel(t, u):
            counts["steps"] += 1
            return kernel(t, u)

        def counted_search(t, u):
            counts["searches"] += 1
            return search(t, u)

        def counted_plan(width):
            counts["plans"] += 1
            return plan(width)

        monkeypatch.setattr(bestresponse, "_concave_maxplus", counted_kernel)
        monkeypatch.setattr(bestresponse, "_monotone_search", counted_search)
        monkeypatch.setattr(bestresponse, "_row_plan", counted_plan)
        return counts

    def test_fine_grid_response_never_searches(self, steps):
        # agent 0's first step meets the all-zero continuation and its second
        # a shallower one (all spend here first); three later tables are
        # shallower than their continuations (no spend here); the others
        # interleave two falling slope sequences and merge
        instance, solution = sample_instance(SamplerConfig(n=100, p=10, seed=101), seed=(101, 0))
        profile = play(instance, Assignment.uniform(Heuristic.OPT_WELFARE, instance.n_agents),
                       solution.subset, thresholds(instance))
        best_response_exact(make_view(instance, profile, 0), 0.01)
        assert steps["steps"] == 10
        assert steps["searches"] == 0
        assert steps["plans"] == 0

    def test_equal_slopes_call_the_search(self, steps):
        # linear refunds against a continuation of the same slope: the
        # rounded increments wobble, so neither dominance nor the merge applies
        t = LinearAdditiveRefund(0.5).share(np.arange(40) * 0.01, 1.0, 0.0)
        u = LinearAdditiveRefund(0.5).share(np.arange(300) * 0.01, 1.0, 0.0)
        assert not falling(t)
        w = bestresponse._concave_maxplus(t, u)
        assert steps["searches"] == 1
        assert np.array_equal(w, bisection_maxplus_reference(t, u))

    def test_ulp_dip_calls_the_search(self, steps):
        # a linear table one ulp low at b=2: its increments rise once
        t = np.array([0.0, 1.0, np.nextafter(2.0, 0.0), 3.0])
        u = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        assert not falling(t)
        w = bestresponse._concave_maxplus(t, u)
        assert steps["searches"] == 1
        assert np.array_equal(w, bisection_maxplus_reference(t, u))

    def test_wide_windows_call_the_search(self, steps):
        # exact equal slopes tie every split of every row: windows that
        # large would cost more than the search
        t, u = np.arange(300) * 0.25, np.arange(600) * 0.25
        w = bestresponse._concave_maxplus(t, u)
        assert steps["searches"] == 1
        assert np.array_equal(w, u)

    def test_equal_slopes_merge_over_a_window(self, steps):
        # dt[0] = 1 + 2^-52 against du[0] = 1: within the margin, so row 1's
        # window holds both splits, and only the second reaches the maximum
        t = np.array([0.0, 1.0 + 2.0**-52, 1.5])
        u = np.array([0.0, 1.0, 2.0, 2.5])
        assert t[1] + u[0] > t[0] + u[1]
        w = bestresponse._concave_maxplus(t, u)
        assert steps["searches"] == 0
        assert np.array_equal(w, bruteforce_maxplus(t, u))
        assert w[1] == 1.0 + 2.0**-52

    @pytest.mark.parametrize("t, u", [
        ([-1.7e308, 1.7e308], [0.0, 1.0, 2.0]),
        ([0.0, 1.0, 2.0], [-1.7e308, 1.7e308]),
        ([np.inf, np.inf], [0.0, 1.0, 2.0]),
        ([0.0, 1.0], [np.inf, np.inf]),
    ], ids=["overflow-in-t", "overflow-in-u", "nan-in-t", "nan-in-u"])
    def test_non_finite_increments_call_the_search(self, steps, t, u):
        # an infinite increment makes the margin infinite; a NaN one must not
        # slip past the merge's checks from either side
        t, u = np.array(t), np.array(u)
        with np.errstate(over="ignore", invalid="ignore"):
            w = bestresponse._concave_maxplus(t, u)
            assert np.array_equal(w, bruteforce_maxplus(t, u))
        assert steps["searches"] == 1

    @pytest.mark.parametrize("t, u, w", [
        ([0.0, 1.0, 1.5], [0.0, 2.0, 4.0, 6.0], [0.0, 2.0, 4.0, 6.0]),
        ([0.0, 1.0, 1.5], [2.0, 2.25, 2.5, 2.75], [2.0, 3.0, 3.5, 3.75]),
        ([3.0], [0.0, 1.0], [3.0, 4.0]),
        ([0.0, 1.0], [5.0], [5.0]),
    ], ids=["no-spend-here", "all-spend-here-first", "one-entry-table", "one-entry-continuation"])
    def test_dominated_slopes_skip_the_search(self, steps, t, u, w):
        t, u = np.array(t), np.array(u)
        assert np.array_equal(bestresponse._concave_maxplus(t, u), w)
        assert steps["searches"] == 0


def test_search_shortfall_stays_within_its_bound():
    # rounded linear tables: the real sums are inverse Monge, the float sums
    # are not, and 71 of the 300 rows come back one ulp (2.2e-16) below their
    # float maximum. Every sum lies within d = eps * max|sum| of the real
    # ones, and _monotone_search promises at most 2d per level of its plan.
    t = LinearAdditiveRefund(0.5).share(np.arange(40) * 0.01, 1.0, 0.0)
    u = LinearAdditiveRefund(0.5).share(np.arange(300) * 0.01, 1.0, 0.0)
    w = bestresponse._monotone_search(t, u)
    k, b = np.arange(len(u))[:, None], np.arange(len(t))
    sums = np.where(b <= k, t[b] + u[k - np.minimum(b, k)], -np.inf)
    assert np.array_equal(sums.max(axis=1), bruteforce_maxplus(t, u))
    assert (sums == w[:, None]).any(axis=1).all(), "a row is not the sum of one split"
    d = np.finfo(float).eps * np.abs(sums.max(axis=1)).max()
    assert np.all(sums.max(axis=1) - w <= 2 * d * len(bestresponse._row_plan(len(u))))


@st.composite
def wide_views(draw):
    """Views with thousands of grid units, past what enumeration can check."""
    p = draw(st.integers(1, 6))
    floats = lambda lo, hi: st.lists(st.floats(lo, hi), min_size=p, max_size=p)
    remaining = draw(floats(0.0, 30.0))
    return ResidualView(
        agent=0,
        others_totals=draw(floats(0.0, 30.0)),
        remaining=remaining,
        budget=draw(st.floats(1.0, sum(remaining) + 5.0)),
        valuations=draw(floats(0.0, 40.0)),
        bonuses=draw(floats(0.0, 8.0)),
        scheme=draw(SCHEMES),
    )


@settings(max_examples=40, deadline=None)
@given(wide_views(), st.sampled_from([0.05, 0.02, 0.01]))
def test_halving_delta_never_loses_utility(view, delta):
    # every delta-grid response is on the delta/2 grid with the same float
    # values, so the finer optimum is at least as good up to the tie window
    coarse = best_response_exact(view, delta)
    fine = best_response_exact(view, delta / 2)
    assert fine.utility >= coarse.utility - UTILITY_TIE_TOL
    assert fine.utility == pytest.approx(response_utility(view, fine.contributions), abs=1e-9)


def test_fine_grid_response_earns_its_utility():
    instance, solution = sample_instance(SamplerConfig(n=100, p=10, seed=101), seed=(101, 0))
    profile = play(instance, Assignment.uniform(Heuristic.OPT_WELFARE, instance.n_agents),
                   solution.subset, thresholds(instance))
    view = make_view(instance, profile, 0)
    response = best_response_exact(view, 0.001)
    assert view.budget / 0.001 > 5000
    assert response.utility == response_utility(view, response.contributions)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), p=st.integers(1, 4),
       rules=st.lists(st.sampled_from(list(Heuristic)), min_size=6, max_size=6),
       order=st.sampled_from(PLAY_ORDERS), linear=st.booleans())
def test_outcome_utility_is_the_views_response_utility(seed, n, p, rules, order, linear):
    # clamped play-outs stop projects exactly at their targets, where the
    # outcome engine and a view judge funding by different sums
    rng = np.random.default_rng(seed)
    scheme = LinearAdditiveRefund(float(rng.uniform(0.05, 0.5))) if linear else PprRefund()
    instance = random_instance(rng, n=n, p=p, scheme=scheme)
    solution = solve_pstar_bruteforce(instance)
    profile = play(instance, Assignment(tuple(rules[:n])), solution.subset,
                   thresholds(instance), PlayOrder(order, seed=seed))
    outcome = evaluate(instance, profile)
    for agent in range(n):
        view = make_view(instance, profile, agent)
        assert outcome.agent_utilities[agent] == pytest.approx(
            response_utility(view, profile.contributions[agent]), abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), p=st.integers(1, 4),
       rules=st.lists(st.sampled_from(list(Heuristic)), min_size=6, max_size=6),
       order=st.sampled_from(PLAY_ORDERS), linear=st.booleans(),
       delta=st.sampled_from([1.0, 0.5, 0.1]))
def test_best_response_beats_own_play(seed, n, p, rules, order, linear, delta):
    # rounding each contribution down to the grid keeps it within the budget,
    # so the grid optimum is at least as good as the agent's own play
    rng = np.random.default_rng(seed)
    scheme = LinearAdditiveRefund(float(rng.uniform(0.05, 0.5))) if linear else PprRefund()
    instance = random_instance(rng, n=n, p=p, scheme=scheme)
    solution = solve_pstar_bruteforce(instance)
    profile = play(instance, Assignment(tuple(rules[:n])), solution.subset,
                   thresholds(instance), PlayOrder(order, seed=seed))
    for agent in range(n):
        view = make_view(instance, profile, agent)
        own = np.floor(profile.contributions[agent] / delta) * delta
        reached = best_response_exact(view, delta).utility
        assert reached >= response_utility(view, own) - UTILITY_TIE_TOL


class TestViewValidation:
    def _view(self, **changes):
        fields = dict(agent=0, others_totals=[1.0, 2.0], remaining=[3.0, 1.0], budget=2.0,
                      valuations=[4.0, 2.0], bonuses=[1.0, 1.0], scheme=PprRefund())
        return ResidualView(**{**fields, **changes})

    def test_nan_budget_is_named(self):
        with pytest.raises(ValueError, match="budget must be finite"):
            self._view(budget=float("nan"))

    def test_negative_bonus_is_named(self):
        with pytest.raises(ValueError, match="bonuses must be non-negative"):
            self._view(bonuses=[1.0, -0.5])

    def test_infinite_bonus_is_named(self):
        with pytest.raises(ValueError, match="bonuses must be finite"):
            self._view(bonuses=[float("inf"), 1.0])

    def test_nan_vector_entry_is_named(self):
        with pytest.raises(ValueError, match="others_totals must be finite"):
            self._view(others_totals=[1.0, float("nan")])


class TestBruteforceOracle:
    def test_two_project_linear_example(self):
        response = best_response_bruteforce(two_project_linear_view(), 1.0)
        assert response.contributions == pytest.approx([2.0, 0.0])
        assert response.utility == pytest.approx(1.0)

    def test_single_project_agrees_with_two_branch_analysis(self):
        view = ResidualView(0, np.array([5.0]), np.array([4.0]), 6.0,
                            np.array([6.0]), np.array([4.0]), PprRefund())
        assert best_response_bruteforce(view, 1.0).utility == pytest.approx(2.0)

    def test_enumeration_guard(self):
        view = ResidualView(0, np.zeros(4), np.full(4, 100.0), 400.0,
                            np.full(4, 120.0), np.ones(4), PprRefund())
        with pytest.raises(SolverError, match="enumeration guard"):
            best_response_bruteforce(view, 0.01)

    def test_randomized_equivalence_with_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            view = random_view(rng)
            exact = best_response_exact(view, 1.0)
            brute = best_response_bruteforce(view, 1.0)
            assert exact.utility == pytest.approx(brute.utility, abs=1e-9)
            assert np.array_equal(exact.contributions, brute.contributions)
            assert np.array_equal(exact.funded, brute.funded)

    def test_tie_heavy_integer_equivalence(self):
        # integer valuations, shortfalls and pools on a unit grid tie all the
        # time; both solvers must still land on the identical canonical profile
        rng = np.random.default_rng(78)
        for trial in range(800):
            p = int(rng.integers(1, 5))
            units = rng.integers(1, 6, size=p)
            view = ResidualView(
                0,
                rng.integers(0, 6, size=p).astype(float),
                units.astype(float),
                float(rng.integers(0, int(units.sum()) + 2)),
                rng.integers(0, 8, size=p).astype(float),
                rng.integers(1, 4, size=p).astype(float),
                LinearAdditiveRefund(0.5) if trial % 2 else PprRefund(),
            )
            exact = best_response_exact(view, 1.0)
            brute = best_response_bruteforce(view, 1.0)
            assert np.array_equal(exact.contributions, brute.contributions)
            assert exact.utility == pytest.approx(brute.utility, abs=1e-9)

    def test_identical_projects_tie_break_is_lexicographic(self):
        # funding either identical project yields the same utility; both
        # solvers must settle on the first one
        view = ResidualView(0, np.array([3.0, 3.0]), np.array([2.0, 2.0]), 2.0,
                            np.array([5.0, 5.0]), np.array([1.0, 1.0]), PprRefund())
        for solver in (best_response_exact, best_response_bruteforce):
            response = solver(view, 1.0)
            assert response.contributions == pytest.approx([2.0, 0.0])
            assert list(response.funded) == [True, False]

    def test_tie_break_minimizes_spend(self):
        # a worthless project whose refund never pays: spending zero ties with
        # any refund-free spend, and the thrifty profile wins
        view = ResidualView(0, np.array([0.0]), np.array([5.0]), 3.0,
                            np.array([0.0]), np.array([1.0]), LinearAdditiveRefund(0.1))
        shrunk = ResidualView(0, view.others_totals, view.remaining, 0.0,
                              view.valuations, view.bonuses, view.scheme)
        for solver in (best_response_exact, best_response_bruteforce):
            assert solver(shrunk, 1.0).contributions == pytest.approx([0.0])


class TestKnapsackFormOracle:
    def test_rejects_non_additive_scheme(self):
        view = random_view(np.random.default_rng(13), scheme=PprRefund())
        with pytest.raises(ValueError, match="sum-additive"):
            knapsack_form_oracle(view)

    def test_all_items_worthless_funds_nothing(self):
        # valuations below shortfalls make every item value negative; the whole
        # budget parks as refunds worth slope * budget
        view = ResidualView(0, np.zeros(2), np.array([4.0, 6.0]), 8.0,
                            np.array([1.0, 2.0]), np.ones(2), LinearAdditiveRefund(0.1))
        response = knapsack_form_oracle(view, 1.0)
        assert not response.funded.any()
        assert response.utility == pytest.approx(0.8)

    def test_single_item_beyond_budget_excluded(self):
        view = ResidualView(0, np.zeros(1), np.array([5.0]), 3.0,
                            np.array([50.0]), np.ones(1), LinearAdditiveRefund(0.1))
        response = knapsack_form_oracle(view, 1.0)
        assert not response.funded.any()

    def test_two_project_example_matches_exact(self):
        view = two_project_linear_view()
        oracle = knapsack_form_oracle(view, 1.0)
        exact = best_response_exact(view, 1.0)
        assert np.array_equal(oracle.funded, exact.funded)
        assert oracle.utility == pytest.approx(exact.utility, abs=1e-9)

    def test_randomized_equivalence_on_grid_aligned_views(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            view = random_view(
                rng, scheme=LinearAdditiveRefund(float(rng.uniform(0.02, 0.4))),
                grid_aligned=True,
            )
            oracle = knapsack_form_oracle(view, 1.0)
            exact = best_response_exact(view, 1.0)
            assert np.array_equal(oracle.funded, exact.funded)
            assert oracle.utility == pytest.approx(exact.utility, abs=1e-9)


class TestMakeView:
    def test_ignores_own_row(self):
        inst = Instance(
            [[6.0, 4.0], [6.0, 4.0]], [5.0, 5.0], [5.0, 3.0], [2.0, 1.0], PprRefund()
        )
        profile = ContributionProfile([[1.0, 0.5], [9.0, 9.0]])
        view = make_view(inst, profile, 1)
        assert view.others_totals == pytest.approx([1.0, 0.5])
        assert view.remaining == pytest.approx([4.0, 2.5])
        assert view.budget == 5.0

    @pytest.mark.parametrize("own", [[4.9, 0.0], [0.3, 2.2], [2.7, 3.1]])
    def test_own_row_leaves_no_trace(self, own):
        # summing every row and subtracting the agent's own cancels badly:
        # the others' 0.1 + 0.2 came back four ulps low with the own row at 4.9
        inst = Instance(
            [[6.0, 4.0], [3.0, 2.0], [1.0, 5.0]], [5.0, 1.0, 1.0], [4.0, 4.0], [2.0, 1.0],
            PprRefund(),
        )
        others = [[0.1, 0.3], [0.2, 0.7]]
        zero, played = (make_view(inst, [row, *others], 0) for row in ([0.0, 0.0], own))
        for name in ("others_totals", "remaining"):
            assert getattr(played, name).tobytes() == getattr(zero, name).tobytes()

    def test_view_owns_its_arrays(self):
        inst = Instance(
            [[6.0, 4.0], [6.0, 4.0]], [5.0, 5.0], [5.0, 3.0], [2.0, 1.0], PprRefund()
        )
        profile = ContributionProfile([[1.0, 0.5], [9.0, 9.0]])
        view = make_view(inst, profile, 1)
        sources = (inst.valuations, inst.budgets, inst.targets, inst.bonuses,
                   profile.contributions)
        for name in ("others_totals", "remaining", "valuations", "bonuses"):
            assert not any(np.shares_memory(getattr(view, name), s) for s in sources), name

    def test_other_rows_must_keep_within_budget(self):
        inst = Instance(
            [[6.0, 4.0], [6.0, 4.0]], [5.0, 5.0], [5.0, 3.0], [2.0, 1.0], PprRefund()
        )
        with pytest.raises(ValueError, match="agent 0 spends 6, exceeding its budget 5"):
            make_view(inst, [[3.0, 3.0], [0.0, 0.0]], 1)
        # within the budget comparison's tolerance the row still counts as feasible
        assert make_view(inst, [[3.0, 2.0 + 5e-10], [0.0, 0.0]], 1).budget == 5.0

    def test_overfunded_project_clamps_to_zero(self):
        inst = Instance(
            [[6.0, 4.0], [6.0, 4.0]], [9.0, 5.0], [5.0, 3.0], [2.0, 1.0], PprRefund()
        )
        view = make_view(inst, ContributionProfile([[6.0, 0.0], [0.0, 0.0]]), 1)
        assert view.remaining[0] == 0.0


class TestDiscontinuity:
    def test_strictly_increasing_utilities(self):
        instance = build_example2(PprRefund(), 6.0, 10.0)
        report = demonstrate_nonexistence(instance, (0.1, 0.01, 0.001))
        assert report.strictly_increasing
        assert report.all_exceed_funded
        assert not report.sup_attained

    def test_funded_utility_is_valuation_minus_budget(self):
        instance = build_example2(PprRefund(), 6.0, 10.0)
        report = demonstrate_nonexistence(instance, (0.1, 0.01))
        assert report.funded_utility == pytest.approx(
            6.0 - float(instance.budgets[1]), abs=1e-9
        )

    def test_gap_is_two_pools_plus_refund_drop(self):
        instance = build_example2(PprRefund(), 6.0, 10.0)
        report = demonstrate_nonexistence(instance, (0.1, 0.01))
        bonus = float(instance.bonuses[0])
        g2 = float(instance.budgets[1])
        expected_limit = 2.0 * bonus + g2 / 10.0 * bonus
        assert report.limit_utility == pytest.approx(expected_limit, abs=1e-6)
        assert report.gap == pytest.approx(expected_limit - report.funded_utility, abs=1e-6)
        assert report.gap > 0

    def test_wrong_family_rejected(self):
        inst = Instance([[6.0, 4.0]], [3.0], [5.0, 3.0], [1.0, 1.0], PprRefund())
        with pytest.raises(ValueError, match="2 agents and 3 projects"):
            demonstrate_nonexistence(inst, (0.1,))

    def test_epsilons_must_decrease(self):
        instance = build_example2(PprRefund(), 6.0, 10.0)
        with pytest.raises(ValueError, match="decreasing"):
            demonstrate_nonexistence(instance, (0.01, 0.1))
