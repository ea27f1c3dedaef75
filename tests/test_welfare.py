import bisect
import itertools
import math
import tracemalloc
from unittest import mock

import mitm_reference
import numpy as np
import pareto_reference
import pytest
from conftest import random_instance
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ccfund import (
    Instance,
    PprRefund,
    SolverError,
    solve_pstar_bruteforce,
    solve_pstar_dp,
    solve_subset_bruteforce,
    solve_subset_dp,
    welfare_of,
)
from ccfund import generators, welfare
from ccfund.generators import SamplerConfig, ValuationDist, sample_instance
from ccfund.welfare import (
    _MASK_BITS,
    _PRUNE_SLACK,
    TIE_TOL,
    _ParetoReader,
    _pareto_list,
    _prune,
    _subset_stats,
)


def reference_enumeration(values, costs, capacity):
    """Independent oracle: plain itertools enumeration with the shared tie-break.

    Returns the subset, its welfare and cost, and how many affordable subsets
    tie the optimum within ``TIE_TOL``.
    """
    p = len(values)
    affordable = []
    for r in range(p + 1):
        for combo in itertools.combinations(range(p), r):
            cost = sum(costs[j] for j in combo)
            if cost <= capacity + 1e-9:
                affordable.append((combo, sum(values[j] for j in combo), cost))
    best = max(welfare for _, welfare, _ in affordable)
    tied = [entry for entry in affordable if entry[1] >= best - TIE_TOL]
    subset, welfare, cost = min(tied, key=lambda entry: (len(entry[0]), entry[0]))
    return subset, welfare, cost, len(tied)


def assert_matches_reference(values, costs, capacity):
    sol = solve_subset_bruteforce(values, costs, capacity)
    subset, welfare, cost, ties = reference_enumeration(values, costs, capacity)
    assert sol.subset == subset
    assert sol.unique == (ties == 1)
    assert sol.welfare == pytest.approx(welfare, abs=1e-9)
    assert sol.cost == pytest.approx(cost, abs=1e-9)


class TestBruteforce:
    def test_hand_traced_example(self):
        # totals (10, 8, 6), targets (5, 6, 2), pooled budget 8:
        # affordable subsets peak at {first, third} with welfare 5 + 4 = 9
        inst = Instance(
            [[10.0, 8.0, 6.0]], [8.0], [5.0, 6.0, 2.0], [5.0, 2.0, 4.0], PprRefund()
        )
        sol = solve_pstar_bruteforce(inst)
        assert sol.subset == (0, 2)
        assert sol.welfare == pytest.approx(9.0)
        assert sol.cost == pytest.approx(7.0)
        assert sol.unique

    def test_nothing_affordable(self):
        inst = Instance([[10.0, 8.0]], [0.5], [5.0, 6.0], [5.0, 2.0], PprRefund())
        sol = solve_pstar_bruteforce(inst)
        assert sol.subset == ()
        assert sol.welfare == 0.0

    def test_worked_example_numbers(self):
        inst = Instance(
            [[10.9, 0.0], [1.089, 1.9]],
            [9.91, 0.99],
            [10.0, 0.99],
            [1.0, 0.91],
            PprRefund(),
        )
        sol = solve_pstar_bruteforce(inst)
        assert sol.subset == (0,)
        assert sol.welfare == pytest.approx(1.989)

    def test_enumeration_guard(self):
        # superincreasing items: every subset is on the Pareto front, so the
        # list doubles with each item until the row guard refuses it
        items = np.exp2(np.arange(24))
        with pytest.raises(SolverError, match=r"^131072 subsets .* list guard of 65536 rows"):
            solve_subset_bruteforce(items, items, 1e6)

    def test_identical_projects_past_25_solve(self):
        # equal rows merge, so the list holds one row per size
        sol = solve_subset_bruteforce(np.ones(60), np.ones(60), 30.0)
        assert sol.subset == tuple(range(30))
        assert sol.unique is False

    @pytest.mark.parametrize("capacity, subset", [(1.0, (0, 53)), (2.0, (0, 53, 54))])
    def test_tie_decided_on_items_past_52(self, capacity, subset):
        # the free item 0 and four tied items from 53 on: one float rank over
        # 60 items cannot tell 2^59 + 2^6 from 2^59 + 2^5, two mask columns can
        values, costs = np.zeros(60), np.ones(60)
        values[[0, 53, 54, 55, 56]] = 1.0
        costs[0] = 0.0
        sol = solve_subset_bruteforce(values, costs, capacity)
        assert sol.subset == subset
        assert not sol.unique

    def test_matches_reference_enumeration(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            p = int(rng.integers(1, 9))
            values = rng.uniform(0.1, 10.0, size=p)
            costs = rng.uniform(0.1, 10.0, size=p)
            capacity = float(rng.uniform(0.0, costs.sum()))
            assert_matches_reference(values, costs, capacity)

    def test_pair_sum_on_the_capacity_boundary_fits(self):
        # 1e-9 + 1.55e-209 rounds to 1e-9 = capacity + TOL, so {1, 6} fits,
        # though its last cost exceeds the rounded room (0 + TOL) - 1e-9 = 0
        costs = [0.0, 1e-9, 0.0, 0.0, 0.0, 0.0, 1.551300264280939e-209]
        values = [0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0]
        assert_matches_reference(np.array(values), np.array(costs), 0.0)
        assert solve_subset_bruteforce(values, costs, 0.0).subset == (1, 6)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 9).flatmap(
            lambda p: st.tuples(
                st.lists(st.floats(-5.0, 10.0), min_size=p, max_size=p),
                st.lists(st.floats(0.0, 10.0), min_size=p, max_size=p),
            )
        ),
        st.one_of(st.just(0.0), st.floats(0.0, 60.0)),
    )
    # the last item's value is the tie window itself: differently ordered
    # sums disagree on whether it improves on (0, 1, 2, 3, 4) or ties it
    @example(
        items=([1.089, 2.972723409677476, 2.032680191796007, 10.0, 0.16892877393481334, 1e-09],
               [0.0] * 6),
        capacity=0.0,
    )
    def test_property_matches_reference(self, items, capacity):
        values, costs = items
        assert_matches_reference(np.array(values), np.array(costs), capacity)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 9).flatmap(
            lambda p: st.tuples(
                st.lists(st.integers(-2, 3), min_size=p, max_size=p),
                st.lists(st.integers(0, 3), min_size=p, max_size=p),
            )
        ),
        st.integers(0, 12),
    )
    def test_property_tie_heavy_integers(self, items, capacity):
        # small integers tie constantly, so this hammers the tie count and
        # the fewest-projects-then-lexicographic tie-break
        values, costs = items
        assert_matches_reference(
            np.array(values, dtype=float), np.array(costs, dtype=float), float(capacity)
        )

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(13, 25).flatmap(
            lambda p: st.tuples(
                st.lists(st.floats(-1.0, 10.0), min_size=p, max_size=p),
                st.lists(st.integers(1, 20), min_size=p, max_size=p),
            )
        ),
        st.floats(0.0, 1.0),
    )
    def test_property_matches_exact_dp_on_integer_costs(self, items, fraction):
        # at resolution 1 integer costs never round, so the DP is exact
        values = np.array(items[0])
        costs = np.array(items[1], dtype=float)
        capacity = float(np.floor(fraction * costs.sum()))
        assert solve_subset_dp(values, costs, capacity, 1.0) == (
            solve_subset_bruteforce(values, costs, capacity))

    def test_all_tied_worst_case_memory_is_bounded(self):
        # every subset of the capacity's size ties; equal rows merge, so the
        # peak stays far below one array over all 2^p subsets (32 MB at p=22)
        for p, capacity in ((22, 11), (25, 12)):
            tracemalloc.start()
            try:
                sol = solve_subset_bruteforce(np.ones(p), np.ones(p), float(capacity))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert sol.subset == tuple(range(capacity))
            assert not sol.unique
            assert peak < 16 << 20

    def test_nothing_fits_a_negative_capacity(self):
        with pytest.raises(SolverError, match="no subset fits"):
            solve_subset_bruteforce(np.ones(3), np.ones(3), -1.0)

    def test_nan_capacity_is_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            solve_subset_bruteforce(np.ones(3), np.ones(3), float("nan"))


def item_sets(max_p=9):
    return st.integers(0, max_p).flatmap(
        lambda p: st.tuples(
            st.lists(st.floats(-5.0, 10.0), min_size=p, max_size=p),
            st.lists(st.floats(0.0, 10.0), min_size=p, max_size=p),
        )
    )


class TestTableMemo:
    @settings(max_examples=200, deadline=None)
    @given(item_sets(), item_sets(), st.lists(st.floats(0.0, 60.0), min_size=1, max_size=6))
    def test_interleaved_solves_match_fresh_ones(self, first, second, capacities):
        # two item sets solved in turn answer as each set's solves alone:
        # no solve keeps state for the next
        sets = [tuple(np.array(side) for side in items) for items in (first, second)]
        fresh = []
        for capacity in capacities:
            for values, costs in sets:
                fresh.append(solve_subset_bruteforce(values, costs, capacity))
        interleaved = [
            solve_subset_bruteforce(values, costs, capacity)
            for capacity in capacities
            for values, costs in sets
        ]
        assert interleaved == fresh

    @settings(max_examples=200, deadline=None)
    @given(item_sets(), st.lists(st.one_of(st.floats(-5.0, 60.0), st.sampled_from(
        [math.inf, -math.inf])), min_size=1, max_size=6))
    def test_reader_answers_as_fresh_solves(self, items, capacities):
        # one reader, read at rising, falling, repeated and infinite capacities
        values, costs = (np.array(side) for side in items)
        reader = _ParetoReader(values, costs)
        for capacity in [*sorted(capacities), *sorted(capacities, reverse=True), *capacities * 2]:
            try:
                fresh = solve_subset_bruteforce(values, costs, capacity)
            except SolverError:
                with pytest.raises(SolverError, match="no subset fits"):
                    reader.read(capacity)
                continue
            read = reader.read(capacity)
            assert (read.subset, read.welfare.hex(), read.cost.hex(), read.unique) == (
                fresh.subset, fresh.welfare.hex(), fresh.cost.hex(), fresh.unique)
        with pytest.raises(ValueError, match="capacity"):
            reader.read(math.nan)

    def test_one_list_per_reader_and_per_sampler_attempt(self, monkeypatch):
        builds, draws = [], []
        for module, name, seen in ((welfare, "_pareto_list", builds),
                                   (generators, "_draw_game", draws)):
            real = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *args, real=real, seen=seen: seen.append(1) or real(*args))
        reader = _ParetoReader(np.array([3.0, -1.0, 2.0, 5.0]), np.array([1.0, 2.0, 3.0, 4.0]))
        assert not builds
        assert [reader.read(c).subset for c in (5.0, 2.0, 5.0, 10.0, 9.5)] == [
            (0, 3), (0,), (0, 3), (0, 2, 3), (0, 2, 3)]
        assert len(builds) == 1
        builds.clear()
        for k in range(20):
            sample_instance(SamplerConfig(n=20, p=6), seed=(3, k))
        # valuations this small break the deficit at every lift, so each
        # attempt draws again with a list of its own
        tiny = SamplerConfig(n=6, p=3, valuation_dist=ValuationDist(hi=1e-10), max_rejections=5)
        with pytest.raises(SolverError, match="the lift broke the deficit: 5"):
            sample_instance(tiny)
        assert len(builds) == len(draws) == 25

    def test_lift_reads_the_list_at_most_1_6_times_per_sample(self, monkeypatch):
        # the lift loop's capacities mostly fit no new row: n=100, p=18 took
        # 2.55 reads per sample when each round re-read the list. Each read
        # sums its answer's items once
        reads = []
        real = welfare._subset_stats
        monkeypatch.setattr(welfare, "_subset_stats", lambda *args: reads.append(1) or real(*args))
        cfg = SamplerConfig(n=100, p=18)
        for k in range(40):
            sample_instance(cfg, seed=(11, k))
        assert len(reads) <= 1.6 * 40

    @pytest.mark.parametrize("size", [0, 3, 8, 9, 31])
    def test_subset_stats_sum_as_numpy_sums_each_side(self, size):
        # numpy sums 8 items or more in eight interleaved partial sums, not as a left fold
        rng = np.random.default_rng(size)
        values, costs = rng.normal(0.0, 1e3, 40), rng.uniform(0.0, 1e3, 40)
        folds_differ = False
        for _ in range(20):
            subset = tuple(sorted(rng.choice(40, size, replace=False).tolist()))
            got = _subset_stats(np.stack((values, costs)), subset)
            want = [float(side[list(subset)].sum()) for side in (values, costs)]
            assert [x.hex() for x in got] == [x.hex() for x in want]
            folds_differ |= got[0] != sum(values[j] for j in subset)
        assert folds_differ == (size >= 8)


def pruning_margin(values):
    """The list's margin as documented: TIE_TOL + c·p·eps·sum|v|."""
    magnitude = sum(map(abs, values))
    return magnitude, TIE_TOL + _PRUNE_SLACK * len(values) * math.ulp(1.0) * magnitude


def near_pareto_reference(values, costs):
    """Every subset's index-order folds, and the rows a Pareto list must hold.

    Returns the (value, cost) folds of each subset, the best value within a
    cost, and, per (value, cost) of a subset that the tie window holds at a
    capacity equal to its cost, how many subsets share it (capped at 2) and
    the least (size, indices) among them.
    """
    p = len(values)
    sums = {}
    for r in range(p + 1):
        for combo in itertools.combinations(range(p), r):
            value = cost = 0.0
            for j in combo:
                value += values[j]
                cost += costs[j]
            sums[combo] = (value, cost)
    by_cost = sorted(cost for _, cost in sums.values())
    running_max = list(itertools.accumulate(
        (value for value, _ in sorted(sums.values(), key=lambda vc: vc[1])), max))

    def best_within(cost):
        return running_max[bisect.bisect_right(by_cost, cost) - 1]

    classes = {}
    for combo, (value, cost) in sums.items():
        if value >= best_within(cost) - TIE_TOL:
            count, key = classes.get((value, cost), (0, (len(combo), combo)))
            classes[value, cost] = min(count + 1, 2), min(key, (len(combo), combo))
    return sums, best_within, classes


@st.composite
def margin_edges(draw):
    """Item sets holding subsets just inside and just outside the pruning margin.

    Each item of one block of the items is worth nothing except one free
    item x, worth the margin give or take a few ulps; each subset without x
    then trails the same subset with x by exactly that worth. The other
    items are random.
    """
    p = draw(st.integers(2, 10))
    half = p // 2
    crafted = range(half) if draw(st.booleans()) else range(half, p)
    values, costs = [0.0] * p, [0.0] * p
    for j in range(p):
        if j in crafted:
            costs[j] = float(draw(st.integers(0, 2)))
        else:
            values[j] = draw(st.floats(-5.0, 10.0))
            costs[j] = draw(st.floats(0.0, 10.0))
    x = draw(st.sampled_from(crafted))
    costs[x] = 0.0
    # the worth that equals the margin it enters, then a few ulps either way
    for _ in range(4):
        values[x] = pruning_margin(values)[1]
    step = draw(st.integers(-3, 3))
    for _ in range(abs(step)):
        values[x] = math.nextafter(values[x], math.copysign(math.inf, step))
    return values, costs


def sampler_items(p, seed):
    """The deficit sampler's items: value ϑ − target, cost target."""
    rng = np.random.default_rng(seed)
    vartheta = rng.uniform(0.0, 10.0, size=(100, p)).sum(axis=0)
    targets = rng.uniform(0.3, 0.7, size=p) * vartheta
    return vartheta - targets, targets


#: Row caps under test: a prune after every item, and the solver's own.
CAPS = (2, welfare._ROW_CAP)


class TestParetoList:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(
        item_sets(10),
        st.integers(0, 10).flatmap(lambda p: st.tuples(
            st.lists(st.integers(-2, 3).map(float), min_size=p, max_size=p),
            st.lists(st.integers(0, 3).map(float), min_size=p, max_size=p),
        )),
        margin_edges(),
    ))
    def test_rows_are_folds_and_hold_every_tie_window(self, items):
        values, costs = items
        sums, best_within, classes = near_pareto_reference(values, costs)
        margin = pruning_margin(values)[1]
        for cap in CAPS:
            with mock.patch.object(welfare, "_ROW_CAP", cap):
                columns = _pareto_list(np.array(values), np.array(costs))
            value, cost, count, size, *masks = (column.tolist() for column in columns)
            rows = {}
            for r in range(len(value)):
                bits = "".join(format(int(-mask[r]), f"0{_MASK_BITS}b") for mask in masks)
                combo = tuple(j for j, bit in enumerate(bits) if bit == "1")
                # each row is its subset's index-order folds, bit for bit
                assert size[r] == len(combo)
                assert (value[r].hex(), cost[r].hex()) == tuple(x.hex() for x in sums[combo])
                # no subset that costs no more beats it by more than the margin
                assert value[r] >= best_within(cost[r]) - margin
                assert (value[r], cost[r]) not in rows
                rows[value[r], cost[r]] = count[r], (size[r], combo)
            # every (value, cost) a tie window can hold is one row, with its
            # subsets' count and least key
            for vc, entry in classes.items():
                assert rows[vc] == entry

    @settings(max_examples=200, deadline=None)
    @given(margin_edges(), st.one_of(st.just(0.0), st.floats(0.0, 40.0)))
    # {0, 1} beats {0} by 6e-16 more than TIE_TOL, yet (0, 3, 4) and
    # (0, 1, 3, 4) tie by index-order sums: pruned after every item, a margin
    # of TIE_TOL alone drops {0} and with it the answer
    @example(items=([6.38863107796819, 1.0000006258966746e-09, -0.493587815133806,
                     9.606327068937661, 4.749445893487075], [0.0] * 5), capacity=2.0)
    def test_margin_edges_match_reference(self, items, capacity):
        values, costs = items
        for cap in CAPS:
            with mock.patch.object(welfare, "_ROW_CAP", cap):
                assert_matches_reference(np.array(values), np.array(costs), capacity)

    @settings(max_examples=12, deadline=None)
    @given(
        st.integers(13, 25).flatmap(lambda p: st.one_of(
            st.integers(0, 2**32 - 1).map(lambda seed: sampler_items(p, seed)),
            st.tuples(
                st.lists(st.integers(-2, 3).map(float), min_size=p, max_size=p),
                st.lists(st.integers(0, 3).map(float), min_size=p, max_size=p),
            ),
        )),
        st.floats(0.0, 1.0),
    )
    def test_matches_meet_in_the_middle(self, items, fraction):
        values, costs = (np.array(side) for side in items)
        capacity = float(fraction * costs.sum())
        assert solve_subset_bruteforce(values, costs, capacity) == (
            mitm_reference.solve_subset_bruteforce(values, costs, capacity))


@st.composite
def list_cases(draw):
    """Items for the list against its oracle, with a DP cutoff or none.

    Small whole numbers tie constantly, reach zero and go negative; copies
    repeat (value, cost) pairs; signed zeros and random floats mix; margin
    edges put rows a few ulps either side of the pruning margin; values near
    1e308 overflow sum|v|, so nothing is pruned. Up to 50 whole-number items
    reach the second mask column and its ``lexsort``.
    """
    kind = draw(st.sampled_from(["whole", "copies", "floats", "edges", "overflow"]))
    if kind == "edges":
        values, costs = draw(margin_edges())
    elif kind == "whole":
        p = draw(st.one_of(st.integers(0, 12), st.integers(46, 50)))
        values = draw(st.lists(st.integers(-2, 3).map(float), min_size=p, max_size=p))
        costs = draw(st.lists(st.integers(0, 3).map(float), min_size=p, max_size=p))
    elif kind == "copies":
        pairs = draw(st.lists(st.tuples(st.floats(-5.0, 10.0), st.floats(0.0, 10.0)),
                              min_size=1, max_size=4))
        picks = draw(st.lists(st.sampled_from(pairs), max_size=12))
        values, costs = [v for v, _ in picks], [c for _, c in picks]
    elif kind == "floats":
        p = draw(st.integers(0, 12))
        some = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-5.0, 10.0))
        values = draw(st.lists(some, min_size=p, max_size=p))
        costs = draw(st.lists(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.0, 10.0)),
                              min_size=p, max_size=p))
    else:
        p = draw(st.integers(2, 10))
        values = draw(st.lists(st.sampled_from([1e308, -1e308, 1.5e308, 0.0, 1.0]),
                               min_size=p, max_size=p))
        values[:2] = [1e308, 1e308]
        costs = draw(st.lists(st.integers(0, 3).map(float), min_size=p, max_size=p))
    cutoff = draw(st.one_of(st.just(math.inf), st.integers(0, 20)))
    return np.array(values, dtype=float), np.array(costs, dtype=float), cutoff


class TestParentList:
    @settings(max_examples=300, deadline=None)
    @given(list_cases())
    def test_columns_match_the_parent_builder_bit_for_bit(self, case):
        values, costs, cutoff = case
        for cap in (2, 8, 128):
            with mock.patch.object(welfare, "_ROW_CAP", cap), np.errstate(over="ignore"):
                got = _pareto_list(values, costs, cutoff)
                want = pareto_reference.pareto_list(values, costs, cutoff, row_cap=cap)
            assert len(got) == len(want)
            for column, reference in zip(got, want):
                assert column.view(np.int64).tolist() == reference.view(np.int64).tolist()


def mask_of(subset):
    """One mask column's value for a subset of the first 48 items."""
    return -float(sum(1 << (_MASK_BITS - 1 - j) for j in subset))


class TestTieKey:
    def test_each_run_keeps_the_fewest_items_then_the_least_indices(self):
        # rows of (cost, minus value, count, size, mask), three runs of equal
        # cost and value. Each survivor has the least (size, mask) of its run:
        # {17} has fewer items than {0, 1} and {0, 2} but a larger mask offset,
        # so a key without the size shift picks {0, 1}; {0} beats {5} on its
        # mask alone; all 48 items have offset 1, {47} offset 2^48 - 1, the
        # empty subset 2^48. Without the 2^48 offset, OR-ing a negative mask
        # into the size bits gives {0, 1} and all 48 items the least keys
        runs = [
            (1.0, [(17,), (0, 1), (0, 2)]),
            (2.0, [(5,), (0,)]),
            (3.0, [tuple(range(48)), (47,)]),
            (4.0, [(47,), ()]),
        ]
        rows = np.array([(cost, -cost, 1.0, len(subset), mask_of(subset))
                         for cost, subsets in runs for subset in subsets])
        kept = _prune(rows, 0.0, math.inf)
        assert kept.tolist() == [
            [1.0, -1.0, 2.0, 1.0, mask_of((17,))],
            [2.0, -2.0, 2.0, 1.0, mask_of((0,))],
            [3.0, -3.0, 2.0, 1.0, mask_of((47,))],
            [4.0, -4.0, 2.0, 0.0, mask_of(())],
        ]

    def test_two_mask_columns_keep_the_lexsort(self):
        # the same ties past 48 items: {48} has one item, {0, 1} two
        rows = np.array([(1.0, -1.0, 1.0, 2.0, mask_of((0, 1)), 0.0),
                         (1.0, -1.0, 1.0, 1.0, 0.0, mask_of((0,)))])
        assert _prune(rows, 0.0, math.inf).tolist() == [[1.0, -1.0, 2.0, 1.0, 0.0, mask_of((0,))]]


class TestTieWindow:
    @pytest.mark.parametrize("values, costs, capacity, subset", [
        # the two singletons differ by less than TIE_TOL, so they tie
        ((1.0, 1.0 + 5e-10), (1.0, 1.0), 1.0, (0,)),
        # the 1e-12 item adds only noise, so the fewest projects win
        ((0.0,) * 11 + (1e-12, 1.0), (1.0,) * 13, 13.0, (12,)),
        # each item alone sits inside the window of the empty subset, but
        # both together do not: the pair is best and ties both singletons
        ((6e-10, 6e-10), (1.0, 1.0), 2.0, (0,)),
        # the same chain beside a larger item
        ((1.0, 6e-10, 6e-10), (1.0, 1.0, 1.0), 3.0, (0, 1)),
    ], ids=["near-tied-singletons", "noise-item", "near-tie-chain", "near-tie-chain-beside-larger"])
    def test_both_solvers_share_one_tie_window(self, values, costs, capacity, subset):
        for sol in (solve_subset_bruteforce(values, costs, capacity),
                    solve_subset_dp(values, costs, capacity, 1.0)):
            assert sol.subset == subset
            assert not sol.unique


def quantized(costs, capacity, resolution):
    """Costs rounded up to whole units of ``resolution`` (at least one) and
    the capacity rounded down, as the DP documents."""
    units = [float(max(math.ceil(c / resolution - 1e-9), 1)) for c in costs]
    return units, float(max(math.floor(capacity / resolution + 1e-9), 0))


@st.composite
def dp_cases(draw):
    """Values, costs, capacity and resolution for the DP against the enumeration."""
    p = draw(st.integers(0, 14))
    if draw(st.booleans()):
        # small integers and halves tie constantly; at resolution 1 the
        # half-unit costs round up
        resolution = draw(st.sampled_from([1.0, 0.5]))
        values = [float(v) for v in draw(st.lists(st.integers(-2, 3), min_size=p, max_size=p))]
        costs = [k / 2 for k in draw(st.lists(st.integers(0, 8), min_size=p, max_size=p))]
    else:
        resolution = draw(st.sampled_from([0.01, 0.1]))
        values = draw(st.lists(st.floats(-5.0, 10.0), min_size=p, max_size=p))
        # costs on a grid multiple, one ulp either side of one, or anywhere
        on_grid = st.builds(
            lambda k, side: float(np.nextafter(k * resolution, side * np.inf)) if side
            else k * resolution,
            st.integers(0, 400), st.sampled_from([-1, 0, 1]),
        )
        costs = draw(st.lists(st.one_of(on_grid, st.floats(0.0, 10.0)), min_size=p, max_size=p))
    below_every_cost = min(costs, default=0.0) * draw(st.floats(0.0, 0.999))
    capacity = draw(st.one_of(st.just(0.0), st.just(below_every_cost),
                              st.floats(0.0, sum(costs) + 1.0)))
    return np.array(values), np.array(costs), capacity, resolution


class TestDp:
    @pytest.mark.parametrize("resolution", [0.0, -0.01, math.inf, math.nan])
    def test_bad_resolution_is_named(self, resolution):
        with pytest.raises(ValueError, match="resolution must be positive and finite"):
            solve_subset_dp(np.ones(3), np.ones(3), 2.0, resolution)

    @pytest.mark.parametrize("capacity", [math.inf, -math.inf, math.nan])
    def test_non_finite_capacity_is_named(self, capacity):
        with pytest.raises(ValueError, match="capacity must be finite"):
            solve_subset_dp(np.ones(3), np.ones(3), capacity, 0.01)

    def test_matches_bruteforce_on_hand_example(self):
        inst = Instance(
            [[10.0, 8.0, 6.0]], [8.0], [5.0, 6.0, 2.0], [5.0, 2.0, 4.0], PprRefund()
        )
        assert solve_pstar_dp(inst, 0.01) == solve_pstar_bruteforce(inst)

    def test_single_affordable_project(self):
        inst = Instance([[10.0]], [6.0], [5.0], [5.0], PprRefund())
        sol = solve_pstar_dp(inst, 0.01)
        assert sol.subset == (0,)

    def test_tie_break_picks_lowest_index(self):
        # identical values and costs, capacity admits exactly one project
        sol = solve_subset_dp(np.array([2.0, 2.0, 2.0]), np.array([3.0, 3.0, 3.0]), 3.0, 0.01)
        assert sol.subset == (0,)
        assert not sol.unique
        bf = solve_subset_bruteforce(np.array([2.0, 2.0, 2.0]), np.array([3.0, 3.0, 3.0]), 3.0)
        assert bf.subset == (0,)
        assert not bf.unique

    def test_cardinality_precedes_lexicographic(self):
        values = np.array([1.0, 1.0, 2.0])
        costs = np.array([1.0, 1.0, 2.0])
        for solver in (
            lambda: solve_subset_bruteforce(values, costs, 2.0),
            lambda: solve_subset_dp(values, costs, 2.0, 0.01),
        ):
            sol = solver()
            assert sol.subset == (2,)  # same welfare as {0, 1} but fewer projects
            assert not sol.unique

    def test_quantization_is_conservative(self):
        # cost 1.001 rounds up to 1.01 at resolution 0.01, so capacity 1.005 rejects it
        sol = solve_subset_dp(np.array([5.0]), np.array([1.001]), 1.005, 0.01)
        assert sol.subset == ()

    @settings(max_examples=300, deadline=None)
    @given(dp_cases())
    # sub-window values that chain: all three items are best, and every pair ties them
    @example(case=(np.array([6e-10, 9e-10, 9e-10]), np.array([1.0, 3.0, 2.0]), 6.9, 1.0))
    def test_property_matches_quantized_enumeration(self, case):
        # the DP's answer is the enumeration's over whole units; its welfare
        # and cost are that subset's sums over the given costs
        values, costs, capacity, resolution = case
        sol = solve_subset_dp(values, costs, capacity, resolution)
        subset, _, _, ties = reference_enumeration(
            values, *quantized(costs, capacity, resolution))
        assert sol.subset == subset
        assert sol.unique == (ties == 1)
        welfare, cost = (float(side[list(subset)].sum()) for side in (values, costs))
        assert np.float64(sol.welfare).tobytes() == np.float64(welfare).tobytes()
        assert np.float64(sol.cost).tobytes() == np.float64(cost).tobytes()

    def test_rows_hold_breakpoints_not_budget_units(self):
        # about 1e6 budget units: full rows would take well over 100 MB, the
        # list holds at most one row per subset of the 10 items
        rng = np.random.default_rng(41)
        values = rng.uniform(0.1, 10.0, size=10)
        costs = rng.integers(10_000, 300_000, size=10).astype(float)
        tracemalloc.start()
        try:
            sol = solve_subset_dp(values, costs, 1e6, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert sol == solve_subset_bruteforce(values, costs, 1e6)

    def test_memory_guard_reports_size(self):
        with pytest.raises(SolverError, match="cells"):
            solve_subset_dp(np.ones(3), np.ones(3), 1e9, 0.001)

    def test_equal_ratio_items_past_the_list_guard(self):
        # subset-sum items: each subset is worth its cost, so the list holds a
        # row per reachable cost. Uncut, that is more rows than the list guard
        # allows; cut at the capacity, the guard grows to cap_q + 1 rows
        rng = np.random.default_rng(43)
        costs = rng.integers(1, 100_000, size=18).astype(float)
        capacity = float(np.floor(costs.sum() / 2))
        assert capacity > 1 << 16
        with pytest.raises(SolverError, match="list guard of 65536 rows"):
            solve_subset_bruteforce(costs, costs, capacity)
        assert solve_subset_dp(costs, costs, capacity, 1.0) == (
            mitm_reference.solve_subset_bruteforce(costs, costs, capacity))
        # the DP's cut list holds no row that costs more than the capacity
        assert _pareto_list(costs, costs, int(capacity))[1].max() <= capacity

    def test_cut_list_guard_names_its_size(self):
        # equal rows merge only at a prune, so the fourth row trips a guard
        # of max(2, cap_q + 1) = 3 rows
        with mock.patch.object(welfare, "_ROW_GUARD", 2), pytest.raises(
                SolverError, match=r"^4 subsets after 2 of 3 projects exceed the list guard of 3 rows$"):
            solve_subset_dp(np.ones(3), np.ones(3), 2.0, 1.0)

    def test_cost_past_int64_never_fits(self):
        # 1e20 units lie past any int64; the cost still rounds up past the capacity
        assert solve_subset_dp([5.0], [1e20], 10.0, 1.0).subset == ()

    def test_randomized_oracle_equivalence(self):
        # costs sit on the quantization grid so rounding never flips
        # feasibility; values stay continuous
        rng = np.random.default_rng(9)
        for _ in range(500):
            p = int(rng.integers(1, 13))
            values = rng.uniform(0.1, 10.0, size=p)
            costs = rng.integers(50, 800, size=p) * 0.01
            capacity = float(rng.uniform(0.0, costs.sum() * 0.9))
            bf = solve_subset_bruteforce(values, costs, capacity)
            dp = solve_subset_dp(values, costs, capacity, 0.01)
            assert dp.subset == bf.subset
            assert dp.welfare == pytest.approx(bf.welfare, abs=1e-9)

    def test_tie_heavy_integer_equivalence(self):
        # small integer values and costs tie constantly, hammering the
        # canonical reconstruction (welfare, then cardinality, then index order)
        rng = np.random.default_rng(77)
        for _ in range(800):
            p = int(rng.integers(1, 9))
            values = rng.integers(1, 5, size=p).astype(float)
            costs = rng.integers(1, 5, size=p).astype(float)
            capacity = float(rng.integers(0, int(costs.sum()) + 2))
            bf = solve_subset_bruteforce(values, costs, capacity)
            dp = solve_subset_dp(values, costs, capacity, 0.5)
            assert bf.subset == dp.subset
            assert bf.welfare == pytest.approx(dp.welfare, abs=1e-9)
            assert bf.unique == dp.unique

    def test_monotone_in_budget(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            p = int(rng.integers(1, 9))
            values = rng.uniform(0.1, 10.0, size=p)
            costs = rng.uniform(0.5, 8.0, size=p)
            low = float(rng.uniform(0.0, costs.sum()))
            high = low + float(rng.uniform(0.0, costs.sum()))
            assert (
                solve_subset_bruteforce(values, costs, high).welfare
                >= solve_subset_bruteforce(values, costs, low).welfare - 1e-12
            )

    def test_surplus_funds_everything(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            inst = random_instance(rng)
            rich = Instance(
                inst.valuations,
                np.full(inst.n_agents, inst.targets.sum()),
                inst.targets,
                inst.bonuses,
                inst.refund,
            )
            sol = solve_pstar_bruteforce(rich)
            assert sol.subset == tuple(range(rich.n_projects))


class TestItems:
    @pytest.mark.parametrize("solve", [
        solve_subset_bruteforce,
        lambda values, costs, capacity: solve_subset_dp(values, costs, capacity, 1.0),
    ], ids=["list", "dp"])
    @pytest.mark.parametrize("values, costs, name", [
        ([math.nan, 1.0], [1.0, 1.0], "values"),
        ([1.0, -math.inf], [1.0, 1.0], "values"),
        ([1.0, 1.0], [1.0, math.nan], "costs"),
        ([1.0, 1.0], [math.inf, 1.0], "costs"),
        ([1.0, 1.0], [1.0], "costs"),
    ])
    def test_bad_items_are_named(self, solve, values, costs, name):
        with pytest.raises(ValueError, match=f"^{name} "):
            solve(values, costs, 2.0)

    def test_overflowing_sums_are_not_pruned(self):
        # finite values whose sum overflows: the pair is worth inf, and inf
        # minus an infinite pruning margin would be NaN
        values, costs = np.array([1e308, 1e308]), np.ones(2)
        with np.errstate(over="ignore"):
            assert_matches_reference(values, costs, 2.0)
            assert solve_subset_dp(values, costs, 2.0, 1.0).subset == (0, 1)


class TestWelfareOf:
    def test_empty(self):
        inst = random_instance(np.random.default_rng(21))
        assert welfare_of(inst, ()) == 0.0

    def test_worked_example_value(self):
        inst = Instance(
            [[10.9, 0.0], [1.089, 1.9]],
            [9.91, 0.99],
            [10.0, 0.99],
            [1.0, 0.91],
            PprRefund(),
        )
        assert welfare_of(inst, (0,)) == pytest.approx(1.989)
        assert welfare_of(inst, (1,)) == pytest.approx(0.91)

    def test_additive_over_full_set(self):
        inst = random_instance(np.random.default_rng(23))
        full = welfare_of(inst, range(inst.n_projects))
        assert full == pytest.approx(float((inst.vartheta - inst.targets).sum()))

    def test_bad_index(self):
        inst = random_instance(np.random.default_rng(31))
        with pytest.raises(ValueError, match="out of range"):
            welfare_of(inst, (inst.n_projects,))

    def test_duplicate_index(self):
        inst = random_instance(np.random.default_rng(31))
        with pytest.raises(ValueError, match="duplicate"):
            welfare_of(inst, (0, 0))
