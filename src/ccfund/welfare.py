"""Welfare-optimal project subsets under the pooled budget.

Two exact solvers over the same objective: subset enumeration (meet in the
middle over two half-size subset tables) and a 0/1-knapsack dynamic program
over quantized costs. They share one deterministic tie-break so answers can
be compared verbatim: highest value, then fewest projects, then
lexicographically smallest index list.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import SolverError
from .model import TOL, Instance

#: Exhaustive enumeration refuses more projects than this.
ENUM_GUARD_P = 25
#: Candidate pairs the enumeration's tie pass holds at once.
_TIE_BLOCK = 1 << 18
#: Two subsets whose values differ by at most this are tied (both solvers).
TIE_TOL = 1e-9
#: The DP refuses tables larger than this many cells.
_DP_CELL_GUARD = 150_000_000


@dataclass(frozen=True)
class WelfareSolution:
    """A budget-feasible subset with its value, cost and a uniqueness flag."""

    subset: tuple[int, ...]
    welfare: float
    cost: float
    unique: bool


def _subset_stats(values: np.ndarray, costs: np.ndarray, subset: tuple[int, ...]):
    idx = list(subset)
    return float(values[idx].sum()), float(costs[idx].sum())


def _subset_tables(items: np.ndarray) -> np.ndarray:
    """Row sums of every subset of the columns of ``items``.

    Built by doubling, so column m of the result sums the item columns picked
    by the bits of m (bit j is column j), each sum added in index order.
    """
    sums = np.zeros((len(items), 1 << items.shape[1]))
    for j, column in enumerate(items.T):
        np.add(sums[:, : 1 << j], column[:, None], out=sums[:, 1 << j : 2 << j])
    return sums


def _settle_fits(c_lo, c_hi, limit, fits):
    """Move each count to the high subsets whose pair sum ``c_lo + c_hi`` fits.

    A search on the rounded room ``limit - c_lo`` can land a float step off
    the exact boundary either way. Float addition is monotone, so the pairs
    that fit are still a prefix of the sorted ``c_hi``; each step jumps past
    or back over a whole run of equal high costs until the boundary holds.
    """
    n_hi = len(c_hi)
    while True:
        grow = fits < n_hi
        grow[grow] = c_lo[grow] + c_hi[fits[grow]] <= limit
        shrink = fits > 0
        shrink[shrink] = c_lo[shrink] + c_hi[fits[shrink] - 1] > limit
        if not (grow.any() or shrink.any()):
            return fits
        fits[grow] = np.searchsorted(c_hi, c_hi[fits[grow]], side="right")
        fits[shrink] = np.searchsorted(c_hi, c_hi[fits[shrink] - 1], side="left")


@functools.lru_cache(maxsize=1)
def _half_tables(value_bytes: bytes, cost_bytes: bytes) -> tuple[np.ndarray, ...]:
    """The enumeration's tables for one item set, which no capacity changes.

    The low half's value, cost and rank tables; the high half's stable cost
    order, its tables in that order and the running maximum of its values.
    Kept for the most recent item set only, because the sampler's lift loop
    re-solves the same items at a new capacity; the arrays are read-only,
    since every caller shares them.
    """
    values = np.frombuffer(value_bytes)
    costs = np.frombuffer(cost_bytes)
    p = len(values)
    half = p // 2
    # Item j adds 2^p - 2^(p-1-j) to a subset's rank: its size times 2^p
    # minus its bit-reversed mask. The smallest rank among tied subsets has
    # the fewest projects, then the lexicographically smallest index tuple.
    # Ranks stay below 2^31, so float sums of them are exact.
    rank = float(1 << p) - np.exp2(p - 1 - np.arange(p))
    items = np.stack((values, costs, rank))
    v_lo, c_lo, r_lo = _subset_tables(items[:, :half])
    hi = _subset_tables(items[:, half:])
    order = np.argsort(hi[1], kind="stable")
    v_hi, c_hi, r_hi = hi[:, order]
    tables = (v_lo, c_lo, r_lo, order, v_hi, c_hi, r_hi, np.maximum.accumulate(v_hi))
    for table in tables:
        table.setflags(write=False)
    return tables


def solve_subset_bruteforce(values, costs, capacity: float) -> WelfareSolution:
    """Exact argmax of subset value subject to subset cost <= capacity.

    Meet in the middle (Horowitz & Sahni 1974): every subset is a pair of a
    subset of the first half of the items and one of the second half. The
    high half is sorted by cost with a running maximum of its value, so one
    binary search per low-half subset finds its best affordable partner. A
    second pass walks only the low-half subsets whose best partner comes
    near the optimum, in blocks of candidate pairs. When more than one pair
    comes near, it re-sums their values in index order and applies the tie
    window to those sums, so the tie-break and the uniqueness flag do not
    depend on how a subset was split.
    """
    values = np.asarray(values, dtype=float)
    costs = np.asarray(costs, dtype=float)
    p = len(values)
    if p > ENUM_GUARD_P:
        raise SolverError(f"{p} projects exceed the enumeration guard of {ENUM_GUARD_P}")
    if np.isnan(capacity):
        raise ValueError("capacity must be a number, got nan")
    half = p // 2
    v_lo, c_lo, r_lo, order, v_hi, c_hi, r_hi, best_hi = _half_tables(
        values.tobytes(), costs.tobytes()
    )

    # a pair fits when its cost sum is within capacity + TOL; the search
    # counts the sorted high subsets that fit each low one
    limit = capacity + TOL
    fits = _settle_fits(c_lo, c_hi, limit, np.searchsorted(c_hi, limit - c_lo, side="right"))
    lows = np.flatnonzero(fits)
    if not len(lows):
        raise SolverError(f"no subset fits within capacity {capacity!r}")
    top = v_lo[lows] + best_hi[fits[lows] - 1]
    # A pair sum and the index-order sum of the same subset differ by at most
    # p·eps·sum|v| (Higham 2002, §4.2), so every subset the index-order window
    # keeps is a candidate here. Infinite values give no such bound; they
    # keep the plain window.
    magnitude = sum(map(abs, values.tolist()))
    slack = p * math.ulp(1.0) * magnitude if magnitude < math.inf else 0.0
    floor = top.max() - TIE_TOL - 2 * slack
    lows = lows[top >= floor]

    spans = fits[lows]
    ends = np.cumsum(spans)

    def blocks(index_order):
        """The candidate pairs in blocks of at most ``_TIE_BLOCK``, with their sums.

        The sums are pair sums, or with ``index_order`` the index-order sums
        of the pairs whose pair sums reach ``floor``.
        """
        start = 0
        while start < len(lows):
            first = ends[start] - spans[start]
            stop = int(np.searchsorted(ends, first + _TIE_BLOCK, side="right"))
            block = spans[start:stop]
            lo = np.repeat(lows[start:stop], block)
            at = np.arange(first, ends[stop - 1]) - np.repeat(ends[start:stop] - block, block)
            sums = v_lo[lo] + v_hi[at]
            if index_order:
                near = sums >= floor
                lo, at = lo[near], at[near]
                # each low sum, then the picked high items in index order
                sums, picks = v_lo[lo], order[at]
                for j in range(half, p):
                    picked = (picks >> (j - half) & 1).astype(bool)
                    sums[picked] += values[j]
            yield lo, at, sums
            start = stop

    def tie_pass(index_order, window):
        """How many sums reach ``window`` (capped at 2) and the best-ranked one's mask."""
        ties = 0
        best_rank = np.inf
        for lo, at, sums in blocks(index_order):
            tied = sums >= window
            ties = min(ties + int(np.count_nonzero(tied)), 2)
            lo, at = lo[tied], at[tied]
            if not len(lo):
                continue
            ranks = r_lo[lo] + r_hi[at]
            k = int(np.argmin(ranks))
            if ranks[k] < best_rank:
                best_rank = ranks[k]
                mask = int(lo[k]) | int(order[at[k]]) << half
        return ties, mask

    # a lone candidate is the optimum; between several, the window applies to
    # their index-order sums, so the largest of those comes first
    ties, mask = tie_pass(False, floor)
    if ties > 1:
        best = max(sums.max() for _, _, sums in blocks(True))
        ties, mask = tie_pass(True, best - TIE_TOL)

    subset = tuple(j for j in range(p) if mask >> j & 1)
    welfare, cost = _subset_stats(values, costs, subset)
    return WelfareSolution(subset, welfare, cost, ties == 1)


def solve_subset_dp(values, costs, capacity: float, resolution: float) -> WelfareSolution:
    """Exact knapsack DP over quantized costs.

    Costs round up and the capacity rounds down, so the DP never admits a
    subset the continuous budget constraint would reject. Matches the
    enumeration on any instance whose costs sit clear of quantization
    boundaries.

    Row j maps a capacity k to the best value projects j.. reach within k
    units, with the fewest projects among its ties and the number of tied
    subsets. Each row is a step function of k, so it keeps only its
    breakpoints (Nemhauser & Ullmann 1969): O(p·B) work for at most
    B <= min(2^p, cap_q + 1) breakpoints a row, and every value equals the
    full table's at the same capacity.
    """
    if resolution <= 0:
        raise ValueError(f"resolution must be positive, got {resolution!r}")
    values = np.asarray(values, dtype=float)
    costs = np.asarray(costs, dtype=float)
    p = len(values)
    cap_q = max(int(np.floor(capacity / resolution + 1e-9)), 0)
    costs_q = np.ceil(costs / resolution - 1e-9).astype(np.int64)
    costs_q = np.maximum(costs_q, 1)
    cells = (p + 1) * (cap_q + 1)
    if cells > _DP_CELL_GUARD:
        raise SolverError(
            f"DP table needs {cells} cells for {p} projects at resolution {resolution}; "
            f"guard is {_DP_CELL_GUARD}"
        )
    # a row holds sorted breakpoints ks (ks[0] = 0) and the dp, cnt and ways
    # values on each interval [ks[i], ks[i+1])
    ks = np.zeros(1, dtype=np.int64)
    dp = np.zeros(1)
    cnt = np.zeros(1, dtype=np.int64)
    ways = np.ones(1, dtype=np.int64)
    rows = [(ks, dp, cnt)] * (p + 1)
    for j in reversed(range(p)):
        c = int(costs_q[j])
        if c <= cap_q:
            # merge the breakpoints with their shifts by c (two sorted runs,
            # so the stable sort is a merge); at each merged key the running
            # counts of either run locate the excluding and including steps
            shifted = ks[: np.searchsorted(ks, cap_q - c, side="right")] + c
            merged = np.concatenate((ks, shifted))
            order = np.argsort(merged, kind="stable")
            keys = merged[order]
            from_ks = order < len(ks)
            at_ex = np.cumsum(from_ks) - 1
            at_in = np.cumsum(~from_ks) - 1
            last = np.append(keys[1:] != keys[:-1], True)
            keys, at_ex, at_in = keys[last], at_ex[last], at_in[last]
            dp_cur, cnt_cur, ways_cur = dp[at_ex], cnt[at_ex], ways[at_ex]
            seg = slice(int(np.searchsorted(keys, c)), None)
            at_in = at_in[seg]
            incl = values[j] + dp[at_in]
            excl = dp_cur[seg]
            diff = incl - excl
            take = diff > TIE_TOL
            tie = np.abs(diff) <= TIE_TOL
            dp_cur[seg] = np.where(take, incl, excl)
            inc_cnt = cnt[at_in] + 1
            exc_cnt = cnt_cur[seg]
            cnt_cur[seg] = np.where(
                take, inc_cnt, np.where(tie, np.minimum(inc_cnt, exc_cnt), exc_cnt)
            )
            inc_ways = ways[at_in]
            exc_ways = ways_cur[seg]
            ways_cur[seg] = np.where(take, inc_ways, np.where(tie, inc_ways + exc_ways, exc_ways))
            # a breakpoint whose step equals the one before it is no step
            step = np.ones(len(keys), dtype=bool)
            step[1:] = (
                (dp_cur[1:] != dp_cur[:-1])
                | (cnt_cur[1:] != cnt_cur[:-1])
                | (ways_cur[1:] != ways_cur[:-1])
            )
            ks, dp, cnt, ways = keys[step], dp_cur[step], cnt_cur[step], ways_cur[step]
        rows[j] = (ks, dp, cnt)

    subset: list[int] = []
    k = cap_q
    for j in range(p):
        c = int(costs_q[j])
        if c > k:
            continue
        ks, dp, cnt = rows[j + 1]
        at_in, at_ex = np.searchsorted(ks, (k - c, k), side="right") - 1
        incl = values[j] + dp[at_in]
        excl = dp[at_ex]
        diff = incl - excl
        if diff > TIE_TOL:
            include = True
        elif abs(diff) <= TIE_TOL:
            include = cnt[at_in] + 1 <= cnt[at_ex]
        else:
            include = False
        if include:
            subset.append(j)
            k -= c
    chosen = tuple(subset)
    welfare, cost = _subset_stats(values, costs, chosen)
    # row 0's last step is the one that holds at cap_q
    return WelfareSolution(chosen, welfare, cost, int(ways[-1]) == 1)


def _objective_values(instance: Instance, objective: str) -> np.ndarray:
    if objective == "welfare":
        return instance.vartheta - instance.targets
    if objective == "valuation":
        return instance.vartheta.copy()
    raise ValueError(f"unknown objective {objective!r}; expected 'welfare' or 'valuation'")


def solve_pstar_bruteforce(instance: Instance, objective: str = "welfare") -> WelfareSolution:
    """Optimal subset by exhaustive enumeration (up to 25 projects)."""
    values = _objective_values(instance, objective)
    return solve_subset_bruteforce(values, instance.targets, float(instance.budgets.sum()))


def solve_pstar_dp(
    instance: Instance, resolution: float = 0.01, objective: str = "welfare"
) -> WelfareSolution:
    """Optimal subset by exact knapsack DP at the given cost resolution."""
    values = _objective_values(instance, objective)
    return solve_subset_dp(values, instance.targets, float(instance.budgets.sum()), resolution)


def welfare_of(instance: Instance, subset: Sequence[int], objective: str = "welfare") -> float:
    """Objective value of a subset (welfare headroom by default)."""
    subset = tuple(subset)
    for j in subset:
        if not 0 <= j < instance.n_projects:
            raise ValueError(f"subset index {j} out of range for {instance.n_projects} projects")
    values = _objective_values(instance, objective)
    return float(values[list(subset)].sum())
