"""Welfare-optimal project subsets under the pooled budget.

Two exact solvers over the same objective: subset enumeration (meet in the
middle over two half-size subset tables) and a 0/1-knapsack dynamic program
over quantized costs. They share one deterministic tie-break so answers can
be compared verbatim: highest value, then fewest projects, then
lexicographically smallest index list.
"""

from __future__ import annotations

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
    sums = np.zeros((len(items), 1))
    for column in items.T:
        sums = np.concatenate((sums, sums + column[:, None]), axis=1)
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


def solve_subset_bruteforce(values, costs, capacity: float) -> WelfareSolution:
    """Exact argmax of subset value subject to subset cost <= capacity.

    Meet in the middle (Horowitz & Sahni 1974): every subset is a pair of a
    subset of the first half of the items and one of the second half. The
    high half is sorted by cost with a running maximum of its value, so one
    binary search per low-half subset finds its best affordable partner. A
    second pass walks only the low-half subsets whose best partner ties the
    optimum, in blocks of tied-candidate pairs, to apply the tie-break and
    to tell whether the optimum is unique.
    """
    values = np.asarray(values, dtype=float)
    costs = np.asarray(costs, dtype=float)
    p = len(values)
    if p > ENUM_GUARD_P:
        raise SolverError(f"{p} projects exceed the enumeration guard of {ENUM_GUARD_P}")
    if np.isnan(capacity):
        raise ValueError("capacity must be a number, got nan")
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

    # a pair fits when its cost sum is within capacity + TOL; the search
    # counts the sorted high subsets that fit each low one
    limit = capacity + TOL
    fits = _settle_fits(c_lo, c_hi, limit, np.searchsorted(c_hi, limit - c_lo, side="right"))
    lows = np.flatnonzero(fits)
    if not len(lows):
        raise SolverError(f"no subset fits within capacity {capacity!r}")
    top = v_lo[lows] + np.maximum.accumulate(v_hi)[fits[lows] - 1]
    floor = top.max() - TIE_TOL
    lows = lows[top >= floor]

    spans = fits[lows]
    ends = np.cumsum(spans)
    ties = 0
    best_rank = np.inf
    start = 0
    while start < len(lows):
        first = ends[start] - spans[start]
        stop = int(np.searchsorted(ends, first + _TIE_BLOCK, side="right"))
        block = spans[start:stop]
        lo = np.repeat(lows[start:stop], block)
        at = np.arange(first, ends[stop - 1]) - np.repeat(ends[start:stop] - block, block)
        tied = v_lo[lo] + v_hi[at] >= floor
        ties = min(ties + int(np.count_nonzero(tied)), 2)
        lo, at = lo[tied], at[tied]
        ranks = r_lo[lo] + r_hi[at]
        k = int(np.argmin(ranks))
        if ranks[k] < best_rank:
            best_rank = ranks[k]
            mask = int(lo[k]) | int(order[at[k]]) << half
        start = stop

    subset = tuple(j for j in range(p) if mask >> j & 1)
    welfare, cost = _subset_stats(values, costs, subset)
    return WelfareSolution(subset, welfare, cost, ties == 1)


def solve_subset_dp(values, costs, capacity: float, resolution: float) -> WelfareSolution:
    """Exact knapsack DP over quantized costs.

    Costs round up and the capacity rounds down, so the DP never admits a
    subset the continuous budget constraint would reject. Matches the
    enumeration on any instance whose costs sit clear of quantization
    boundaries.
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
    width = cap_q + 1
    dps: list[np.ndarray] = [np.zeros(width)] * (p + 1)
    cnts: list[np.ndarray] = [np.zeros(width, dtype=np.int64)] * (p + 1)
    ways = np.ones(width, dtype=np.int64)
    for j in reversed(range(p)):
        dp_next, cnt_next = dps[j + 1], cnts[j + 1]
        dp_cur = dp_next.copy()
        cnt_cur = cnt_next.copy()
        ways_cur = ways.copy()
        c = int(costs_q[j])
        if c <= cap_q:
            seg = slice(c, None)
            incl = values[j] + dp_next[: width - c]
            excl = dp_next[seg]
            diff = incl - excl
            take = diff > TIE_TOL
            tie = np.abs(diff) <= TIE_TOL
            dp_cur[seg] = np.where(take, incl, excl)
            inc_cnt = cnt_next[: width - c] + 1
            exc_cnt = cnt_next[seg]
            cnt_cur[seg] = np.where(
                take, inc_cnt, np.where(tie, np.minimum(inc_cnt, exc_cnt), exc_cnt)
            )
            inc_ways = ways[: width - c]
            exc_ways = ways[seg]
            ways_cur[seg] = np.where(take, inc_ways, np.where(tie, inc_ways + exc_ways, exc_ways))
        dps[j], cnts[j], ways = dp_cur, cnt_cur, ways_cur

    subset: list[int] = []
    k = cap_q
    for j in range(p):
        c = int(costs_q[j])
        if c > k:
            continue
        incl = values[j] + dps[j + 1][k - c]
        excl = dps[j + 1][k]
        diff = incl - excl
        if diff > TIE_TOL:
            include = True
        elif abs(diff) <= TIE_TOL:
            include = cnts[j + 1][k - c] + 1 <= cnts[j + 1][k]
        else:
            include = False
        if include:
            subset.append(j)
            k -= c
    chosen = tuple(subset)
    welfare, cost = _subset_stats(values, costs, chosen)
    return WelfareSolution(chosen, welfare, cost, int(ways[cap_q]) == 1)


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
