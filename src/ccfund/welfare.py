"""Welfare-optimal project subsets under the pooled budget.

Two exact solvers over the same objective: a Pareto list of subsets built in
index order (``solve_subset_bruteforce``) and a 0/1-knapsack dynamic program
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

#: The subset list is pruned whenever it reaches this many rows.
_ROW_CAP = 1 << 7
#: The subset list refuses to hold more rows than this.
_ROW_GUARD = 1 << 16
#: Items per tie-break key column; sums of distinct powers of two below 2^48 are exact.
_MASK_BITS = 48
#: The list's pruning margin allows this many p·eps·sum|v| of rounding.
_PRUNE_SLACK = 8
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


def _prune(rows: np.ndarray, margin: float) -> np.ndarray:
    """Sort, merge and prune the subset list's rows (see ``_pareto_list``)."""
    value = rows[:, 0]
    # complex keys sort by cost, then by minus value
    keys = rows[:, 1] - 1j * value
    order = np.argsort(keys)
    value = value.take(order)
    order = order[value >= np.maximum.accumulate(value) - margin]
    rows, keys = rows.take(order, axis=0), keys.take(order)
    same = keys[1:] == keys[:-1]
    if same.any():
        # each run of equal rows puts its lowest key first, which takes the run's count
        first = np.append(True, ~same)
        rows = rows.take(np.lexsort((*rows[:, :2:-1].T, np.cumsum(first))), axis=0)
        starts = np.flatnonzero(first)
        counts = np.minimum(np.add.reduceat(rows[:, 2], starts), 2)
        rows = rows.take(starts, axis=0)
        rows[:, 2] = counts
    return rows


@functools.lru_cache(maxsize=1)
def _pareto_list(value_bytes: bytes, cost_bytes: bytes) -> tuple[np.ndarray, ...]:
    """The columns of the near-Pareto subsets of one item set.

    Columns: value, cost, tie count (capped at 2), size, then ceil(p/48)
    mask columns; item 48k + i adds -2^(47 - i) to column k, so the least
    (size, masks) key has the fewest projects, then the lexicographically
    smallest index tuple. Each item in index order doubles the rows. At
    ``_ROW_CAP`` rows and after the last item, ``_prune`` sorts them by cost
    and then by value, highest first, merges equal rows (summed count,
    lowest key) and drops each row that a no-costlier row beats by more than
    ``M = TIE_TOL + c·p·eps·sum|v|``, ``c = _PRUNE_SLACK`` (no pruning when
    sum|v| is infinite). Cached for the last item set, which the sampler's
    lift loop re-solves at new capacities; the arrays are read-only, since
    every caller shares them.

    Each row's value and cost are the index-order left folds of its subset,
    as the itertools oracle sums them, and pruning changes no answer:

    - each fold rounds by at most B = p·eps·sum|v| (Higham 2002, §4.2);
    - a shared extension keeps the cost order, because float addition is
      monotone. So if t, no costlier than s, beats s by more than M, t plus
      any extension fits where s plus it does and beats it by more than
      M - 4B = TIE_TOL + 4B, which also covers the rounding of M and of the
      tie window: s plus it is neither optimal nor tied at any capacity;
    - rows of equal value and cost stay equal under every extension, and
      a shared extension keeps the key order.
    """
    values = np.frombuffer(value_bytes)
    p = len(values)
    items = np.zeros((p, 4 + -(-p // _MASK_BITS)))
    items[:, 0], items[:, 1], items[:, 3] = values, np.frombuffer(cost_bytes), 1.0
    bit = np.arange(p)
    items[bit, 4 + bit // _MASK_BITS] = -np.exp2(_MASK_BITS - 1 - bit % _MASK_BITS)
    magnitude = sum(map(abs, values.tolist()))
    margin = TIE_TOL + _PRUNE_SLACK * p * math.ulp(1.0) * magnitude
    # rows [0, n) of the table hold the list; item j doubles them in place
    table = np.zeros((2 * _ROW_CAP, items.shape[1]))
    table[0, 2] = 1.0
    n = 1
    for j, item in enumerate(items):
        if 2 * n > len(table):
            table = np.concatenate((table[:n], table[:n]))
        np.add(table[:n], item, out=table[n : 2 * n])
        n *= 2
        if magnitude < math.inf and (n >= _ROW_CAP or j == p - 1):
            rows = _prune(table[:n], margin)
            n = len(rows)
            table[:n] = rows
        if n > _ROW_GUARD:
            raise SolverError(f"{n} subsets after {j + 1} of {p} projects "
                              f"exceed the list guard of {_ROW_GUARD} rows")
    columns = table[:n].T.copy()
    columns.setflags(write=False)
    return tuple(columns)


def solve_subset_bruteforce(values, costs, capacity: float) -> WelfareSolution:
    """Exact argmax of subset value subject to subset cost <= capacity.

    Reads the item set's Pareto list (Nemhauser & Ullmann 1969; see
    ``_pareto_list``): a row fits when its cost is at most ``capacity + TOL``,
    the fitting rows within ``TIE_TOL`` of the best tie, and the least key
    among them is the answer. The list is short for perturbed inputs such as
    the sampler's (Beier & Vöcking 2003); one longer than ``_ROW_GUARD`` rows,
    as superincreasing inputs give, raises ``SolverError``.
    """
    values = np.asarray(values, dtype=float)
    costs = np.asarray(costs, dtype=float)
    if math.isnan(capacity):
        raise ValueError("capacity must be a number, got nan")
    value, cost, count, *key = _pareto_list(values.tobytes(), costs.tobytes())
    fits = cost <= capacity + TOL
    if not fits.any():
        raise SolverError(f"no subset fits within capacity {capacity!r}")
    tied = np.flatnonzero(fits & (value >= value.max(where=fits, initial=-np.inf) - TIE_TOL))
    row = tied[np.lexsort([k[tied] for k in key[::-1]])[0]] if len(tied) > 1 else tied[0]
    # mask bits read left to right are the items in index order
    bits = "".join(format(int(-mask[row]), f"0{_MASK_BITS}b") for mask in key[1:])
    subset = tuple(j for j, bit in enumerate(bits) if bit == "1")
    unique = bool(len(tied) == 1 and count[row] == 1)
    return WelfareSolution(subset, *_subset_stats(values, costs, subset), unique)


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
    # an infinite step would quantize every cost past every capacity and
    # return the empty subset as if it were the answer
    if not (resolution > 0 and math.isfinite(resolution)):
        raise ValueError(f"resolution must be positive and finite, got {resolution!r}")
    if not math.isfinite(capacity):
        raise ValueError(f"capacity must be finite, got {capacity!r}")
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
    """Optimal subset from the exact Pareto list of subsets (see ``solve_subset_bruteforce``)."""
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
