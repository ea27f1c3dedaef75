"""Welfare-optimal project subsets under the pooled budget.

One exact solver, a Pareto list of subsets built in index order
(``solve_subset_bruteforce``). The 0/1-knapsack DP (``solve_subset_dp``) is
the same list over costs quantized to whole units and cut at the capacity.
Both answer with one deterministic tie-break: highest value, then fewest
projects, then lexicographically smallest index list.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import SolverError
from .model import TOL, Instance, _require_finite, _subset_indices

#: The subset list is pruned whenever it reaches this many rows.
_ROW_CAP = 1 << 7
#: The subset list refuses to hold more rows than this.
_ROW_GUARD = 1 << 16
#: Items per tie-break key column; sums of distinct powers of two below 2^48 are exact.
_MASK_BITS = 48
#: The list's pruning margin allows this many p·eps·sum|v| of rounding.
_PRUNE_SLACK = 8
#: Two subsets whose values differ by at most this are tied.
TIE_TOL = 1e-9
#: The DP refuses more than this many (project, unit) cells.
_DP_CELL_GUARD = 150_000_000


@dataclass(frozen=True)
class WelfareSolution:
    """A budget-feasible subset with its value, cost and a uniqueness flag."""

    subset: tuple[int, ...]
    welfare: float
    cost: float
    unique: bool


def _subset_stats(items: np.ndarray, subset: Sequence[int]) -> list[float]:
    """The (2, p) items' value and cost sums over ``subset``, each as ``ndarray.sum`` adds it."""
    return np.add.reduce(items.take(subset, axis=1), axis=1).tolist()


def _prune(rows: np.ndarray, margin: float, cutoff: float) -> np.ndarray:
    """Sort, merge and prune the subset list's rows (see ``_pareto_list``)."""
    if cutoff < math.inf:
        rows = rows[rows[:, 0] <= cutoff]
    # (cost, minus value) read as complex keys sort by cost, then by value, highest first
    keys = rows[:, :2].view(complex)[:, 0]
    order = keys.argsort(kind="stable")
    minus = rows[:, 1].take(order)
    order = order[minus <= np.minimum.accumulate(minus) + margin]
    rows, keys = rows.take(order, axis=0), keys.take(order)
    same = keys[1:] == keys[:-1]
    if same.any():
        # each run of equal rows keeps its least (size, masks) key, which takes the run's count
        first = np.append(True, ~same)
        starts = first.nonzero()[0]
        counts = np.minimum(np.add.reduceat(rows[:, 2], starts), 2)
        if rows.shape[1] == 5:
            # one mask column in (-2^48, 0]: size above bit 48, the mask plus 2^48 below,
            # an exact key of each row's own subset, so one row a run holds its least
            key = rows[:, 3].astype(np.int64) << 49 | rows[:, 4].astype(np.int64) + (1 << 48)
            rows = rows[key == np.minimum.reduceat(key, starts)[np.cumsum(first) - 1]]
        else:
            rows = rows.take(np.lexsort((*rows[:, :2:-1].T, np.cumsum(first))), axis=0)
            rows = rows.take(starts, axis=0)
        rows[:, 2] = counts
    return rows


@functools.lru_cache(maxsize=64)
def _item_template(p: int) -> np.ndarray:
    """The p item rows of ``_pareto_list`` with zero cost and value (read-only)."""
    items = np.zeros((p, 4 + -(-p // _MASK_BITS)))
    items[:, 3] = 1.0
    bit = np.arange(p)
    items[bit, 4 + bit // _MASK_BITS] = -np.exp2(_MASK_BITS - 1 - bit % _MASK_BITS)
    items.setflags(write=False)
    return items


def _pareto_list(values: np.ndarray, costs: np.ndarray,
                 cutoff: float = math.inf) -> tuple[np.ndarray, ...]:
    """The columns of the near-Pareto subsets of one item set.

    Columns: value, cost, tie count (capped at 2), size, then ceil(p/48)
    mask columns; item 48k + i adds -2^(47 - i) to column k, so the least
    (size, masks) key has the fewest projects, then the lexicographically
    smallest index tuple. The rows hold cost, minus value, count, size and
    masks, so their first two columns read as complex are the sort key, and
    the items' other columns come from one template per p. Each item in
    index order doubles the rows. At ``_ROW_CAP`` rows and after the last
    item, ``_prune`` sorts them by cost and then by value, highest first,
    merges equal rows (summed count, lowest key) and drops each row that a
    no-costlier row beats by more than ``M = TIE_TOL + c·p·eps·sum|v|``,
    ``c = _PRUNE_SLACK``: its minus value exceeds the running minimum plus
    M, the same test, as negation is exact. The value column returned is
    ``0.0 - minus value``, the same bits: a fold from +0.0 never gives -0.0.
    Nothing is pruned when sum|v| overflows: a row's value may then be
    infinite, and its running minimum plus an infinite M is NaN, which
    would drop it.

    A finite ``cutoff`` also drops the rows that cost more. The DP passes
    its capacity in units, where every cost is at least one unit, so such a
    row and all its extensions never fit. Its list holds about one row per
    unit, so the guard grows to ``cutoff + 1`` rows if that is more.

    Each row's value and cost are the index-order left folds of its subset,
    as the itertools oracle sums them, and pruning changes no answer:

    - each fold rounds by at most B = p·eps·sum|v| (Higham 2002, §4.2);
    - a shared extension keeps the cost order, as float addition is monotone,
      so each doubling adds a run in cost order that the stable sort (timsort)
      merges in about linear time. If t, no costlier than s, beats s by more
      than M, t plus any extension fits where s plus it does and beats it by
      more than M - 4B = TIE_TOL + 4B, which covers the rounding of M and of
      the tie window: s plus it is never optimal or tied;
    - rows of equal value and cost stay equal under every extension, and
      a shared extension keeps the key order.
    """
    p = len(values)
    items = _item_template(p).copy()
    items[:, 0], items[:, 1] = costs, -values
    magnitude = sum(map(abs, values.tolist()))
    margin = TIE_TOL + _PRUNE_SLACK * p * math.ulp(1.0) * magnitude
    # rows [0, n) of the table hold the list; item j doubles them in place
    table = np.zeros((2 * _ROW_CAP, items.shape[1]))
    table[0, 2] = 1.0
    n = 1
    guard = max(_ROW_GUARD, cutoff + 1) if cutoff < math.inf else _ROW_GUARD
    for j, item in enumerate(items):
        if 2 * n > len(table):
            table = np.concatenate((table[:n], table[:n]))
        np.add(table[:n], item, out=table[n : 2 * n])
        n *= 2
        if magnitude < math.inf and (n >= _ROW_CAP or j == p - 1):
            rows = _prune(table[:n], margin, cutoff)
            n = len(rows)
            table[:n] = rows
        if n > guard:
            raise SolverError(f"{n} subsets after {j + 1} of {p} projects "
                              f"exceed the list guard of {guard} rows")
    cost, minus_value, *rest = table[:n].T.copy()
    return 0.0 - minus_value, cost, *rest


class _ParetoReader:
    """One item set's answers at any capacity, from one Pareto list.

    Checks the items when made and builds their list (``columns``) at the first
    read, unless the DP has set its own. A row fits when its cost is at most
    ``capacity + TOL``, a monotone test on one column, so fitting sets are
    nested and two of one size are the same set. The answer depends on nothing
    else: a read that fits as many rows as the last returns its answer.
    """

    def __init__(self, values, costs):
        if len(costs) != len(values):
            raise ValueError(
                f"costs must have one entry per value, got {len(costs)} for {len(values)}")
        self.items, self.columns, self.fitting = np.array((values, costs), dtype=float), None, -1
        if not np.isfinite(self.items).all():
            _require_finite("values", self.items[0])
            _require_finite("costs", self.items[1])

    def read(self, capacity: float) -> WelfareSolution:
        """The least key among the fitting rows within ``TIE_TOL`` of the best."""
        if math.isnan(capacity):
            raise ValueError("capacity must be a number, got nan")
        value, cost, count, *key = self.columns = self.columns or _pareto_list(*self.items)
        fits = cost <= capacity + TOL
        fitting = np.count_nonzero(fits)
        if fitting == self.fitting:
            return self.answer
        if not fitting:
            raise SolverError(f"no subset fits within capacity {capacity!r}")
        tied = (fits & (value >= value.max(where=fits, initial=-np.inf) - TIE_TOL)).nonzero()[0]
        row = tied[np.lexsort([k[tied] for k in key[::-1]])[0]] if len(tied) > 1 else tied[0]
        # bit 47 - i, that is ~i % 48, of mask column k is item 48k + i
        masks = [int(-mask[row]) for mask in key[1:]]
        subset = [j for j in range(self.items.shape[1])
                  if masks[j // _MASK_BITS] >> ~j % _MASK_BITS & 1]
        unique = bool(len(tied) == 1 and count[row] == 1)
        self.fitting, self.answer = fitting, WelfareSolution(
            tuple(subset), *_subset_stats(self.items, subset), unique)
        return self.answer


def solve_subset_bruteforce(values, costs, capacity: float) -> WelfareSolution:
    """Exact argmax of subset value subject to subset cost <= capacity.

    One read of the item set's Pareto list (Nemhauser & Ullmann 1969; see
    ``_pareto_list`` and ``_ParetoReader``): a row fits when its cost is at
    most ``capacity + TOL``, the fitting rows within ``TIE_TOL`` of the best
    tie, and the least key among them is the answer. The list is short for
    perturbed inputs such as the sampler's (Beier & Vöcking 2003); one longer
    than ``_ROW_GUARD`` rows, as superincreasing inputs give, raises ``SolverError``.
    """
    return _ParetoReader(values, costs).read(capacity)


def solve_subset_dp(values, costs, capacity: float, resolution: float) -> WelfareSolution:
    """Exact knapsack DP over quantized costs.

    Costs round up to whole units of ``resolution`` (at least one) and the
    capacity rounds down, so the DP never admits a subset the continuous
    budget constraint would reject. Matches the enumeration on any instance
    whose costs sit clear of quantization boundaries.

    The DP is the enumeration's Pareto list over the quantized costs, cut at
    the capacity of ``cap_q`` units (see ``_pareto_list``): about one row per
    reachable unit, so its work and memory grow with
    ``min(2^p, cap_q + 1)`` (Nemhauser & Ullmann 1969). The answer, its
    tie-break and its uniqueness flag are the enumeration's over those
    units; its welfare and cost are the subset's sums over the given costs.
    More than ``_DP_CELL_GUARD`` (project, unit) cells are refused up front.
    """
    # an infinite step would quantize every cost past every capacity and
    # return the empty subset as if it were the answer
    if not (resolution > 0 and math.isfinite(resolution)):
        raise ValueError(f"resolution must be positive and finite, got {resolution!r}")
    if not math.isfinite(capacity):
        raise ValueError(f"capacity must be finite, got {capacity!r}")
    reader = _ParetoReader(values, costs)
    p = reader.items.shape[1]
    # a float until the guard passes it: past float range the quotient is infinite
    cap_q = max(np.floor(capacity / resolution + 1e-9), 0.0)
    cells = (p + 1) * (cap_q + 1)
    if cells > _DP_CELL_GUARD:
        raise SolverError(
            f"capacity {capacity} needs a DP table of {cells:.0f} cells for {p} projects at "
            f"resolution {resolution}; guard is {_DP_CELL_GUARD}"
        )
    cap_q = int(cap_q)
    with np.errstate(over="ignore"):  # an infinite cost never fits
        costs_q = np.maximum(np.ceil(reader.items[1] / resolution - 1e-9), 1.0)
    reader.columns = _pareto_list(reader.items[0], costs_q, cap_q)
    return reader.read(cap_q)


def solve_pstar_bruteforce(instance: Instance) -> WelfareSolution:
    """Optimal subset from the exact Pareto list of subsets (see ``solve_subset_bruteforce``)."""
    values = instance.vartheta - instance.targets
    return solve_subset_bruteforce(values, instance.targets, float(instance.budgets.sum()))


def solve_pstar_dp(instance: Instance, resolution: float = 0.01) -> WelfareSolution:
    """Optimal subset by exact knapsack DP at the given cost resolution."""
    values = instance.vartheta - instance.targets
    return solve_subset_dp(values, instance.targets, float(instance.budgets.sum()), resolution)


def welfare_of(instance: Instance, subset: Sequence[int]) -> float:
    """Welfare headroom of a subset: its summed valuation minus its summed target."""
    subset = _subset_indices(instance, subset)
    return float((instance.vartheta - instance.targets)[list(subset)].sum())
