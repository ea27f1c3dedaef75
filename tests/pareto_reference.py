"""Oracle: the Pareto list builder laid out as value, cost, count, size, masks, kept verbatim.

It was ``ccfund.welfare._pareto_list`` before the list moved to a cost,
minus-value layout whose first two columns read as the complex sort key, and
before runs of tied rows took their least key from one int64. Only the row
cap became an argument, so that a test can run both builders at the same
cap. ``test_welfare.py`` compares the two column by column as int64 bits.
"""

from __future__ import annotations

import math

import numpy as np

from ccfund.errors import SolverError
from ccfund.welfare import _MASK_BITS, _PRUNE_SLACK, _ROW_GUARD, TIE_TOL


def _prune(rows: np.ndarray, margin: float, cutoff: float) -> np.ndarray:
    """Sort, merge and prune the subset list's rows (see ``pareto_list``)."""
    if cutoff < math.inf:
        rows = rows[rows[:, 1] <= cutoff]
    value = rows[:, 0]
    # complex keys sort by cost, then by minus value
    keys = rows[:, 1] - 1j * value
    order = keys.argsort(kind="stable")
    value = value.take(order)
    order = order[value >= np.maximum.accumulate(value) - margin]
    rows, keys = rows.take(order, axis=0), keys.take(order)
    same = keys[1:] == keys[:-1]
    if same.any():
        # each run of equal rows puts its lowest key first, which takes the run's count
        first = np.append(True, ~same)
        rows = rows.take(np.lexsort((*rows[:, :2:-1].T, np.cumsum(first))), axis=0)
        starts = first.nonzero()[0]
        counts = np.minimum(np.add.reduceat(rows[:, 2], starts), 2)
        rows = rows.take(starts, axis=0)
        rows[:, 2] = counts
    return rows


def pareto_list(values: np.ndarray, costs: np.ndarray, cutoff: float = math.inf,
                row_cap: int = 1 << 7) -> tuple[np.ndarray, ...]:
    """The columns value, cost, count, size, masks of the near-Pareto subsets."""
    p = len(values)
    items = np.zeros((p, 4 + -(-p // _MASK_BITS)))
    items[:, 0], items[:, 1], items[:, 3] = values, costs, 1.0
    bit = np.arange(p)
    items[bit, 4 + bit // _MASK_BITS] = -np.exp2(_MASK_BITS - 1 - bit % _MASK_BITS)
    magnitude = sum(map(abs, values.tolist()))
    margin = TIE_TOL + _PRUNE_SLACK * p * math.ulp(1.0) * magnitude
    # rows [0, n) of the table hold the list; item j doubles them in place
    table = np.zeros((2 * row_cap, items.shape[1]))
    table[0, 2] = 1.0
    n = 1
    guard = max(_ROW_GUARD, cutoff + 1) if cutoff < math.inf else _ROW_GUARD
    for j, item in enumerate(items):
        if 2 * n > len(table):
            table = np.concatenate((table[:n], table[:n]))
        np.add(table[:n], item, out=table[n : 2 * n])
        n *= 2
        if magnitude < math.inf and (n >= row_cap or j == p - 1):
            rows = _prune(table[:n], margin, cutoff)
            n = len(rows)
            table[:n] = rows
        if n > guard:
            raise SolverError(f"{n} subsets after {j + 1} of {p} projects "
                              f"exceed the list guard of {guard} rows")
    return tuple(table[:n].T.copy())
