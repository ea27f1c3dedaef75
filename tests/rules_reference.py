"""Oracle: the rule rows as built before they were folded project-major, kept verbatim.

``_prefix_capped`` and ``_intent_rows`` were ``ccfund.heuristics``' own
while each rule row summed its caps by ``np.cumsum`` along the 10-long
project axis and the greedy rules gathered and scattered their sorted caps
by ``take_along_axis`` and ``put_along_axis``. ``test_heuristics.py``
compares the rows of the two builders byte for byte.
"""

from __future__ import annotations

import numpy as np

from ccfund.heuristics import Heuristic


def _prefix_capped(caps: np.ndarray, budgets: np.ndarray) -> np.ndarray:
    """Allocate each row's budget left to right, capping entries at ``caps``."""
    cum_before = np.zeros(caps.shape)
    np.cumsum(caps[..., :-1], axis=-1, out=cum_before[..., 1:])
    return np.clip(budgets[..., None] - cum_before, 0.0, caps)


def _intent_rows(
    heuristic: Heuristic,
    valuations: np.ndarray,
    budgets: np.ndarray,
    ratios: np.ndarray,
    chosen: np.ndarray,
    thresholds: np.ndarray | None,
) -> np.ndarray:
    """Every agent's (..., n, p) intent rows under one rule; leading axes stack instances.

    ``budgets`` is (..., n); ``ratios`` (total valuation over target) and
    ``chosen`` (the welfare-optimal subset as a mask) are (..., p). A row
    reads only its own agent's entries: each instance gets its own call's bits.
    """
    if heuristic == Heuristic.SYMMETRIC:
        return np.minimum(valuations, budgets[..., None] / valuations.shape[-1])

    if heuristic == Heuristic.WEIGHTED:
        row_sums = valuations.sum(axis=-1)
        safe = np.where(row_sums > 0.0, row_sums, 1.0)
        rows = budgets[..., None] * valuations / safe[..., None]
        rows[row_sums <= 0.0] = 0.0
        return rows

    if heuristic in (Heuristic.GREEDY_THETA, Heuristic.GREEDY_VARTHETA):
        # projects by falling valuation, each agent's own; or by falling
        # ratio, one order for all of an instance's agents. Ties keep index order
        key = valuations if heuristic == Heuristic.GREEDY_THETA else ratios[..., None, :]
        order = np.argsort(-key, axis=-1, kind="stable")
        alloc = _prefix_capped(np.take_along_axis(thresholds, order, axis=-1), budgets)
        rows = np.empty(alloc.shape)
        np.put_along_axis(rows, order, alloc, axis=-1)
        return rows

    if heuristic == Heuristic.OPT_WELFARE:
        # thresholds on the chosen projects in index order, capped at +0.0
        # elsewhere, then what is left spread evenly over the rest
        picked = chosen[..., None, :]
        rows = _prefix_capped(np.where(picked, thresholds, 0.0), budgets)
        leftover = np.maximum(budgets - rows.sum(axis=-1), 0.0)
        rest = np.maximum(chosen.shape[-1] - chosen.sum(axis=-1), 1)
        return np.where(picked, rows, (leftover / rest[..., None])[..., None])

    raise ValueError(f"unknown heuristic {heuristic!r}")
