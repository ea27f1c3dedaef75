"""Oracle: the meet-in-the-middle subset enumeration, kept verbatim.

It was ``ccfund.welfare``'s subset solver before the Pareto list replaced
it: each half of the items keeps its near-Pareto subsets, and a solve forms
the pair sums of the two lists in blocks. Its answers are pinned by
``test_golden_welfare.py``; ``test_welfare.py`` compares it with the
current solver at up to ``ENUM_GUARD_P`` projects.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ccfund.errors import SolverError
from ccfund.model import TOL
from ccfund.welfare import TIE_TOL, WelfareSolution

#: Exhaustive enumeration refuses more projects than this.
ENUM_GUARD_P = 25
#: Pairs of half subsets the enumeration holds at once.
_TIE_BLOCK = 1 << 18
#: The half lists' pruning margin allows this many p·eps·sum|v| of rounding.
_PRUNE_SLACK = 8


def _subset_tables(items: np.ndarray) -> np.ndarray:
    """Sums of every subset of ``items``, one item per leading index.

    Built by doubling, so entry m of the result sums the items picked by the
    bits of m (bit j is item j), each sum added in index order.
    """
    sums = np.zeros((1 << len(items), *items.shape[1:]))
    for j, item in enumerate(items):
        np.add(sums[: 1 << j], item, out=sums[1 << j : 2 << j])
    return sums


@functools.lru_cache(maxsize=1)
def _half_tables(value_bytes: bytes, cost_bytes: bytes) -> tuple[np.ndarray, ...]:
    """The enumeration's pruned half lists for one item set, which no capacity changes.

    For the low and then the high half: the value, cost, rank and mask of
    each subset that no no-costlier subset of the same half beats by more
    than ``M = TIE_TOL + c·p·eps·sum|v|``, ``c = _PRUNE_SLACK`` (nothing is
    pruned when sum|v| is infinite). The best no-costlier subset is the
    running value maximum by cost, and by value, highest first, among equal
    costs. Kept for the most recent item set only, because the sampler's
    lift loop re-solves the same items at a new capacity; the arrays are
    read-only, since every caller shares them.

    No answer changes. Let t be the best subset no costlier than a pruned s;
    t is kept. For any partner h, the pair (t, h) fits when (s, h) does,
    since float addition is monotone, and its pair sum is at least as large.
    So the best fitting pair is a pair of kept subsets. And (s, h) sums to
    more than ``TIE_TOL + 2·slack`` below (t, h): the margin's spare
    ``(c - 2)·p·eps·sum|v|`` covers the rounding of both pair sums, of the
    floor and of M itself. So (s, h) never reaches the solver's floor, and
    the pairs that do, its candidates, are the same with or without pruning.
    """
    values = np.frombuffer(value_bytes)
    p = len(values)
    half = p // 2
    # Item j adds 2^p - 2^(p-1-j) to a subset's rank: its size times 2^p
    # minus its bit-reversed mask. The smallest rank among tied subsets has
    # the fewest projects, then the lexicographically smallest index tuple.
    # Ranks stay below 2^31, so float sums of them are exact.
    rank = float(1 << p) - np.exp2(p - 1 - np.arange(p))
    items = np.stack((values, np.frombuffer(cost_bytes), rank), axis=-1)
    # both halves double in one pass; for odd p the low half gets a zero
    # item, which leaves its first 2^half sums as they are
    pairs = np.zeros((p - half, 2, 3))
    pairs[:half, 0] = items[:half]
    pairs[:, 1] = items[half:]
    sums = _subset_tables(pairs)
    magnitude = sum(map(abs, values.tolist()))
    margin = TIE_TOL + _PRUNE_SLACK * p * math.ulp(1.0) * magnitude
    tables = []
    for table in (sums[: 1 << half, 0], sums[:, 1]):
        kept = np.arange(len(table))
        if magnitude < math.inf:
            # complex keys sort by cost, then by minus value
            order = np.argsort(table[:, 1] - 1j * table[:, 0], kind="stable")
            value = table[order, 0]
            kept = order[value >= np.maximum.accumulate(value) - margin]
        tables += [*table[kept].T, kept]
    for table in tables:
        table.setflags(write=False)
    return tuple(tables)


def solve_subset_bruteforce(values, costs, capacity: float) -> WelfareSolution:
    """Exact argmax of subset value subject to subset cost <= capacity.

    Meet in the middle (Horowitz & Sahni 1974): every subset is a pair of a
    subset of the first half of the items and one of the second half. Each
    half keeps only its near-Pareto subsets (Nemhauser & Ullmann 1969; see
    ``_half_tables``), built once per item set. A solve forms the pair sums
    of the two lists in blocks of at most ``_TIE_BLOCK`` pairs; a pair fits
    when ``c_lo + c_hi <= capacity + TOL``. The candidates are the fitting
    pairs near the best pair sum. When more than one pair comes near, their
    values are re-summed in index order and the tie window applies to those
    sums, so the tie-break and the uniqueness flag do not depend on how a
    subset was split.
    """
    values = np.asarray(values, dtype=float)
    costs = np.asarray(costs, dtype=float)
    p = len(values)
    if p > ENUM_GUARD_P:
        raise SolverError(f"{p} projects exceed the enumeration guard of {ENUM_GUARD_P}")
    if math.isnan(capacity):
        raise ValueError("capacity must be a number, got nan")
    half = p // 2
    v_lo, c_lo, r_lo, m_lo, v_hi, c_hi, r_hi, m_hi = _half_tables(
        values.tobytes(), costs.tobytes()
    )
    rows = max(_TIE_BLOCK // len(v_hi), 1)
    starts = range(0, len(v_lo), rows)

    def block(start):
        """From low row ``start`` on, at most ``_TIE_BLOCK`` pair sums and which pairs fit."""
        lo = slice(start, start + rows)
        return start, v_lo[lo, None] + v_hi, c_lo[lo, None] + c_hi <= capacity + TOL

    # a lone block is formed once; more are formed anew on every pass, so a
    # solve holds one block at a time
    formed = [block(0)] if len(starts) == 1 else None

    def blocks():
        return formed or map(block, starts)

    top = max(sums.max(where=fits, initial=-np.inf) for _, sums, fits in blocks())
    if top == -np.inf and not any(fits.any() for _, _, fits in blocks()):
        raise SolverError(f"no subset fits within capacity {capacity!r}")
    # A pair sum and the index-order sum of the same subset differ by at most
    # p·eps·sum|v| (Higham 2002, §4.2), so every subset the index-order window
    # keeps is a candidate here. Infinite values give no such bound; they
    # keep the plain window.
    magnitude = sum(map(abs, values.tolist()))
    slack = p * math.ulp(1.0) * magnitude if magnitude < math.inf else 0.0
    floor = top - TIE_TOL - 2 * slack

    def candidates():
        """Per block, the fitting pairs whose pair sums reach ``floor``."""
        for start, sums, fits in blocks():
            lo, hi = np.nonzero(fits & (sums >= floor))
            yield start + lo, hi

    def index_sums(lo, hi):
        """Each pair's low sum, then its picked high items in index order."""
        sums, picks = v_lo[lo], m_hi[hi]
        for j in range(half, p):
            sums[(picks >> (j - half) & 1).astype(bool)] += values[j]
        return sums

    def tie_pass(window=None):
        """How many candidates tie (capped at 2) and the best-ranked one's
        mask: all of them, or those whose index-order sums reach ``window``."""
        ties, best_rank = 0, np.inf
        for lo, hi in candidates():
            if window is not None:
                tied = index_sums(lo, hi) >= window
                lo, hi = lo[tied], hi[tied]
            ties = min(ties + len(lo), 2)
            if not len(lo):
                continue
            ranks = r_lo[lo] + r_hi[hi]
            k = int(np.argmin(ranks))
            if ranks[k] < best_rank:
                best_rank = ranks[k]
                mask = int(m_lo[lo[k]]) | int(m_hi[hi[k]]) << half
        return ties, mask

    # a lone candidate is the optimum; between several, the window applies to
    # their index-order sums, so the largest of those comes first
    ties, mask = tie_pass()
    if ties > 1:
        best = max(index_sums(lo, hi).max() for lo, hi in candidates() if len(lo))
        ties, mask = tie_pass(best - TIE_TOL)

    subset = tuple(j for j in range(p) if mask >> j & 1)
    welfare, cost = (float(side[list(subset)].sum()) for side in (values, costs))
    return WelfareSolution(subset, welfare, cost, ties == 1)
