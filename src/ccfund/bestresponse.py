"""Exact single-agent best responses on a discrete contribution grid.

Given what everyone else has already contributed, one agent chooses grid
multiples of a smallest unit ``delta`` to maximize funded utility plus refunds.
The exact solver is a grouped-choice knapsack over budget units; a full
enumeration serves as its oracle, and for sum-additive refund schemes a binary
knapsack over residual costs recovers the same optimum. A separate
demonstrator shows why the continuous problem can fail to have an optimum at
all: shaving an arbitrarily small amount off a pivotal contribution grabs
whole bonus pools, so the supremum is approached but never attained.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import SolverError
from .model import TOL, ContributionProfile, Instance, _require_finite, evaluate
from .refunds import RefundScheme, threshold_general
from .welfare import solve_subset_bruteforce

#: Utility gaps at most this wide count as ties for tie-breaking.
UTILITY_TIE_TOL = 1e-12
#: Guard on the number of budget grid units.
UNIT_GUARD = 1_000_000
#: Guard on the number of enumerated grid profiles.
ENUM_GUARD = 10_000_000
_TINY = float(np.finfo(float).tiny)


@dataclass(frozen=True, eq=False)
class ResidualView:
    """One agent's view of the game after everyone else has moved.

    ``remaining`` holds per-project shortfalls (target minus others' total,
    clamped at zero); a zero shortfall means the project is funded no matter
    what this agent does.
    """

    agent: int
    others_totals: np.ndarray  # (p,)
    remaining: np.ndarray  # (p,)
    budget: float
    valuations: np.ndarray  # (p,) this agent's row
    bonuses: np.ndarray  # (p,)
    scheme: RefundScheme

    def __post_init__(self):
        # the exact solver's concave refund tables need finite, non-negative inputs
        vectors = {name: np.array(getattr(self, name), dtype=float)
                   for name in ("others_totals", "remaining", "valuations", "bonuses")}
        if len({arr.shape for arr in vectors.values()}) != 1:
            raise ValueError("view vectors must share one length")
        for name, arr in vectors.items():
            _require_finite(name, arr)
            if np.any(arr < 0):
                raise ValueError(f"{name} must be non-negative")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        budget = float(self.budget)
        if not (np.isfinite(budget) and budget >= 0):
            raise ValueError(f"budget must be finite and non-negative, got {self.budget!r}")
        object.__setattr__(self, "budget", budget)

    @property
    def n_projects(self) -> int:
        return len(self.remaining)


@dataclass(frozen=True, eq=False)
class BestResponse:
    """A grid contribution vector with funding flags and its utility."""

    contributions: np.ndarray  # (p,), grid multiples
    funded: np.ndarray  # (p,) bool
    utility: float
    optimal: bool


def make_view(instance: Instance, profile, agent: int) -> ResidualView:
    """Build an agent's residual view from a full contribution matrix.

    The agent's own row in ``profile`` is ignored; only the other rows count
    toward the per-project totals, and each must keep within its agent's
    budget, as :meth:`ContributionProfile.validate_against` judges it.
    """
    if not 0 <= agent < instance.n_agents:
        raise ValueError(f"agent index {agent} out of range for {instance.n_agents} agents")
    if isinstance(profile, ContributionProfile):
        x = profile.contributions
    else:
        x = np.asarray(profile, dtype=float)
    if x.shape != instance.valuations.shape:
        raise ValueError(
            f"profile shape {x.shape} does not match instance shape {instance.valuations.shape}"
        )
    rest = x.copy()
    rest[agent] = 0.0
    ContributionProfile(rest).validate_against(instance)
    others = rest.sum(axis=0)
    remaining = np.clip(instance.targets - others, 0.0, None)
    return ResidualView(
        agent=agent,
        others_totals=others,
        remaining=remaining,
        budget=float(instance.budgets[agent]),
        valuations=instance.valuations[agent],
        bonuses=instance.bonuses,
        scheme=instance.refund,
    )


def _grid_layout(view: ResidualView, delta: float) -> tuple[int, list[int]]:
    """Budget units and, per project, the units needed to fund it.

    Shortfalls round up to the grid, so a funding spend never leaves the
    project short; contributions below that stay strictly under the shortfall.
    """
    if not (delta > 0 and math.isfinite(delta)):
        raise ValueError(f"delta must be positive and finite, got {delta!r}")
    # quotients stay floats until checked: past float range they are infinite
    budget_units = np.floor(view.budget / delta + 1e-9)
    if budget_units > UNIT_GUARD:
        raise SolverError(
            f"budget {view.budget} spans {budget_units:.0f} grid units at delta {delta}, "
            f"exceeding the guard of {UNIT_GUARD}"
        )
    fund = [r / delta - 1e-9 if r > TOL else 0.0 for r in view.remaining.tolist()]
    for j, units in enumerate(fund):
        if not math.isfinite(units):
            raise SolverError(f"project {j}'s shortfall {view.remaining[j]} spans more "
                              f"grid units than a float holds at delta {delta}")
    return int(budget_units), [math.ceil(units) for units in fund]


def _value_tables(
    view: ResidualView, delta: float, budget_units: int, fund_units: list[int]
) -> list[np.ndarray]:
    """Per-project value of spending b grid units, for b = 0..cap.

    Spending exactly the funding amount yields valuation minus spend; anything
    below yields the refund share with the agent's own money counted in the
    project total. Spending beyond the funding amount is dominated and is not
    tabulated.
    """
    caps = [min(units, budget_units) for units in fund_units]
    grid = np.arange(max(caps, default=0) + 1, dtype=float) * delta
    tables = []
    for j, units in enumerate(fund_units):
        x = grid[: caps[j] + 1]
        vals = np.asarray(
            view.scheme.share(x, view.bonuses[j], view.others_totals[j] + x), dtype=float
        )
        if units <= budget_units:
            vals[units] = view.valuations[j] - units * delta
        tables.append(vals)
    return tables


def _assemble(delta, chosen_units, fund_units, utility) -> BestResponse:
    """The response spending ``chosen_units`` grid units per project; every solver's is optimal."""
    chosen = np.asarray(chosen_units, dtype=np.int64)
    contributions = chosen * delta
    funded = chosen == np.array(fund_units, dtype=np.int64)
    contributions.setflags(write=False)
    funded.setflags(write=False)
    return BestResponse(contributions, funded, float(utility), True)


@functools.lru_cache(maxsize=1)
def _row_plan(width: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """The rows :func:`_monotone_search` settles, level by level, at this width.

    A level holds the middle row of each open segment and the nearest
    settled rows to the segment's left and right, whose argmaxes bound its
    columns. Rows -1 and ``width`` stand for columns 0 and ``width - 1``.
    Segments keep the order of the recursion: left halves, then right halves.
    Every step of one best response has the same width, so the plan is built
    at most once per response, and only when a step searches.
    """
    plan = []
    lo, hi = np.array([0]), np.array([width - 1])
    while lo.size:
        mid = (lo + hi) // 2
        level = (mid, lo - 1, hi + 1)
        for arr in level:
            arr.setflags(write=False)
        plan.append(level)
        lo, hi = np.concatenate([lo, mid + 1]), np.concatenate([mid - 1, hi])
        keep = lo <= hi
        lo, hi = lo[keep], hi[keep]
    return tuple(plan)


def _concave_maxplus(t: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``w[k] = max(t[b] + u[k - b] for 0 <= b <= min(k, len(t) - 1))`` for concave ``t``.

    The two dominance tests and the merge below return each row's float
    maximum. Steps that neither settles run :func:`_monotone_search`, whose
    rows are float sums of one split each and may fall a few ulps below the
    maximum, within the bound it states.

    A (max,+) convolution merges the two slope sequences (Bussieck et al.,
    Oper. Res. Lett. 1994). When every increment of ``t`` is at most every
    increment of ``u``, telescoping them gives t[b] + u[k-b] <= t[b*] + u[k-b*]
    over the reals for b* = 0; when every one is at least, for
    b* = min(k, len(t) - 1). Rounding is monotone, so that float sum is the
    row's float maximum. A computed increment is within 2^-53 of
    its size of the real one, either sign (exact when subnormal), so the
    strict test asks for a gap of 2^-50 times the largest increment size plus
    the least normal float, which also covers rounding the margin and its
    sum. Equal slopes fail it, as do NaN and infinite increments (a margin
    that is not finite).

    Otherwise, when both computed increment sequences ``dt`` and ``du`` are
    non-increasing and the margin ``M`` and every increment are finite, the
    slopes merge in O(U). Moving row k's split from b to b + 1 changes its
    sum by dt[b] - du[k-1-b] (in the real increments). Let lo(k) count the
    b < min(k, len(t) - 1) with dt[b] > fl(du[k-1-b] + M), and hi(k) those with
    dt[b] > fl(du[k-1-b] - M). Each test is true, then false, as b grows
    (dt falls, du[k-1-b] rises, rounding is monotone), so lo(k) and hi(k)
    are how many of dt's entries come among the first k of a descending
    merge with fl(du + M) or fl(du - M), ties to ``du``: one stable sort of
    the two runs and a cumulative count each. By the margin above, for
    b < lo(k) the real increment is positive and for b >= hi(k) negative,
    so every real argmax of row k lies in [lo(k), hi(k)], and since rounding
    is monotone the largest float sum in that window is the row's maximum.
    No real concavity is assumed. A window rarely holds more than one
    split; if the windows together hold more than U extra, the search runs
    instead, as it does for steps whose computed increments are not
    monotone: tables past a funding jump, rounded linear tables, ulp dips.
    """
    dt, du = t[1:] - t[:-1], u[1:] - u[:-1]
    t_lo, t_hi = dt.min(initial=np.inf), dt.max(initial=-np.inf)
    u_lo, u_hi = du.min(initial=np.inf), du.max(initial=-np.inf)
    # max drops a NaN unless it comes first: a NaN increment of t makes the
    # margin NaN, and the merge's check adds u_lo to catch one of u
    margin = 2.0**-50 * max(t_hi, -t_lo, u_hi, -u_lo, 0.0) + _TINY
    if t_hi + margin < u_lo:
        return t[0] + u
    n = len(u)
    if u_hi + margin < t_lo:
        m = min(len(t), n) - 1
        return np.concatenate([t[:m] + u[0], t[m] + u[: n - m]])
    if not (math.isfinite(margin + u_lo) and (dt[1:] <= dt[:-1]).all()
            and (du[1:] <= du[:-1]).all()):
        return _monotone_search(t, u)

    def taken(shift):
        order = np.argsort(np.concatenate([-(du + shift), -dt]), kind="stable")
        count = np.zeros(n, dtype=np.int64)
        np.cumsum(order[: n - 1] >= n - 1, out=count[1:])
        return count

    lo, hi = taken(margin), taken(-margin)
    lengths = hi - lo + 1
    total = lengths.sum()
    if total > 2 * n:
        return _monotone_search(t, u)
    w = t[lo] + u[np.arange(n) - lo]
    if total > n:
        wide = np.flatnonzero(lengths > 1)
        cols, starts = _spans(lo[wide], lengths[wide])
        w[wide] = np.maximum.reduceat(t[cols] + u[wide.repeat(lengths[wide]) - cols], starts)
    return w


def _spans(lo: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The runs ``lo[i], ..., lo[i] + lengths[i] - 1`` end to end, and where each starts."""
    ends = lengths.cumsum()
    starts = ends - lengths
    return np.arange(ends[-1]) + (lo - starts).repeat(lengths), starts


def _monotone_search(t: np.ndarray, u: np.ndarray) -> np.ndarray:
    """:func:`_concave_maxplus` by monotone-argmax search, whatever the slopes.

    With ``t`` concave, the matrix ``A[k, i] = t[k - i] + u[i]`` is inverse
    Monge, so the leftmost maximizing column of row k never moves left as k grows
    (Aggarwal et al., Algorithmica 1987). Divide and conquer over the rows
    (:func:`_row_plan` at ``len(u)``) then bounds each row's columns by the
    argmaxes of the settled rows around it. Each level is one batch of numpy
    calls over all of its rows, whose column ranges overlap only at their
    ends: about log2(len(u)) levels of O(len(u)) work. No later row reads
    the last level's argmaxes, so that level skips them.

    Each ``w[k]`` is the float sum of one split of row k, so it is never
    above the row's float maximum, but it reaches that maximum only when the
    float sums are themselves inverse Monge, which rounding can break by an
    ulp even where the real sums are (rounded linear tables lose one on some
    rows). Say every float sum lies within d of ``t'[k - i] + u[i]`` for a
    ``t'`` concave over the reals. A row settled on level l (from 0) then
    lies at most 2d(l + 1) below its float maximum, and its argmax's sum at
    most that below the real maximum: level 0 searches every column, and by
    the Monge inequality the columns between two settled rows' argmaxes hold,
    for each row between them, one whose real sum is at most their larger
    shortfall below that row's real maximum. Over the whole plan that is
    2d times its number of levels.
    """
    m = len(t) - 1
    n = len(u)
    w = np.empty(n)
    # arg[r] is row r's leftmost argmax; the sentinel row -1 is the last slot
    arg = np.empty(n + 2, dtype=np.int64)
    arg[n], arg[-1] = n - 1, 0
    plan = _row_plan(n)
    last = len(plan) - 1
    for level, (mid, left, right) in enumerate(plan):
        lo = np.maximum(arg[left], mid - m)
        lengths = np.minimum(arg[right], mid) - lo + 1
        cols, starts = _spans(lo, lengths)
        vals = t[mid.repeat(lengths) - cols] + u[cols]
        top = np.maximum.reduceat(vals, starts)
        w[mid] = top
        if level < last:
            arg[mid] = np.minimum.reduceat(np.where(vals == top.repeat(lengths), cols, n), starts)
    return w


def best_response_exact(view: ResidualView, delta: float) -> BestResponse:
    """Optimal grid response via a budget-indexed dynamic program.

    ``best[j][k]`` is the best value projects j.. reach with at most k budget
    units. Below its funding spend a project's value table is a refund share,
    concave in the spend for every shipped scheme (``x * B / (O + x)`` with
    B, O >= 0 for proportional refunds, ``slope * x`` for linear ones), so
    each step is a concave (max,+) convolution (:func:`_concave_maxplus`):
    O(U) when one side's slopes dominate the other's or both sides' computed
    slopes fall, else a monotone-argmax search; the funding spend then adds
    one shifted vector. That is at most O(p * U log U) for U budget units,
    against O(p * U^2) for trying every spend.

    Ties within ``UTILITY_TIE_TOL`` of the optimum resolve to the smallest
    total spend, which is the least k whose ``best[0][k]`` ties it, then to
    money placed on the earliest project indices: walking the projects in
    order, each takes the largest spend that still leaves a tying completion
    (matching the subset solver's preference for lower-indexed projects).
    """
    budget_units, fund_units = _grid_layout(view, delta)
    tables = _value_tables(view, delta, budget_units, fund_units)
    width = budget_units + 1

    best = [np.zeros(width)]
    for t, f in zip(reversed(tables), reversed(fund_units)):
        after = best[-1]
        cur = _concave_maxplus(t[:f], after) if f else np.full(width, -np.inf)
        if f <= budget_units:
            np.maximum(cur[f:], t[f] + after[: width - f], out=cur[f:])
        best.append(cur)
    best.reverse()

    need = best[0][-1] - UTILITY_TIE_TOL
    k = int(np.argmax(best[0] >= need))
    chosen = []
    for t, after in zip(tables, best[1:]):
        m = min(len(t) - 1, k)
        cand = t[: m + 1] + after[k - m : k + 1][::-1]
        # rounding in the running need can leave it an ulp above the best
        # continuation, which always ties
        pick = m - int((cand[::-1] >= min(need, cand.max())).argmax())
        chosen.append(pick)
        need -= t[pick]
        k -= pick
    # summed in project order, as response_utility and the oracle sum
    utility = sum(t[pick] for t, pick in zip(tables, chosen))
    return _assemble(delta, chosen, fund_units, utility)


def best_response_bruteforce(view: ResidualView, delta: float) -> BestResponse:
    """Oracle: enumerate every feasible grid profile and take the argmax.

    Tie-break matches the exact solver: smallest spend, then money on the
    earliest projects (the last survivor in lexicographic enumeration order).
    """
    budget_units, fund_units = _grid_layout(view, delta)
    caps = [min(u, budget_units) for u in fund_units]
    sizes = [c + 1 for c in caps]
    total = int(np.prod([float(s) for s in sizes]))
    if total > ENUM_GUARD:
        raise SolverError(f"{total} grid profiles exceed the enumeration guard of {ENUM_GUARD}")
    tables = _value_tables(view, delta, budget_units, fund_units)

    util = tables[0].copy()
    spent = np.arange(sizes[0], dtype=np.int64)
    for j in range(1, view.n_projects):
        util = np.add.outer(util, tables[j]).ravel()
        spent = np.add.outer(spent, np.arange(sizes[j], dtype=np.int64)).ravel()
    feasible = spent <= budget_units
    best = util[feasible].max()
    cand = feasible & (util >= best - UTILITY_TIE_TOL)
    min_spent = spent[cand].min()
    cand &= spent == min_spent
    idx = int(np.flatnonzero(cand)[-1])
    chosen = np.unravel_index(idx, sizes)
    return _assemble(delta, list(chosen), fund_units, util[idx])


def response_utility(view: ResidualView, contributions) -> float:
    """Re-derive a response's utility straight from the utility definition.

    Independent of the solvers' value tables; used to cross-check them.
    """
    x = np.asarray(contributions, dtype=float)
    if x.shape != view.remaining.shape:
        raise ValueError("contribution vector length does not match the view")
    if np.any(x < 0):
        raise ValueError("contributions must be non-negative")
    if x.sum() > view.budget + TOL:
        raise ValueError(f"contributions {x.sum():.12g} exceed budget {view.budget:.12g}")
    total = 0.0
    for j in range(view.n_projects):
        if x[j] >= view.remaining[j] - TOL:
            total += view.valuations[j] - x[j]
        else:
            pool_total = view.others_totals[j] + x[j]
            if pool_total > 0.0:
                total += view.scheme.share(x[j], view.bonuses[j], pool_total)
    return total


def knapsack_form_oracle(view: ResidualView, delta: float = 0.01) -> BestResponse:
    """Best response for sum-additive schemes via a binary knapsack.

    Items are projects with cost equal to the shortfall and value equal to
    valuation minus shortfall minus the refund forgone by locking that money
    in; leftover budget earns its refund wherever it sits, so the objective
    needs no placement detail. The returned contributions fund the chosen
    projects exactly and spread what is left across the others on the grid,
    keeping each strictly under its shortfall. When shortfalls or the budget
    are off the grid those contributions can earn less than the knapsack
    optimum; the oracle then raises :class:`SolverError` instead of claiming it.
    """
    if not view.scheme.sum_additive:
        raise ValueError(f"scheme {view.scheme.tag!r} is not sum-additive")
    r = view.remaining
    values = view.valuations - r - np.asarray(
        view.scheme.share(r, view.bonuses, np.maximum(r, 1.0)), dtype=float
    )
    solution = solve_subset_bruteforce(values, r, view.budget)
    chosen = set(solution.subset)

    budget_units, fund_units = _grid_layout(view, delta)
    chosen_units = [0] * view.n_projects
    spent_units = 0
    for j in solution.subset:
        chosen_units[j] = fund_units[j]
        spent_units += fund_units[j]
    if spent_units > budget_units:
        raise SolverError(
            "funding spends overflow the budget grid; the oracle needs "
            "grid-aligned shortfalls"
        )
    left = budget_units - spent_units
    for j in range(view.n_projects):
        if j in chosen or left <= 0:
            continue
        room = max(fund_units[j] - 1, 0)
        put = min(room, left)
        chosen_units[j] = put
        left -= put

    # Item values already subtract the refund forgone by funding, so the
    # objective is the knapsack value plus the refund of the whole budget.
    utility = solution.welfare + view.scheme.share(
        view.budget, view.bonuses[0], view.budget
    )
    response = _assemble(delta, chosen_units, fund_units, utility)
    reached = response_utility(view, response.contributions)
    if abs(reached - utility) > 1e-9:
        off_grid = {j: float(r[j]) for j in range(view.n_projects)
                    if abs(fund_units[j] * delta - r[j]) > TOL}
        raise SolverError(
            f"the knapsack optimum {utility:.12g} is not reached on the delta={delta:g} grid "
            f"(its contributions earn {reached:.12g}); shortfalls off the grid: {off_grid}, "
            f"budget {view.budget:.12g}"
        )
    return response


@dataclass(frozen=True)
class DiscontinuityReport:
    """Evidence that the continuous best response has no maximizer.

    Deviation utilities grow strictly as the shaved amount shrinks, yet at
    zero the pivotal project funds and utility drops; the supremum is real but
    unattained.
    """

    epsilons: tuple[float, ...]
    deviation_utilities: tuple[float, ...]
    funded_utility: float
    limit_utility: float
    gap: float
    strictly_increasing: bool
    all_exceed_funded: bool
    sup_attained: bool


def demonstrate_nonexistence(instance: Instance, epsilons) -> DiscontinuityReport:
    """Play out the pivotal-agent deviation family on a symmetric fixture.

    Requires two identical agents, three identical projects, full-headroom
    bonus pools and budgets equal to the single-project threshold. Agent one
    sinks its whole budget into the first project; agent two either completes
    the funding or shaves ``eps`` off, parks ``eps/2`` in each other project,
    and collects their entire bonus pools.
    """
    epsilons = tuple(float(e) for e in epsilons)
    _require_identical_fixture(instance)
    if not epsilons or any(e <= 0 for e in epsilons):
        raise ValueError("epsilons must be positive")
    if any(a <= b for a, b in zip(epsilons, epsilons[1:])):
        raise ValueError("epsilons must be strictly decreasing")
    g1, g2 = float(instance.budgets[0]), float(instance.budgets[1])
    if epsilons[0] >= g2:
        raise ValueError("epsilons must stay below the deviating agent's budget")

    def agent2_utility(eps: float) -> float:
        rows = np.array(
            [[g1, 0.0, 0.0], [g2 - eps, eps / 2.0, eps / 2.0]]
        )
        outcome = evaluate(instance, ContributionProfile(rows))
        return float(outcome.agent_utilities[1])

    funded_utility = agent2_utility(0.0)
    utilities = tuple(agent2_utility(e) for e in epsilons)
    limit_utility = agent2_utility(1e-12)
    increasing = all(a < b for a, b in zip(utilities, utilities[1:]))
    exceed = all(u > funded_utility for u in utilities)
    gap = limit_utility - funded_utility
    return DiscontinuityReport(
        epsilons=epsilons,
        deviation_utilities=utilities,
        funded_utility=funded_utility,
        limit_utility=limit_utility,
        gap=gap,
        strictly_increasing=increasing,
        all_exceed_funded=exceed,
        sup_attained=False,
    )


def _require_identical_fixture(instance: Instance) -> None:
    if instance.n_agents != 2 or instance.n_projects != 3:
        raise ValueError("fixture requires exactly 2 agents and 3 projects")
    theta = instance.valuations
    if np.ptp(theta) > TOL:
        raise ValueError("fixture requires identical valuations everywhere")
    if np.ptp(instance.targets) > TOL or np.ptp(instance.bonuses) > TOL:
        raise ValueError("fixture requires identical projects")
    headroom = instance.vartheta - instance.targets
    if np.any(np.abs(instance.bonuses - headroom) > TOL):
        raise ValueError("fixture requires bonuses equal to the welfare headroom")
    bar = threshold_general(
        instance.refund,
        float(theta[0, 0]),
        float(instance.targets[0]),
        float(instance.bonuses[0]),
    )
    if np.any(np.abs(instance.budgets - bar) > 1e-8):
        raise ValueError("fixture requires budgets equal to the single-project threshold")
