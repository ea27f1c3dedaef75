"""Core game types and outcome evaluation.

An :class:`Instance` bundles the projects (target costs, refund bonus pools),
the agents (budgets, per-project valuations) and the refund scheme in force.
A :class:`ContributionProfile` is what solvers and heuristics produce, and
:func:`evaluate` turns the pair into an :class:`Outcome` with funding flags,
per-agent utilities and social welfare.

All types are immutable after construction; evaluation is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:
    from .refunds import RefundScheme

#: Absolute tolerance for funding, budget and bonus comparisons.
TOL = 1e-9


class BudgetStatus(Enum):
    """Whether the pooled budget covers the total target cost."""

    SURPLUS = "surplus"
    DEFICIT = "deficit"


def _frozen_array(values) -> np.ndarray:
    # C order fixes the order numpy sums in, so a profile evaluates to the
    # same bits however its array was laid out
    arr = np.array(values, dtype=float, order="C")
    arr.setflags(write=False)
    return arr


def _require_finite(name: str, arr: np.ndarray) -> None:
    # NaN fails every comparison, so the range checks alone would wave it through
    if not np.isfinite(arr).all():
        index = tuple(int(i) for i in np.argwhere(~np.isfinite(arr))[0])
        raise ValueError(f"{name} must be finite, got {arr[index]} at index {index}")


def _project_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over the first axis, in the order numpy's ``add.reduce`` sums a row.

    numpy adds the float64 values of a contiguous row by ``pairwise_sum``
    (``loops_utils.h.src``): one by one below 8 values, in 8 interleaved
    accumulators combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) and
    followed by the remainder up to 128, in halves split at a multiple of 8
    above that; the result is added to the identity 0.0. Taking the same
    order over whole slices gives every row's sum the bits of
    ``x.sum(axis=-1)`` in a few long passes, where numpy runs one short
    inner loop per row (the order matters: Higham 2002, §4.2). A zero
    partial sum of the other sign changes later sums at most in the sign of
    a zero, so one added 0.0 anywhere on the leftmost chain of additions
    stands in for the identity. ``_evaluate`` sums its (n, ..., p) per-pair
    utilities here, over strided project slices: numpy's ``sum(axis=-1)``
    runs one p-long inner loop per row, 390 against 119 µs on a 4×41×100×10
    play group (2 vCPUs, numpy 2.4.6).
    """
    count = len(terms)
    if count > 128:
        half = count // 2 - count // 2 % 8
        total = _project_sum(terms[:half])
        total += _project_sum(terms[half:])
        return total
    if count < 8:
        total = terms[0] + 0.0
        rest = terms[1:]
    else:
        end = count - count % 8
        acc = list(terms[:8])
        for start in range(8, end, 8):
            acc = [a + b for a, b in zip(acc, terms[start : start + 8])]
        total = acc[0] + acc[1]
        total += acc[2] + acc[3]
        upper = acc[4] + acc[5]
        upper += acc[6] + acc[7]
        total += upper
        total += 0.0
        rest = terms[end:]
    for term in rest:
        total += term
    return total


def _batch_label(index: tuple) -> str:
    """Where in a stack of profiles an entry sits; empty for a single profile."""
    return f" in profile {tuple(int(b) for b in index)}" if index else ""


def _checked_totals(valuations, budgets, targets, bonuses) -> np.ndarray | None:
    """Per-project total valuations of games stacked on leading axes, or None.

    None when a game fails a value check of :class:`Instance`, which names
    it. One pass tests the signs of all four arrays: a NaN makes a minimum
    NaN, which fails its sign test.
    """
    flat = np.concatenate((valuations, budgets, targets, bonuses), axis=None)
    money = targets.size + bonuses.size
    if not (flat.max() < np.inf and flat[:-money].min() >= 0 and flat[-money:].min() > 0):
        return None
    vartheta = valuations.sum(axis=-2)
    if (vartheta > targets).all() and (bonuses <= vartheta - targets + TOL).all():
        return vartheta
    return None


@dataclass(frozen=True, eq=False)
class Instance:
    """One crowdfunding game.

    Agents hold non-negative budgets and valuations; every project must have
    a positive target below its total valuation, and a positive bonus pool no
    larger than the welfare headroom (total valuation minus target). One
    refund scheme applies to every project.
    """

    valuations: np.ndarray  # (n_agents, n_projects)
    budgets: np.ndarray  # (n_agents,)
    targets: np.ndarray  # (n_projects,)
    bonuses: np.ndarray  # (n_projects,)
    refund: "RefundScheme"

    def __post_init__(self):
        valuations = _frozen_array(self.valuations)
        budgets = _frozen_array(self.budgets)
        targets = _frozen_array(self.targets)
        bonuses = _frozen_array(self.bonuses)
        if valuations.ndim != 2:
            raise ValueError(f"valuations must be a matrix, got shape {valuations.shape}")
        n, p = valuations.shape
        if n < 1 or p < 1:
            raise ValueError(f"need at least one agent and one project, got {n}x{p}")
        if budgets.shape != (n,):
            raise ValueError(f"budgets shape {budgets.shape} does not match {n} agents")
        if targets.shape != (p,) or bonuses.shape != (p,):
            raise ValueError(
                f"targets/bonuses shapes {targets.shape}/{bonuses.shape} do not match {p} projects"
            )
        vartheta = _checked_totals(valuations, budgets, targets, bonuses)
        if vartheta is None:  # name the first check that fails
            for name, arr in zip(("valuations", "budgets", "targets", "bonuses"),
                                 (valuations, budgets, targets, bonuses)):
                _require_finite(name, arr)
            if (valuations < 0).any():
                raise ValueError("valuations must be non-negative")
            if (budgets < 0).any():
                raise ValueError("budgets must be non-negative")
            if (targets <= 0).any():
                raise ValueError("targets must be positive")
            if (bonuses <= 0).any():
                raise ValueError("bonuses must be positive")
            vartheta = valuations.sum(axis=0)
            if (vartheta <= targets).any():
                j = int(np.argmax(vartheta <= targets))
                raise ValueError(
                    f"project {j} has total valuation {vartheta[j]:.12g} not above its "
                    f"target {targets[j]:.12g}"
                )
            j = int(np.argmax(bonuses > vartheta - targets + TOL))
            raise ValueError(
                f"project {j} bonus {bonuses[j]:.12g} exceeds welfare headroom "
                f"{vartheta[j] - targets[j]:.12g}"
            )
        object.__setattr__(self, "valuations", valuations)
        object.__setattr__(self, "budgets", budgets)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "bonuses", bonuses)
        object.__setattr__(self, "_vartheta", _frozen_array(vartheta))

    @property
    def n_agents(self) -> int:
        return self.valuations.shape[0]

    @property
    def n_projects(self) -> int:
        return self.valuations.shape[1]

    @property
    def vartheta(self) -> np.ndarray:
        """Total valuation per project."""
        return self._vartheta  # type: ignore[attr-defined]


@dataclass(frozen=True, eq=False)
class ContributionProfile:
    """Matrix of per-agent, per-project contributions.

    Leading axes stack independent profiles of one instance: a
    ``(..., n_agents, n_projects)`` array is validated and evaluated as one
    profile per leading index.
    """

    contributions: np.ndarray  # (..., n_agents, n_projects)

    def __post_init__(self):
        contributions = _frozen_array(self.contributions)
        if contributions.ndim < 2:
            raise ValueError(f"contributions must be a matrix, got shape {contributions.shape}")
        _require_finite("contributions", contributions)
        if np.any(contributions < 0):
            *batch, i, j = np.unravel_index(int(np.argmin(contributions)), contributions.shape)
            raise ValueError(
                f"contribution by agent {i} to project {j}{_batch_label(tuple(batch))} is negative "
                f"({contributions[(*batch, i, j)]:.12g})"
            )
        object.__setattr__(self, "contributions", contributions)

    def validate_against(self, instance: Instance) -> None:
        """Raise if dimensions or budget feasibility fail for this instance."""
        if self.contributions.shape[-2:] != instance.valuations.shape:
            raise ValueError(
                f"profile shape {self.contributions.shape} does not match instance "
                f"shape {instance.valuations.shape}"
            )
        rows = self.contributions.sum(axis=-1)
        over = rows > instance.budgets + TOL
        if np.any(over):
            *batch, i = np.unravel_index(int(np.argmax(over)), over.shape)
            raise ValueError(
                f"agent {i}{_batch_label(tuple(batch))} spends {rows[(*batch, i)]:.12g}, "
                f"exceeding its budget {instance.budgets[i]:.12g}"
            )


@dataclass(frozen=True, eq=False)
class Outcome:
    """Funding flags, utilities and social welfare for one evaluated profile.

    A stacked profile gives stacked fields: every array gains the profile's
    leading axes and ``social_welfare`` becomes an array over them.
    """

    funded: np.ndarray  # (..., p) bool
    totals: np.ndarray  # (..., p)
    agent_utilities: np.ndarray  # (..., n)
    per_pair_utilities: np.ndarray  # (..., n, p)
    social_welfare: float | np.ndarray


def evaluate(instance: Instance, profile: ContributionProfile) -> Outcome:
    """Evaluate a contribution profile, or every profile of a stack at once.

    A project is funded when its total reaches the target (within tolerance).
    A funded project pays each agent valuation minus contribution; an unfunded
    project with any money in it pays refund shares; an untouched project pays
    nothing. Each stacked profile evaluates to the same bits it would alone.
    The profile is checked against the instance first; the work is
    :func:`_evaluate`'s on an agents-first view of the contributions.
    """
    profile.validate_against(instance)
    x = np.moveaxis(profile.contributions, -2, 0)
    valuations = instance.valuations.reshape(x.shape[:1] + (1,) * (x.ndim - 2) + x.shape[-1:])
    return _evaluate(valuations, instance.targets, instance.bonuses,
                     instance.vartheta - instance.targets, instance.refund, x)


def _evaluate(valuations, targets, bonuses, gains, scheme: "RefundScheme", x: np.ndarray,
              out: np.ndarray | None = None) -> Outcome:
    """:func:`evaluate` on agent-major contributions ``x`` of shape (n, ..., p).

    The games broadcast over the stack axes of ``x``: ``valuations`` is
    (n, ..., p), and ``targets``, ``bonuses`` and ``gains`` (total valuation
    minus target) are (..., p). ``out``, of ``x``'s shape and apart from it,
    takes the per-pair utilities. ``x`` is not checked; the caller vouches
    that it is finite, non-negative and within budget, as a checked profile
    is and as play of checked intents is (see :func:`clamp_play`). Its project
    axis must be innermost in memory: then the totals ``x.sum(axis=0)`` are
    the left fold over agents that ``sum(axis=-2)`` runs over the (..., n, p)
    layout, and the sums over projects add whole project slices in numpy's
    order along a row, so every field has the bits ``sum`` gives that layout.
    The funded entries are one gather and one scatter over the funded
    (stack, project) columns.
    """
    if x.shape[-1] == 1:
        # numpy drops the length-1 project axis and sums the column pairwise
        totals = np.ascontiguousarray(np.moveaxis(x, 0, -1)).sum(axis=-1)
    else:
        totals = x.sum(axis=0)
    funded = totals >= targets - TOL
    # pools laid out as the totals are: a stack axis broadcast inside them
    # would cut every inner loop of the share pass to p values
    bonuses = np.ascontiguousarray(np.broadcast_to(bonuses, totals.shape))
    per_pair = np.empty(x.shape) if out is None else out
    if scheme.writes_out:
        scheme.share(x, bonuses, totals, out=per_pair)
    else:  # a scalar, a view or x itself: copied in, so x stays as it is
        per_pair[...] = scheme.share(x, bonuses, totals)
    # nobody paid into these: +0.0, as a refund share of -0.0 would not be
    per_pair[(slice(None), *np.nonzero(totals <= 0.0))] = 0.0
    columns = (slice(None), *np.nonzero(funded))
    per_pair[columns] = np.broadcast_to(valuations, x.shape)[columns] - x[columns]
    welfare = (gains * funded).sum(axis=-1)
    if welfare.ndim == 0:
        welfare = float(welfare)
    else:
        welfare.setflags(write=False)
    utilities = np.moveaxis(_project_sum(np.moveaxis(per_pair, -1, 0)), 0, -1)
    per_pair = np.moveaxis(per_pair, 0, -2)
    for field in (funded, totals, utilities, per_pair):
        field.setflags(write=False)
    return Outcome(funded, totals, utilities, per_pair, welfare)


def check_budget_surplus(instance: Instance) -> BudgetStatus:
    """Surplus when the pooled budget covers the summed targets, else deficit."""
    if instance.budgets.sum() >= instance.targets.sum() - TOL:
        return BudgetStatus.SURPLUS
    return BudgetStatus.DEFICIT


def _subset_indices(instance: Instance, subset: Sequence[int]) -> tuple[int, ...]:
    """``subset`` as a tuple, refused with a duplicate or out-of-range index."""
    subset = tuple(subset)
    if len(set(subset)) != len(subset):
        raise ValueError(f"subset {subset} contains duplicate project indices")
    for j in subset:
        if not 0 <= j < instance.n_projects:
            raise ValueError(f"subset index {j} out of range for {instance.n_projects} projects")
    return subset


def check_subset_feasibility(
    instance: Instance, subset: Sequence[int], thresholds: np.ndarray
) -> bool:
    """True when every agent can afford its thresholds across the subset."""
    subset = _subset_indices(instance, subset)
    if not subset:
        return True
    need = thresholds[:, list(subset)].sum(axis=1)
    return bool(np.all(instance.budgets >= need - TOL))
