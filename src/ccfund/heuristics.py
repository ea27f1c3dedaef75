"""Contribution heuristics and the clamped play-out engine.

Five rules turn an agent's budget into intended contributions; the play-out
engine then walks agents in order and lets each contribute the minimum of its
intent and whatever the project still needs, so no project is ever overfunded
and every realized row stays within budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import ContributionProfile, Instance, _require_finite


class Heuristic(str, Enum):
    """Contribution rules agents can play."""

    SYMMETRIC = "symmetric"
    WEIGHTED = "weighted"
    GREEDY_THETA = "greedy-theta"
    GREEDY_VARTHETA = "greedy-vartheta"
    OPT_WELFARE = "opt-welfare"


HEURISTIC_NAMES = tuple(h.value for h in Heuristic)

_NEEDS_THRESHOLDS = {Heuristic.GREEDY_THETA, Heuristic.GREEDY_VARTHETA, Heuristic.OPT_WELFARE}


@dataclass(frozen=True)
class Assignment:
    """One heuristic per agent; deviators are whoever is not on the baseline."""

    heuristics: tuple[Heuristic, ...]

    def __post_init__(self):
        # the type test skips the slow enum lookup for entries already coerced
        object.__setattr__(
            self,
            "heuristics",
            tuple(h if type(h) is Heuristic else Heuristic(h) for h in self.heuristics),
        )

    @classmethod
    def uniform(cls, heuristic: Heuristic, n_agents: int) -> "Assignment":
        return cls((Heuristic(heuristic),) * n_agents)


PLAY_ORDERS = ("ascending", "random")


@dataclass(frozen=True)
class PlayOrder:
    """Agent processing order for the clamped play-out.

    A random order is a permutation drawn by ``numpy.random.default_rng``
    from ``seed``: an int, or a tuple of ints used as seed-sequence entropy.
    """

    mode: str = "ascending"  # one of PLAY_ORDERS
    seed: int | tuple[int, ...] = 0

    def __post_init__(self):
        if self.mode not in PLAY_ORDERS:
            raise ValueError(f"unknown play order {self.mode!r}; expected one of {PLAY_ORDERS}")

    def permutation(self, n_agents: int) -> np.ndarray:
        if self.mode == "ascending":
            return np.arange(n_agents)
        return np.random.default_rng(self.seed).permutation(n_agents)


def _prefix_capped(caps: np.ndarray, budgets: np.ndarray) -> np.ndarray:
    """Allocate each row's budget left to right, capping entries at ``caps``."""
    cum_before = np.concatenate(
        [np.zeros((caps.shape[0], 1)), np.cumsum(caps, axis=1)[:, :-1]], axis=1
    )
    return np.clip(budgets[:, None] - cum_before, 0.0, caps)


def _intent_rows(
    heuristic: Heuristic,
    instance: Instance,
    agents: np.ndarray,
    pstar: tuple[int, ...] | None,
    thresholds: np.ndarray | None,
) -> np.ndarray:
    theta = instance.valuations[agents]
    budgets = instance.budgets[agents]
    p = instance.n_projects

    if heuristic in _NEEDS_THRESHOLDS and thresholds is None:
        raise ValueError(f"{heuristic.value} needs a threshold matrix")

    if heuristic == Heuristic.SYMMETRIC:
        return np.minimum(theta, budgets[:, None] / p)

    if heuristic == Heuristic.WEIGHTED:
        row_sums = theta.sum(axis=1)
        safe = np.where(row_sums > 0.0, row_sums, 1.0)
        rows = budgets[:, None] * theta / safe[:, None]
        rows[row_sums <= 0.0] = 0.0
        return rows

    caps_full = thresholds[agents]

    if heuristic == Heuristic.GREEDY_THETA:
        order = np.argsort(-theta, axis=1, kind="stable")
        sorted_caps = np.take_along_axis(caps_full, order, axis=1)
        alloc = _prefix_capped(sorted_caps, budgets)
        rows = np.empty_like(alloc)
        np.put_along_axis(rows, order, alloc, axis=1)
        return rows

    if heuristic == Heuristic.GREEDY_VARTHETA:
        ratio = instance.vartheta / instance.targets
        order = np.argsort(-ratio, kind="stable")
        sorted_caps = caps_full[:, order]
        alloc = _prefix_capped(sorted_caps, budgets)
        rows = np.empty_like(alloc)
        rows[:, order] = alloc
        return rows

    if heuristic == Heuristic.OPT_WELFARE:
        if pstar is None:
            raise ValueError("opt-welfare needs the welfare-optimal subset")
        rows = np.zeros((len(agents), p))
        chosen = list(pstar)
        if chosen:
            alloc = _prefix_capped(caps_full[:, chosen], budgets)
            rows[:, chosen] = alloc
        leftover = np.maximum(budgets - rows.sum(axis=1), 0.0)
        rest = [j for j in range(p) if j not in set(chosen)]
        if rest:
            rows[:, rest] = (leftover / len(rest))[:, None]
        return rows

    raise ValueError(f"unknown heuristic {heuristic!r}")


def intent_matrix(
    instance: Instance,
    assignment: Assignment,
    pstar: tuple[int, ...] | None = None,
    thresholds: np.ndarray | None = None,
) -> np.ndarray:
    """Stack every agent's intent row according to the assignment."""
    if len(assignment.heuristics) != instance.n_agents:
        raise ValueError(
            f"assignment covers {len(assignment.heuristics)} agents, instance has "
            f"{instance.n_agents}"
        )
    groups: dict[Heuristic, list[int]] = {}
    for i, heuristic in enumerate(assignment.heuristics):
        groups.setdefault(heuristic, []).append(i)
    out = np.zeros_like(instance.valuations)
    for heuristic in Heuristic:
        if heuristic in groups:
            agents = np.array(groups[heuristic])
            out[agents] = _intent_rows(heuristic, instance, agents, pstar, thresholds)
    return out


#: Values per agent (leading entries times projects) from which the play-out
#: adds one agent at a time to every running total. ``np.cumsum`` walks one
#: running total after another at about 4 ns a value, bound by the latency
#: of each addition; a wide add runs them all at once but costs a numpy call
#: per agent. The two broke even between 256 and 512 values.
_CUMSUM_MAX_WIDTH = 384


def clamp_play(
    intents: np.ndarray, targets: np.ndarray, permutation: np.ndarray | None = None
) -> np.ndarray:
    """Realize intents in agent order, never contributing past a target.

    Each agent's realized amount on a project is the minimum of its intent and
    the amount still missing, so per-project totals stop exactly at the target.
    Leading axes of ``intents`` stack independent play-outs (agents on the
    second-to-last axis), each realized as it would be alone; ``targets``
    broadcasts against the leading axes plus the project axis, so each
    play-out may have targets of its own. Non-finite targets are refused;
    intents are not scanned, as they come from the package's own rules on
    the play-out's hot path.

    The result has the shape of ``intents`` and agent-major memory:
    ``np.moveaxis(result, -2, 0)`` is C-contiguous, and so is that view of
    ``intents`` when the caller lays it out agents first. What each project
    still misses when an agent's turn comes is the running sum of the
    earlier agents' intents, a left fold over agents either way: one
    ``np.cumsum`` over narrow stacks, one wide add per agent over stacks of
    at least :data:`_CUMSUM_MAX_WIDTH` values per agent. Both add in the
    same order, so the bits do not depend on the width (Higham 2002, §4.2).
    """
    _require_finite("targets", np.asarray(targets))
    ordered = np.moveaxis(intents, -2, 0)
    if permutation is not None:
        ordered = ordered[permutation]
    missing = np.empty(ordered.shape)
    missing[:1] = 0.0
    n = len(ordered)
    # targets laid out like one agent's intents, so that no pass runs a
    # p-long inner loop per leading index
    targets = np.ascontiguousarray(np.broadcast_to(targets, missing.shape[1:]))
    if n > 1 and ordered[0].size >= _CUMSUM_MAX_WIDTH:
        missing[1] = ordered[0]
        for i in range(2, n):
            np.add(missing[i - 1], ordered[i - 1], out=missing[i])
    else:
        np.cumsum(ordered[:-1], axis=0, out=missing[1:])
    np.subtract(targets, missing, out=missing)
    np.maximum(missing, 0.0, out=missing)
    realized = np.minimum(ordered, missing, out=missing)
    if permutation is not None:
        realized = np.empty(realized.shape)
        realized[permutation] = missing
    return np.moveaxis(realized, 0, -2)


def play(
    instance: Instance,
    assignment: Assignment,
    pstar: tuple[int, ...] | None = None,
    thresholds: np.ndarray | None = None,
    order: PlayOrder | None = None,
) -> ContributionProfile:
    """Play intents out into a feasible, never-overfunding profile."""
    intents = intent_matrix(instance, assignment, pstar, thresholds)
    permutation = None if order is None else order.permutation(instance.n_agents)
    if permutation is not None and (permutation == np.arange(instance.n_agents)).all():
        permutation = None
    realized = clamp_play(intents, instance.targets, permutation)
    return ContributionProfile(realized)
