"""Contribution heuristics and the clamped play-out engine.

Five rules turn an agent's budget into intended contributions; the play-out
engine then walks agents in order and lets each contribute the minimum of its
intent and whatever the project still needs, so no project is ever overfunded
and every realized row stays within budget whenever its intent row does.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import ContributionProfile, Instance, _project_sum, _require_finite


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
    """Allocate each row's budget over its projects in order, capping entries at ``caps``.

    ``caps`` and the result are project-major, (p, ..., n), and ``budgets``
    broadcasts against one project's slice. What is spent before a project
    is :func:`_running_before` over the projects, one add each over the stack.
    """
    before = _running_before(caps, np.empty(caps.shape))
    np.subtract(budgets, before, out=before)
    # apart from its input: a clip in place may keep a -0.0 (numpy 2.4, one entry)
    return np.clip(before, 0.0, caps)


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
        # ratio, one order for all of an instance's agents. Ties keep index
        # order. Sorted cap j of row r is flat entry r * p + order[r, j]: one
        # flat take lays them out project-major, one flat scatter puts them back
        key = valuations if heuristic == Heuristic.GREEDY_THETA else ratios[..., None, :]
        order = np.argsort(-key, axis=-1, kind="stable")
        starts = np.arange(0, thresholds.size, thresholds.shape[-1])
        index = np.moveaxis(order, -1, 0) + starts.reshape(thresholds.shape[:-1])
        rows = np.empty(thresholds.shape)
        rows.reshape(-1)[index] = _prefix_capped(np.take(thresholds, index), budgets)
        return rows

    if heuristic == Heuristic.OPT_WELFARE:
        # thresholds on the chosen projects in index order, capped at +0.0
        # elsewhere, then what is left spread evenly over the rest; project-major
        picked = np.moveaxis(chosen, -1, 0)[..., None]
        caps = np.zeros((chosen.shape[-1],) + budgets.shape)
        np.copyto(caps, np.moveaxis(thresholds, -1, 0), where=picked)
        rows = _prefix_capped(caps, budgets)
        leftover = np.maximum(budgets - _project_sum(rows), 0.0)
        rest = np.maximum(chosen.shape[-1] - chosen.sum(axis=-1), 1)
        return np.moveaxis(np.where(picked, rows, leftover / rest[..., None]), 0, -1)

    raise ValueError(f"unknown heuristic {heuristic!r}")


def intent_matrix(
    instance: Instance,
    assignment: Assignment,
    pstar: tuple[int, ...] | None = None,
    thresholds: np.ndarray | None = None,
) -> np.ndarray:
    """Stack every agent's intent row according to the assignment.

    Agent ``i`` of the rule at ``rule_index`` takes row ``rule_index * n + i``
    of the assigned rules' rows laid end to end, in :class:`Heuristic` order.
    ``pstar`` is a set of projects: opt-welfare fills them in index order.
    """
    n = instance.n_agents
    if len(assignment.heuristics) != n:
        raise ValueError(
            f"assignment covers {len(assignment.heuristics)} agents, instance has {n}"
        )
    rules = [h for h in Heuristic if h in assignment.heuristics]
    for h in rules:
        if h in _NEEDS_THRESHOLDS and thresholds is None:
            raise ValueError(f"{h.value} needs a threshold matrix")
    if Heuristic.OPT_WELFARE in rules and pstar is None:
        raise ValueError("opt-welfare needs the welfare-optimal subset")
    chosen = np.zeros(instance.n_projects, dtype=bool)
    chosen[list(pstar or ())] = True
    ratios = instance.vartheta / instance.targets
    laid = np.concatenate([_intent_rows(h, instance.valuations, instance.budgets, ratios, chosen,
                                        thresholds) for h in rules])
    picks = np.array([rules.index(h) for h in assignment.heuristics]) * n + np.arange(n)
    return laid[picks]


#: Values a step (for the play-out, leading entries times projects per
#: agent) from which a running sum adds one step at a time to every running
#: total. ``np.cumsum`` walks one running total after another at about 4 ns a
#: value, bound by the latency of each addition; a wide add runs them all at
#: once but costs a numpy call per step. The two broke even between 256 and
#: 512 values per agent of a play-out.
_CUMSUM_MAX_WIDTH = 384


def _running_before(terms: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Exclusive running sum of ``terms`` over its first axis, into ``out`` apart from them.

    ``out[0]`` is +0.0 and ``out[i]`` the left fold of ``terms[:i]`` from
    ``terms[0]`` itself, as ``np.cumsum`` folds: one ``np.cumsum`` over
    narrow stacks, one wide add a step from :data:`_CUMSUM_MAX_WIDTH` values
    a step. Both add in one order, so the bits do not depend on the width
    (Higham 2002, §4.2).
    """
    out[:1] = 0.0
    if len(terms) > 1 and terms[0].size >= _CUMSUM_MAX_WIDTH:
        out[1] = terms[0]
        for i in range(2, len(terms)):
            np.add(out[i - 1], terms[i - 1], out=out[i])
    else:
        np.cumsum(terms[:-1], axis=0, out=out[1:])
    return out


def clamp_play(
    intents: np.ndarray, targets: np.ndarray, *, out: np.ndarray | None = None
) -> np.ndarray:
    """Realize intents in agent order, never contributing past a target.

    ``intents`` is (n, ..., p): agents first, in play order. Each agent's
    realized amount on a project is the minimum of its intent and the amount
    still missing, so per-project totals stop exactly at the target. Axes
    between the agents and the projects stack independent play-outs, each
    realized as it would be alone; ``targets`` broadcasts against them plus
    the project axis, so each play-out may have targets of its own. The
    result has the shape of ``intents``, in C order. Non-finite targets are
    refused; intents are not scanned: a finite, non-negative intent bounds
    its realized entry to [0, intent], and as float addition is monotone, a
    row of intents within budget keeps its play within budget.

    What each project still misses when an agent's turn comes is the running
    sum of the earlier agents' intents, :func:`_running_before` over agents:
    one ``np.cumsum`` over narrow stacks, one wide add per agent over stacks
    of at least :data:`_CUMSUM_MAX_WIDTH` values per agent, with the same
    bits either way. The rule rows' :func:`_prefix_capped` takes the same
    fold over projects.

    ``out``, a float array of the intents' shape, takes the result in place
    of a new array. It must not overlap ``intents``: the running sums it
    holds would overwrite intents not yet read.
    """
    _require_finite("targets", np.asarray(targets))
    if out is None:
        missing = np.empty(intents.shape)
    elif out.shape != intents.shape or out.dtype != np.float64:
        raise ValueError(f"out must be a float64 array of the intents' shape {intents.shape}, "
                         f"got {out.dtype} {out.shape}")
    elif np.may_share_memory(out, intents):
        raise ValueError("out must not overlap intents")
    else:
        missing = out
    # targets laid out like one agent's intents, so that no pass runs a
    # p-long inner loop per leading index
    targets = np.ascontiguousarray(np.broadcast_to(targets, missing.shape[1:]))
    _running_before(intents, missing)
    np.subtract(targets, missing, out=missing)
    np.maximum(missing, 0.0, out=missing)
    return np.minimum(intents, missing, out=missing)


def play(
    instance: Instance,
    assignment: Assignment,
    pstar: tuple[int, ...] | None = None,
    thresholds: np.ndarray | None = None,
    order: PlayOrder | None = None,
) -> ContributionProfile:
    """Play intents out into a feasible, never-overfunding profile."""
    intents = intent_matrix(instance, assignment, pstar, thresholds)
    perm = (order or PlayOrder()).permutation(instance.n_agents)
    realized = np.empty(intents.shape)
    realized[perm] = clamp_play(intents[perm], instance.targets)
    return ContributionProfile(realized)
