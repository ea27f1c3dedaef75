"""Shared test helpers: small random instance and view factories, stacked play-outs.

``HYPOTHESIS_PROFILE=ci`` selects a derandomized hypothesis profile, so a
property failure seen in CI reproduces on any machine.
"""

import os

import numpy as np
from hypothesis import settings

from ccfund import Instance, LinearAdditiveRefund, PprRefund, ResidualView
from ccfund.heuristics import clamp_play

settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def random_instance(rng, n=None, p=None, scheme=None, bonus_fraction=None):
    """A valid random instance with targets strictly below total valuations."""
    n = n if n is not None else int(rng.integers(1, 8))
    p = p if p is not None else int(rng.integers(1, 6))
    theta = rng.uniform(0.0, 10.0, size=(n, p))
    theta[0] += 0.5  # keep every column total positive
    vartheta = theta.sum(axis=0)
    beta = rng.uniform(0.2, 0.8, size=p)
    targets = beta * vartheta
    frac = bonus_fraction if bonus_fraction is not None else float(rng.uniform(0.3, 1.0))
    bonuses = frac * (vartheta - targets)
    budgets = rng.uniform(0.0, 1.2, size=n) * targets.sum() / n
    scheme = scheme if scheme is not None else PprRefund()
    return Instance(theta, budgets, targets, bonuses, scheme)


def random_intents(rng, instance, batch=()):
    """A stack of budget-feasible intents over one instance.

    Each row spreads part of its agent's budget over a random subset of
    projects, so some projects stay untouched in some rows.
    """
    n, p = instance.valuations.shape
    weights = rng.random((*batch, n, p)) * (rng.random((*batch, 1, p)) < 0.8)
    spend = rng.uniform(0.0, 0.999, size=(*batch, n, 1)) * instance.budgets[:, None]
    row_sums = weights.sum(axis=-1, keepdims=True)
    safe = np.where(row_sums > 0.0, row_sums, 1.0)
    return np.where(row_sums > 0.0, weights / safe, 0.0) * spend


def clamp_stacked(intents, targets, permutation=None):
    """``clamp_play`` on (..., n, p) intents, agents played in ``permutation`` order.

    The agents move to the front as a view, as a caller laying them out
    agents first would, and the result moves them back; a permutation orders
    them by a gather before the play-out and a scatter after it, as ``play``
    does.
    """
    agents_first = np.moveaxis(intents, -2, 0)
    if permutation is None:
        return np.moveaxis(clamp_play(agents_first, targets), 0, -2)
    realized = np.empty(agents_first.shape)
    realized[permutation] = clamp_play(agents_first[permutation], targets)
    return np.moveaxis(realized, 0, -2)


def random_view(rng, scheme=None, p=None, max_units=30, delta=1.0, grid_aligned=False):
    """A residual view sized for exhaustive enumeration.

    Grid-aligned views keep the budget within the room available strictly
    below the shortfalls, the regime where the binary-knapsack oracle and the
    grid optimum coincide.
    """
    p = p if p is not None else int(rng.integers(1, 5))
    lowest = 2 if grid_aligned else 1
    units = rng.integers(lowest, max_units + 1, size=p)
    remaining = units * delta
    if not grid_aligned:
        remaining = remaining + rng.uniform(-0.4, 0.4, size=p) * delta
        remaining = np.maximum(remaining, 0.3 * delta)
    others = rng.uniform(0.0, 20.0, size=p)
    valuations = remaining + rng.uniform(-2.0, 8.0, size=p) * delta
    valuations = np.maximum(valuations, 0.0)
    bonuses = rng.uniform(0.5, 6.0, size=p)
    if scheme is None:
        scheme = PprRefund() if rng.random() < 0.5 else LinearAdditiveRefund(float(rng.uniform(0.02, 0.4)))
    if grid_aligned:
        budget_units = int(rng.integers(1, int(units.sum()) - p + 1))
        budget = budget_units * delta
    else:
        budget = float(rng.uniform(0.0, float(remaining.sum())))
    return ResidualView(
        agent=0,
        others_totals=others,
        remaining=remaining,
        budget=float(budget),
        valuations=valuations,
        bonuses=bonuses,
        scheme=scheme,
    )
