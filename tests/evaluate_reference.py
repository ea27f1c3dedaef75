"""Oracle: ``model.evaluate`` and its budget check before the project-major rewrite.

Both worked on the (..., n, p) contributions as they are laid out, so each
sum over projects was numpy's own ``sum(axis=-1)`` of a row and the totals
its ``sum(axis=-2)``. ``test_model.py`` compares every field of the current
:func:`ccfund.model.evaluate`, and every budget message, with these by
their bytes.
"""

from __future__ import annotations

import numpy as np

from ccfund.model import TOL, ContributionProfile, Instance, Outcome, _batch_label


def validate_reference(profile: ContributionProfile, instance: Instance) -> None:
    """``ContributionProfile.validate_against`` as it summed each agent's row."""
    if profile.contributions.shape[-2:] != instance.valuations.shape:
        raise ValueError(
            f"profile shape {profile.contributions.shape} does not match instance "
            f"shape {instance.valuations.shape}"
        )
    rows = profile.contributions.sum(axis=-1)
    over = rows > instance.budgets + TOL
    if np.any(over):
        *batch, i = np.unravel_index(int(np.argmax(over)), over.shape)
        raise ValueError(
            f"agent {i}{_batch_label(tuple(batch))} spends {rows[(*batch, i)]:.12g}, "
            f"exceeding its budget {instance.budgets[i]:.12g}"
        )


def evaluate_reference(instance: Instance, profile: ContributionProfile) -> Outcome:
    """``evaluate`` as it reduced and broadcast along the project rows."""
    validate_reference(profile, instance)
    x = profile.contributions
    totals = x.sum(axis=-2)
    funded = totals >= instance.targets - TOL
    refunded = ~funded & (totals > 0.0)
    shares = instance.refund.share(x, instance.bonuses, totals[..., None, :])
    per_pair = np.where(refunded[..., None, :], shares, 0.0)
    np.copyto(per_pair, instance.valuations - x, where=funded[..., None, :])
    welfare = ((instance.vartheta - instance.targets) * funded).sum(axis=-1)
    if welfare.ndim == 0:
        welfare = float(welfare)
    utilities = per_pair.sum(axis=-1)
    return Outcome(funded, totals, utilities, per_pair, welfare)
