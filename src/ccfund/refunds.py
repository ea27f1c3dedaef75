"""Refund schemes, monotonicity certification and indifference thresholds.

A refund scheme R(x, B, C) pays a contributor of an unfunded project a share
of the project's bonus pool B as a function of its own contribution x and the
project total C. Schemes whose share strictly grows with x make contributing
attractive even when funding fails; the contribution at which funded utility
and refund meet (the indifference threshold) caps what a rational agent will
ever put into a project.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import SolverError
from .model import _require_finite

if TYPE_CHECKING:
    from .model import Instance

PPR_TAG = "ppr"
LINEAR_ADDITIVE_TAG = "linear-additive"

#: Bisection stops once the bracket is narrower than this (absolute).
BISECTION_TOL = 1e-10
BISECTION_MAX_ITER = 200


class RefundScheme(ABC):
    """A named refund rule, optionally with a closed-form threshold."""

    tag: str = ""
    #: True when summing shares over projects equals the share of the summed
    #: contribution; the single-agent knapsack reduction requires this.
    sum_additive: bool = False

    @abstractmethod
    def share(self, x, bonus, total):
        """Refund for contributing ``x`` out of ``total`` with pool ``bonus``.

        Polymorphic over floats and numpy arrays, and deliberately unchecked.
        """

    def closed_form_threshold(self, theta, target, bonus):
        """Exact indifference threshold, or ``None`` to fall back to bisection."""
        return None


@dataclass(frozen=True)
class PprRefund(RefundScheme):
    """Proportional refunds: each contributor receives an x/C share of the pool.

    Shares over an unfunded project with any positive total sum to the whole
    pool; a project nobody contributed to pays nothing. Every caller passes
    0 <= x <= total, so a zero total comes with a zero x, whose share
    ``x / 1.0 * bonus`` is already zero.
    """

    tag = PPR_TAG

    def share(self, x, bonus, total):
        if isinstance(x, np.ndarray) or isinstance(total, np.ndarray):
            x = np.asarray(x, dtype=float)
            total = np.asarray(total, dtype=float)
            return x / np.where(total > 0.0, total, 1.0) * bonus
        if total <= 0.0:
            return 0.0
        return x / total * bonus

    def closed_form_threshold(self, theta, target, bonus):
        # With the pool total pinned at the provision point (C = target),
        # theta - x = (x / target) * bonus has this root.
        return target * theta / (bonus + target)


@dataclass(frozen=True)
class LinearAdditiveRefund(RefundScheme):
    """Refund linear in own contribution, independent of the project total.

    Splitting a sum of money across projects refunds the same as contributing
    it in one place, which is what the single-agent knapsack reduction needs.
    """

    slope: float

    tag = LINEAR_ADDITIVE_TAG
    sum_additive = True

    def __post_init__(self):
        # an infinite slope puts every threshold at 0, where share is inf·0 = nan
        if not (self.slope > 0.0 and math.isfinite(self.slope)):
            raise ValueError(f"linear refund slope must be positive and finite, got {self.slope!r}")

    def share(self, x, bonus, total):
        return self.slope * x

    def closed_form_threshold(self, theta, target, bonus):
        # theta - x = slope * x
        return theta / (1.0 + self.slope)


def scheme_from_tag(tag: str, linear_slope: float | None = None) -> RefundScheme:
    if tag == PPR_TAG:
        return PprRefund()
    if tag == LINEAR_ADDITIVE_TAG:
        if linear_slope is None:
            raise ValueError("linear-additive refund requires a slope")
        return LinearAdditiveRefund(float(linear_slope))
    raise ValueError(f"unknown refund scheme {tag!r}")


#: ``certify_cm`` probes this many contributions at each (pool, others' total)
#: pair. Co-contributions stay positive: a sole contributor already holds the
#: whole proportional pool, so along that degenerate boundary no scheme of that
#: family can grow.
_CM_POINTS = 256
_CM_POOLS = (0.5, 1.0, 2.0)
_CM_OTHERS = (0.5, 2.0, 5.0)


@dataclass(frozen=True)
class CmReport:
    """Outcome of a contribution-monotonicity probe."""

    passed: bool
    min_forward_difference: float
    step: float
    first_violation: tuple[float, float, float] | None = None  # (x, bonus, others)


def certify_cm(scheme: RefundScheme, x_max: float = 10.0) -> CmReport:
    """Check strict refund growth on a dense contribution grid up to ``x_max``.

    The project total tracks the probe (others' fixed total plus own x),
    matching how an agent actually moves along the refund curve. The report
    carries the minimum forward difference observed and the first grid point,
    if any, where the refund failed to increase; a NaN difference is such a
    point, as it is not an increase.
    """
    if not (x_max > 0.0 and math.isfinite(x_max)):
        raise ValueError(f"degenerate grid: x_max={x_max!r}")
    xs = np.linspace(x_max / _CM_POINTS, x_max, _CM_POINTS)
    pools, others = (axis[..., None] for axis in np.ix_(_CM_POOLS, _CM_OTHERS))
    shape = (len(_CM_POOLS), len(_CM_OTHERS), _CM_POINTS)
    diffs = np.diff(np.broadcast_to(scheme.share(xs, pools, others + xs), shape))
    failed = ~(diffs > 0.0)
    b, o, k = np.unravel_index(int(np.argmax(failed)), shape)
    first = (float(xs[k]), _CM_POOLS[b], _CM_OTHERS[o]) if failed[b, o, k] else None
    return CmReport(first is None, float(diffs.min()), float(xs[1] - xs[0]), first)


def threshold_general(scheme: RefundScheme, theta: float, target: float, bonus: float) -> float:
    """Solve theta - x = R(x, B, target) for x in [0, theta] by bisection.

    The project total is pinned at the provision point (C = target), the
    convention under which the proportional scheme's closed form is exact.
    """
    if theta < 0:
        raise ValueError(f"valuation must be non-negative, got {theta!r}")
    theta = float(theta)
    if theta == 0.0:
        return 0.0

    share = scheme.share

    def gap(x: float) -> float:
        return theta - x - share(x, bonus, target)

    hi_gap = gap(theta)
    if hi_gap > 0.0:
        raise SolverError(
            f"no sign change on [0, {theta:.12g}]: gap(0)={theta:.12g}, "
            f"gap({theta:.12g})={hi_gap:.12g}"
        )
    lo, hi = 0.0, theta
    for _ in range(BISECTION_MAX_ITER):
        if hi - lo <= BISECTION_TOL:
            return 0.5 * (lo + hi)
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    raise SolverError(
        f"bisection did not converge after {BISECTION_MAX_ITER} iterations "
        f"(bracket [{lo}, {hi}])"
    )


def threshold_matrix(valuations, targets, bonuses, scheme: RefundScheme) -> np.ndarray:
    """Per-(agent, project) indifference thresholds for one scheme.

    Leading axes of the three arguments, broadcast together, stack games.
    Uses the scheme's closed form over the whole matrix where available,
    bisection per entry elsewhere; both follow the provision-point
    convention. No threshold exceeds its valuation: with a bonus too small to
    move ``bonus + target``, the proportional closed form can round one ulp
    above it. Non-finite inputs are refused by name.
    """
    valuations = np.asarray(valuations, dtype=float)
    targets = np.asarray(targets, dtype=float)
    bonuses = np.asarray(bonuses, dtype=float)
    for name, arr in (("valuations", valuations), ("targets", targets), ("bonuses", bonuses)):
        _require_finite(name, arr)
    out = scheme.closed_form_threshold(valuations, targets, bonuses)
    if out is None:
        bisect = lambda *entry: threshold_general(scheme, *map(float, entry))  # noqa: E731
        out = np.vectorize(bisect, otypes=[float])(valuations, targets, bonuses)
    return np.minimum(out, valuations)


def thresholds(instance: "Instance", scheme: RefundScheme | None = None) -> np.ndarray:
    """Threshold matrix for an instance, optionally under an override scheme.

    The override is what normalized-utility baselines use when an experiment
    runs a different refund rule than the baseline convention.
    """
    return threshold_matrix(
        instance.valuations, instance.targets, instance.bonuses, scheme or instance.refund
    )
