"""Instance samplers and constructive fixtures.

The main sampler draws valuations, derives targets as a fraction of each
project's total valuation, draws a deficit-sized budget pool, and then lifts
individual budgets just enough that everyone can afford their thresholds on
the welfare-optimal subset. Deterministic under (config, seed). The fixture
builders reproduce the hand-constructed games used to certify the analytic
results: the profitable-deviation construction, the pathological
high-value/zero-budget game, the identical-projects discontinuity family, the
surplus-without-equilibrium witness, and a literal-numbers spot-check fixture
whose internal inconsistency is documented rather than repaired.
"""

from __future__ import annotations

from collections import namedtuple
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import SolverError
from .model import TOL, BudgetStatus, Instance, check_budget_surplus, check_subset_feasibility
from .refunds import (
    PprRefund,
    RefundScheme,
    certify_cm,
    threshold_general,
    threshold_matrix,
)
from .welfare import WelfareSolution, _ParetoReader, solve_pstar_bruteforce
from .welfare import solve_subset_bruteforce  # noqa: F401 (the benchmark's tracer rebinds it)

#: The surplus sampler scales each budget by 1 + U(0, this) over its thresholds.
SURPLUS_MAX_SLACK = 0.2


@dataclass(frozen=True)
class ValuationDist:
    """Per-entry valuation distribution: uniform on [lo, hi] or exponential."""

    kind: str = "uniform"
    lo: float = 0.0
    hi: float = 10.0
    rate: float = 1.5

    def __post_init__(self):
        if self.kind not in ("uniform", "exponential"):
            raise ValueError(f"unknown valuation distribution {self.kind!r}")
        if self.kind == "uniform" and not self.hi > self.lo >= 0:
            raise ValueError(f"need hi > lo >= 0, got [{self.lo}, {self.hi}]")
        if self.kind == "exponential" and not self.rate > 0:
            raise ValueError(f"rate must be positive, got {self.rate!r}")

    def draw(self, rng: np.random.Generator, shape) -> np.ndarray:
        if self.kind == "uniform":
            return rng.uniform(self.lo, self.hi, size=shape)
        return rng.exponential(1.0 / self.rate, size=shape)


@dataclass(frozen=True)
class SamplerConfig:
    """Knobs for the deficit sampler.

    Targets are a per-project fraction of total valuation drawn from
    ``target_fraction``; bonuses are ``bonus_fraction`` of the welfare
    headroom; the budget pool is a ``budget_rho`` fraction of the summed
    targets, guaranteeing a deficit before the feasibility lift.
    """

    n: int = 100
    p: int = 10
    valuation_dist: ValuationDist = field(default_factory=ValuationDist)
    target_fraction: tuple[float, float] = (0.3, 0.7)
    bonus_fraction: float = 1.0
    budget_rho: tuple[float, float] = (0.3, 0.8)
    refund: RefundScheme = field(default_factory=PprRefund)
    seed: int = 0
    max_rejections: int = 200

    def __post_init__(self):
        if self.n < 1 or self.p < 1:
            raise ValueError(f"need n >= 1 and p >= 1, got {self.n}, {self.p}")
        lo, hi = self.target_fraction
        if not 0.0 < lo <= hi < 1.0:
            raise ValueError(f"target_fraction must sit inside (0, 1), got {self.target_fraction}")
        rlo, rhi = self.budget_rho
        if not 0.0 < rlo <= rhi < 1.0:
            raise ValueError(f"budget_rho must sit inside (0, 1), got {self.budget_rho}")
        if not 0.0 < self.bonus_fraction <= 1.0:
            raise ValueError(f"bonus_fraction must be in (0, 1], got {self.bonus_fraction}")
        if self.max_rejections < 1:
            raise ValueError("max_rejections must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


def _rng(seed, attempt: int) -> np.random.Generator:
    entropy = seed if isinstance(seed, tuple) else (seed,)
    return np.random.default_rng(np.random.SeedSequence((*entropy, attempt)))


def _draw_game(cfg: SamplerConfig, rng: np.random.Generator):
    """Valuations, their column totals, targets, bonuses and thresholds of one draw.

    None when some project drew zero total valuation, which no target fits.
    """
    theta = cfg.valuation_dist.draw(rng, (cfg.n, cfg.p))
    vartheta = theta.sum(axis=0)
    if (vartheta <= 0.0).any():
        return None
    beta = rng.uniform(cfg.target_fraction[0], cfg.target_fraction[1], size=cfg.p)
    targets = beta * vartheta
    bonuses = cfg.bonus_fraction * (vartheta - targets)
    thr = threshold_matrix(theta, targets, bonuses, cfg.refund)
    return theta, vartheta, targets, bonuses, thr


@contextmanager
def _in_float_range(dist: ValuationDist):
    """Refuse, naming the valuation knob, a draw whose sums, thresholds or budgets overflow."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError:
        key = "hi" if dist.kind == "uniform" else "rate"
        raise SolverError(f"valuations.{key} {getattr(dist, key)!r} puts the sampler's sums, "
                          "thresholds or budgets past float range") from None


#: Rounds of the lift/re-solve loop before a draw is abandoned.
_LIFT_ROUNDS = 12


def sample_instance(cfg: SamplerConfig, seed=None) -> tuple[Instance, WelfareSolution]:
    """Draw one instance satisfying deficit + subset feasibility for the optimum.

    Budgets start proportional to each agent's total threshold mass, scaled to
    the drawn pool, then are lifted to cover the thresholds on the optimal
    subset. Lifting raises the pool, which can move the optimum, so the lift
    and the subset solve iterate to a fixed point; the shipped solution is
    exact for the final budgets. A draw is rejected when the lift breaks the
    deficit or fails to stabilize. The draw is :func:`_sample`'s, built into
    a checked :class:`Instance`.
    """
    theta, budgets, targets, bonuses, _, solution = _sample(cfg, cfg.seed if seed is None else seed)
    return Instance(theta, budgets, targets, bonuses, cfg.refund), solution


_Draw = namedtuple("_Draw", "valuations budgets targets bonuses thresholds solution")


def _sample(cfg: SamplerConfig, base) -> _Draw:
    """:func:`sample_instance`'s draw from seed ``base``, as arrays not yet checked.

    ``thresholds`` are the draw's own under ``cfg.refund``, the bits
    :func:`~ccfund.refunds.thresholds` gives for the instance.
    """
    rejected = dict.fromkeys(("zero-valuation column", "zero threshold mass",
                              "the lift broke the deficit", "no fixed point"), 0)
    for attempt in range(cfg.max_rejections):
        rng = _rng(base, attempt)
        with _in_float_range(cfg.valuation_dist):
            drawn = _draw_game(cfg, rng)
            if drawn is None:
                rejected["zero-valuation column"] += 1
                continue
            theta, vartheta, targets, bonuses, thr = drawn
            rho = rng.uniform(cfg.budget_rho[0], cfg.budget_rho[1])
            target_total = targets.sum()
            pool = rho * target_total

            mass = thr.sum(axis=1)
            total_mass = mass.sum()
            if total_mass <= 0.0:
                rejected["zero threshold mass"] += 1
                continue
            budgets = pool * mass / total_mass

        reader = _ParetoReader(vartheta - targets, targets)
        sol = reader.read(pool)
        deficit_bound = target_total - TOL
        for _ in range(_LIFT_ROUNDS):
            budgets = np.maximum(budgets, thr[:, list(sol.subset)].sum(axis=1))
            lifted_pool = budgets.sum()
            if lifted_pool >= deficit_bound:
                rejected["the lift broke the deficit"] += 1
                break
            lifted = reader.read(float(lifted_pool))
            if lifted.subset == sol.subset:
                return _Draw(theta, budgets, targets, bonuses, thr, lifted)
            sol = lifted
        else:
            rejected["no fixed point"] += 1
    causes = ", ".join(f"{cause}: {count}" for cause, count in rejected.items())
    raise SolverError(
        f"sampler rejected all {cfg.max_rejections} draws (acceptance rate 0.0%); "
        f"rejections by cause: {causes}"
    )


def sample_surplus_sf_instance(cfg: SamplerConfig, seed=None) -> tuple[Instance, WelfareSolution]:
    """Draw a surplus instance where every agent can afford all its thresholds.

    Budgets are each agent's total threshold mass plus random slack, which
    also guarantees a budget surplus, so the optimal subset is every project.
    """
    rng = _rng(cfg.seed if seed is None else seed, 0)
    with _in_float_range(cfg.valuation_dist):
        drawn = _draw_game(cfg, rng)
        if drawn is None:
            raise SolverError("a project drew zero total valuation; no target fits it")
        theta, vartheta, targets, bonuses, thr = drawn
        budgets = thr.sum(axis=1) * (1.0 + rng.uniform(0.0, SURPLUS_MAX_SLACK, size=cfg.n))
    instance = Instance(theta, budgets, targets, bonuses, cfg.refund)
    everything = tuple(range(cfg.p))
    welfare = float((vartheta - targets).sum())
    return instance, WelfareSolution(everything, welfare, float(targets.sum()), True)


@dataclass(frozen=True)
class _Certified:
    """A fixture's claims, each a (passed, text) line that ``verify`` prints."""

    checks: tuple[tuple[bool, str], ...]

    @property
    def all_pass(self) -> bool:
        return all(passed for passed, _ in self.checks)


@dataclass(frozen=True)
class DeviationCertificate(_Certified):
    """Checks that the two-agent construction undermines the optimal subset.

    The first project alone is the unique optimum, both agents can afford
    their thresholds on it, the pool runs a deficit, and the second agent
    strictly prefers to fund the decoy project instead.
    """

    threshold_11: float
    threshold_21: float
    theta_21: float
    theta_22: float
    target_2: float
    on_path_utility: float
    deviation_utility: float
    pstar: tuple[int, ...]
    pstar_unique: bool
    subset_feasible: bool
    budget_deficit: bool


def _invert_threshold(
    scheme: RefundScheme, target: float, bonus: float, wanted: float
) -> float:
    """Valuation whose indifference threshold equals ``wanted``.

    The threshold is continuous and increasing in the valuation, so a doubling
    bracket plus bisection recovers it for any monotone scheme.
    """
    if wanted <= 0:
        raise ValueError(f"wanted threshold must be positive, got {wanted!r}")
    lo = wanted  # threshold never exceeds the valuation
    hi = max(2.0 * wanted, 1.0)
    for _ in range(200):
        if threshold_general(scheme, hi, target, bonus) >= wanted:
            break
        hi *= 2.0
    else:
        raise SolverError("could not bracket the inverse threshold")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if threshold_general(scheme, mid, target, bonus) < wanted:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


def build_procedure1(
    scheme: RefundScheme,
    t1: float = 10.0,
    theta11: float = 10.9,
    theta22_fraction: float = 0.4,
    b1: float = 1.0,
) -> tuple[Instance, DeviationCertificate]:
    """Two agents, two projects, engineered so the optimum goes unfunded.

    The first agent's threshold splits the first target; the second agent's
    valuation is chosen so its threshold covers the rest; the second project's
    target equals that remainder and its valuation sits strictly inside the
    profitable-deviation window controlled by ``theta22_fraction``. Budgets
    equal the thresholds, so feasibility holds on the optimum while the
    second agent still walks away.
    """
    if t1 <= 0 or b1 <= 0:
        raise ValueError("t1 and b1 must be positive")
    if not 0.0 < theta22_fraction < 1.0:
        raise ValueError(f"theta22_fraction must sit inside (0, 1), got {theta22_fraction!r}")
    x11 = threshold_general(scheme, theta11, t1, b1)
    if not x11 < t1 < theta11:
        raise ValueError(
            f"theta11 bracket violated: need threshold {x11:.6g} < target {t1:.6g} "
            f"< valuation {theta11:.6g}"
        )
    x21 = t1 - x11
    theta21 = _invert_threshold(scheme, t1, b1, x21)
    t2 = x21
    theta12 = 0.0
    window = theta11 - x11
    if window <= 0:
        raise SolverError("empty deviation window; threshold reached the valuation")
    theta22 = theta21 + theta22_fraction * window

    valuations = np.array([[theta11, theta12], [theta21, theta22]])
    budgets = np.array([x11, x21])
    targets = np.array([t1, t2])
    vartheta = valuations.sum(axis=0)
    bonuses = vartheta - targets  # full headroom; for proportional refunds this is b1
    instance = Instance(valuations, budgets, targets, bonuses, scheme)

    sol = solve_pstar_bruteforce(instance)
    thr = threshold_matrix(valuations, targets, bonuses, scheme)
    on_path = theta21 - x21
    deviated = theta22 - t2
    feasible = check_subset_feasibility(instance, sol.subset, thr)
    deficit = check_budget_surplus(instance) == BudgetStatus.DEFICIT
    certificate = DeviationCertificate(
        threshold_11=x11,
        threshold_21=x21,
        theta_21=theta21,
        theta_22=theta22,
        target_2=t2,
        on_path_utility=on_path,
        deviation_utility=deviated,
        pstar=sol.subset,
        pstar_unique=sol.unique,
        subset_feasible=feasible,
        budget_deficit=deficit,
        checks=(
            (sol.subset == (0,) and sol.unique,
             f"optimal subset is uniquely the first project: pstar={sol.subset}, "
             f"unique={sol.unique}"),
            (feasible, "both agents afford their thresholds on the optimum"),
            (deficit,
             f"budget deficit holds: pool={float(instance.budgets.sum()):.6g} < "
             f"targets={float(instance.targets.sum()):.6g}"),
            (deviated > on_path, f"deviation pays: {deviated:.6g} > {on_path:.6g}"),
        ),
    )
    return instance, certificate


def build_example1() -> Instance:
    """Pathological game: the agent who values the best project has no budget.

    Valuations and budgets are fixed; targets (2, 1) and small bonus pools
    complete the game so that the first project is worth far more but only the
    second is affordable, and the sole budgeted agent strictly prefers funding
    it over farming refunds.
    """
    valuations = np.array([[1.0, 2.0], [10.0, 1.0]])
    budgets = np.array([1.0, 0.0])
    targets = np.array([2.0, 1.0])
    bonuses = np.array([0.5, 0.25])
    return Instance(valuations, budgets, targets, bonuses, PprRefund())


def build_example2(
    scheme: RefundScheme = PprRefund(), theta: float = 6.0, target: float = 10.0
) -> Instance:
    """Two identical agents, three identical projects, budgets at the threshold.

    The pool covers exactly one project, which is what the discontinuity
    demonstrator needs.
    """
    if not theta > target / 2.0:
        raise ValueError(
            f"need total valuation above the target: 2*{theta!r} <= {target!r}"
        )
    report = certify_cm(scheme, max(theta, 1.0))
    if not report.passed:
        raise ValueError(f"scheme {scheme.tag!r} failed monotonicity certification")
    vartheta = 2.0 * theta
    bonus = vartheta - target
    bar = threshold_general(scheme, theta, target, bonus)
    valuations = np.full((2, 3), theta)
    budgets = np.array([bar, bar])
    targets = np.full(3, target)
    bonuses = np.full(3, bonus)
    return Instance(valuations, budgets, targets, bonuses, scheme)


@dataclass(frozen=True)
class SurplusWitnessCertificate(_Certified):
    """Checks for the surplus game with no equilibrium.

    The pool covers everything, yet the poor block cannot fund any single
    project, feasibility fails for the full set, and funding everything forces
    someone in the rich block past their threshold.
    """

    budget_surplus: bool
    poor_block_budget: float
    min_target: float
    poor_block_below_min_target: bool
    subset_feasible_all: bool
    rich_block_threshold_capacity: float
    rich_block_required: float
    forces_above_threshold: bool


def build_theorem2_witness(
    scheme: RefundScheme = PprRefund(), p: int = 2, n1: int = 1, n2: int = 1
) -> tuple[Instance, SurplusWitnessCertificate]:
    """Surplus instance whose budget split rules out equilibrium funding.

    Identically valued agents; the poor block holds a tenth of the smallest
    target, the rich block the rest of the summed targets. Funding everything
    then requires rich-block contributions past their thresholds.
    """
    if n1 < 1 or n2 < 1 or p < 1:
        raise ValueError("need at least one project and one agent per block")
    n = n1 + n2
    unit_value = 2.0
    target = 0.5 * n * unit_value
    valuations = np.full((n, p), unit_value)
    targets = np.full(p, target)
    vartheta = valuations.sum(axis=0)
    bonuses = vartheta - targets
    thr = threshold_matrix(valuations, targets, bonuses, scheme)
    row_need = float(thr[0].sum())

    poor_total = 0.1 * target
    if poor_total >= n1 * row_need:
        raise SolverError(
            f"construction infeasible for p={p}, n1={n1}, n2={n2}: the poor block's "
            f"budget {poor_total:.6g} already covers its thresholds {n1 * row_need:.6g}"
        )
    rich_total = float(targets.sum()) - poor_total
    budgets = np.concatenate(
        [np.full(n1, poor_total / n1), np.full(n2, rich_total / n2)]
    )
    instance = Instance(valuations, budgets, targets, bonuses, scheme)

    capacity = n2 * row_need
    surplus = check_budget_surplus(instance) == BudgetStatus.SURPLUS
    min_target = float(targets.min())
    feasible_all = check_subset_feasibility(instance, tuple(range(p)), thr)
    certificate = SurplusWitnessCertificate(
        budget_surplus=surplus,
        poor_block_budget=poor_total,
        min_target=min_target,
        poor_block_below_min_target=poor_total < min_target,
        subset_feasible_all=feasible_all,
        rich_block_threshold_capacity=capacity,
        rich_block_required=rich_total,
        forces_above_threshold=capacity < rich_total,
        checks=(
            (surplus, "the pooled budget covers every target"),
            (poor_total < min_target,
             f"the poor block ({poor_total:.6g}) cannot fund even the cheapest "
             f"project ({min_target:.6g})"),
            (not feasible_all, "threshold feasibility fails for the full set"),
            (capacity < rich_total,
             f"funding everything forces the rich block past its thresholds "
             f"({capacity:.6g} < {rich_total:.6g})"),
        ),
    )
    return instance, certificate


@dataclass(frozen=True)
class LiteralNumbersReport(_Certified):
    """Spot checks on the worked-example numbers this fixture carries.

    The two threshold formulas reproduce the carried values, the optimum and
    per-project welfare match, but the carried remainder split contradicts the
    second threshold; ``split_consistent`` is expected to be False and stays
    documented rather than silently repaired.
    """

    threshold_11: float
    threshold_11_rounds_to_9_91: bool
    threshold_21: float
    threshold_21_is_0_99: bool
    remainder_after_11: float
    split_consistent: bool
    pstar: tuple[int, ...]
    welfare_first: float
    welfare_second: float
    welfare_values_match: bool
    budget_deficit: bool

    expected_findings_hold = _Certified.all_pass


def build_appendix_b() -> tuple[Instance, LiteralNumbersReport]:
    """The worked numerical example with its numbers taken literally.

    Used only for formula spot checks; the profitable-deviation construction
    in :func:`build_procedure1` is the corrected counterpart.
    """
    valuations = np.array([[10.9, 0.0], [1.089, 1.9]])
    budgets = np.array([9.91, 0.99])  # the rounded thresholds the fixture carries, kept verbatim
    targets = np.array([10.0, 0.99])
    bonuses = np.array([1.0, 0.91])
    instance = Instance(valuations, budgets, targets, bonuses, PprRefund())

    x11 = instance.refund.closed_form_threshold(10.9, 10.0, 1.0)
    x21 = instance.refund.closed_form_threshold(1.089, 10.0, 1.0)
    remainder = 10.0 - x11
    sol = solve_pstar_bruteforce(instance)
    welfare_first = 10.9 + 1.089 - 10.0
    welfare_second = 0.0 + 1.9 - 0.99
    rounds_to_9_91 = round(x11, 2) == 9.91
    is_0_99 = abs(x21 - 0.99) <= 1e-9
    consistent = abs(remainder - x21) <= 1e-6
    welfare_match = abs(welfare_first - 1.989) <= 1e-9 and abs(welfare_second - 0.91) <= 1e-9
    deficit = check_budget_surplus(instance) == BudgetStatus.DEFICIT
    report = LiteralNumbersReport(
        threshold_11=x11,
        threshold_11_rounds_to_9_91=rounds_to_9_91,
        threshold_21=x21,
        threshold_21_is_0_99=is_0_99,
        remainder_after_11=remainder,
        split_consistent=consistent,
        pstar=sol.subset,
        welfare_first=welfare_first,
        welfare_second=welfare_second,
        welfare_values_match=welfare_match,
        budget_deficit=deficit,
        checks=(
            (rounds_to_9_91, f"first threshold {x11:.6g} rounds to the expected 9.91"),
            (is_0_99, f"second threshold formula gives the expected 0.99 ({x21:.6g})"),
            (not consistent,
             f"expected inconsistency confirmed: carried 0.99 vs remainder "
             f"{remainder:.6g} (documented, not repaired)"),
            (sol.subset == (0,) and welfare_match,
             f"optimum and welfare values match: {welfare_first:.6g}, {welfare_second:.6g}"),
            (deficit, "the fixture's budgets run a deficit"),
        ),
    )
    return instance, report
