"""Monte-Carlo experiment harness.

Runs cells of (deviant heuristic, deviator fraction): every instance gets a
fresh random set of deviators playing the deviant rule while the rest play the
welfare-optimal baseline. Reports normalized social welfare (relative to the
budget-optimal subset) and normalized agent utility (relative to the
unconstrained proportional-refund play), split by deviator status. Instances
are shared across cells of one run so curve comparisons are paired, and every
random draw derives from the experiment seed, so reports are byte-stable.
"""

from __future__ import annotations

import functools
import hashlib
import logging
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .generators import SamplerConfig, sample_instance
# intent_matrix is not called here; the benchmark's tracer rebinds it by name
from .heuristics import Heuristic, PlayOrder, _intent_rows, clamp_play, intent_matrix  # noqa: F401
from .model import ContributionProfile, Instance, Outcome, evaluate
from .refunds import PprRefund, thresholds

logger = logging.getLogger(__name__)

#: Metric denominators at or below this are undefined and excluded from means.
METRIC_TOL = 1e-9

CSV_HEADER = (
    "heuristic,alpha,instances,sw_n_mean,sw_n_se,au_n_mean,au_n_se,"
    "au_n_dev_mean,au_n_nondev_mean,excluded_cells,seed"
)

_DEFAULT_ALPHAS = tuple(round(0.1 * k, 1) for k in range(1, 11))
_DEFAULT_DEVIANTS = (
    Heuristic.SYMMETRIC,
    Heuristic.WEIGHTED,
    Heuristic.GREEDY_THETA,
    Heuristic.GREEDY_VARTHETA,
)
#: Entropy salt separating deviator draws from instance draws.
_DEVIATOR_SALT = 0x5EED
#: Entropy salt separating random play orders from the other draws.
_PLAY_ORDER_SALT = 0x0DE5
#: Instance count under the full-scale flag.
FULL_SCALE_INSTANCES = 100_000


def _default_sampler() -> SamplerConfig:
    # Bonuses strictly inside the headroom leave thresholds over-provisioned,
    # which is what lets the welfare curves decline smoothly instead of
    # collapsing at the first deviator.
    return SamplerConfig(bonus_fraction=0.9)


@dataclass(frozen=True)
class ExperimentConfig:
    """Protocol parameters for one experiment run."""

    sampler: SamplerConfig = field(default_factory=_default_sampler)
    alphas: tuple[float, ...] = _DEFAULT_ALPHAS
    deviant_heuristics: tuple[Heuristic, ...] = _DEFAULT_DEVIANTS
    instances_per_cell: int = 1000
    seed: int = 0
    play_order: str = "ascending"
    include_control: bool = True
    matched_baseline: bool = False

    def __post_init__(self):
        alphas = tuple(float(a) for a in self.alphas)
        if not alphas or any(not 0.0 < a <= 1.0 for a in alphas):
            raise ValueError(f"alphas must sit inside (0, 1], got {alphas}")
        for a, b in zip(alphas, alphas[1:]):
            if a == b:
                raise ValueError(f"alphas must not repeat, got {a} twice in {alphas}")
            if a > b:
                raise ValueError(f"alphas must be sorted ascending, got {alphas}")
        deviants = tuple(Heuristic(h) for h in self.deviant_heuristics)
        if Heuristic.OPT_WELFARE in deviants:
            raise ValueError("the baseline heuristic cannot be listed as a deviant")
        if not deviants and not self.include_control:
            raise ValueError("deviant_heuristics is empty and include_control is false: "
                             "the experiment has no cells")
        if self.instances_per_cell < 1:
            raise ValueError("instances_per_cell must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        PlayOrder(self.play_order)  # names an unknown order before any instance runs
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "deviant_heuristics", deviants)

    @property
    def cell_keys(self) -> tuple[tuple[Heuristic, float], ...]:
        rules = list(self.deviant_heuristics)
        if self.include_control:
            rules.append(Heuristic.OPT_WELFARE)
        return tuple((h, a) for h in rules for a in self.alphas)


@dataclass(frozen=True)
class CellStats:
    """Aggregates for one (heuristic, alpha) cell."""

    heuristic: str
    alpha: float
    instances: int
    sw_mean: float | None
    sw_se: float | None
    au_mean: float | None
    au_se: float | None
    au_dev_mean: float | None
    au_nondev_mean: float | None
    excluded: int
    seed: int
    # split-class standard errors ride along for series emission only; the
    # CSV schema stays fixed
    au_dev_se: float | None = None
    au_nondev_se: float | None = None


@dataclass(frozen=True)
class ExperimentReport:
    """All cell aggregates plus reproducibility metadata."""

    cells: tuple[CellStats, ...]
    seed: int
    config_digest: str
    package_version: str

    def to_csv_text(self) -> str:
        from .io import format_float

        def fmt(value) -> str:
            return "" if value is None else format_float(value)

        lines = [CSV_HEADER]
        for c in self.cells:
            lines.append(
                ",".join(
                    [
                        c.heuristic,
                        format_float(c.alpha),
                        str(c.instances),
                        fmt(c.sw_mean),
                        fmt(c.sw_se),
                        fmt(c.au_mean),
                        fmt(c.au_se),
                        fmt(c.au_dev_mean),
                        fmt(c.au_nondev_mean),
                        str(c.excluded),
                        str(c.seed),
                    ]
                )
            )
        return "\n".join(lines) + "\n"

    def curve(self, heuristic: str, metric: str) -> tuple[list[float], list]:
        """Alpha grid and per-alpha values for one heuristic and metric."""
        picks = [c for c in self.cells if c.heuristic == heuristic]
        picks.sort(key=lambda c: c.alpha)
        return [c.alpha for c in picks], [getattr(c, metric) for c in picks]

    def write_series(self, directory) -> list[str]:
        """Emit one plot-ready JSON file per (metric, heuristic) curve."""
        from .io import dumps_canonical

        os.makedirs(directory, exist_ok=True)
        metrics = {
            "sw_n": ("sw_mean", "sw_se"),
            "au_n": ("au_mean", "au_se"),
            "au_n_deviators": ("au_dev_mean", "au_dev_se"),
            "au_n_nondeviators": ("au_nondev_mean", "au_nondev_se"),
        }
        names = sorted({c.heuristic for c in self.cells})
        written = []
        for metric, (attr, se_attr) in metrics.items():
            for name in names:
                alphas, values = self.curve(name, attr)
                payload = {
                    "metric": metric,
                    "heuristic": name,
                    "alpha": alphas,
                    "mean": values,
                    "se": self.curve(name, se_attr)[1],
                }
                path = os.path.join(directory, f"{metric}__{name}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(dumps_canonical(payload) + "\n")
                written.append(path)
        return written


def sw_n(
    instance: Instance, outcome: Outcome, pstar_welfare: float
) -> float | np.ndarray | None:
    """Welfare relative to the optimum; None when the optimum carries none.

    A float for one profile, an array for a stacked outcome.
    """
    if pstar_welfare <= METRIC_TOL:
        logger.info("undefined normalized welfare: optimal welfare %.3g", pstar_welfare)
        return None
    return outcome.social_welfare / pstar_welfare


def au_n(instance: Instance, outcome: Outcome, threshold_matrix: np.ndarray) -> np.ndarray:
    """Per-agent utility over the unconstrained-play baseline; NaN when undefined.

    The baseline is what each agent would earn if it could contribute its
    threshold everywhere and everything funded: valuation minus threshold,
    summed over projects. A stacked outcome gives one row per profile.
    """
    baseline = (instance.valuations - threshold_matrix).sum(axis=1)
    defined = baseline > METRIC_TOL
    if not defined.all():
        logger.info("excluding %d agents with zero utility baseline", int((~defined).sum()))
    safe = np.where(defined, baseline, 1.0)
    return np.where(defined, outcome.agent_utilities / safe, np.nan)


def deviation_split(values: np.ndarray, deviator_mask: np.ndarray):
    """Mean metric over deviators and non-deviators; None for an empty class."""

    def side(mask: np.ndarray) -> float | None:
        picked = values[mask]
        picked = picked[~np.isnan(picked)]
        return float(picked.mean()) if len(picked) else None

    return side(deviator_mask), side(~deviator_mask)


#: Metrics a cell accumulates, in the order of the accumulator's second axis.
_METRICS = ("sw", "au", "dev", "nondev")


def _row_moments(values: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """(rows, 3): total, square total and count of each row's kept values.

    Rows keeping equally many values are gathered into one (rows, count)
    block, so each total is the same pairwise sum numpy takes over that
    row's kept values as a 1-D array, and reports keep their bytes.
    """
    counts = keep.sum(axis=1)
    out = np.zeros((len(values), 3))
    out[:, 2] = counts
    for count in np.unique(counts[counts > 0]):
        group = counts == count
        picked = values[keep & group[:, None]].reshape(-1, count)
        out[group, 0] = picked.sum(axis=1)
        out[group, 1] = (picked * picked).sum(axis=1)
    return out


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF
#: PCG64's 128-bit LCG multiplier (pcg_random.h, PCG_DEFAULT_MULTIPLIER_128).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _words(value: int) -> list[int]:
    """A non-negative int as SeedSequence takes it: 32-bit words, least first."""
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _seed_states(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(row).generate_state(4, uint64)`` for each row of ``entropy``.

    ``entropy`` is (rows, words) uint32, each row the assembled entropy words
    of one sequence, at least the pool's four. The hash constants do not
    depend on the data, so every row runs numpy's hashmix/mix pool and its
    output hash at once, with the same uint32 arithmetic.
    """
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _MASK32
        value = value * np.uint32(const)
        return value ^ value >> _XSHIFT

    def mix(x, y):
        result = x * _MIX_L - y * _MIX_R
        return result ^ result >> _XSHIFT

    pool = [hashmix(entropy[:, i]) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    # entropy past the pool size mixes into every pool word
    for src in range(4, entropy.shape[1]):
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))

    const = _INIT_B
    state = np.empty((len(entropy), 8), dtype=np.uint32)
    for i in range(8):
        value = pool[i % 4] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        value = value * np.uint32(const)
        state[:, i] = value ^ value >> _XSHIFT
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _deviator_masks(cfg: ExperimentConfig, n: int, k: int) -> np.ndarray:
    """Instance ``k``'s deviators, one row per deviant cell in ``cell_keys`` order.

    Cell ``ci`` draws as ``default_rng(SeedSequence((seed, _DEVIATOR_SALT,
    ci, k))).choice(...)`` would. The seed states of all cells are hashed in
    one pass, and each is set on one generator the way PCG64 seeds itself
    (``pcg_setseq_128_srandom_r``), so no cell builds a SeedSequence or a
    PCG64 of its own.
    """
    cells = cfg.cell_keys[: len(cfg.deviant_heuristics) * len(cfg.alphas)]
    head = _words(cfg.seed) + [_DEVIATOR_SALT]
    entropy = np.tile(np.array(head + [0] + _words(k), dtype=np.uint32), (len(cells), 1))
    entropy[:, len(head)] = np.arange(len(cells))
    rng = np.random.Generator(np.random.PCG64(0))
    masks = np.zeros((len(cells), n), dtype=bool)
    for ci, ((_, alpha), words) in enumerate(zip(cells, _seed_states(entropy).tolist())):
        seed = words[0] << 64 | words[1]
        inc = (words[2] << 64 | words[3]) << 1 & _MASK128 | 1
        rng.bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": ((seed + inc) * _PCG_MULT + inc) & _MASK128, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        masks[ci, rng.choice(n, size=int(math.floor(alpha * n + 1e-9)), replace=False)] = True
    return masks


def _instance_moments(cfg: ExperimentConfig, k: int) -> np.ndarray:
    """Moment sums instance ``k`` adds to each cell: (cells, metric, moment).

    Every deviant cell's play is one row of a stacked (rows, n, p) intent
    tensor; the control cells all play the baseline, so they share one last
    row. The stack is played out, evaluated and scored in one pass each.
    """
    instance, solution = sample_instance(cfg.sampler, seed=(cfg.seed, k))
    n, p = instance.valuations.shape
    thr = thresholds(instance)
    if cfg.matched_baseline or isinstance(cfg.sampler.refund, PprRefund):
        thr_base = thr
    else:
        thr_base = thresholds(instance, scheme=PprRefund())

    def uniform_intents(rule: Heuristic) -> np.ndarray:
        return _intent_rows(rule, instance, np.arange(n), solution.subset, thr)

    baseline = uniform_intents(Heuristic.OPT_WELFARE)
    rules, alphas = len(cfg.deviant_heuristics), len(cfg.alphas)
    deviant = np.array([uniform_intents(rule) for rule in cfg.deviant_heuristics])
    masks = _deviator_masks(cfg, n, k)
    played = np.where(
        masks.reshape(rules, alphas, n, 1), deviant.reshape(rules, 1, n, p), baseline
    )
    intents = np.concatenate([played.reshape(rules * alphas, n, p), baseline[None]])
    deviators = np.concatenate([masks, np.zeros((1, n), dtype=bool)])

    permutation = None
    if cfg.play_order == "random":
        permutation = PlayOrder("random", seed=(cfg.seed, _PLAY_ORDER_SALT, k)).permutation(n)
    realized = clamp_play(intents, instance.targets, permutation)
    outcome = evaluate(instance, ContributionProfile(realized))
    sw = sw_n(instance, outcome, solution.welfare)
    au = au_n(instance, outcome, thr_base)

    moments = np.zeros((len(intents), len(_METRICS), 3))
    if sw is not None:
        moments[:, 0] = np.stack([sw, sw * sw, np.ones_like(sw)], axis=1)
    defined = ~np.isnan(au)
    keep = np.concatenate([defined, defined & deviators, defined & ~deviators])
    au_moments = _row_moments(np.tile(au, (3, 1)), keep)
    moments[:, 1:] = au_moments.reshape(3, len(intents), 3).swapaxes(0, 1)
    control = [len(intents) - 1] * (alphas if cfg.include_control else 0)
    return moments[list(range(rules * alphas)) + control]


def _stats(total: float, square: float, count: float) -> tuple[float | None, float | None]:
    """Mean and standard error from moment sums; None where undefined."""
    count = int(count)
    mean = total / count if count else None
    if count < 2:
        return mean, None
    var = max(square - total * total / count, 0.0) / (count - 1)
    return mean, math.sqrt(var) / math.sqrt(count)


def worker_count() -> int:
    """Worker cap from ``CCFUND_THREADS``; 1 means run in-process.

    A value that is not a positive integer falls back to 1 and one above the
    core count is capped at it; either way one line on stderr says so.
    """
    raw = os.environ.get("CCFUND_THREADS", "1")
    cores = os.cpu_count() or 1
    try:
        wanted = int(raw)
    except ValueError:
        wanted = 0
    if wanted < 1:
        print(f"ccfund: CCFUND_THREADS={raw!r} is not a positive integer; using 1 worker",
              file=sys.stderr)
        return 1
    if wanted > cores:
        print(f"ccfund: CCFUND_THREADS={wanted} exceeds the {cores} cores; using {cores} workers",
              file=sys.stderr)
        return cores
    return wanted


def run_experiment(
    cfg: ExperimentConfig, full_scale: bool = False, workers: int | None = None
) -> ExperimentReport:
    """Run every cell and aggregate; byte-stable for a fixed (config, seed).

    Partial results merge in instance order no matter how many workers run,
    so parallel and sequential runs emit identical reports. ``workers``
    defaults to :func:`worker_count`.
    """
    from . import __version__
    from .io import dumps_canonical, experiment_config_to_jsonable

    count = FULL_SCALE_INSTANCES if full_scale else cfg.instances_per_cell
    keys = cfg.cell_keys
    # one accumulator for every cell: (cells, metric, [total, square, count])
    acc = np.zeros((len(keys), len(_METRICS), 3))

    if workers is None:
        workers = worker_count()
    if workers > 1 and count > 1:
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            for moments in pool.imap(
                functools.partial(_instance_moments, cfg), range(count), chunksize=32
            ):
                acc += moments
    else:
        for k in range(count):
            acc += _instance_moments(cfg, k)

    cells = []
    for (rule, alpha), cell in zip(keys, acc.tolist()):
        sw, au, dev, nondev = (_stats(*moments) for moments in cell)
        cells.append(
            CellStats(
                heuristic=rule.value,
                alpha=alpha,
                instances=count,
                sw_mean=sw[0],
                sw_se=sw[1],
                au_mean=au[0],
                au_se=au[1],
                au_dev_mean=dev[0],
                au_nondev_mean=nondev[0],
                excluded=count - int(cell[0][2]),
                seed=cfg.seed,
                au_dev_se=dev[1],
                au_nondev_se=nondev[1],
            )
        )
    digest = hashlib.sha256(
        dumps_canonical(experiment_config_to_jsonable(cfg)).encode()
    ).hexdigest()
    return ExperimentReport(tuple(cells), cfg.seed, digest, __version__)
