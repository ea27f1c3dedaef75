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
from collections import namedtuple
from contextlib import nullcontext
from dataclasses import dataclass, fields

import numpy as np

from .generators import SamplerConfig, sample_instance
# intent_matrix, evaluate and thresholds are not called here; the benchmark's tracer rebinds them
from .heuristics import Heuristic, PlayOrder, _intent_rows, clamp_play, intent_matrix  # noqa: F401
from .model import TOL, ContributionProfile, Instance, Outcome, _evaluate
from .model import evaluate  # noqa: F401
from .refunds import PprRefund, threshold_matrix, thresholds  # noqa: F401

logger = logging.getLogger(__name__)

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
#: Instances per block: one batched deviator draw and one process-pool task
#: each. Blocks start at multiples of it, so they never straddle k = 2^32
#: and all of a block's indices take one entropy width.
_BLOCK = 32
#: Intents one play group takes at most: four instances' at the acceptance
#: configuration, a whole block's for small games, one instance's for
#: large crowds. Each group is played out and scored in one pass. It also
#: caps the rule rows of the instances a block draws before playing them.
_PLAY_VALUES = 3 << 16
#: Instance count under the full-scale flag.
FULL_SCALE_INSTANCES = 100_000


@dataclass(frozen=True)
class ExperimentConfig:
    """Protocol parameters for one experiment run."""

    # Bonuses strictly inside the headroom leave thresholds over-provisioned,
    # which is what lets the welfare curves decline smoothly instead of
    # collapsing at the first deviator.
    sampler: SamplerConfig = SamplerConfig(bonus_fraction=0.9)
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
    # split-class standard errors ride along for series emission only: the
    # CSV reads the fields up to seed, so these stay after it
    au_dev_se: float | None = None
    au_nondev_se: float | None = None


@dataclass(frozen=True)
class ExperimentReport:
    """All cell aggregates plus reproducibility metadata."""

    cells: tuple[CellStats, ...]
    seed: int
    config_digest: str

    def to_csv_text(self) -> str:
        from .io import format_float

        def fmt(value) -> str:
            if value is None:
                return ""
            return format_float(value) if isinstance(value, float) else str(value)

        # the CSV columns are CellStats' leading fields, in declared order
        columns = fields(CellStats)[: CSV_HEADER.count(",") + 1]
        rows = (",".join(fmt(getattr(c, f.name)) for f in columns) for c in self.cells)
        return "\n".join([CSV_HEADER, *rows]) + "\n"

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
    if pstar_welfare <= TOL:
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
    if not (baseline > TOL).all():
        logger.info("excluding %d agents with zero utility baseline", int((baseline <= TOL).sum()))
    return _normalized(outcome.agent_utilities, baseline)


def _normalized(values: np.ndarray, base: np.ndarray) -> np.ndarray:
    """``values / base`` where ``base`` exceeds :data:`TOL`, NaN elsewhere; the two broadcast."""
    defined = base > TOL
    return np.where(defined, values / np.where(defined, base, 1.0), np.nan)


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
    """Total, square total and count of each row's kept values.

    A row is one index into ``keep``'s leading axes, its values lie along
    the last axis, and ``values`` broadcasts against ``keep``; the result
    has ``keep``'s leading shape plus an axis of 3. Rows keeping equally
    many values are gathered by index into one (rows, count) block, so each
    total is the same pairwise sum numpy takes over that row's kept values
    as a 1-D array, whichever rows share the call, and reports keep their
    bytes. Each row is gathered once, so a call is linear in the values.
    """
    counts = keep.sum(axis=-1)
    out = np.zeros(counts.shape + (3,))
    out[..., 2] = counts
    values = np.broadcast_to(values, keep.shape)
    for count in np.unique(counts[counts > 0]):
        rows = np.nonzero(counts == count)
        picked = values[rows][keep[rows]].reshape(-1, count)
        out[..., 0][rows] = picked.sum(axis=1)
        out[..., 1][rows] = np.square(picked, out=picked).sum(axis=1)
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
#: Items up to which numpy's ``Generator.choice`` always picks by Floyd's
#: algorithm; past them it shuffles a tail for picks over a 50th of them.
_FLOYD_MAX_N = 10_000
#: Items up to which the batch draws a row itself, at most ``_FLOYD_MAX_N``
#: (it reproduces only Floyd's algorithm). Its numpy step per draw position
#: grows with the items, and past about 500 a ``choice`` call per row is faster.
_BATCH_MAX_N = 500


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


def _seeded(bits: np.random.PCG64, state: tuple[int, int]) -> np.random.PCG64:
    """``bits`` moved to the PCG64 ``(state, inc)`` pair ``state``, no half buffered."""
    bits.state = {"bit_generator": "PCG64", "state": {"state": state[0], "inc": state[1]},
                  "has_uint32": 0, "uinteger": 0}
    return bits


def _choice(bits: np.random.PCG64, n: int, size: int) -> np.ndarray:
    """``Generator(bits).choice(n, size, replace=False)``: a row the batch leaves to numpy."""
    return np.random.Generator(bits).choice(n, size, replace=False)


def _choice_masks(states: list[tuple[int, int]], n: int, sizes: np.ndarray) -> np.ndarray:
    """The items ``Generator(PCG64).choice(n, size, replace=False)`` picks, as masks.

    Row ``r``'s generator starts at the PCG64 ``(state, inc)`` ``states[r]``
    and picks ``sizes[r]`` items. Up to 10,000 items ``choice`` keeps its
    picks by Floyd's algorithm (Bentley, CACM 1987). Its draw ``d`` picks
    one of ``span = n - size + d + 1`` values as numpy's
    ``random_bounded_uint64`` does (Lemire, ACM TOMACS 2019): the next
    32-bit half of a raw word, low half first, times ``span``, keeping the
    product's high word and redrawing while its low word is below ``2^32
    mod span``. Rows picking none or all of the items draw nothing. Every
    other row up to ``_BATCH_MAX_N`` items reads its raw words once and
    takes draw ``d`` from half ``d``, and each draw position is one numpy
    step over the rows still drawing. ``choice`` itself picks for a row with
    a draw numpy would redraw (odds below ``n / 2^32`` a draw) and for every
    drawing row past ``_BATCH_MAX_N`` items. The order ``choice`` then
    shuffles its picks into does not matter to a mask.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    masks = np.zeros((len(sizes), n), dtype=bool)
    masks[sizes == n] = True
    drawing = (sizes > 0) & (sizes < n)
    redo = drawing & (n > _BATCH_MAX_N)
    floyd = np.where(redo, 0, sizes * drawing)
    steps = int(floyd.max(initial=0))
    # rows drawing longest first: the rows still drawing at position d are a prefix
    order = np.argsort(-floyd, kind="stable")
    floyd = floyd[order]
    bits = np.random.PCG64(0)
    words = np.empty((np.count_nonzero(floyd), (steps + 1) // 2), dtype=np.uint64)
    for row, r in enumerate(order[: len(words)].tolist()):
        words[row] = _seeded(bits, states[r]).random_raw(words.shape[1])
    u32 = words.astype("<u8", copy=False).view("<u4")
    for d, m in enumerate(np.searchsorted(-floyd, -np.arange(steps), side="left").tolist()):
        live = order[:m]
        top = n - floyd[:m] + d
        span = (top + 1).astype(np.uint64)
        product = u32[:m, d] * span
        redo[live] |= (product & _MASK32) < (1 << 32) % span
        picked = (product >> 32).astype(np.intp)
        # Floyd's rule: a pick already taken takes the top value instead
        masks[live, np.where(masks[live, picked], top, picked)] = True
    for r in np.flatnonzero(redo).tolist():
        masks[r] = False
        masks[r, _choice(_seeded(bits, states[r]), n, int(sizes[r]))] = True
    return masks


def _deviator_masks(cfg: ExperimentConfig, n: int, ks) -> np.ndarray:
    """Deviators of instances ``ks``: (instance, deviant cell in ``cell_keys`` order, agent).

    Cell ``ci`` of instance ``k`` picks as ``default_rng(SeedSequence((seed,
    _DEVIATOR_SALT, ci, k))).choice(n, floor(alpha n), replace=False)``
    would. The seed states of every row are hashed in one pass and turned
    into PCG64's ``(state, inc)`` the way it seeds itself
    (``pcg_setseq_128_srandom_r``), so no row builds a SeedSequence or a
    generator of its own. Every ``k`` must take as many entropy words as the
    others, as the indices of one block do.
    """
    cells = cfg.cell_keys[: len(cfg.deviant_heuristics) * len(cfg.alphas)]
    head = _words(cfg.seed) + [_DEVIATOR_SALT]
    tails = np.array([_words(k) for k in ks], dtype=np.uint32)
    entropy = np.empty((len(tails), len(cells), len(head) + 1 + tails.shape[1]), dtype=np.uint32)
    entropy[:, :, : len(head)] = head
    entropy[:, :, len(head)] = np.arange(len(cells))
    entropy[:, :, len(head) + 1 :] = tails[:, None]
    states = []
    for w0, w1, w2, w3 in _seed_states(entropy.reshape(-1, entropy.shape[2])).tolist():
        inc = (w2 << 64 | w3) << 1 & _MASK128 | 1
        states.append((((w0 << 64 | w1) + inc) * _PCG_MULT + inc & _MASK128, inc))
    sizes = [int(math.floor(alpha * n + 1e-9)) for _, alpha in cells] * len(tails)
    return _choice_masks(states, n, np.array(sizes)).reshape(len(tails), len(cells), n)


_Batch = namedtuple("_Batch", "instances targets bases rows orders")


def _draw_batch(cfg: ExperimentConfig, ks: range) -> _Batch:
    """Instances ``ks``, their (instance, rule, n, p) rows, score ``bases`` and any play orders.

    Each rule, the baseline's and then each deviant's, runs once over the
    batch. Each instance's rows are checked in order as one stacked profile
    (play only lowers an entry, so it keeps any budget its rows keep), and
    before a failed draw, whose earlier instances are drawn again to check.
    ``bases`` are the agents' utility baselines, then the optimal welfare.
    """
    drawn = []
    for k in ks:
        try:
            drawn.append(sample_instance(cfg.sampler, seed=(cfg.seed, k)))
        except Exception:  # raised once the instances before it pass, as one at a time
            if drawn:
                _draw_batch(cfg, ks[: len(drawn)])
            raise
    instances, solutions = zip(*drawn)
    n, p = cfg.sampler.n, cfg.sampler.p
    valuations, budgets, vartheta, targets, bonuses = (
        np.stack([getattr(instance, name) for instance in instances])
        for name in ("valuations", "budgets", "vartheta", "targets", "bonuses"))
    games = (valuations, targets[:, None], bonuses[:, None])
    thr = base_thr = threshold_matrix(*games, cfg.sampler.refund)
    if not (cfg.matched_baseline or isinstance(cfg.sampler.refund, PprRefund)):
        base_thr = threshold_matrix(*games, PprRefund())
    chosen = np.array([[j in s.subset for j in range(p)] for s in solutions])
    rows = np.stack([_intent_rows(rule, valuations, budgets, vartheta / targets, chosen, thr)
                     for rule in (Heuristic.OPT_WELFARE, *cfg.deviant_heuristics)], axis=1)
    for instance, stack in zip(instances, rows):
        ContributionProfile(stack).validate_against(instance)
    bases = np.column_stack([(valuations - base_thr).sum(axis=-1), [s.welfare for s in solutions]])
    orders = ([PlayOrder("random", seed=(cfg.seed, _PLAY_ORDER_SALT, k)).permutation(n) for k in ks]
              if cfg.play_order == "random" else None)
    return _Batch(instances, targets, bases, rows, orders)


def _play_group(batch: _Batch, group: slice, picks: np.ndarray, buffers: np.ndarray) -> np.ndarray:
    """The realized (n, instance, row, p) ``group``: agent i of row r plays rule picks[., i, r].

    One gather from the batch's rows lays the stacks agents outermost, in
    each instance's play order, and one :func:`clamp_play` call realizes
    them, adding one agent to every running total of the group at a time; in
    random order one scatter puts the agents back. The gather and the
    play-out write into views of the two rows of ``buffers``, and the result
    is one of those views.
    """
    rules, n, p = batch.rows.shape[1:]
    slots = np.arange(len(picks))
    index = (picks + (slots + group.start)[:, None, None] * (rules * n)).transpose(1, 0, 2)
    plays = batch.rows.reshape(-1, p)
    targets = batch.targets[group, None]
    shape = index.shape + (p,)
    gathered, realized = (buffer[: math.prod(shape)].reshape(shape) for buffer in buffers)
    # every index is in range; under mode="raise" numpy would buffer the output
    if batch.orders is None:
        np.take(plays, index, axis=0, out=gathered, mode="clip")
        return clamp_play(gathered, targets, out=realized)
    orders = np.array(batch.orders[group]).T
    np.take(plays, index[orders, slots], axis=0, out=gathered, mode="clip")
    # the intents are spent once played, so their buffer takes the scatter
    gathered[orders, slots] = clamp_play(gathered, targets, out=realized)
    return gathered


def _score_group(batch: _Batch, group: slice, realized: np.ndarray,
                 deviators: np.ndarray) -> np.ndarray:
    """A group's (instance, row, metric, moment) sums: each instance evaluated, one scoring pass."""
    scores = np.empty(deviators.shape[:2] + (deviators.shape[2] + 1,))
    for slot, instance in enumerate(batch.instances[group]):
        outcome = _evaluate(instance, realized[:, slot])
        scores[slot, :, :-1] = outcome.agent_utilities
        scores[slot, :, -1] = outcome.social_welfare
    scores = _normalized(scores, batch.bases[group, None])
    defined, measured = ~np.isnan(scores[..., :-1]), ~np.isnan(scores[..., -1])
    sw = np.where(measured, scores[..., -1], 0.0)
    moments = np.empty(deviators.shape[:2] + (len(_METRICS), 3))
    moments[:, :, 0] = np.stack([sw, sw * sw, measured], axis=-1)
    keep = np.stack([defined, defined & deviators, defined & ~deviators])
    moments[:, :, 1:] = _row_moments(scores[..., :-1], keep).transpose(1, 2, 0, 3)
    return moments


def _block_moments(cfg: ExperimentConfig, count: int, start: int) -> np.ndarray:
    """Moment sums each instance of a block adds to each cell.

    (instance, cell, metric, moment) for the :data:`_BLOCK` instances from
    ``start``, a multiple of it, or those up to ``count``. Each deviant cell
    plays an instance as one stack row; the control cells all play the
    baseline, so they share one last row. One batch draws the deviators;
    :func:`_draw_batch` then draws the instances in batches of whole play
    groups whose rule rows hold at most :data:`_PLAY_VALUES` intents, each
    before any of its groups plays. Each group, of at most as many stacked
    intents, runs :func:`_play_group` in the block's two buffers, then
    :func:`_score_group`.
    """
    ks = range(start, min(start + _BLOCK, count))
    n, p = cfg.sampler.n, cfg.sampler.p
    rules, alphas = len(cfg.deviant_heuristics), len(cfg.alphas)
    rows = rules * alphas + 1
    deviators = np.zeros((len(ks), rows, n), dtype=bool)
    deviators[:, :-1] = _deviator_masks(cfg, n, ks)
    # with the baseline's and each deviant rule's intents laid end to end,
    # agent i of stack row r plays the one at row picks[., i, r]
    rule_of_row = np.append(np.repeat(np.arange(1, rules + 1), alphas), 0)
    picks = (deviators * rule_of_row[:, None] * n + np.arange(n)).transpose(0, 2, 1)
    moments = np.empty((len(ks), rows, len(_METRICS), 3))
    per_group = max(1, _PLAY_VALUES // (rows * n * p))
    per_batch = max(1, _PLAY_VALUES // ((rules + 1) * n * p) // per_group) * per_group
    size = min(per_group, len(ks)) * rows * n * p
    buffers = np.empty((2, size))
    for drawn in range(0, len(ks), per_batch):
        batch = _draw_batch(cfg, ks[drawn : drawn + per_batch])
        for first in range(0, len(batch.instances), per_group):
            group = slice(first, first + per_group)
            slots = slice(drawn + first, drawn + first + per_group)
            realized = _play_group(batch, group, picks[slots], buffers)
            moments[slots] = _score_group(batch, group, realized, deviators[slots])

    control = [rows - 1] * (alphas if cfg.include_control else 0)
    return moments[:, list(range(rules * alphas)) + control]


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


def run_workers(cfg: ExperimentConfig, cap: int | None = None) -> int:
    """Workers a run of ``cfg`` uses: ``cap`` or :func:`worker_count`, but one a block at most."""
    return min(worker_count() if cap is None else cap, -(-cfg.instances_per_cell // _BLOCK))


def run_experiment(cfg: ExperimentConfig, workers: int | None = None) -> ExperimentReport:
    """Run every cell and aggregate; byte-stable for a fixed (config, seed).

    Partial results merge in instance order no matter how many workers run,
    so parallel and sequential runs emit identical reports. ``workers`` caps
    the pool as in :func:`run_workers`.
    """
    from .io import dumps_canonical, experiment_config_to_jsonable

    count = cfg.instances_per_cell
    keys = cfg.cell_keys
    # one accumulator for every cell: (cells, metric, [total, square, count])
    acc = np.zeros((len(keys), len(_METRICS), 3))

    workers = run_workers(cfg, workers)
    block_moments = functools.partial(_block_moments, cfg, count)
    pool = nullcontext()
    if workers > 1:
        import multiprocessing

        pool = multiprocessing.Pool(workers)
    with pool as running:
        imap = map if running is None else running.imap
        for block in imap(block_moments, range(0, count, _BLOCK)):
            for moments in block:
                acc += moments

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
    return ExperimentReport(tuple(cells), cfg.seed, digest)
