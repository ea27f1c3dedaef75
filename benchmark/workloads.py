"""The benchmark's workloads: inputs made from a seed, the call, its check.

Every call into the program goes through a module attribute
(``harness.run_experiment``, ``generators.sample_instance``, ...), so the
tracer can rebind it. Input building and output checks use names bound when
this module is imported, so they never show up in a trace.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from pathlib import Path

import numpy as np

from ccfund import bestresponse, generators, harness, welfare
from ccfund.bestresponse import response_utility
from ccfund.generators import SamplerConfig, ValuationDist
from ccfund.generators import sample_instance as _sample_untraced
from ccfund.harness import ExperimentConfig
from ccfund.heuristics import Assignment, Heuristic, play
from ccfund.model import TOL, BudgetStatus, check_budget_surplus, check_subset_feasibility
from ccfund.refunds import PprRefund, thresholds
from ccfund.welfare import solve_pstar_bruteforce, welfare_of

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_experiment.json"

#: Entropy salts keeping each workload's draws apart from the others'.
_SAMPLE_WIDE_SALT = 0x5A3D
_FINE_GRID_SALT = 0xF16D
#: Seed of the fixed warm-up input, outside every run's input stream.
_WARMUP = 10**6
#: Offset between consecutive run seeds in an input pool.
_POOL_STRIDE = 97

#: The acceptance configuration: 10 alphas x (4 deviants + control) = 50 cells.
_ACCEPTANCE = dict(
    n=100, p=10, alphas=tuple(round(0.1 * k, 1) for k in range(1, 11)),
    deviants=("symmetric", "weighted", "greedy-theta", "greedy-vartheta"),
)
_TINY_EXPERIMENT = dict(n=12, p=4, alphas=(0.5, 1.0), deviants=("symmetric",), chunk=4, pool=16)

#: Problem sizes. "full" is what the benchmark measures; "tiny" only makes
#: the benchmark's own tests fast. One-worker chunks of 32 give a timed run
#: enough calls for a tail percentile. "experiment-2w" is no workload of its
#: own: its chunks of 64, two of the harness's 32-instance pool tasks, one per
#: worker, feed the parallel pass of the traced experiment run.
SIZES = {
    "full": {
        "experiment": dict(_ACCEPTANCE, chunk=32, pool=512),
        "experiment-2w": dict(_ACCEPTANCE, chunk=64, pool=512),
        "sample-wide": dict(n=100, p=18, pool=128),
        "fine-grid": dict(n=100, p=10, resolution=0.01, delta=0.01, agents=(0, 1, 2)),
    },
    "tiny": {
        "experiment": _TINY_EXPERIMENT,
        "experiment-2w": _TINY_EXPERIMENT,
        "sample-wide": dict(n=20, p=8, pool=16),
        "fine-grid": dict(n=12, p=4, resolution=0.05, delta=0.05, agents=(0, 1)),
    },
}


def experiment_config(size: str, workload: str, k: int) -> ExperimentConfig:
    """Chunk ``k`` of an experiment workload's pool: one call's input."""
    s = SIZES[size][workload]
    sampler = SamplerConfig(
        n=s["n"],
        p=s["p"],
        valuation_dist=ValuationDist("uniform", 0.0, 10.0),
        bonus_fraction=0.9,
        refund=PprRefund(),
    )
    return ExperimentConfig(
        sampler=sampler,
        alphas=s["alphas"],
        deviant_heuristics=tuple(Heuristic(h) for h in s["deviants"]),
        instances_per_cell=s["chunk"],
        seed=k,
        play_order="ascending",
        include_control=True,
    )


def csv_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Experiment:
    """``run_experiment`` over fixed-size chunks of instances.

    Chunk inputs come from a pool of experiment seeds whose CSV digests were
    captured with one worker (``golden_experiment.json``); a run seed picks
    where in the pool its chunks start. Matching a digest on two workers is
    byte identity with the one-worker report.
    """

    unit = "instances"

    def __init__(self, name: str, size: str, workers: int):
        self.name = name
        self.size = size
        self.workers = workers
        self.spec = SIZES[size][name]
        with open(GOLDEN_PATH, encoding="utf-8") as fh:
            self.golden = json.load(fh)[size][name]
        if len(self.golden) != self.spec["pool"]:
            raise ValueError(f"golden pool for {name} ({size}) holds {len(self.golden)} digests")

    @property
    def params(self) -> dict:
        return {**self.spec, "workers": self.workers, "valuations": "uniform[0,10]",
                "refund": "ppr", "bonus_fraction": 0.9, "play_order": "ascending",
                "cells": (len(self.spec["deviants"]) + 1) * len(self.spec["alphas"])}

    def use_workers(self, workers: int) -> None:
        os.environ["CCFUND_THREADS"] = str(workers)

    def activate(self) -> None:
        self.use_workers(self.workers)

    def inputs(self, seed: int):
        pool = self.spec["pool"]
        start = seed * _POOL_STRIDE
        for i in itertools.count():
            yield experiment_config(self.size, self.name, (start + i) % pool)

    def warmup_inputs(self):
        return [experiment_config(self.size, self.name, _WARMUP)]

    def call(self, cfg):
        report = harness.run_experiment(cfg)
        return report, report.to_csv_text()

    def units(self, cfg, out) -> int:
        return cfg.instances_per_cell

    def check(self, cfg, out) -> str | None:
        report, text = out
        if csv_digest(text) != self.golden[cfg.seed]:
            return f"chunk seed {cfg.seed}: CSV digest differs from the captured one"
        over = [c for c in report.cells if c.sw_mean is not None and c.sw_mean > 1.0]
        if over:
            return f"chunk seed {cfg.seed}: sw_mean {over[0].sw_mean!r} > 1 in {over[0].heuristic}"
        return None


class SampleWide:
    """``sample_instance`` at wide p: the lift loop's 2^p enumeration."""

    name = "sample-wide"
    unit = "instances"

    def __init__(self, size: str):
        self.spec = SIZES[size]["sample-wide"]
        self.cfg = SamplerConfig(n=self.spec["n"], p=self.spec["p"],
                                 valuation_dist=ValuationDist("uniform", 0.0, 10.0),
                                 refund=PprRefund())

    @property
    def params(self) -> dict:
        return {**self.spec, "valuations": "uniform[0,10]", "refund": "ppr",
                "bonus_fraction": self.cfg.bonus_fraction, "sampler": "deficit"}

    def activate(self) -> None:
        pass

    def inputs(self, seed: int):
        # Consecutive entries of a pool of sampler seeds from where the run
        # seed points, then fresh seeds after one lap, so runs share most of
        # their inputs and none repeats one. A sample's cost depends on how
        # many lifts it takes; with inputs distinct per run seed, the tail
        # percentile spread 0.18 over five seeds, against 0.10 over five
        # runs of one seed.
        pool = self.spec["pool"]
        start = seed * _POOL_STRIDE
        for i in itertools.count():
            yield (_SAMPLE_WIDE_SALT, (start + i) % pool if i < pool else i)

    def warmup_inputs(self):
        return [(_SAMPLE_WIDE_SALT, _WARMUP)]

    def call(self, seed):
        return generators.sample_instance(self.cfg, seed=seed)

    def units(self, seed, out) -> int:
        return 1

    def check(self, seed, out) -> str | None:
        instance, solution = out
        if check_budget_surplus(instance) != BudgetStatus.DEFICIT:
            return f"sample {seed}: budget pool is not in deficit"
        if not check_subset_feasibility(instance, solution.subset, thresholds(instance)):
            return f"sample {seed}: shipped subset {solution.subset} is not threshold-feasible"
        exact = solve_pstar_bruteforce(instance).subset
        if solution.subset != exact:
            return f"sample {seed}: shipped subset {solution.subset} != enumeration {exact}"
        return None


class FineGrid:
    """Fine-resolution solvers on sampled instances.

    One call is one instance's solver work: a ``solve_pstar_dp``, then
    ``make_view`` + ``best_response_exact`` for a fixed set of agents against
    the opt-welfare play-out. The unit is solver calls (DP and best
    responses). Taking an instance as the call, rather than each solver
    call, keeps the median off the boundary between the cheap DP calls and
    the costly best responses.
    """

    name = "fine-grid"
    unit = "solver_calls"

    def __init__(self, size: str):
        self.spec = SIZES[size]["fine-grid"]
        self.cfg = SamplerConfig(n=self.spec["n"], p=self.spec["p"],
                                 valuation_dist=ValuationDist("uniform", 0.0, 10.0),
                                 refund=PprRefund())

    @property
    def params(self) -> dict:
        return {**self.spec, "valuations": "uniform[0,10]", "refund": "ppr",
                "bonus_fraction": self.cfg.bonus_fraction, "play": "opt-welfare"}

    def activate(self) -> None:
        pass

    def _instance(self, seed):
        instance, solution = _sample_untraced(self.cfg, seed=seed)
        profile = play(
            instance,
            Assignment.uniform(Heuristic.OPT_WELFARE, instance.n_agents),
            solution.subset,
            thresholds(instance),
        )
        return instance, profile

    def inputs(self, seed: int):
        for i in itertools.count():
            yield self._instance((_FINE_GRID_SALT, seed, i))

    def warmup_inputs(self):
        return [self._instance((_FINE_GRID_SALT, _WARMUP))]

    def call(self, inp):
        instance, profile = inp
        dp = welfare.solve_pstar_dp(instance, self.spec["resolution"])
        responses = []
        for agent in self.spec["agents"]:
            view = bestresponse.make_view(instance, profile, agent)
            responses.append((view, bestresponse.best_response_exact(view, self.spec["delta"])))
        return dp, responses

    def units(self, inp, out) -> int:
        return 1 + len(self.spec["agents"])

    def check(self, inp, out) -> str | None:
        instance, _ = inp
        dp, responses = out
        subset = dp.subset
        cost = float(instance.targets[list(subset)].sum())
        if cost > float(instance.budgets.sum()) + TOL:
            return f"DP subset {subset} costs {cost!r}, over the pooled budget"
        best = solve_pstar_bruteforce(instance).welfare
        if welfare_of(instance, subset) > best + 1e-9:
            return f"DP subset {subset} beats the enumeration optimum {best!r}"
        delta = self.spec["delta"]
        for agent, (view, response) in zip(self.spec["agents"], responses):
            x = np.asarray(response.contributions, dtype=float)
            if np.any(x < 0) or not np.array_equal(np.round(x / delta) * delta, x):
                return f"agent {agent}: contributions are not grid multiples"
            if x.sum() > view.budget + TOL:
                return f"agent {agent}: spends {x.sum()!r} over budget {view.budget!r}"
            if abs(response.utility - response_utility(view, x)) > 1e-9:
                return f"agent {agent}: utility {response.utility!r} != response_utility"
        return None


def make(name: str, size: str = "full"):
    if name == "experiment":
        return Experiment(name, size, workers=1)
    if name == "experiment-2w":
        return Experiment(name, size, workers=2)
    if name == "sample-wide":
        return SampleWide(size)
    if name == "fine-grid":
        return FineGrid(size)
    raise ValueError(f"unknown workload {name!r}")
