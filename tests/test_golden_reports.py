"""Byte-level regression pins for experiment reports.

Each digest is the SHA-256 of the CSV that ``run_experiment`` wrote for the
config of the same name when the digest was captured. Together the configs
cover what the acceptance-scale goldens do not: exponential valuations,
random play order, the linear refund with and without a matched utility
baseline, runs without control cells, deviator counts that floor a
fractional alpha*n (down to zero deviators), instances whose optimum is
empty, so normalized welfare is excluded, a seed above 2^32, whose
seed sequences mix more than four entropy words, and a crowd past 10,000
agents, where numpy's ``choice`` picks large deviator sets by a partial
shuffle instead of Floyd's algorithm. Two configs sum over at
least eight projects, where numpy's pairwise sum is no longer a plain left
fold, so a reordered project sum moves their bytes: the acceptance config
at p=10, and p=17 (one full block of eight accumulators and a remainder).
"""

import hashlib

import pytest

from ccfund import ExperimentConfig, LinearAdditiveRefund, SamplerConfig, run_experiment
from ccfund.generators import ValuationDist


def _config(sampler=None, **overrides):
    sampler = SamplerConfig(**{"n": 30, "p": 6, "bonus_fraction": 0.9, **(sampler or {})})
    kwargs = {"sampler": sampler, "alphas": (0.2, 0.5, 1.0), "instances_per_cell": 20, "seed": 3}
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


CONFIGS = {
    "uniform-ppr": lambda: _config(),
    "exponential": lambda: _config({"valuation_dist": ValuationDist("exponential", rate=1.5)}),
    "random-order": lambda: _config(play_order="random"),
    "linear": lambda: _config({"refund": LinearAdditiveRefund(0.5)}),
    "linear-matched": lambda: _config({"refund": LinearAdditiveRefund(0.5)}, matched_baseline=True),
    "no-control": lambda: _config(include_control=False),
    "fractional-alpha": lambda: _config(alphas=(0.15, 0.33, 0.71)),
    # pools too small for any project on some draws: excluded welfare cells
    "two-projects": lambda: _config({"p": 2}),
    # floor(0.1 * 7) = 0: deviant cells without a deviator
    "tiny-crowd": lambda: _config({"n": 7, "p": 3}, alphas=(0.1, 0.5, 1.0)),
    # a seed of two 32-bit words: every seed sequence gets five or more
    "wide-seed": lambda: _config(seed=2**40 + 7, play_order="random"),
    # n=100, p=10, ten alphas, four deviants and control: one full
    # 32-instance block and a partial one
    "acceptance-p10": lambda: ExperimentConfig(instances_per_cell=40, seed=3),
    "seventeen-projects": lambda: _config({"p": 17}),
    # past 10,000 agents: 100 deviators are drawn by Floyd's algorithm,
    # 5,000 and all 10,001 as numpy's tail shuffle
    "ten-thousand-one": lambda: _config(
        {"n": 10_001, "p": 2}, alphas=(0.01, 0.5, 1.0), instances_per_cell=2
    ),
    # odd p, random order and a linear refund scored against a separate
    # proportional baseline, in one block of 23 instances that is not full
    "partial-block": lambda: _config(
        {"n": 30, "p": 5, "refund": LinearAdditiveRefund(0.5)},
        play_order="random",
        instances_per_cell=23,
    ),
}

GOLDEN = {
    "uniform-ppr": "ee878a17cb4a306b5deb4a5fbfed5689a654fd46ca2b2c83cd40e53190c14629",
    "exponential": "ff729b34a6ecbea2e83d2c36cd1d63f2a64f0d71c0e1fc7b72170f4b5de90b1f",
    "random-order": "bdd0f1dafafde3f72fe79d55a7e208550c4ceb0768b9c387e44087dec91300fc",
    "linear": "b7a16b29994d537f225d48fb6a96cfcab296ca6f2669ee4c98fb729049f90dfe",
    "linear-matched": "1fd702b5ff07978c5fd02ac36c6e847364cc9ad083605fd618fd69efe2177126",
    "no-control": "ce7e75ed8e1e23170b5944fea6db6fd2f31601c9c079d3ca622989ee5f2633d5",
    "fractional-alpha": "b063d906aa2a82f180f2fb8381e228bf283307fe0dcdd9b4e1f8f845c5547d46",
    "two-projects": "c9a96a42e2eb6e6a5b4c50dfba7046e93dad698191f68d1067b6c503dbfd0bda",
    "tiny-crowd": "10962f4211ba5669a794a42fd6c7fad94bb4fa0e879c323b299341ac727a09e2",
    "wide-seed": "1d1e59fde45365d437a4701d816f65df370a1e89e8e5e007d75cd80c29cecba5",
    "acceptance-p10": "b7850183fbab8a680376a9a26d7aec80c9d5ecca1aec1dff59b495fd677ea0c8",
    "seventeen-projects": "94e03ec2751f8830f81d8699f7627527813646d54aa28a8cc06f342ace3ab9b2",
    "ten-thousand-one": "54314d9b8ffdf1f2b301243d361c78745fdf91c7f4ec8504bc27267768b98b03",
    "partial-block": "9c6d47c5bcf2fc6043e6958bf2e0a085d8e9f0b8d798b1c12bb311c984a29907",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_bytes_match_golden(name):
    text = run_experiment(CONFIGS[name]()).to_csv_text()
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[name]
