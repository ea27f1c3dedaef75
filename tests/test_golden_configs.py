"""Byte-level regression pins for resolved configs.

Each digest is the SHA-256 of what one config resolved to when the digests
were captured: the ``# gen:`` echo line for the config's sampler part (the
whole file when it has no ``sampler`` key), the ``# experiment:`` echo line
for the whole config, and the ``config_digest`` of the report that
``run_experiment`` returns for it. The instance work is stubbed out, since
the digest and the echoes depend on the config alone.
"""

import hashlib
import json

import pytest

from ccfund import harness
from ccfund.cli import main
from ccfund.io import load_experiment_config

CONFIGS = {
    "empty": {},
    # SamplerConfig's bonus_fraction default (1.0), not ExperimentConfig's 0.9
    "sampler-without-bonus": {"sampler": {"n": 12, "p": 4, "seed": 3}, "instances_per_cell": 5},
    "exponential-linear-random": {
        "sampler": {"n": 12, "p": 4, "seed": 3, "bonus_fraction": 0.8,
                    "valuations": {"kind": "exponential", "rate": 2.0},
                    "refund": "linear-additive", "linear_slope": 0.2},
        "alphas": [0.25, 1.0],
        "deviant_heuristics": ["symmetric", "greedy-theta"],
        "instances_per_cell": 3,
        "seed": 4,
        "play_order": "random",
        "include_control": False,
        "matched_baseline": True,
    },
    "wide-seed": {"sampler": {"n": 10, "p": 3, "seed": 2**40 + 7,
                              "valuations": {"kind": "uniform", "lo": 1.0, "hi": 4.5},
                              "target_fraction": [0.4, 0.6], "budget_rho": [0.5, 0.7],
                              "max_rejections": 50},
                  "seed": 2**40 + 7},
    "legacy-delta": {"sampler": {"n": 10, "p": 3, "seed": 5}, "alphas": [0.5, 1.0],
                     "instances_per_cell": 4, "seed": 5, "delta": 0.01},
}

# SHA-256 of the "# gen: ..." stderr line
GOLDEN_GEN_ECHO = {
    "empty": "c0cc33801ee7a57ec92356cb8334cd6150808fc011613afa0de6a39f4529a716",
    "exponential-linear-random": "b7b8e0aa9807f4f400f384ea145f155f7be81d13b3b51ec28d23fc0e4e625bd3",
    "legacy-delta": "a6bbb9965d1f07ae05cb9af2a603dceb1ba45aba3184dad9393bd3d7c9cb8da0",
    "sampler-without-bonus": "6c41df4ee83b650c0b0f8bc7f48df792c9323c4dba34f0ee06d370f1d834efb1",
    "wide-seed": "7a114b3b4b61486ceee1d58f77e38c55b9ff9efa6e1897dc7e85c5df0b55cc86",
}

# SHA-256 of the "# experiment: ..." stderr line
GOLDEN_EXPERIMENT_ECHO = {
    "empty": "94837e3e36b4a564836857cd26a7c9add06edb3cd9ccafca79d122799c9a6d95",
    "exponential-linear-random": "fff22f04b012d5e182509293226807e7d77532d16741274e0352e8b6cd7b7d21",
    "legacy-delta": "8831dfde596d5f6e263387da6ddfaf1bf5440cd8ce1e7e5df6e4c8cebb3decf0",
    "sampler-without-bonus": "455b205eea635367eaefeb38e0425fa9ca17e19a88b30cfe7a8ff4f532bb1d65",
    "wide-seed": "3cf9c0426c19f2d0eb1ca661906011eb96473a69063d2ceef0494c24970d272e",
}

GOLDEN_CONFIG_DIGEST = {
    "empty": "7cf006f2a6583afaabec9f8f5792ac7ca2c04598eee5e068e1e3823997587541",
    "exponential-linear-random": "2e9936202489eb88e000d0c123ff1ade5aeed0614850fe02fada7227cf18e99e",
    "legacy-delta": "3918df3998bf49f6ab8766e8d062f4399972c4a93c803b893f36752cffa12e37",
    "sampler-without-bonus": "188f75d3bd54820380948095c22278e6ed91260d953755819930bd8b68440633",
    "wide-seed": "0a36fce1c1fa9cda99ff7fae19b81061ecd939ad1e65f51d90a94b107323741f",
}


@pytest.fixture(autouse=True)
def no_instances(monkeypatch):
    """One worker, and every instance adds nothing to the accumulators."""
    monkeypatch.setenv("CCFUND_THREADS", "1")
    monkeypatch.setattr(harness, "_block_moments", lambda cfg, count, start: ())


def _echo_line(err: str, kind: str) -> bytes:
    (line,) = [line for line in err.splitlines() if line.startswith(f"# {kind}: ")]
    return line.encode()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_gen_echo(name, tmp_path, capsys):
    path = tmp_path / "sampler.json"
    path.write_text(json.dumps(CONFIGS[name].get("sampler", CONFIGS[name])))
    assert main(["gen", "--config", str(path), "--count", "0",
                 "--out", str(tmp_path / "out")]) == 0
    line = _echo_line(capsys.readouterr().err, "gen")
    assert hashlib.sha256(line).hexdigest() == GOLDEN_GEN_ECHO[name]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_experiment_echo(name, tmp_path, capsys):
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps(CONFIGS[name]))
    assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "r.csv")]) == 0
    line = _echo_line(capsys.readouterr().err, "experiment")
    assert hashlib.sha256(line).hexdigest() == GOLDEN_EXPERIMENT_ECHO[name]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_config_digest(name, tmp_path):
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps(CONFIGS[name]))
    report = harness.run_experiment(load_experiment_config(path), workers=1)
    assert report.config_digest == GOLDEN_CONFIG_DIGEST[name]
