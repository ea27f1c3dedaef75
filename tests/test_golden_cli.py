"""Byte-level regression pins for CLI output.

Each digest is the SHA-256 of what one command wrote when the digests were
captured: the stdout of ``solve-pstar``, ``best-response``, ``play`` (in
random order), ``fixture`` and ``verify``, and the instance and
``*.solution.json`` files ``gen`` writes. ``verify`` is also pinned by its exit code, which is 1 when
a certificate check fails. The instances come from ``gen`` with fixed
sampler configs (proportional and linear refunds), and
the other agents' profile is a fixed fraction of their budgets.
"""

import hashlib
import json

import pytest

from ccfund.cli import main
from ccfund.io import load_instance

SAMPLERS = {
    "ppr": {"n": 8, "p": 4, "bonus_fraction": 0.9, "seed": 11},
    "linear": {"n": 8, "p": 4, "bonus_fraction": 0.9, "seed": 12,
               "refund": "linear-additive", "linear_slope": 0.2},
}
GEN_COUNT = 3


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    """Per sampler: the ``gen`` output directory and a profile file."""
    root = tmp_path_factory.mktemp("golden-cli")
    out = {}
    for name, cfg in SAMPLERS.items():
        cfg_path = root / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg))
        directory = root / name
        assert main(["gen", "--config", str(cfg_path), "--count", str(GEN_COUNT),
                     "--out", str(directory)]) == 0
        instance = load_instance(directory / "instance_00000.json")
        # each agent spends its whole budget, in these shares of it per project
        shares = (0.3, 0.45, 0.2, 0.05)
        rows = [[float(budget) * share for share in shares] for budget in instance.budgets]
        profile = root / f"{name}.profile.json"
        profile.write_text(json.dumps({"contributions": rows}))
        out[name] = (directory, profile)
    return out


def _solve(sampler, method):
    return lambda g: ["solve-pstar", "--instance", str(g[sampler][0] / "instance_00000.json"),
                      "--method", method]


def _respond(sampler, method, agent=2, delta="0.5"):
    return lambda g: ["best-response", "--instance", str(g[sampler][0] / "instance_00000.json"),
                      "--agent", str(agent), "--others", str(g[sampler][1]),
                      "--delta", delta, "--method", method]


def _play(sampler, heuristic, seed):
    return lambda g: ["play", "--instance", str(g[sampler][0] / "instance_00000.json"),
                      "--heuristic", heuristic, "--order", "random", "--seed", str(seed)]


COMMANDS = {
    "solve-dp-ppr": _solve("ppr", "dp"),
    "solve-bruteforce-ppr": _solve("ppr", "bruteforce"),
    "solve-dp-linear": _solve("linear", "dp"),
    "solve-bruteforce-linear": _solve("linear", "bruteforce"),
    "br-exact-ppr": _respond("ppr", "exact"),
    "br-bruteforce-ppr": _respond("ppr", "bruteforce"),
    "br-exact-linear": _respond("linear", "exact"),
    "br-bruteforce-linear": _respond("linear", "bruteforce"),
    "play-random-ppr": _play("ppr", "weighted", 7),
    "play-random-linear": _play("linear", "greedy-vartheta", 2**40 + 7),
    "fixture-procedure1": lambda g: ["fixture", "--name", "procedure1"],
    "fixture-procedure1-linear": lambda g: ["fixture", "--name", "procedure1",
                                            "--refund", "linear-additive"],
    "fixture-example1": lambda g: ["fixture", "--name", "example1"],
    "fixture-example2": lambda g: ["fixture", "--name", "example2"],
    "fixture-theorem2": lambda g: ["fixture", "--name", "theorem2"],
    "fixture-appendixB": lambda g: ["fixture", "--name", "appendixB"],
}

GOLDEN_STDOUT = {
    "br-bruteforce-linear": "68507875b7ffe07f077673e643a74ffd3f0c370460ffeacb0f0790b4e2a6b217",
    "br-bruteforce-ppr": "5add99aa0d0f2f90f35b7a8c2c541baec909ca9fc497e20a997439fc2c50c07c",
    "br-exact-linear": "68507875b7ffe07f077673e643a74ffd3f0c370460ffeacb0f0790b4e2a6b217",
    "br-exact-ppr": "5add99aa0d0f2f90f35b7a8c2c541baec909ca9fc497e20a997439fc2c50c07c",
    "fixture-appendixB": "dcf577362bff7443a3aa6720802b44bdaad620982093688e4500e960debb2688",
    "fixture-example1": "b7d240546103998cd592fe505d501e55b59a1b78f312259fcfac96cd3a5ea03f",
    "fixture-example2": "9988700ba6e4167746c33159a6d266750c463b44d1736f7712631de4478be301",
    "fixture-procedure1": "fbadcac40297aec3d6711fe2a44b30560f8a3ea9f9584300cedeb327b4e9227a",
    "fixture-procedure1-linear": "089309c0f3710fafa070be287a84e5d7ef97d3540c2590c788ff5b3707e299a9",
    "play-random-linear": "645f6d2413718bc1d1ee2de5a813c4ba13444b339ea483a58e511421de809b53",
    "play-random-ppr": "9b79a85224f61ff4f819b88165d2d7effdbf9b07e22bd4ee0d7fb9549c326a0c",
    "fixture-theorem2": "6a65e5e04f11aad00e48ebf46fd327e1c2e21b13bbb8bf56807c7b2dc12c8235",
    "solve-bruteforce-linear": "eafd4b35aa3ad1893a5af9dad9b311da0f86e4d2e1831650e45f547a0a0a80e1",
    "solve-bruteforce-ppr": "26a2175827a68428a588b35ea8a6b0197c07c9f5e6c0315b1d9cfbcb6c7bc3d9",
    "solve-dp-linear": "eafd4b35aa3ad1893a5af9dad9b311da0f86e4d2e1831650e45f547a0a0a80e1",
    "solve-dp-ppr": "26a2175827a68428a588b35ea8a6b0197c07c9f5e6c0315b1d9cfbcb6c7bc3d9",
}

# commands that must fail with the solver exit code and print nothing; the
# knapsack oracle's continuous optimum (6.0359) is more than its grid
# contributions earn (5.5497 by response_utility), so it refuses
REFUSED = {
    "br-knapsack-linear": _respond("linear", "knapsack"),
}

GOLDEN_SOLUTIONS = {
    "linear": [
        "eafd4b35aa3ad1893a5af9dad9b311da0f86e4d2e1831650e45f547a0a0a80e1",
        "2cf9b1457689b6da5504baa19b915f572aa26cabf15102b83b7fe90218e9298f",
        "8c04d3c01753bf89a2b0e884cba4953325499de4470ad58df86e7b4ac6a5de2c",
    ],
    "ppr": [
        "26a2175827a68428a588b35ea8a6b0197c07c9f5e6c0315b1d9cfbcb6c7bc3d9",
        "ad42d3b1af80cb66cfe50a891db2b11baf609c97868cc8705ea84cf3ab7637b2",
        "b91a19242b9564797803fdcb1997c5426006f4f4e27e4e568c917f6f73dae8a9",
    ],
}

GOLDEN_INSTANCES = {
    "linear": [
        "fd0205d963af5321c644cd1ebd81a658d3b5dc291102698c1e2a8e4a049c4cad",
        "dc9d38f3f994c8ce8bb02d01838837dda52449a4b4584a04d4cf425aee576170",
        "a0616a7b3f4daa8dd7a19e05c4a2154d30e4af711e0ffce3fa0c2a912fbe5105",
    ],
    "ppr": [
        "9d4f4c9bebddac474a1b8f5b5a136622bbc586e06018f817fd0ed5dbfe93aafc",
        "7311df4f6a13e672eda0db7c58391bdaba57d1356c392ab7d79f4e9ae726c3d8",
        "4b267e7e53902f0747da45afe0dc956f15b5b6c6f3aa25603aa6e84b16a586fb",
    ],
}


VERIFY_COMMANDS = {
    **{f"verify-{name}": ["verify", name]
       for name in ("procedure1", "example1", "example2", "theorem2", "appendixB")},
    **{f"verify-{name}-linear": ["verify", name, "--refund", "linear-additive"]
       for name in ("procedure1", "example2", "theorem2")},
}

# (exit code, stdout digest); example2's deviation utilities fall as the
# shaved amount shrinks under the linear refund, so that check fails
GOLDEN_VERIFY = {
    "verify-appendixB": (0, "ab7cc4dd723bba51752b47d327135eca2c3e0dd4dae5ddb8b98876177caf7212"),
    "verify-example1": (0, "1ffdd545561266fcaca25e0c526c0a5896d4f32b6cc20c3b8797fc85c0c3cc00"),
    "verify-example2": (0, "044007d60cbfe59940f4dce5e51241f06fbc335170e3d555ffcb7a2d245d488f"),
    "verify-example2-linear": (
        1, "65f13d3947f4bdff4bbedf28f327b3b6e015a9cf83347020f4e9809e656733d3"),
    "verify-procedure1": (0, "8e774856a9b8f7fc7a285053a29bf89a4feb18b37eb1a83f2e038892bb166266"),
    "verify-procedure1-linear": (
        0, "8e774856a9b8f7fc7a285053a29bf89a4feb18b37eb1a83f2e038892bb166266"),
    "verify-theorem2": (0, "47f2f7da4dacdf3bd30bd16b28f7509c9604b05c52ae5642d58ab66b80988f5c"),
    "verify-theorem2-linear": (
        0, "f4448af0564bdaa5584f8ec0a7e1d54cf06a547a60d55f84debb497e980bf154"),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_matches_golden(name, generated, capsys):
    capsys.readouterr()
    assert main(COMMANDS[name](generated)) == 0
    assert _sha(capsys.readouterr().out.encode()) == GOLDEN_STDOUT[name]


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_refused_commands_exit_3(name, generated, capsys):
    capsys.readouterr()
    assert main(REFUSED[name](generated)) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: " in captured.err


@pytest.mark.parametrize("name", sorted(VERIFY_COMMANDS))
def test_verify_matches_golden(name, capsys):
    capsys.readouterr()
    code = main(VERIFY_COMMANDS[name])
    assert (code, _sha(capsys.readouterr().out.encode())) == GOLDEN_VERIFY[name]


@pytest.mark.parametrize("sampler", sorted(SAMPLERS))
def test_gen_solutions_match_golden(sampler, generated):
    directory = generated[sampler][0]
    for suffix, golden in ((".solution.json", GOLDEN_SOLUTIONS), (".json", GOLDEN_INSTANCES)):
        digests = [_sha((directory / f"instance_{k:05d}{suffix}").read_bytes())
                   for k in range(GEN_COUNT)]
        assert digests == golden[sampler], suffix
