"""Byte-level regression pins for exact best responses.

Each pin is the SHA-256 of one ``best_response_exact`` result's contribution
bytes followed by its funding-flag bytes, and the ``float.hex`` of its
utility, captured when the pins were committed. The views are agents 0-2 of
four sampled n=100, p=10 instances against the opt-welfare play-out, under
proportional and linear refunds, at delta 0.01 (the benchmark's fine grid),
plus agent 0 of the first instance of each scheme at delta 0.001, where the
budget spans thousands of grid units.
"""

import hashlib

import pytest

from ccfund import (
    Assignment,
    Heuristic,
    LinearAdditiveRefund,
    PprRefund,
    SamplerConfig,
    best_response_exact,
    make_view,
    play,
    sample_instance,
    thresholds,
)

SCHEMES = {"ppr": PprRefund(), "linear": LinearAdditiveRefund(0.6)}
SEEDS = range(4)
AGENTS = (0, 1, 2)

GOLDEN = {
    ('linear', 0, 0, 0.01): (
        'a96cde093a75c3552525b29b5ae1b76b4f57ef6875170d11f7d095d9602fabca',
        '0x1.0f020c49ba5e3p+4'),
    ('linear', 0, 1, 0.01): (
        'aa5c2c5b2fe11e208216d4874d942bde0c32f5ea3fc42cd0a95356af47ae0773',
        '0x1.948b439581062p+3'),
    ('linear', 0, 2, 0.01): (
        'f966f84055577a6c896081b9aa3fcacfabce468108ed2d7028f89b004343d8d8',
        '0x1.4a9fbe76c8b44p+3'),
    ('linear', 1, 0, 0.01): (
        '264832d426643862c517c7aa450b97abc35c79fecf3cf5476bf6fd5ca9808468',
        '0x1.c83126e978d50p+3'),
    ('linear', 1, 1, 0.01): (
        '066b766535b8a28b1d876da060b387f4732c72a80b82ddb827c62d03fb95b363',
        '0x1.23be76c8b4395p+4'),
    ('linear', 1, 2, 0.01): (
        'ebe296a68030f4bbfaf0aeb05d655c97c269bc18bcfc7fa0927a92ce323b6714',
        '0x1.f051eb851eb85p+3'),
    ('linear', 2, 0, 0.01): (
        'd46e64b51a475867a0707608577d0ae5977e66deb08a3d59507928241f45b016',
        '0x1.4666666666666p+4'),
    ('linear', 2, 1, 0.01): (
        'c0337fb87407e94088c672b77b919d626b376d7a7080489caaedf6deed848b29',
        '0x1.36c083126e978p+4'),
    ('linear', 2, 2, 0.01): (
        '731f960abbb398ece6fd6e906af27dc9a305b7fed4301c07b38e068b5f55b634',
        '0x1.9eb851eb851ebp+3'),
    ('linear', 3, 0, 0.01): (
        '849cb422d835d81a7996f19e1672e31bc5abccf1fbf3211bc4456b49682bafa1',
        '0x1.36f1a9fbe76c9p+4'),
    ('linear', 3, 1, 0.01): (
        '4ec56019c68b240b60b1116c6a3f69b91df4fd30d04cc2443fcb74133be25ece',
        '0x1.296872b020c4ap+4'),
    ('linear', 3, 2, 0.01): (
        '076e611b9ff96a105eea33972b7da015a1384c33c905b5b12406d4ed77341bba',
        '0x1.104189374bc6ap+4'),
    ('ppr', 0, 0, 0.01): (
        'bc83b2b4273780d1ece01e153244852c0edf57271b083158e8edd1d0c948599c',
        '0x1.5040cb292df5bp+7'),
    ('ppr', 0, 1, 0.01): (
        '16ca375d0d8d52676a92c8980de805a545793b938f5a1306b8bea9bfe30cd1e1',
        '0x1.2ce80da544942p+7'),
    ('ppr', 0, 2, 0.01): (
        'b73e18726db7d965d72da81fa7ff2da485c1f22fa941646765fec80b6a79c35b',
        '0x1.35cd8473c3f8bp+7'),
    ('ppr', 1, 0, 0.01): (
        'd552658eddef0d6e5dfdde7d76db68d374a2710e00665086007fa4fc453b1061',
        '0x1.c3b20a483c493p+6'),
    ('ppr', 1, 1, 0.01): (
        '14c11f16f2bf0b94fe494731768c6f0123c82165e6676261c3c9c98cbde9ca27',
        '0x1.92bd33f30a538p+6'),
    ('ppr', 1, 2, 0.01): (
        'd0a887c7f07cbaa7d3c8e1d003d5338bbe94326ee2bcc0caa38709b1902749e1',
        '0x1.1f727c1451526p+7'),
    ('ppr', 2, 0, 0.01): (
        '115124171a9163e88f15d1e3e8cc071e6e89bfe9ebfb9abcf173a0b1c19b9275',
        '0x1.5e9a2eade31a4p+5'),
    ('ppr', 2, 1, 0.01): (
        '6662bc73f1929bfd3cb05e38ab776d53b195bdfc6c51e5aa28a90739b6cc5752',
        '0x1.b136eb567739ap+5'),
    ('ppr', 2, 2, 0.01): (
        'ffe7fe134aa75d9434a49d1e285c18773b7cf2893fd6cd14c539b99b6fe39717',
        '0x1.d472a4f8da192p+5'),
    ('ppr', 3, 0, 0.01): (
        'ed9eb8cb86900da75bd37c0f9a3df61731eeed1ea925361af7b1b1a365b070ee',
        '0x1.90b00445f9fbap+5'),
    ('ppr', 3, 1, 0.01): (
        'ddac986cefd8bad991a4bdea44fbd99661a42067e2e7b8ea6d6102b8510a75a1',
        '0x1.0ffd199e9c788p+6'),
    ('ppr', 3, 2, 0.01): (
        '62dfbacba1e035498e2a8d49b41a5b9abdb13c662d0416310176bd52917586d1',
        '0x1.f6abbebaf70fbp+5'),
    ('linear', 0, 0, 0.001): (
        '1b6ecd2f575d045606a008b4ff5e842f3fda1687760aa24f9aab9c1399ef072a',
        '0x1.0f06f69446738p+4'),
    ('ppr', 0, 0, 0.001): (
        'b0103d9a44d02f211aa301ba6ee1e3f0d3db8a2d9f31012d78756fd2060f0023',
        '0x1.5040cd2e557b4p+7'),
}


def play_out(scheme: str, seed: int):
    cfg = SamplerConfig(n=100, p=10, refund=SCHEMES[scheme], seed=seed)
    instance, solution = sample_instance(cfg, seed=(seed,))
    profile = play(instance, Assignment.uniform(Heuristic.OPT_WELFARE, instance.n_agents),
                   solution.subset, thresholds(instance))
    return instance, profile


def response_pin(scheme: str, seed: int, agent: int, delta: float) -> tuple[str, str]:
    instance, profile = play_out(scheme, seed)
    response = best_response_exact(make_view(instance, profile, agent), delta)
    digest = hashlib.sha256(response.contributions.tobytes() + response.funded.tobytes())
    return digest.hexdigest(), response.utility.hex()


CASES = [(scheme, seed, agent, 0.01) for scheme in sorted(SCHEMES) for seed in SEEDS
         for agent in AGENTS] + [(scheme, 0, 0, 0.001) for scheme in sorted(SCHEMES)]


@pytest.mark.parametrize("case", CASES, ids=lambda c: "{}-{}-{}-{}".format(*c))
def test_response_bytes_match_golden(case):
    assert response_pin(*case) == GOLDEN[case]
