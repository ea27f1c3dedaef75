"""Byte-level regression pins for the exact subset solver.

Each digest is the SHA-256 of ``(subset, unique, welfare.hex(), cost.hex())``
of every ``solve_subset_bruteforce`` answer for one seeded family of item
sets, at a few capacities each, captured when the digests were committed.
The families reach what the sampler and report goldens do not:

- ``ties-p<k>``: small-integer values and costs, so many subsets tie, for
  p = 0 to 25, the most projects the meet-in-the-middle enumeration took;
- ``sampler-p18`` and ``sampler-p24``: the deficit sampler's items (value
  ϑ − target, cost target) at pools across its budget range;
- ``zero-cost``: every cost zero and one item worth exactly ``TIE_TOL``,
  where pair sums and index-order sums disagree on what ties.
"""

import hashlib

import numpy as np
import pytest

from ccfund import solve_subset_bruteforce
from ccfund.welfare import TIE_TOL


def _ties(p: int):
    rng = np.random.default_rng((11, p))
    for _ in range(3):
        values = rng.integers(-2, 4, size=p).astype(float)
        costs = rng.integers(0, 4, size=p).astype(float)
        for fraction in (0.0, 0.3, 0.6, 1.0):
            yield values, costs, float(np.floor(fraction * costs.sum()))


def _sampler(p: int):
    rng = np.random.default_rng((12, p))
    for _ in range(6):
        vartheta = rng.uniform(0.0, 10.0, size=(100, p)).sum(axis=0)
        targets = rng.uniform(0.3, 0.7, size=p) * vartheta
        for rho in (0.3, 0.45, 0.6, 0.8):
            yield vartheta - targets, targets, float(rho * targets.sum())


def _zero_cost():
    rng = np.random.default_rng(13)
    for p in range(1, 15):
        values = rng.uniform(-1.0, 10.0, size=p)
        values[rng.integers(p)] = TIE_TOL
        yield values, np.zeros(p), 0.0


CASES = {
    **{f"ties-p{p}": (lambda p=p: _ties(p)) for p in range(26)},
    "sampler-p18": lambda: _sampler(18),
    "sampler-p24": lambda: _sampler(24),
    "zero-cost": _zero_cost,
}

GOLDEN = {
    "sampler-p18": "29d599ac5d3a2c1937234293fe26470fb150551d34fc3bdc32a5e3747baf47bb",
    "sampler-p24": "5a50dd6e4da8cb51cc323d0dbcd9cbe02eff80ae5160394adb13fe420e37e84a",
    "ties-p0": "39038eb93b60ce66c0d878f8e34be6b51ccc3343dafb5b547f279a84345a4890",
    "ties-p1": "3d77d512b52541bb4a2e8578f72ae82de85fc962d215f20d27c2baeaf2ec6f1d",
    "ties-p2": "369d084096c5feca2829d92394d0db9d4d217cc16cb71f12ac202279433324f5",
    "ties-p3": "af49a1d7c7d0240bd482185894f3193e051fe645cfb1e6b3c92e53c12f6988a0",
    "ties-p4": "0df854a25f30cf7161a5bfc622f4e4ae25bbac2480631948ba87c3b7ae9c8a4a",
    "ties-p5": "647d36581c1c92c8b63f3a2b8d93d049cc7885e9910544e081f4dd6e1c1facec",
    "ties-p6": "268f785fff12d499fd110f6c017245e92dc6897cbd1d4214fd308c126b07c58c",
    "ties-p7": "83276fec6ddcf30d3f57d8ae17083c2a19f57971d8dc6270cd0687f9bcc74214",
    "ties-p8": "3e97a457ff17f945d0202582dc3a91bf460a1ee8555fa7ff1f58253a63107b5e",
    "ties-p9": "55ad604b2bea9d71d1f2ff2dcc93a51a6fd2a0d67b56c620f34b8a40d52ef981",
    "ties-p10": "1622669f451a8740115622a016ba5356cf65f73ae657166d563648d81f4962ba",
    "ties-p11": "d791d20b9fed5dbc5c490a6a77d442f033a0adea5990346a6b1b4440800047e0",
    "ties-p12": "d02080700e6bb3c52b9e4b0085ec8debf411682908e939cafd52659420ac69a8",
    "ties-p13": "5976dd963f45ca9bf27b5f286e2c66a64356de7b3bbb5d499c79198d5d51db43",
    "ties-p14": "5b2f17de5aa263b7589c7e445a3784daf511b50226c1106c404a830fbb85ea25",
    "ties-p15": "6890c9c75dca8762bcae7026f60a48684e010e094f6c8cfc6024aa1ae5aa9ce1",
    "ties-p16": "9b27767020ef5e6ccf7cfe327783ae96cd7f08dba1a5c155ae316095d69ba9ca",
    "ties-p17": "0e196ff75d72ef30dc30a48efed50f6b20e1b9718dd09d42b04e4299620fc98a",
    "ties-p18": "49adc67c81e038a4a84600a2fa9c0d3c213ecec2067d8e967324a39c6782b9a1",
    "ties-p19": "573022fc849bc42b8963b3afa2c58bb8f549c231d7020243028db3349acea361",
    "ties-p20": "2eb40510c3695dd46c2ba5979f1f476ff79e04cfc1d9ab7a07c3938f87c4225b",
    "ties-p21": "3f40cd47a6b6ba470ed18a09291a51e503d29b0a85591095b3cd0816522edf15",
    "ties-p22": "42da1d2daa18a82e5af2ad491ad3dbafd8a6feb3bcdb2e5513d327ff42b104d1",
    "ties-p23": "65ee480d6f6a922902dae82fa4fe2b7c9ddaea73024a7e65187c5de70ef2b047",
    "ties-p24": "0e7fa88c44baffeaeeb79f43e80aace3302080eed07df1b69dc72d7e5f439d94",
    "ties-p25": "0ddc3ac949b4462babe1c79855ac4d72213e502b2e44d6b4c4309a946a338c52",
    "zero-cost": "9f49cf62c04caa13695f45f09ee84c8ab201eda993abbace9e9153acf704a6ed",
}


def solutions_digest(name: str) -> str:
    h = hashlib.sha256()
    for values, costs, capacity in CASES[name]():
        sol = solve_subset_bruteforce(values, costs, capacity)
        h.update(repr((sol.subset, sol.unique, sol.welfare.hex(), sol.cost.hex())).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_solutions_match_golden(name):
    assert solutions_digest(name) == GOLDEN[name]
