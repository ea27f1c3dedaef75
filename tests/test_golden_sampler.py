"""Byte-level regression pins for the deficit sampler.

Each digest is the SHA-256 of one ``sample_instance`` draw's final budgets
(raw float64 bytes), optimal subset and uniqueness flag, captured when the
digests were committed. The p=18 draws run the lift/re-solve loop over
subsets the experiment goldens (p <= 10) never reach; the p=10 draws cover
both valuation distributions.
"""

import hashlib

import pytest

from ccfund import SamplerConfig, sample_instance
from ccfund.generators import ValuationDist

CONFIGS = {
    "wide": SamplerConfig(n=100, p=18, valuation_dist=ValuationDist("uniform", 0.0, 10.0)),
    "uniform": SamplerConfig(n=30, p=10, valuation_dist=ValuationDist("uniform", 0.0, 10.0)),
    "exponential": SamplerConfig(n=30, p=10, valuation_dist=ValuationDist("exponential", rate=1.5)),
}
SEEDS = range(8)

GOLDEN = {
    "exponential": [
        "43625f79179c0198d8a059b9d8b9c7d83e482a6b4f09f62a4a4fa6346087183d",
        "a5837eafe2a0fd1b78455a3ce4ef35c10c40c963aa65fb8e1f3924c4d8dd276d",
        "4389a065d3c3a58814d0ee42ea6f77394477065a37bc81913d0b62ad6fd27e82",
        "a47571ce9990c5c99fb9de9f96a8ce8f94b0b228e6277f474e24d7a3819b2b9e",
        "de2802c20be13417ec447e981c26042dced7db3900c3187cd70f480d5299583b",
        "22d0aa297c44e2b028340ffaf1765533863ffb220d7cadd9a4841fc6f72bd6e0",
        "0e79958833bf1b86b810f3746991d72297cfe98a3eb2833c29403e2c556b8997",
        "4b78a759566c8ad55228eeeee21638094e044933c8eb8e5d12957808a3ea26c5",
    ],
    "uniform": [
        "585ae33411ce7b2233badbd3ddc1417883e170b1302ddf19a1b9c95c0be7e31c",
        "7118205c46860713ce5f0c09700707ed7064743e2f6752b0a3c088dd053ad388",
        "a7d600f23f5ff2df8c30876ec21ba8587a62bfd1351172883230c08975f78b5e",
        "ae3dccc7d6e26d59c2c8f69fa1c609990d2319c16c12c08a1f2a788f18d4e751",
        "9a7a244d52f017fd4ad024cdec114192226636aa733caf5fe76ae2e2dfc8ecf4",
        "e9b69fb5fcf61d758dd6fe9b1fe44491eea3b488bbd6591eed1fab49217544f1",
        "dbff78cd5ad2dd67809d221e8941a5a864e698ad562d7a71b51a4db08f54863b",
        "78153e3f283672d3deb27bedc5dc16b015a75813f1710b7f5c217d49419813c9",
    ],
    "wide": [
        "c68dae406b6ffb4127d30cca8d2d0a8d8a7347f3dde5d7f1e50ddef29c96fe9c",
        "ac963d567155b94f825f477b46565105281c29b55333c17cab5785f06cff2aa7",
        "4f8af58a5a72ca225f481794ddd94d760f6956cce3c835562ad9fdfbef304766",
        "30b140e75e4b890c7c90ab87e6ce4ccac5d67ee86ff727a7ed054a3d7f6f740a",
        "3e30f535e80bae30e609a8be9b741614317106a2086f8e87f33b968f0ebd639e",
        "dfd088da43ff5901a0b1e57ab65f7c66d4c6b2db8f87635a9c1885a1d40fa24e",
        "b97cb1760ba1216ba3052fe7804f6687db163ca75bd1dd73c119cfa64265bb2d",
        "15af28a0dda7c645790d294303e47008616b184c15a961dcb318c226a32bc4e7",
    ],
}


def sample_digest(cfg: SamplerConfig, seed: int) -> str:
    instance, sol = sample_instance(cfg, seed=(seed,))
    h = hashlib.sha256(instance.budgets.tobytes())
    h.update(repr((sol.subset, sol.unique)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CONFIGS))
@pytest.mark.parametrize("seed", SEEDS)
def test_sample_bytes_match_golden(name, seed):
    assert sample_digest(CONFIGS[name], seed) == GOLDEN[name][seed]
