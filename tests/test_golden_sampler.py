"""Byte-level regression pins for the deficit sampler.

Each digest is the SHA-256 of one ``sample_instance`` draw's final budgets
(raw float64 bytes), optimal subset, the shipped welfare and cost (as
``float.hex``) and uniqueness flag, captured when the digests were committed. The p=18 draws run the lift/re-solve loop over
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
        "7d0a954902d9f3dab75f734845d64f9e840251f1ced1d0d0756eb21af5755087",
        "91ab2fb95acf2db7d13ed5a68fb136f436c4836513a3914dde09f1263b5c33b6",
        "494c8e769208ae44f129d8246e14d7f2e02a58d0994986e201e64c2af9958ff7",
        "1ab8f437bb4953832aa15709093263af15e46038b40a25a552321c4709ff0c5c",
        "7d98c885e87be20ae6178f587f9da643d510c439e05d07c6992f779779da1600",
        "a5dcf5e06938fef01efb20b21f72762af1b77192c56763ebe8f17685c626cdb5",
        "296dc55bb5334e7f5a1cd085c231e3f30294645e2b3fa4972bf142c253c482f9",
        "e1b8450fe17d16aab4e23cfbcfc0c8a10ca58d218e8d9c44d9071d0049f925a6",
    ],
    "uniform": [
        "37021631739522cca788da146cb2966f5fcaaa6b2c3c20288e98874692865ac3",
        "eeabd06d08b4be84e6ba3621f36747e3bb4d935135e20c07a90a5b35d972a975",
        "482c98f76916fd8b1beb96f8ddcda1e5289f622c9a2c410be6947a35bd4e554a",
        "b54a7b5d8b7c5375bca65fc0f82068e17fc1ff94d582c8666643fa8b0162612c",
        "502a5b01e4f89ab961ea4d651dc3d2ce2329b9ee2bf751354d6a1db65ab53167",
        "cf6640059c91e52f40ba42fa2bb8b14bff48c66bf24ceaa59524b773b4c9836a",
        "3ac01a8e421013581293e9516b9d205541a04ebef7f0b15b48a151ee5140ed2b",
        "4a4e9d44be33034bf4433a9692ce765b560253142d7563280cecc865eb67a055",
    ],
    "wide": [
        "8a6e0a45d4edc4146c77fd679a0db54d5dfb3b9c393d4158d0b94e0607b423d8",
        "20b5abc91d07c63d45231814229d2e4616cd1e031e3602f98a78ad264411f7f3",
        "ab93dbc330a717feed113cb9927d7520cd0944136a222dac5169154c0a4363d8",
        "ecc57049f6c119289119519cd31e815ddd1da8c39a8cebc8a63190a56b16dd5a",
        "4966dc0e6cfc4133800e2b402bbecf413b414ed18892cedd8fdd93e052444a4a",
        "23b3d089e2e8395db8d8e9f8e9e20312c01d91a31f8bf57c12b1b362170e563a",
        "4c238adce2e4dc9b44d5897aae04dc00f8c5ef556556f9b7e588072150cef91c",
        "c4cac7f5f4b19637cdb1c9d55c169bedf73115d530c47db45c359601f49865a3",
    ],
}


def sample_digest(cfg: SamplerConfig, seed: int) -> str:
    instance, sol = sample_instance(cfg, seed=(seed,))
    h = hashlib.sha256(instance.budgets.tobytes())
    h.update(repr((sol.subset, sol.welfare.hex(), sol.cost.hex(), sol.unique)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CONFIGS))
@pytest.mark.parametrize("seed", SEEDS)
def test_sample_bytes_match_golden(name, seed):
    assert sample_digest(CONFIGS[name], seed) == GOLDEN[name][seed]
