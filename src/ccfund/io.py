"""Canonical JSON for instances, profiles, configs and solver results.

Keys are sorted and floats carry 17 significant digits, so equal objects
serialize to identical bytes on every platform and every emitted number
round-trips exactly.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

from .errors import InputError
from .generators import SamplerConfig, ValuationDist
from .harness import ExperimentConfig
from .heuristics import Heuristic
from .model import ContributionProfile, Instance
from .refunds import LINEAR_ADDITIVE_TAG, LinearAdditiveRefund, scheme_from_tag


def format_float(value) -> str:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"cannot canonically serialize non-finite value {value!r}")
    return format(value, ".17g")


def _render(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise ValueError(f"canonical JSON requires string keys, got {key!r}")
            if i:
                out.append(",")
            out.append(json.dumps(key))
            out.append(":")
            _render(obj[key], out)
        out.append("}")
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        _render({f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}, out)
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _render(item, out)
        out.append("]")
    else:
        raise ValueError(f"cannot canonically serialize {type(obj).__name__}")


def dumps_canonical(obj) -> str:
    out: list[str] = []
    _render(obj, out)
    return "".join(out)


# -- instances ---------------------------------------------------------------


def instance_to_jsonable(instance: Instance) -> dict:
    data = {
        "agents": [
            {"budget": float(b), "valuations": [float(v) for v in row]}
            for b, row in zip(instance.budgets, instance.valuations)
        ],
        "projects": [
            {"target": float(t), "bonus": float(b)}
            for t, b in zip(instance.targets, instance.bonuses)
        ],
        "refund": instance.refund.tag,
    }
    if instance.refund.tag == LINEAR_ADDITIVE_TAG:
        data["linear_slope"] = instance.refund.slope  # type: ignore[attr-defined]
    return data


def instance_from_jsonable(data: dict) -> Instance:
    agents = data["agents"]
    projects = data["projects"]
    scheme = scheme_from_tag(data["refund"], data.get("linear_slope"))
    return Instance(
        valuations=np.array([a["valuations"] for a in agents], dtype=float),
        budgets=np.array([a["budget"] for a in agents], dtype=float),
        targets=np.array([p["target"] for p in projects], dtype=float),
        bonuses=np.array([p["bonus"] for p in projects], dtype=float),
        refund=scheme,
    )


def _finite_float(text: str) -> float:
    """A JSON number or ``NaN``/``Infinity`` literal, refused unless finite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


def read_input(path, parse):
    """``parse`` applied to a JSON file's content; a malformed file raises InputError.

    ``NaN`` and ``Infinity`` literals and float literals that overflow to
    infinity are malformed too.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse(json.load(fh, parse_constant=_finite_float, parse_float=_finite_float))
        except KeyError as exc:
            raise InputError(f"{path}: missing field {exc}") from exc
        except (ValueError, TypeError) as exc:
            raise InputError(f"{path}: {exc}") from exc


def save_instance(path, instance: Instance) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(instance_to_jsonable(instance)) + "\n")


def load_instance(path) -> Instance:
    return read_input(path, instance_from_jsonable)


# -- profiles ----------------------------------------------------------------


def profile_from_jsonable(data: dict) -> ContributionProfile:
    return ContributionProfile(np.array(data["contributions"], dtype=float))


def load_profile(path) -> ContributionProfile:
    return read_input(path, profile_from_jsonable)


# -- configs -----------------------------------------------------------------


def sampler_config_to_jsonable(cfg: SamplerConfig) -> dict:
    data = {
        "n": cfg.n,
        "p": cfg.p,
        "valuations": {"kind": cfg.valuation_dist.kind},
        "target_fraction": list(cfg.target_fraction),
        "bonus_fraction": cfg.bonus_fraction,
        "budget_rho": list(cfg.budget_rho),
        "refund": cfg.refund.tag,
        "seed": cfg.seed,
        "max_rejections": cfg.max_rejections,
    }
    if cfg.valuation_dist.kind == "uniform":
        data["valuations"]["lo"] = cfg.valuation_dist.lo
        data["valuations"]["hi"] = cfg.valuation_dist.hi
    else:
        data["valuations"]["rate"] = cfg.valuation_dist.rate
    if isinstance(cfg.refund, LinearAdditiveRefund):
        data["linear_slope"] = cfg.refund.slope
    return data


def sampler_config_from_jsonable(data: dict) -> SamplerConfig:
    dist_data = data.get("valuations", {})
    kind = dist_data.get("kind", "uniform")
    if kind == "uniform":
        dist = ValuationDist("uniform", lo=dist_data.get("lo", 0.0), hi=dist_data.get("hi", 10.0))
    else:
        dist = ValuationDist("exponential", rate=dist_data.get("rate", 1.5))
    return SamplerConfig(
        n=int(data.get("n", 100)),
        p=int(data.get("p", 10)),
        valuation_dist=dist,
        target_fraction=tuple(data.get("target_fraction", (0.3, 0.7))),
        bonus_fraction=float(data.get("bonus_fraction", 1.0)),
        budget_rho=tuple(data.get("budget_rho", (0.3, 0.8))),
        refund=scheme_from_tag(data.get("refund", "ppr"), data.get("linear_slope")),
        seed=int(data.get("seed", 0)),
        max_rejections=int(data.get("max_rejections", 200)),
    )


def experiment_config_to_jsonable(cfg: ExperimentConfig) -> dict:
    return {
        "sampler": sampler_config_to_jsonable(cfg.sampler),
        "alphas": list(cfg.alphas),
        "deviant_heuristics": [h.value for h in cfg.deviant_heuristics],
        "instances_per_cell": cfg.instances_per_cell,
        "seed": cfg.seed,
        "play_order": cfg.play_order,
        "include_control": cfg.include_control,
        "matched_baseline": cfg.matched_baseline,
    }


def experiment_config_from_jsonable(data: dict) -> ExperimentConfig:
    kwargs = {}
    if "sampler" in data:
        kwargs["sampler"] = sampler_config_from_jsonable(data["sampler"])
    if "alphas" in data:
        kwargs["alphas"] = tuple(float(a) for a in data["alphas"])
    if "deviant_heuristics" in data:
        kwargs["deviant_heuristics"] = tuple(Heuristic(h) for h in data["deviant_heuristics"])
    for key in ("instances_per_cell", "seed"):
        if key in data:
            kwargs[key] = int(data[key])
    for key in ("play_order",):
        if key in data:
            kwargs[key] = str(data[key])
    for key in ("include_control", "matched_baseline"):
        if key in data:
            kwargs[key] = bool(data[key])
    return ExperimentConfig(**kwargs)


def load_experiment_config(path) -> ExperimentConfig:
    return read_input(path, experiment_config_from_jsonable)


def load_sampler_config(path) -> SamplerConfig:
    return read_input(path, sampler_config_from_jsonable)
