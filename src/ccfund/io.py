"""Canonical JSON for instances, profiles, configs and solver results.

Keys are sorted and floats carry 17 significant digits, so equal objects
serialize to identical bytes on every platform and every emitted number
round-trips exactly.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import sys
import typing
from enum import Enum

import numpy as np

from .errors import InputError
from .generators import SamplerConfig
from .harness import ExperimentConfig
from .model import ContributionProfile, Instance
from .refunds import LINEAR_ADDITIVE_TAG, LinearAdditiveRefund, RefundScheme, scheme_from_tag


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
    return {
        "agents": [
            {"budget": float(b), "valuations": [float(v) for v in row]}
            for b, row in zip(instance.budgets, instance.valuations)
        ],
        "projects": [
            {"target": float(t), "bonus": float(b)}
            for t, b in zip(instance.targets, instance.bonuses)
        ],
        **_refund_jsonable(instance.refund),
    }


def _refund_jsonable(scheme: RefundScheme) -> dict:
    """The ``refund`` tag, with ``linear_slope`` for the linear scheme."""
    data = {"refund": scheme.tag}
    if isinstance(scheme, LinearAdditiveRefund):
        data["linear_slope"] = scheme.slope
    return data


def _object(data, keys, what: str, path: str = "") -> dict:
    """``data``, a JSON object whose keys are all in ``keys``.

    Any other key raises InputError naming its path, such as
    ``agents[3].comment``.
    """
    if not isinstance(data, dict):
        raise InputError(f"{what} {path.rstrip('.') or 'file'} must be a JSON object")
    for key in data:
        if key not in keys:
            raise InputError(f"unknown {what} key {path}{key}")
    return data


def instance_from_jsonable(data: dict) -> Instance:
    _object(data, ("agents", "projects", "refund", "linear_slope"), "instance")
    agents = [_object(a, ("budget", "valuations"), "instance", f"agents[{i}].")
              for i, a in enumerate(data["agents"])]
    projects = [_object(p, ("target", "bonus"), "instance", f"projects[{i}].")
                for i, p in enumerate(data["projects"])]
    if "linear_slope" in data and data["refund"] != LINEAR_ADDITIVE_TAG:
        raise InputError(f"instance key linear_slope applies only to refund {LINEAR_ADDITIVE_TAG}")
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
    _object(data, ("contributions",), "profile")
    return ContributionProfile(np.array(data["contributions"], dtype=float))


def load_profile(path) -> ContributionProfile:
    return read_input(path, profile_from_jsonable)


# -- configs -----------------------------------------------------------------
# One loader and one dumper walk the config dataclasses' fields. A key is its
# field's name unless _KEYS renames it, a RefundScheme field is the refund
# pair, and a key in _ONLY_WITH goes only beside one value of another key.
# Any other key raises InputError naming its path, such as ``sampler.bonus_fracton``.

_KEYS = {"valuation_dist": "valuations"}
_ONLY_WITH = {"lo": ("kind", "uniform"), "hi": ("kind", "uniform"),
              "rate": ("kind", "exponential"), "linear_slope": ("refund", LINEAR_ADDITIVE_TAG)}
#: Keys older configs carry and this version ignores.
_RETIRED = ("delta",)
#: JSON types each scalar annotation reads, and its name; an enum reads a string.
_SCALARS = {int: ((int, float), "an integer"), float: ((int, float), "a number"),
            bool: ((bool,), "true or false"), str: ((str,), "a string")}


def _dump(value):
    """A config, or one of its field values, as JSON data."""
    if isinstance(value, tuple):
        return [_dump(item) for item in value]
    if not dataclasses.is_dataclass(value):
        return value.value if isinstance(value, Enum) else value
    data = {}
    for f in dataclasses.fields(value):
        item = getattr(value, f.name)
        if isinstance(item, RefundScheme):
            data.update(_refund_jsonable(item))
        else:
            data[_KEYS.get(f.name, f.name)] = _dump(item)
    return {key: item for key, item in data.items()
            if key not in _ONLY_WITH or data[_ONLY_WITH[key][0]] == _ONLY_WITH[key][1]}


def _load(cls, data, path: str = ""):
    """``cls`` from its JSON object, with the dataclass default for each omitted key."""
    if not isinstance(data, dict):
        raise InputError(f"config {path.rstrip('.') or 'file'} must be a JSON object")
    hints, kwargs = typing.get_type_hints(cls), {}
    for f in dataclasses.fields(cls):
        key = _KEYS.get(f.name, f.name)
        if key in data and hints[f.name] is RefundScheme:
            slope = data.get("linear_slope")
            kwargs[f.name] = scheme_from_tag(
                _read(str, data[key], path + key),
                None if slope is None else _read(float, slope, path + "linear_slope"),
            )
        elif key in data:
            kwargs[f.name] = _read(hints[f.name], data[key], path + key)
    cfg = cls(**kwargs)
    carried = _dump(cfg)
    for key in data:
        if key in _RETIRED:
            print(f"note: config key {path}{key} is retired and ignored", file=sys.stderr)
        elif key in _ONLY_WITH and key not in carried:
            other, value = _ONLY_WITH[key]
            raise InputError(f"config key {path}{key} applies only to {other} {value}")
        elif key not in carried:
            raise InputError(f"unknown config key {path}{key}")
    return cfg


def _read(kind, value, path: str):
    """A JSON value read as a field annotated ``kind``."""
    if dataclasses.is_dataclass(kind):
        return _load(kind, value, path + ".")
    if typing.get_origin(kind) is tuple:
        if not isinstance(value, list):
            raise InputError(f"config key {path} must be a list, got {json.dumps(value)}")
        items = typing.get_args(kind)
        if items[-1] is Ellipsis:
            items = items[:1] * len(value)
        if len(value) != len(items):
            raise InputError(f"config key {path} must hold {len(items)} items, got {value}")
        return tuple(_read(k, v, f"{path}[{i}]") for i, (k, v) in enumerate(zip(items, value)))
    types, name = _SCALARS.get(kind, _SCALARS[str])
    if (isinstance(value, bool) != (kind is bool) or not isinstance(value, types)
            or kind is int and isinstance(value, float) and not value.is_integer()):
        raise InputError(f"config key {path} must be {name}, got {json.dumps(value)}")
    try:
        return kind(value)
    except (ValueError, OverflowError) as exc:  # OverflowError: an integer past float range
        raise InputError(f"config key {path}: {exc}") from None


sampler_config_to_jsonable = experiment_config_to_jsonable = _dump
sampler_config_from_jsonable = functools.partial(_load, SamplerConfig)
experiment_config_from_jsonable = functools.partial(_load, ExperimentConfig)


def load_experiment_config(path) -> ExperimentConfig:
    return read_input(path, experiment_config_from_jsonable)


def load_sampler_config(path) -> SamplerConfig:
    return read_input(path, sampler_config_from_jsonable)
