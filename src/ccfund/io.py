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
from .heuristics import Assignment, Heuristic
from .model import ContributionProfile, Instance
from .refunds import LINEAR_ADDITIVE_TAG, RefundScheme, scheme_from_tag


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
        _render(_dump(obj), out)
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


# -- the walker --------------------------------------------------------------
# One loader and one dumper walk the fields of the configs and of the classes
# below that lay out instance and profile files. A key is its field's name
# unless _KEYS renames it, a RefundScheme field is the refund pair, and a key
# in _ONLY_WITH goes only beside one value of another key. Any other key raises
# InputError naming its path, such as ``sampler.bonus_fracton``.

_KEYS = {"valuation_dist": "valuations"}
_ONLY_WITH = {"lo": ("kind", "uniform"), "hi": ("kind", "uniform"),
              "rate": ("kind", "exponential"), "linear_slope": ("refund", LINEAR_ADDITIVE_TAG)}
#: Keys older configs carry and this version ignores.
_RETIRED = ("delta",)
#: JSON types each scalar annotation reads, and its name; an enum reads a string.
_SCALARS = {int: ((int, float), "an integer"), float: ((int, float), "a number"),
            bool: ((bool,), "true or false"), str: ((str,), "a string")}
_hints, _fields = functools.cache(typing.get_type_hints), functools.cache(dataclasses.fields)


@dataclasses.dataclass(frozen=True)
class _Agent:
    budget: float
    valuations: tuple[float, ...]


@dataclasses.dataclass(frozen=True)
class _Project:
    target: float
    bonus: float


@dataclasses.dataclass(frozen=True)
class _InstanceFile:
    """An instance file: a row per agent and per project, and the refund pair."""

    agents: tuple[_Agent, ...]
    projects: tuple[_Project, ...]
    refund: RefundScheme

    @classmethod
    def of(cls, instance: Instance) -> _InstanceFile:
        agents = map(_Agent, instance.budgets.tolist(), map(tuple, instance.valuations.tolist()))
        projects = map(_Project, instance.targets.tolist(), instance.bonuses.tolist())
        return cls(tuple(agents), tuple(projects), instance.refund)

    def instance(self) -> Instance:
        return Instance([a.valuations for a in self.agents], [a.budget for a in self.agents],
                        [p.target for p in self.projects], [p.bonus for p in self.projects],
                        self.refund)


@dataclasses.dataclass(frozen=True)
class _ProfileFile:
    contributions: tuple[tuple[float, ...], ...]


def _items(value) -> dict:
    """A dataclass's keys and field values, one level deep."""
    data = {}
    for f in _fields(type(value)):
        item = getattr(value, f.name)
        if isinstance(item, RefundScheme):
            data.update(refund=item.tag, linear_slope=getattr(item, "slope", None))
        else:
            data[_KEYS.get(f.name, f.name)] = item
    return {key: item for key, item in data.items()
            if key not in _ONLY_WITH or data[_ONLY_WITH[key][0]] == _ONLY_WITH[key][1]}


def _dump(value):
    """A dataclass, or one of its field values, as JSON data."""
    if isinstance(value, tuple):
        return [_dump(item) for item in value]
    if dataclasses.is_dataclass(value):
        return {key: _dump(item) for key, item in _items(value).items()}
    return value.value if isinstance(value, Enum) else value


def _load(cls, data, path: str = "", noun: str = "config"):
    """``cls`` from its JSON object, with the dataclass default for each omitted key."""
    if not isinstance(data, dict):
        raise InputError(f"{noun} {path.rstrip('.') or 'file'} must be a JSON object")
    hints, kwargs = _hints(cls), {}
    for f in _fields(cls):
        key = _KEYS.get(f.name, f.name)
        wanted = key in data or f.default is f.default_factory  # both MISSING: no default
        if wanted and hints[f.name] is RefundScheme:
            slope = data.get("linear_slope")
            kwargs[f.name] = scheme_from_tag(
                _read(str, data[key], path + key, noun),
                None if slope is None else _read(float, slope, path + "linear_slope", noun),
            )
        elif wanted:
            kwargs[f.name] = _read(hints[f.name], data[key], path + key, noun)
    cfg = cls(**kwargs)
    carried = _items(cfg)
    for key in data:
        if key in _RETIRED and noun == "config":
            print(f"note: config key {path}{key} is retired and ignored", file=sys.stderr)
        elif key in _ONLY_WITH and key not in carried:
            other, value = _ONLY_WITH[key]
            raise InputError(f"{noun} key {path}{key} applies only to {other} {value}")
        elif key not in carried:
            raise InputError(f"unknown {noun} key {path}{key}")
    return cfg


def _read(kind, value, path: str, noun: str):
    """A JSON value read as a field annotated ``kind``."""
    if dataclasses.is_dataclass(kind):
        return _load(kind, value, path + ".", noun)
    if typing.get_origin(kind) is tuple:
        if not isinstance(value, list):
            where = f"key {path}" if path else "file"
            raise InputError(f"{noun} {where} must be a list, got {json.dumps(value)}")
        items = typing.get_args(kind)
        if items == (float, ...) and {float}.issuperset(map(type, value)):
            return tuple(value)  # a row of JSON floats, read in one pass
        if items[-1] is Ellipsis:
            items = items[:1] * len(value)
        if len(value) != len(items):
            raise InputError(f"{noun} key {path} must hold {len(items)} items, got {value}")
        return tuple(_read(k, value[i], f"{path}[{i}]", noun) for i, k in enumerate(items))
    types, name = _SCALARS.get(kind, _SCALARS[str])
    if (isinstance(value, bool) != (kind is bool) or not isinstance(value, types)
            or kind is int and isinstance(value, float) and not value.is_integer()):
        raise InputError(f"{noun} key {path} must be {name}, got {json.dumps(value)}")
    try:
        return kind(value)
    except (ValueError, OverflowError) as exc:  # OverflowError: an integer past float range
        raise InputError(f"{noun} key {path}: {exc}") from None


def instance_to_jsonable(instance: Instance) -> dict:
    return _dump(_InstanceFile.of(instance))


def instance_from_jsonable(data: dict) -> Instance:
    return _load(_InstanceFile, data, noun="instance").instance()


def save_instance(path, instance: Instance) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(instance_to_jsonable(instance)) + "\n")


def load_instance(path) -> Instance:
    return read_input(path, instance_from_jsonable)


def profile_from_jsonable(data: dict) -> ContributionProfile:
    return ContributionProfile(_load(_ProfileFile, data, noun="profile").contributions)


def load_profile(path) -> ContributionProfile:
    return read_input(path, profile_from_jsonable)


def load_assignment(path) -> Assignment:
    return Assignment(read_input(path, functools.partial(
        _read, tuple[Heuristic, ...], path="", noun="assignment")))


sampler_config_to_jsonable = experiment_config_to_jsonable = _dump
sampler_config_from_jsonable = functools.partial(_load, SamplerConfig)
experiment_config_from_jsonable = functools.partial(_load, ExperimentConfig)


def load_experiment_config(path) -> ExperimentConfig:
    return read_input(path, experiment_config_from_jsonable)


def load_sampler_config(path) -> SamplerConfig:
    return read_input(path, sampler_config_from_jsonable)
