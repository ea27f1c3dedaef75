"""Mutation fuzz of the command line's input files.

Valid instance, profile, assignment, sampler and experiment files are
mutated (wrong types, missing and extra keys, ragged rows, numbers at the
float limits) and run through ``cli.main`` in-process. Every run must exit
0, 2 or 3; a refused run prints exactly one ``error:`` line and nothing on
stdout. Size keys are capped so that each run stays small, and experiments
run on one worker.
"""

import contextlib
import copy
import io
import json
import os
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import event, given, settings
from hypothesis import strategies as st

from ccfund.cli import main

INSTANCE = {"agents": [{"budget": 3.0, "valuations": [3.0, 1.0]},
                       {"budget": 1.0, "valuations": [0.5, 2.0]}],
            "projects": [{"target": 2.0, "bonus": 0.5}, {"target": 1.5, "bonus": 0.5}],
            "refund": "ppr"}
LINEAR_INSTANCE = {**INSTANCE, "refund": "linear-additive", "linear_slope": 0.2}
PROFILE = {"contributions": [[0.5, 0.25], [0.0, 0.5]]}
ASSIGNMENT = ["symmetric", "greedy-theta"]
SAMPLER = {"n": 6, "p": 3, "valuations": {"kind": "uniform", "lo": 0, "hi": 10},
           "target_fraction": [0.3, 0.7], "bonus_fraction": 0.9, "budget_rho": [0.3, 0.8],
           "refund": "linear-additive", "linear_slope": 0.2, "seed": 3, "max_rejections": 20}
EXPERIMENT = {"sampler": {"n": 6, "p": 3, "valuations": {"kind": "exponential", "rate": 1.5}},
              "alphas": [0.5, 1.0], "deviant_heuristics": ["symmetric", "weighted"],
              "instances_per_cell": 2, "seed": 1, "play_order": "random",
              "include_control": True, "matched_baseline": False, "delta": 0.01}
#: Largest value a mutation leaves in a size key.
SIZE_CAPS = {"n": 8, "p": 4, "instances_per_cell": 3, "max_rejections": 30}

#: Number literals json.dumps cannot write: they overflow or underflow a float.
RAW = {f"\x00{text}": text for text in ("1.8e308", "-1.8e308", "1e-400")}
NUMBERS = st.one_of(
    st.sampled_from([0, -1, 1, 2**53 + 1, 10**400, 0.0, -0.0, 1.5, 1e308, -1e308,
                     1.7976931348623157e308, -1.7976931348623157e308, 5e-324, -5e-324, *RAW]),
    st.floats(-1e3, 1e3),
    st.integers(-10, 10),
)
VALUES = st.one_of(
    st.sampled_from([None, True, False, "", "1.5", "ppr", "linear-additive", "symmetric",
                     "uniform", "exponential", [], {}, [1.0], [[0.0]]]),
    NUMBERS,
)
EXTRA_KEYS = st.sampled_from(["comment", "delta", "budget", "linear_slope", "lo", "rate", ""])


def _value(data, old=None):
    """A value to put in place of ``old``: often a number in place of a number."""
    numeric = isinstance(old, (int, float)) and not isinstance(old, bool)
    # a copy: a later mutation may append to a drawn list
    return copy.deepcopy(data.draw(NUMBERS if numeric and data.draw(st.booleans()) else VALUES))


def _nodes(doc):
    """Every (container, key) pair below ``doc``, and every dict in it."""
    slots, dicts = [], []

    def walk(node):
        if isinstance(node, dict):
            dicts.append(node)
            keys = list(node)
        elif isinstance(node, list):
            keys = range(len(node))
        else:
            return
        for key in keys:
            slots.append((node, key))
            walk(node[key])

    walk(doc)
    return slots, dicts


def _mutate(data, doc):
    """``doc`` with one to three mutations drawn from ``data``."""
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(1, 3))):
        slots, dicts = _nodes(doc)
        how = data.draw(st.sampled_from(["replace", "delete", "extra", "append"]))
        if how == "extra" and dicts:
            data.draw(st.sampled_from(dicts))[data.draw(EXTRA_KEYS)] = _value(data)
        if how == "extra" or not slots:
            continue
        node, key = data.draw(st.sampled_from(slots))
        if how == "replace":
            node[key] = _value(data, node[key])
        elif how == "delete":
            del node[key]
        elif isinstance(node[key], list):  # a ragged row, or one item too many
            node[key].append(copy.deepcopy(node[key][-1]) if node[key] else _value(data))
    return doc


def _cap(doc):
    """``doc`` with every numeric size key at most its cap."""
    for node in _nodes(doc)[1]:
        for key, cap in SIZE_CAPS.items():
            value = node.get(key)
            if isinstance(value, (int, float)) and not isinstance(value, bool) and value > cap:
                node[key] = cap
    return doc


def _write(path, doc):
    text = json.dumps(doc)
    for marker, literal in RAW.items():
        text = text.replace(json.dumps(marker), literal)
    path.write_text(text)
    return str(path)


COMMANDS = {
    "solve-dp": ["solve-pstar", "--method", "dp"],
    "solve-bruteforce": ["solve-pstar", "--method", "bruteforce"],
    "br-exact": ["best-response", "--method", "exact"],
    "br-exact-tiny-delta": ["best-response", "--method", "exact", "--delta", "5e-324"],
    "br-bruteforce": ["best-response", "--method", "bruteforce", "--delta", "0.5"],
    "br-knapsack": ["best-response", "--method", "knapsack", "--delta", "0.5"],
    "play": ["play", "--heuristic", "opt-welfare", "--order", "random"],
    "play-assignment": ["play"],
}


def _argv(data, kind, root):
    """The command line that runs one mutated file of ``kind``."""
    root = Path(root)
    if kind == "sampler":
        cfg = _write(root / "sampler.json", _cap(_mutate(data, SAMPLER)))
        return ["gen", "--config", cfg, "--count", "1", "--out", str(root / "out")]
    if kind == "experiment":
        cfg = _write(root / "experiment.json", _cap(_mutate(data, EXPERIMENT)))
        return ["experiment", "--config", cfg, "--out", str(root / "report.csv")]
    instance = data.draw(st.sampled_from([INSTANCE, LINEAR_INSTANCE]))
    profile, assignment = PROFILE, ASSIGNMENT
    if kind == "instance":
        instance = _mutate(data, instance)
        name = data.draw(st.sampled_from(sorted(COMMANDS)))
    elif kind == "profile":
        profile = _mutate(data, PROFILE)
        name = data.draw(st.sampled_from([n for n in sorted(COMMANDS) if n.startswith("br-")]))
    else:
        assignment = _mutate(data, ASSIGNMENT)
        name = "play-assignment"
    command, *options = COMMANDS[name]
    argv = [command, "--instance", _write(root / "instance.json", instance), *options]
    if command == "best-response":
        argv += ["--agent", str(data.draw(st.integers(0, 1))),
                 "--others", _write(root / "profile.json", profile)]
    if name == "play-assignment":
        argv += ["--assignment", _write(root / "assignment.json", assignment)]
    return argv


@settings(max_examples=1000, deadline=None)
@given(data=st.data(),
       kind=st.sampled_from(["instance", "profile", "assignment", "sampler", "experiment"]))
def test_mutated_files_exit_with_a_documented_code(data, kind):
    with tempfile.TemporaryDirectory() as root, \
            mock.patch.dict(os.environ, {"CCFUND_THREADS": "1"}):
        argv = _argv(data, kind, root)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    event(f"{kind} exits {code}")  # shown by --hypothesis-show-statistics
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    assert code in (0, 2, 3), (argv, err.getvalue())
    if code:
        assert out.getvalue() == "", argv
        assert len(errors) == 1, (argv, err.getvalue())
    else:
        assert errors == [], argv
