"""In-memory span tracer for the benchmark's traced run.

The tracer wraps ccfund's public functions by rebinding them in the namespace
of the module that calls them, so nothing under ``src/`` changes. Each call
records a span (name, start, end, parent) in memory; self time is a span's
duration minus its children's. The harness must run with one worker while
tracing, because forked workers' spans never reach this process.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import math
import time
from contextlib import contextmanager

#: (owner, attribute, span name). The owner is the namespace the call is
#: resolved in: a module, or ``module:Class`` for a method.
TARGETS = (
    ("ccfund.harness", "run_experiment", "harness.run_experiment"),
    ("ccfund.harness", "sample_instance", "generators.sample_instance"),
    ("ccfund.harness", "thresholds", "refunds.thresholds"),
    ("ccfund.harness", "intent_matrix", "heuristics.intent_matrix"),
    ("ccfund.harness", "clamp_play", "heuristics.clamp_play"),
    ("ccfund.harness", "ContributionProfile", "model.ContributionProfile"),
    ("ccfund.harness", "evaluate", "model.evaluate"),
    ("ccfund.harness", "sw_n", "harness.sw_n"),
    ("ccfund.harness", "au_n", "harness.au_n"),
    ("ccfund.harness", "deviation_split", "harness.deviation_split"),
    ("ccfund.generators", "sample_instance", "generators.sample_instance"),
    ("ccfund.generators", "threshold_matrix", "refunds.threshold_matrix"),
    ("ccfund.generators", "solve_subset_bruteforce", "welfare.solve_subset_bruteforce"),
    ("ccfund.refunds", "threshold_matrix", "refunds.threshold_matrix"),
    ("ccfund.refunds:PprRefund", "share", "refunds.share"),
    ("ccfund.model:ContributionProfile", "validate_against", "model.ContributionProfile.validate"),
    ("ccfund.welfare", "solve_pstar_dp", "welfare.solve_pstar_dp"),
    ("ccfund.welfare", "solve_subset_dp", "welfare.solve_subset_dp"),
    ("ccfund.bestresponse", "make_view", "bestresponse.make_view"),
    ("ccfund.bestresponse", "best_response_exact", "bestresponse.best_response_exact"),
)

#: Span names whose call arguments are kept for the computed counters.
KEEP_ARGS = frozenset(
    {"welfare.solve_subset_bruteforce", "welfare.solve_subset_dp", "bestresponse.best_response_exact"}
)

LAYERS = ("generators", "welfare", "refunds", "heuristics", "model", "harness", "bestresponse")


def _owner(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Spans kept as parallel lists; ``patched()`` installs the wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.args: dict[str, list[inspect.BoundArguments]] = {name: [] for name in KEEP_ARGS}
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        names, parents, starts, ends, stack = (
            self.names, self.parents, self.starts, self.ends, self._stack
        )
        kept = self.args.get(name)
        signature = inspect.signature(fn) if kept is not None else None

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                starts[idx] = start
                ends[idx] = end
                if kept is not None:
                    kept.append(signature.bind(*args, **kwargs))

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def patched(self):
        """Rebind every target for the duration of the block."""
        saved = []
        try:
            for owner_path, attr, name in TARGETS:
                owner = _owner(owner_path)
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines: name, start, end, parent."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for row in zip(self.names, self.starts, self.ends, self.parents):
                fh.write(json.dumps(row) + "\n")

    # -- per-layer metrics ---------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        child = [0.0] * len(self.names)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[idx] - self.starts[idx]
        out: dict[str, dict] = {}
        for idx, name in enumerate(self.names):
            dur = self.ends[idx] - self.starts[idx]
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child[idx]
        return out

    def children_of(self, parent_name: str, child_name: str) -> int:
        names = self.names
        return sum(
            1
            for idx, parent in enumerate(self.parents)
            if parent >= 0 and names[idx] == child_name and names[parent] == parent_name
        )

    def top_level_s(self) -> float:
        return sum(e - s for s, e, p in zip(self.starts, self.ends, self.parents) if p < 0)


def computed_counters(tracer: Tracer) -> dict:
    """Work counts derived from the solvers' arguments (labelled computed)."""
    subsets = sum(2 ** len(b.arguments["values"]) for b in tracer.args["welfare.solve_subset_bruteforce"])
    cells = 0
    for b in tracer.args["welfare.solve_subset_dp"]:
        a = b.arguments
        cap_q = max(int(math.floor(a["capacity"] / a["resolution"] + 1e-9)), 0)
        cells += (len(a["values"]) + 1) * (cap_q + 1)
    units = []
    table_cells = 0
    for b in tracer.args["bestresponse.best_response_exact"]:
        view, delta = b.arguments["view"], b.arguments["delta"]
        budget_units = int(math.floor(view.budget / delta + 1e-9))
        width = budget_units + 1
        for r in view.remaining:
            fund = 0 if r <= 1e-9 else int(math.ceil(r / delta - 1e-9))
            table_cells += (min(fund, budget_units) + 1) * width
        units.append(budget_units)
    return {
        "welfare.subsets_enumerated": subsets,
        "welfare.dp_cells": cells,
        "bestresponse.grid_units": sum(units) / len(units) if units else 0.0,
        "bestresponse.table_cells": table_cells,
    }
