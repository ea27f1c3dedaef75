#!/usr/bin/env python3
"""Fixed-seed benchmark of the ccfund library.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload against the ccfund package in ``src/`` next to this
directory, checks every output, writes a result file with a run manifest to
``benchmark/results/`` and prints one JSON object as its last line. With
``--trace 0`` the object holds the end-to-end metrics; with ``--trace 1`` it
holds the per-layer metrics of a traced run over a fixed amount of work.
Exit code 0 when every output checked out, 1 when one did not, 2 when the
program could not be loaded. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

WORKLOADS = ("experiment", "sample-wide", "fine-grid")
#: Set-ups per run behind the reported median, each in a fresh interpreter.
SETUP_REPEATS = 5
#: Traced calls per second of ``--seconds``; fixed work keeps counts exact.
TRACE_CALLS_PER_S = {"experiment": 0.6, "sample-wide": 1.0, "fine-grid": 0.75}
#: Chunk pairs (one worker, two workers) per second of a traced experiment run.
PARALLEL_CHUNKS_PER_S = 0.2
#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10


def load_program():
    """Import ccfund from this checkout's ``src/``; exit 2 when it is missing."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import ccfund
    except ImportError as exc:
        print(f"benchmark: cannot import ccfund from {src}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    if Path(ccfund.__file__).resolve().parent.parent != src:
        print(f"benchmark: ccfund imported from {ccfund.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)
    import workloads

    return workloads


def set_up(args):
    """Import, build the inputs and make one untimed warm-up call; timed."""
    start = time.perf_counter()
    workloads = load_program()
    wl = workloads.make(args.workload, args.size)
    wl.activate()
    stream = wl.inputs(args.seed)
    stream = itertools.chain([next(stream)], stream)
    for inp in wl.warmup_inputs():
        wl.call(inp)
    return wl, stream, time.perf_counter() - start


def probe_setups(args) -> list[float]:
    """Scaled set-up times of fresh interpreters running the same workload.

    A reference loop runs before each probe and after the last, as around
    timed calls. This process's own set-up cannot be scaled so: the loop
    needs numpy, whose import is part of set-up.
    """
    import reference  # imported late so that set-up pays for numpy

    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    refs, walls = [reference.reference_seconds()], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
        walls.append(float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]))
        refs.append(reference.reference_seconds())
    return [wall * scale for wall, scale in zip(walls, reference.scales(refs))]


# -- running calls ------------------------------------------------------------


class Calls:
    """Wall time, units and outputs of the calls of one pass."""

    def __init__(self):
        self.walls: list[float] = []
        self.units = 0
        self.done: list[tuple] = []
        self.failures: list[str] = []

    def run(self, wl, inp) -> None:
        start = time.perf_counter()
        try:
            out = wl.call(inp)
        except Exception as exc:  # a failed call is counted, never fatal
            self.walls.append(time.perf_counter() - start)
            self.failures.append(f"call raised {type(exc).__name__}: {exc}")
            return
        self.walls.append(time.perf_counter() - start)
        self.units += wl.units(inp, out)
        self.done.append((inp, out))

    def check(self, wl) -> None:
        """Check every output, outside any timed region."""
        for inp, out in self.done:
            try:
                reason = wl.check(inp, out)
            except Exception as exc:  # a check that cannot run is a failed check
                reason = f"check raised {type(exc).__name__}: {exc}"
            if reason is not None:
                self.failures.append(reason)
        self.done.clear()

    @property
    def attempted(self) -> int:
        return len(self.walls)

    @property
    def wall(self) -> float:
        return sum(self.walls)


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Value at the highest percentile with TAIL_BEYOND samples beyond it."""
    xs = sorted(samples)
    idx = len(xs) - TAIL_BEYOND - 1 if len(xs) > TAIL_BEYOND else len(xs) - 1
    return xs[idx], 100.0 * (idx + 1) / len(xs), len(xs) - idx - 1


def timed_run(args, wl, stream, setup_here: float):
    import reference  # imported late, see probe_setups

    calls = Calls()
    # A reference loop runs before every call and after the last; each call
    # is scaled by the mean of the two loops around it, so host speed drift
    # cancels out. Loops far apart would miss drift that lasts a second.
    refs = [reference.reference_seconds()]
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        calls.run(wl, next(stream))
        refs.append(reference.reference_seconds())
    scales = reference.scales(refs)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    calls.check(wl)
    setups = probe_setups(args)
    scaled = [wall * scale for wall, scale in zip(calls.walls, scales)]
    tail_s, tail_pct, beyond = tail(scaled)
    failed = len(calls.failures)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_per_s": (calls.units / sum(scaled), "1/s"),
        "call_p50_ms": (statistics.median(scaled) * 1e3, "ms"),
        "call_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
        "success_rate": (1.0 - failed / calls.attempted, "ratio"),
    }
    samples = {
        "calls": calls.attempted,
        "work_units": calls.units,
        "work_unit": wl.unit,
        "timed_wall_s": calls.wall,
        "wall_throughput_per_s": calls.units / calls.wall,
        "wall_call_p50_ms": statistics.median(calls.walls) * 1e3,
        "call_tail_percentile": tail_pct,
        "call_tail_samples_beyond": beyond,
        "setup_samples_s": setups,
        "setup_this_process_wall_s": setup_here,
        "fail_rate": failed / calls.attempted,
        "reference_s": refs,
        "call_walls_s": calls.walls,
        "call_scales": scales,
    }
    return calls.attempted, calls.failures, metrics, samples


def traced_run(args, wl, stream):
    count = max(1, math.ceil(args.seconds * TRACE_CALLS_PER_S[args.workload]))
    inputs = list(itertools.islice(stream, count))
    tracer = tracing.Tracer()
    plain, traced = Calls(), Calls()
    # Passes alternate call by call, so a drift in machine speed hits them alike.
    for inp in inputs:
        plain.run(wl, inp)
        with tracer.patched():
            traced.run(wl, inp)
    passes = [plain, traced]
    for calls in passes:
        calls.check(wl)
    bases = (0.0, 0.0)
    if args.workload == "experiment":
        one, two = parallel_pass(args)
        passes += [one, two]
        bases = (one.units / one.wall, two.units / two.wall)
    failures = [reason for calls in passes for reason in calls.failures]
    attempted = sum(calls.attempted for calls in passes)
    RESULTS.mkdir(exist_ok=True)
    tracer.write(RESULTS / f"{args.workload}-seed{args.seed}-{args.size}.spans.jsonl.gz")
    metrics = layer_metrics(tracer, traced.wall, plain.wall, bases)
    samples = {
        "calls": count,
        "traced_wall_s": traced.wall,
        "untraced_wall_s": plain.wall,
        "spans": len(tracer.names),
        "computed": ["welfare.subsets_enumerated", "welfare.dp_cells",
                     "bestresponse.grid_units", "bestresponse.table_cells"],
    }
    return attempted, failures, metrics, samples


def parallel_pass(args) -> tuple[Calls, Calls]:
    """The same 64-instance chunks on one worker, then on two, alternating.

    This is how the harness's process pool and ordered merge are measured:
    wall time of two processes on two shared vCPUs is too unsteady for an
    end-to-end bound, so their speed-up is a per-layer figure of the traced
    ``experiment`` run. Every chunk is checked against the one-worker digest.
    """
    import workloads

    pooled = workloads.make("experiment-2w", args.size)
    count = max(1, math.ceil(args.seconds * PARALLEL_CHUNKS_PER_S))
    one, two = Calls(), Calls()
    for inp in itertools.islice(pooled.inputs(args.seed), count):
        pooled.use_workers(1)
        one.run(pooled, inp)
        pooled.use_workers(2)
        two.run(pooled, inp)
    pooled.use_workers(1)
    one.check(pooled)
    two.check(pooled)
    return one, two


def layer_metrics(tracer, traced_wall: float, plain_wall: float, bases) -> dict:
    spans = tracer.summary()
    counters = tracing.computed_counters(tracer)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    sample = "generators.sample_instance"
    instances = calls(sample)
    attempts = tracer.children_of(sample, "refunds.threshold_matrix")
    lifts = tracer.children_of(sample, "welfare.solve_subset_bruteforce")
    m[sample + ".calls"] = (instances, "count")
    m[sample + ".self_s"] = (self_s(sample), "s")
    m["generators.attempts_per_instance"] = (ratio(attempts, instances), "count")
    m["generators.lift_solves_per_instance"] = (ratio(lifts, instances), "count")
    m["generators.accept_rate"] = (ratio(instances, attempts), "ratio")

    brute = "welfare.solve_subset_bruteforce"
    m[brute + ".calls"] = (calls(brute), "count")
    m[brute + ".self_s"] = (self_s(brute), "s")
    m[brute + ".ms_per_call"] = (ratio(self_s(brute), calls(brute)) * 1e3, "ms")
    m["welfare.subsets_enumerated"] = (counters["welfare.subsets_enumerated"], "count")
    m["welfare.solve_subset_dp.calls"] = (calls("welfare.solve_subset_dp"), "count")
    m["welfare.solve_subset_dp.self_s"] = (self_s("welfare.solve_subset_dp"), "s")
    m["welfare.dp_cells"] = (counters["welfare.dp_cells"], "count")

    for name in ("refunds.share", "refunds.threshold_matrix", "refunds.thresholds",
                 "heuristics.intent_matrix", "heuristics.clamp_play"):
        m[name + ".calls"] = (calls(name), "count")
        m[name + ".self_s"] = (self_s(name), "s")
    profile = "model.ContributionProfile"
    m[profile + ".calls"] = (calls(profile), "count")
    m[profile + ".self_s"] = (self_s(profile) + self_s(profile + ".validate"), "s")
    m["model.evaluate.calls"] = (calls("model.evaluate"), "count")
    m["model.evaluate.self_s"] = (self_s("model.evaluate"), "s")

    m["harness.run_experiment.self_s"] = (self_s("harness.run_experiment"), "s")
    m["harness.au_n.calls"] = (calls("harness.au_n"), "count")
    m["harness.au_n.self_s"] = (self_s("harness.au_n"), "s")
    m["harness.sw_n.calls"] = (calls("harness.sw_n"), "count")
    m["harness.deviation_split.calls"] = (calls("harness.deviation_split"), "count")
    m["harness.deviation_split.self_s"] = (self_s("harness.deviation_split"), "s")
    m["harness.parallel_speedup"] = (ratio(bases[1], bases[0]), "ratio")
    m["harness.parallel_speedup.base_1w_per_s"] = (bases[0], "1/s")
    m["harness.parallel_speedup.base_2w_per_s"] = (bases[1], "1/s")

    for name in ("bestresponse.make_view", "bestresponse.best_response_exact"):
        m[name + ".calls"] = (calls(name), "count")
        m[name + ".self_s"] = (self_s(name), "s")
    m["bestresponse.grid_units"] = (counters["bestresponse.grid_units"], "count")
    m["bestresponse.table_cells"] = (counters["bestresponse.table_cells"], "count")

    for layer in tracing.LAYERS:
        share = sum(row["self_s"] for name, row in spans.items() if name.split(".")[0] == layer)
        m[layer + ".self_share"] = (ratio(share, traced_wall), "ratio")
    m["trace.overhead"] = (ratio(traced_wall, plain_wall), "ratio")
    m["trace.unattributed_share"] = (ratio(traced_wall - tracer.top_level_s(), traced_wall), "ratio")
    return m


# -- reporting ----------------------------------------------------------------


def git_commit(root: Path) -> str | None:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def manifest(args, wl, samples: dict) -> dict:
    import ccfund
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "params": wl.params,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "ccfund": ccfund.__version__,
        "git_commit": git_commit(ROOT),
        "platform": platform.platform(),
        "samples": samples,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Fixed-seed ccfund benchmark.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="problem size; 'tiny' exists for the benchmark's own tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be non-negative and --seconds positive")

    wl, stream, setup_here = set_up(args)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_here}))
        return 0
    if args.trace:
        attempted, failures, metrics, samples = traced_run(args, wl, stream)
    else:
        attempted, failures, metrics, samples = timed_run(args, wl, stream, setup_here)
    correct = not failures
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}.json"
    record = {"manifest": manifest(args, wl, samples), "failures": failures, **result}
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    if not args.trace:
        print(f"{args.workload} fail_rate {samples['fail_rate']:.6g} ratio "
              f"({len(failures)} of {attempted} calls)")
        print(f"{args.workload} wall_throughput_per_s {samples['wall_throughput_per_s']:.6g} 1/s "
              f"(unscaled)")
        print(f"{args.workload} wall_call_p50_ms {samples['wall_call_p50_ms']:.6g} ms (unscaled)")
    for reason in failures[:20]:
        print(f"{args.workload} FAILED {reason}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
