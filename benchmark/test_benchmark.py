"""Tests of the benchmark itself, at the tiny problem size.

    python -m pytest benchmark -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

import run  # noqa: E402

workloads = run.load_program()


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--size", "tiny", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(done) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = result_of(bench("--workload", workload, "--seed", "3", "--seconds", "1",
                             "--trace", str(trace)))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == wanted
    if trace and workload == "experiment":
        assert result["metrics"]["harness.parallel_speedup"]["value"] > 0


def test_times_are_scaled_by_the_reference_loop(monkeypatch):
    import reference

    args = run.argparse.Namespace(workload="sample-wide", seed=3, seconds=1.0, size="tiny")
    wl = workloads.make("sample-wide", "tiny")
    for loop_s, factor in ((reference.REF_S, 1.0), (reference.REF_S / 2, 2.0)):
        monkeypatch.setattr(reference, "reference_seconds", lambda: loop_s)
        monkeypatch.setattr(run, "probe_setups", lambda args: [1.0])
        _, failures, metrics, samples = run.timed_run(args, wl, wl.inputs(3), 1.0)
        assert failures == []
        assert samples["call_scales"] == [factor] * samples["calls"]
        wall = samples["wall_throughput_per_s"]
        assert metrics["throughput_per_s"][0] == pytest.approx(wall / factor)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    counts = []
    for _ in range(2):
        metrics = result_of(bench("--workload", workload, "--seed", "5", "--seconds", "2",
                                  "--trace", "1"))["metrics"]
        counts.append({k: m["value"] for k, m in metrics.items() if m["unit"] == "count"})
    assert counts[0] == counts[1]
    assert any(counts[0].values())


def _corrupt_experiment(inp, out):
    report, text = out
    flipped = chr(ord(text[-2]) ^ 1)
    return report, text[:-2] + flipped + text[-1]


def _corrupt_sample(inp, out):
    instance, solution = out
    wrong = tuple(j for j in range(instance.n_projects) if j not in solution.subset)[:1]
    return instance, type(solution)(wrong, solution.welfare, solution.cost, solution.unique)


def _corrupt_fine_grid_dp(inp, out):
    # claim every project, which the deficit pool cannot afford
    dp, responses = out
    everything = tuple(range(inp[0].n_projects))
    return type(dp)(everything, dp.welfare, dp.cost, dp.unique), responses


def _corrupt_fine_grid_response(inp, out):
    dp, responses = out
    view, response = responses[-1]
    off = type(response)(response.contributions, response.funded,
                         response.utility + 1e-6, response.optimal)
    return dp, responses[:-1] + [(view, off)]


@pytest.mark.parametrize("workload, corrupt", [
    ("experiment", _corrupt_experiment),
    ("sample-wide", _corrupt_sample),
    ("fine-grid", _corrupt_fine_grid_dp),
    ("fine-grid", _corrupt_fine_grid_response),
])
def test_corrupted_output_raises_fail_rate(workload, corrupt):
    wl = workloads.make(workload, "tiny")
    wl.activate()
    stream = wl.inputs(7)
    clean, bad = run.Calls(), run.Calls()
    for _ in range(4):
        inp = next(stream)
        clean.run(wl, inp)
        bad.run(wl, inp)
    bad.done = [(inp, corrupt(inp, out)) for inp, out in bad.done]
    clean.check(wl)
    bad.check(wl)
    assert clean.failures == []
    assert len(bad.failures) == 4 and bad.attempted == 4


def test_failed_call_counts_against_attempts(monkeypatch):
    wl = workloads.make("sample-wide", "tiny")

    def refuse(*args, **kwargs):
        raise workloads.generators.SolverError("sampler rejected every draw")

    monkeypatch.setattr(workloads.generators, "sample_instance", refuse)
    calls = run.Calls()
    calls.run(wl, next(wl.inputs(0)))
    calls.check(wl)
    assert calls.attempted == 1 and calls.units == 0
    assert calls.failures == ["call raised SolverError: sampler rejected every draw"]


def _copy_benchmark(dest: Path) -> Path:
    shutil.copytree(HERE, dest / "benchmark",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    return dest / "benchmark" / "run.py"


def test_flipped_digest_fails_the_run(tmp_path):
    script = _copy_benchmark(tmp_path)
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    golden = tmp_path / "benchmark" / "golden_experiment.json"
    data = json.loads(golden.read_text(encoding="utf-8"))
    data["tiny"]["experiment"] = ["0" * 64] * len(data["tiny"]["experiment"])
    golden.write_text(json.dumps(data), encoding="utf-8")
    done = bench("--workload", "experiment", "--seed", "0", "--seconds", "0.5",
                 cwd=tmp_path, script=script)
    assert done.returncode == 1
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_refuses_to_run_without_the_program(tmp_path):
    script = _copy_benchmark(tmp_path)
    done = bench("--workload", "fine-grid", "--seed", "0", "--seconds", "0.5",
                 cwd=tmp_path, script=script)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
