import copy
import json
import multiprocessing
import os
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccfund import (
    ContributionProfile,
    ExperimentConfig,
    Heuristic,
    LinearAdditiveRefund,
    PprRefund,
    SamplerConfig,
    ValuationDist,
    sample_instance,
)
from ccfund import cli
from ccfund.cli import main
from ccfund.errors import SolverError
from ccfund.heuristics import PLAY_ORDERS
from ccfund.io import (
    dumps_canonical,
    experiment_config_from_jsonable,
    experiment_config_to_jsonable,
    instance_from_jsonable,
    instance_to_jsonable,
    load_instance,
    profile_from_jsonable,
    sampler_config_from_jsonable,
    sampler_config_to_jsonable,
)
from conftest import random_instance


@pytest.fixture
def sampler_config(tmp_path):
    path = tmp_path / "sampler.json"
    path.write_text(
        json.dumps(
            {
                "n": 15,
                "p": 4,
                "valuations": {"kind": "uniform", "lo": 0, "hi": 10},
                "target_fraction": [0.3, 0.7],
                "bonus_fraction": 0.9,
                "budget_rho": [0.3, 0.8],
                "refund": "ppr",
                "seed": 31,
                "max_rejections": 200,
            }
        )
    )
    return path


class TestRoundTrips:
    def test_instance_json(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            inst = random_instance(rng)
            data = json.loads(dumps_canonical(instance_to_jsonable(inst)))
            back = instance_from_jsonable(data)
            assert np.array_equal(back.valuations, inst.valuations)
            assert np.array_equal(back.budgets, inst.budgets)
            assert np.array_equal(back.targets, inst.targets)
            assert np.array_equal(back.bonuses, inst.bonuses)
            assert back.refund == inst.refund

    def test_profile_json(self):
        profile = ContributionProfile([[0.1, 0.25], [0.0, 1.75]])
        data = json.loads(dumps_canonical(profile))
        back = profile_from_jsonable(data)
        assert np.array_equal(back.contributions, profile.contributions)

    def test_canonical_bytes_stable(self):
        inst = random_instance(np.random.default_rng(2))
        a = dumps_canonical(instance_to_jsonable(inst))
        b = dumps_canonical(instance_to_jsonable(inst))
        assert a == b

    def test_solver_results_round_trip(self):
        from ccfund import solve_pstar_bruteforce, best_response_exact, make_view

        inst = random_instance(np.random.default_rng(3), n=3, p=3)
        solution = solve_pstar_bruteforce(inst)
        data = json.loads(dumps_canonical(solution))
        assert data == {
            "subset": list(solution.subset),
            "welfare": solution.welfare,
            "cost": solution.cost,
            "unique": solution.unique,
        }
        view = make_view(inst, np.zeros((3, 3)), 0)
        response = best_response_exact(view, 1.0)
        data = json.loads(dumps_canonical(response))
        assert set(data) == {"contributions", "funded", "utility", "optimal"}
        assert np.array_equal(data["contributions"], response.contributions)
        # numpy booleans render as JSON booleans, not integers
        assert data["funded"] == [bool(z) for z in response.funded]
        assert all(type(z) is bool for z in data["funded"])
        assert data["utility"] == response.utility
        assert data["optimal"] is response.optimal


class TestSubcommands:
    def test_gen_writes_parseable_instances(self, tmp_path, sampler_config):
        out = tmp_path / "instances"
        assert main(["gen", "--config", str(sampler_config), "--count", "2", "--out", str(out)]) == 0
        inst = load_instance(out / "instance_00000.json")
        assert inst.n_agents == 15
        solution = json.loads((out / "instance_00000.solution.json").read_text())
        assert "subset" in solution

    def test_gen_matches_library_sampler(self, tmp_path, sampler_config):
        out = tmp_path / "instances"
        main(["gen", "--config", str(sampler_config), "--count", "1", "--out", str(out)])
        direct, _ = sample_instance(
            SamplerConfig(n=15, p=4, bonus_fraction=0.9, seed=31), seed=(31, 0)
        )
        emitted = load_instance(out / "instance_00000.json")
        assert np.array_equal(emitted.valuations, direct.valuations)

    def test_solve_pstar(self, tmp_path, sampler_config, capsys):
        out = tmp_path / "instances"
        main(["gen", "--config", str(sampler_config), "--count", "1", "--out", str(out)])
        capsys.readouterr()
        code = main(
            ["solve-pstar", "--instance", str(out / "instance_00000.json"), "--resolution", "0.01"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"subset", "welfare", "cost", "unique"}

    @pytest.mark.parametrize("method", ["dp", "bruteforce"])
    def test_solve_pstar_echo_names_the_method(self, tmp_path, sampler_config, capsys, method):
        out = tmp_path / "instances"
        main(["gen", "--config", str(sampler_config), "--count", "1", "--out", str(out)])
        capsys.readouterr()
        path = str(out / "instance_00000.json")
        assert main(["solve-pstar", "--instance", path, "--method", method]) == 0
        assert capsys.readouterr().err == (
            f'# solve-pstar: {{"instance":"{path}","method":"{method}","resolution":0.01}}\n')

    def test_best_response_methods_agree(self, tmp_path, sampler_config, capsys):
        out = tmp_path / "instances"
        main(["gen", "--config", str(sampler_config), "--count", "1", "--out", str(out)])
        zeros = tmp_path / "zeros.json"
        zeros.write_text(json.dumps({"contributions": [[0.0] * 4 for _ in range(15)]}))
        capsys.readouterr()
        results = {}
        for method in ("exact", "bruteforce"):
            code = main(
                [
                    "best-response",
                    "--instance", str(out / "instance_00000.json"),
                    "--agent", "0",
                    "--others", str(zeros),
                    "--delta", "2.0",
                    "--method", method,
                ]
            )
            assert code == 0
            results[method] = json.loads(capsys.readouterr().out)
        assert results["exact"]["utility"] == pytest.approx(
            results["bruteforce"]["utility"], abs=1e-9
        )

    def test_play(self, tmp_path, sampler_config, capsys):
        out = tmp_path / "instances"
        main(["gen", "--config", str(sampler_config), "--count", "1", "--out", str(out)])
        capsys.readouterr()
        code = main(
            ["play", "--instance", str(out / "instance_00000.json"), "--heuristic", "opt-welfare"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        funded = [j for j, z in enumerate(payload["funded"]) if z]
        assert funded == payload["pstar"]

    def test_experiment_csv_and_series(self, tmp_path, capsys):
        cfg = tmp_path / "exp.json"
        cfg.write_text(
            json.dumps(
                {
                    "sampler": {"n": 12, "p": 3, "bonus_fraction": 0.9, "seed": 37},
                    "alphas": [0.5, 1.0],
                    "instances_per_cell": 5,
                    "seed": 37,
                }
            )
        )
        report = tmp_path / "report.csv"
        series = tmp_path / "series"
        code = main(
            ["experiment", "--config", str(cfg), "--out", str(report),
             "--emit-series", str(series)]
        )
        assert code == 0
        lines = report.read_text().splitlines()
        assert lines[0] == (
            "heuristic,alpha,instances,sw_n_mean,sw_n_se,au_n_mean,au_n_se,"
            "au_n_dev_mean,au_n_nondev_mean,excluded_cells,seed"
        )
        assert len(lines) == 11  # 5 heuristics x 2 alphas
        assert len(list(series.glob("*.json"))) == 20

    def test_full_scale_flag_raises_instance_count(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "FULL_SCALE_INSTANCES", 7)
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"sampler": {"n": 10, "p": 3, "seed": 5},
                                   "alphas": [0.5, 1.0], "instances_per_cell": 2}))
        report = tmp_path / "report.csv"
        assert main(["experiment", "--config", str(cfg), "--out", str(report),
                     "--full-scale"]) == 0
        rows = report.read_text().splitlines()[1:]
        assert len(rows) == 10 and all(row.split(",")[2] == "7" for row in rows)
        # the echo shows the config as written, with the flag beside it
        echo = capsys.readouterr().err.splitlines()[0]
        assert '"instances_per_cell":2,' in echo and '"full_scale":true' in echo

    @pytest.mark.parametrize("count, workers, pools", [
        (20, 1, []),
        pytest.param(33, 2, [2], marks=pytest.mark.skipif((os.cpu_count() or 1) < 2,
                                                           reason="needs two cores")),
    ])
    def test_echo_names_the_workers_the_run_starts(self, tmp_path, monkeypatch, capsys,
                                                   count, workers, pools):
        # one pool task a block of 32 instances: 20 instances run in-process
        real, started = multiprocessing.Pool, []

        def spy(processes):
            started.append(processes)
            return real(processes)

        monkeypatch.setattr(multiprocessing, "Pool", spy)
        monkeypatch.setenv("CCFUND_THREADS", "2")
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"sampler": {"n": 12, "p": 4}, "instances_per_cell": count}))
        assert main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "r.csv")]) == 0
        assert f'"workers":{workers}' in capsys.readouterr().err
        assert started == pools

    def test_legacy_delta_key_still_loads(self, tmp_path, capsys):
        # configs written while ExperimentConfig carried an unread delta field
        base = {"sampler": {"n": 10, "p": 3, "seed": 5}, "alphas": [0.5, 1.0],
                "instances_per_cell": 4, "seed": 5}
        reports = []
        for name, cfg in (("plain", base), ("legacy", {**base, "delta": 0.01})):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(cfg))
            out = tmp_path / f"{name}.csv"
            assert main(["experiment", "--config", str(path), "--out", str(out)]) == 0
            assert '"delta"' not in capsys.readouterr().err
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    def test_fixture_payloads(self, capsys):
        for name in ("procedure1", "example1", "example2", "theorem2"):
            assert main(["fixture", "--name", name]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert "instance" in payload
            assert "certificate" in payload
        assert main(["fixture", "--name", "appendixB"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "instance" in payload and "report" in payload


class TestVerify:
    @pytest.mark.parametrize(
        "name", ["procedure1", "example1", "example2", "theorem2", "appendixB"]
    )
    def test_fixtures_verify_clean(self, name, capsys):
        assert main(["verify", name]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out
        assert "[FAIL]" not in out

    def test_procedure1_verifies_for_linear_scheme(self, capsys):
        assert main(["verify", "procedure1", "--refund", "linear-additive",
                     "--linear-slope", "0.1"]) == 0

    @pytest.mark.parametrize("name, refund, key, flag", [
        ("procedure1", "ppr", "certificate", "all_pass"),
        ("procedure1", "linear-additive", "certificate", "all_pass"),
        ("theorem2", "ppr", "certificate", "all_pass"),
        ("theorem2", "linear-additive", "certificate", "all_pass"),
        ("appendixB", "ppr", "report", "expected_findings_hold"),
    ])
    def test_fixture_flag_agrees_with_verify_exit(self, name, refund, key, flag, capsys):
        assert main(["fixture", "--name", name, "--refund", refund]) == 0
        shown = json.loads(capsys.readouterr().out)[key]
        assert shown[flag] == (main(["verify", name, "--refund", refund]) == 0)


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["solve-pstar", "--instance", "x.json", "--bogus"])
        assert exc.value.code == 2

    def test_missing_file_is_usage_error(self):
        assert main(["solve-pstar", "--instance", "/nonexistent/file.json"]) == 2

    def test_gen_into_an_existing_file_is_usage_error(self, tmp_path, sampler_config, capsys):
        # used to exit 1 with a traceback, the code verify keeps for failed checks
        out = tmp_path / "taken"
        out.write_text("")
        assert main(["gen", "--config", str(sampler_config), "--count", "1",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("error: ") == 1 and str(out) in err

    def test_experiment_report_into_a_directory_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps(EXPERIMENT_BASE))
        assert main(["experiment", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("error: ") == 1 and str(tmp_path) in err

    def test_series_into_an_existing_file_is_usage_error(self, tmp_path, capsys):
        cfg, taken = tmp_path / "exp.json", tmp_path / "taken"
        cfg.write_text(json.dumps(EXPERIMENT_BASE))
        taken.write_text("")
        assert main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "r.csv"),
                     "--emit-series", str(taken)]) == 2
        err = capsys.readouterr().err
        assert err.count("error: ") == 1 and str(taken) in err
        assert not (tmp_path / "r.csv").exists()

    def test_unusable_paths_are_refused_before_the_run(self, tmp_path, monkeypatch, capsys):
        def run(*args, **kwargs):
            pytest.fail("run_experiment started")

        monkeypatch.setattr(cli, "run_experiment", run)
        cfg, taken = tmp_path / "exp.json", tmp_path / "taken"
        cfg.write_text(json.dumps(EXPERIMENT_BASE))
        taken.write_text("")
        for paths in (["--out", str(tmp_path)],
                      ["--out", str(tmp_path / "r.csv"), "--emit-series", str(taken)]):
            assert main(["experiment", "--config", str(cfg), *paths]) == 2
            assert capsys.readouterr().err.count("error: ") == 1
        assert not (tmp_path / "r.csv").exists()

    def test_failed_run_leaves_no_new_report_and_keeps_an_old_one(self, tmp_path, monkeypatch):
        def run(*args, **kwargs):
            raise SolverError("sampler gave up")

        monkeypatch.setattr(cli, "run_experiment", run)
        cfg, fresh, old = tmp_path / "exp.json", tmp_path / "fresh.csv", tmp_path / "old.csv"
        cfg.write_text(json.dumps(EXPERIMENT_BASE))
        old.write_bytes(b"an earlier report\n")
        for out in (fresh, old):
            assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 3
        assert not fresh.exists()
        assert old.read_bytes() == b"an earlier report\n"

    def test_failed_run_leaves_no_new_series_directory(self, tmp_path, monkeypatch):
        def run(*args, **kwargs):
            raise SolverError("sampler gave up")

        monkeypatch.setattr(cli, "run_experiment", run)
        cfg, old = tmp_path / "exp.json", tmp_path / "old"
        cfg.write_text(json.dumps(EXPERIMENT_BASE))
        old.mkdir()
        for series in (tmp_path / "new" / "nested", old):
            assert main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "r.csv"),
                         "--emit-series", str(series)]) == 3
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.json", "old"]
        # a report path refused after the series directory was made takes it away too
        assert main(["experiment", "--config", str(cfg), "--out", str(old),
                     "--emit-series", str(tmp_path / "new")]) == 2
        assert not (tmp_path / "new").exists()

    def test_interrupted_run_leaves_no_new_report(self, tmp_path, monkeypatch):
        def run(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "run_experiment", run)
        cfg, out = tmp_path / "exp.json", tmp_path / "r.csv"
        cfg.write_text(json.dumps(EXPERIMENT_BASE))
        with pytest.raises(KeyboardInterrupt):
            main(["experiment", "--config", str(cfg), "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize("value", ["-1", "2.5", "abc"])
    @pytest.mark.parametrize("argv", [
        ["gen", "--config", "x.json", "--out", "y", "--count"],
        ["gen", "--config", "x.json", "--out", "y", "--count", "1", "--seed"],
        ["play", "--instance", "x.json", "--heuristic", "symmetric", "--order", "random",
         "--seed"],
    ], ids=["gen-count", "gen-seed", "play-seed"])
    def test_counts_and_seeds_must_be_non_negative_integers(self, argv, value, capsys):
        # gen --count -3 used to exit 0; a negative seed exited 3, naming no flag under play
        with pytest.raises(SystemExit) as exc:
            main([*argv, value])
        assert exc.value.code == 2
        assert f"argument {argv[-1]}: " in capsys.readouterr().err

    def test_bad_instance_content_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"agents": [], "projects": [], "refund": "ppr"}))
        assert main(["solve-pstar", "--instance", str(bad)]) == 2

    def test_missing_field_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "nobudget.json"
        bad.write_text(json.dumps({"agents": [{"valuations": [3.0]}],
                                   "projects": [{"target": 2.0, "bonus": 0.5}],
                                   "refund": "ppr"}))
        assert main(["solve-pstar", "--instance", str(bad)]) == 2
        assert "missing field 'budget'" in capsys.readouterr().err

    def test_malformed_json_config_is_usage_error(self, tmp_path):
        bad = tmp_path / "cfg.json"
        bad.write_text("{not json")
        assert main(["gen", "--config", str(bad), "--count", "1",
                     "--out", str(tmp_path / "x")]) == 2

    def test_unknown_heuristic_in_assignment_is_usage_error(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps({"agents": [{"budget": 3.0, "valuations": [3.0]}],
                                    "projects": [{"target": 2.0, "bonus": 0.5}],
                                    "refund": "ppr"}))
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        good.write_text(json.dumps(["symmetric"]))
        bad.write_text(json.dumps(["symetric"]))
        assert main(["play", "--instance", str(inst), "--assignment", str(good)]) == 0
        assert main(["play", "--instance", str(inst), "--assignment", str(bad)]) == 2
        assert "symetric" in capsys.readouterr().err

    def test_solver_guard_keeps_solver_exit_code(self, tmp_path, capsys):
        # a valid instance past the enumeration's row guard is a solver error,
        # not usage: superincreasing values and targets put every subset on
        # the Pareto front
        wide = tmp_path / "wide.json"
        wide.write_text(json.dumps({
            "agents": [{"budget": 1.0, "valuations": [2.0 ** (j + 1) for j in range(24)]}],
            "projects": [{"target": 2.0**j, "bonus": 0.5} for j in range(24)], "refund": "ppr",
        }))
        assert main(["solve-pstar", "--instance", str(wide), "--method", "bruteforce"]) == 3
        assert "list guard" in capsys.readouterr().err

    def test_bad_worker_count_is_reported_once(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CCFUND_THREADS", "abc")
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"sampler": {"n": 8, "p": 2}, "alphas": [1.0],
                                   "deviant_heuristics": ["symmetric"],
                                   "instances_per_cell": 2}))
        assert main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "r.csv")]) == 0
        err = capsys.readouterr().err
        assert err.count("CCFUND_THREADS") == 1
        assert '"workers":1' in err

    def test_unknown_play_order_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"sampler": {"n": 8, "p": 2}, "alphas": [1.0],
                                   "instances_per_cell": 2, "play_order": "randm"}))
        assert main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "r.csv")]) == 2
        err = capsys.readouterr().err
        assert "unknown play order 'randm'" in err
        assert "# experiment:" not in err  # refused before the config echo
        assert not (tmp_path / "r.csv").exists()

    def test_nan_budget_is_named_not_a_solver_crash(self, tmp_path, capsys):
        bad = tmp_path / "nan.json"
        bad.write_text(
            '{"agents": [{"budget": NaN, "valuations": [3.0]}],'
            ' "projects": [{"target": 2.0, "bonus": 0.5}], "refund": "ppr"}'
        )
        assert main(["solve-pstar", "--instance", str(bad)]) == 2
        assert f"{bad}: NaN is not a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("command, budget, valuation, target, bonus, message", [
        (["solve-pstar", "--method", "dp"], 1e308, 3.0, 2.0, 0.5,
         "capacity 1e+308 needs a DP table of inf cells"),
        (["best-response", "--method", "exact"], 1e308, 3.0, 2.0, 0.5,
         "budget 1e+308 spans inf grid units at delta 0.01"),
        (["best-response", "--delta", "0.001"], 1.0, 1.5e308, 1e308, 1e307,
         "project 0's shortfall 1e+308 spans more grid units than a float holds at delta 0.001"),
    ], ids=["dp-capacity", "exact-budget", "exact-shortfall"])
    def test_quotient_past_float_range_is_solver_error(self, command, budget, valuation, target,
                                                       bonus, message, tmp_path, capsys):
        # these used to escape as an OverflowError traceback (exit 1)
        inst, others = tmp_path / "inst.json", tmp_path / "others.json"
        inst.write_text(json.dumps({"agents": [{"budget": budget, "valuations": [valuation]}],
                                    "projects": [{"target": target, "bonus": bonus}],
                                    "refund": "ppr"}))
        others.write_text(json.dumps({"contributions": [[0.0]]}))
        extra = ["--agent", "0", "--others", str(others)] if command[0] == "best-response" else []
        assert main([command[0], "--instance", str(inst), *command[1:], *extra]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {message}" in captured.err

    @pytest.mark.parametrize("command, text", [
        ("experiment", '{"instances_per_cell": Infinity}'),
        ("gen", '{"n": 1e999}'),
        ("gen", '{"valuations": {"kind": "uniform", "hi": Infinity}}'),
        ("gen", '{"refund": "linear-additive", "linear_slope": 1e999}'),
    ], ids=["infinite-instances-per-cell", "overflowing-n", "infinite-hi",
            "overflowing-linear-slope"])
    def test_non_finite_config_number_is_usage_error(self, command, text, tmp_path, capsys):
        # these used to escape as an OverflowError traceback (exit 1) or as a
        # serialization error naming no file (exit 3)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        out = ["--out", str(tmp_path / "report.csv")] if command == "experiment" else [
            "--count", "1", "--out", str(tmp_path / "instances")]
        assert main([command, "--config", str(cfg), *out]) == 2
        literal = "Infinity" if "Infinity" in text else "1e999"
        assert f"{cfg}: {literal} is not a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("valuations, key", [
        ({"kind": "uniform", "lo": 0, "hi": 1.7976931348623157e308}, "hi"),
        ({"kind": "uniform", "lo": 0, "hi": 1e200}, "hi"),
        ({"kind": "exponential", "rate": 1e-300}, "rate"),
    ], ids=["column-sums", "thresholds", "exponential"])
    def test_draws_past_float_range_name_the_valuation_key(self, valuations, key, tmp_path,
                                                           capsys):
        # these used to print numpy overflow warnings, then a NaN error naming
        # no key or a rejection that blamed budget_rho and target_fraction
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 6, "p": 3, "valuations": valuations}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["gen", "--config", str(cfg), "--count", "1",
                         "--out", str(tmp_path / "out")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert f"error: valuations.{key} {valuations[key]!r} puts the sampler's" in err

    def test_rejected_draws_are_counted_by_cause(self, tmp_path, capsys):
        # valuations this small keep every target within the sampler's
        # absolute deficit tolerance: every lift breaks the deficit, and no
        # budget_rho or target_fraction can help
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 6, "p": 3,
                                   "valuations": {"kind": "uniform", "lo": 0, "hi": 1e-10}}))
        assert main(["gen", "--config", str(cfg), "--count", "1",
                     "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert ("rejections by cause: zero-valuation column: 0, zero threshold mass: 0, "
                "the lift broke the deficit: 200, no fixed point: 0") in err
        assert "budget_rho" not in err.split("error:")[1]

    @pytest.mark.parametrize("name", ["example1", "appendixB"])
    def test_fixed_ppr_fixture_refuses_other_scheme(self, name, capsys):
        # these games are proportional-refund whatever the option says, so the
        # option is refused before the echo could name the wrong scheme
        for argv in (["fixture", "--name", name], ["verify", name]):
            assert main([*argv, "--refund", "linear-additive"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "# " not in captured.err
            assert f"fixture '{name}' is a fixed proportional-refund game" in captured.err
            assert main([*argv, "--refund", "ppr"]) == 0
            capsys.readouterr()

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "-0.5", "abc"])
    @pytest.mark.parametrize("command, option", [("best-response", "--delta"),
                                                 ("solve-pstar", "--resolution")])
    def test_grid_step_must_be_positive_finite(self, command, option, value, capsys):
        # used to reach the solvers and exit 3; nan even failed serializing the echo
        argv = [command, "--instance", "x.json", option, value]
        if command == "best-response":
            argv += ["--agent", "0", "--others", "y.json"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {option}: " in capsys.readouterr().err

    @pytest.mark.parametrize("agent", ["99", "-1"])
    def test_agent_out_of_range_is_usage_error(self, agent, tmp_path, sampler_config, capsys):
        # used to reach make_view and exit 3 as a solver error
        out = tmp_path / "instances"
        main(["gen", "--config", str(sampler_config), "--count", "1", "--out", str(out)])
        zeros = tmp_path / "zeros.json"
        zeros.write_text(json.dumps({"contributions": [[0.0] * 4 for _ in range(15)]}))
        capsys.readouterr()
        assert main(["best-response", "--instance", str(out / "instance_00000.json"),
                     "--agent", agent, "--others", str(zeros)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--agent {agent} is out of range for 15 agents" in captured.err

    @pytest.mark.parametrize("value", ["-1", "0", "nan", "abc"])
    def test_linear_slope_must_be_positive_finite(self, value, capsys):
        # -1 used to exit 3 from the scheme's own check
        with pytest.raises(SystemExit) as exc:
            main(["fixture", "--name", "procedure1", "--refund", "linear-additive",
                  "--linear-slope", value])
        assert exc.value.code == 2
        assert "argument --linear-slope: " in capsys.readouterr().err

    def test_linear_slope_needs_the_linear_scheme(self, capsys):
        # with the default proportional refund the slope used to be ignored silently
        for argv in (["fixture", "--name", "procedure1"], ["verify", "procedure1"]):
            assert main([*argv, "--linear-slope", "0.3"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "# " not in captured.err
            assert "--linear-slope applies only to --refund linear-additive" in captured.err

    def test_echoes_resolved_config(self, tmp_path, sampler_config, capsys):
        main(["gen", "--config", str(sampler_config), "--count", "1",
              "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert err.startswith("# gen:")
        assert '"seed":31' in err


# small enough that a config the loader wrongly accepts still runs in moments
GEN_BASE = {"n": 8, "p": 2}
EXPERIMENT_BASE = {"sampler": dict(GEN_BASE), "alphas": [1.0], "instances_per_cell": 2}


def _with(base, path, value):
    """A copy of ``base`` with ``value`` at the dotted key ``path``."""
    cfg = copy.deepcopy(base)
    *parents, key = path.split(".")
    node = cfg
    for parent in parents:
        node = node.setdefault(parent, {})
    node[key] = value
    return cfg


def _refusal(command, cfg, tmp_path, capsys) -> str:
    """stderr of ``command`` on ``cfg``, which must exit 2 with no echo and no output."""
    path, out = tmp_path / "cfg.json", tmp_path / "out"
    path.write_text(json.dumps(cfg))
    extra = ["--count", "1"] if command == "gen" else []
    assert main([command, "--config", str(path), *extra, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "# " not in captured.err  # refused before the config echo
    assert not out.exists()
    return captured.err


class TestConfigKeys:
    @pytest.mark.parametrize("command, path", [
        ("gen", "bonus_fracton"),
        ("gen", "valuations.hii"),
        ("experiment", "instances_per_cel"),
        ("experiment", "sampler.bonus_fracton"),
        ("experiment", "sampler.valuations.kindd"),
    ])
    def test_unknown_key_is_named(self, command, path, tmp_path, capsys):
        base = GEN_BASE if command == "gen" else EXPERIMENT_BASE
        err = _refusal(command, _with(base, path, 0.5), tmp_path, capsys)
        assert f"unknown config key {path}" in err

    @pytest.mark.parametrize("command, path, value", [
        ("gen", "n", 8.7),
        ("gen", "p", True),
        ("gen", "seed", 1.5),
        ("gen", "max_rejections", 2.5),
        ("experiment", "seed", True),
        ("experiment", "instances_per_cell", 2.9),
        ("experiment", "sampler.n", False),
    ])
    def test_integer_key_refuses_fractions_and_booleans(self, command, path, value,
                                                        tmp_path, capsys):
        base = GEN_BASE if command == "gen" else EXPERIMENT_BASE
        err = _refusal(command, _with(base, path, value), tmp_path, capsys)
        assert f"config key {path} must be an integer, got {json.dumps(value)}" in err

    @pytest.mark.parametrize("path, value", [
        ("include_control", "false"),
        ("include_control", 0),
        ("matched_baseline", 1),
        ("matched_baseline", "true"),
    ])
    def test_boolean_key_takes_only_true_or_false(self, path, value, tmp_path, capsys):
        err = _refusal("experiment", _with(EXPERIMENT_BASE, path, value), tmp_path, capsys)
        assert f"config key {path} must be true or false" in err

    @pytest.mark.parametrize("command, cfg, path", [
        ("gen", {**GEN_BASE, "refund": "ppr", "linear_slope": 0.3}, "linear_slope"),
        ("gen", {**GEN_BASE, "linear_slope": 0.3}, "linear_slope"),
        ("experiment", _with(EXPERIMENT_BASE, "sampler.linear_slope", 0.3),
         "sampler.linear_slope"),
    ], ids=["explicit-ppr", "default-ppr", "experiment-sampler"])
    def test_linear_slope_needs_the_linear_scheme(self, command, cfg, path, tmp_path, capsys):
        err = _refusal(command, cfg, tmp_path, capsys)
        assert f"config key {path} applies only to refund linear-additive" in err

    @pytest.mark.parametrize("valuations, key, kind", [
        ({"kind": "uniform", "rate": 2.0}, "rate", "exponential"),
        ({"rate": 2.0}, "rate", "exponential"),
        ({"kind": "exponential", "lo": 1.0}, "lo", "uniform"),
        ({"kind": "exponential", "rate": 2.0, "hi": 5.0}, "hi", "uniform"),
    ], ids=["rate-under-uniform", "rate-under-default", "lo-under-exponential",
            "hi-under-exponential"])
    def test_valuations_refuse_the_other_kinds_keys(self, valuations, key, kind,
                                                    tmp_path, capsys):
        err = _refusal("gen", {**GEN_BASE, "valuations": valuations}, tmp_path, capsys)
        assert f"config key valuations.{key} applies only to kind {kind}" in err

    def test_experiment_without_cells_is_refused(self, tmp_path, capsys):
        # it used to sample every instance and write a header-only CSV, exit 0
        cfg = {**EXPERIMENT_BASE, "deviant_heuristics": [], "include_control": False}
        err = _refusal("experiment", cfg, tmp_path, capsys)
        assert "deviant_heuristics is empty and include_control is false" in err

    def test_control_only_experiment_runs(self, tmp_path, capsys):
        path, out = tmp_path / "cfg.json", tmp_path / "r.csv"
        path.write_text(json.dumps({**EXPERIMENT_BASE, "deviant_heuristics": []}))
        assert main(["experiment", "--config", str(path), "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["opt-welfare"]

    def test_integer_past_float_range_is_named(self, tmp_path, capsys):
        # a float key given a 401-digit integer used to escape as an OverflowError (exit 1)
        err = _refusal("gen", {**GEN_BASE, "bonus_fraction": 10**400}, tmp_path, capsys)
        assert "config key bonus_fraction: int too large to convert to float" in err

    def test_integral_number_reads_as_integer(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**GEN_BASE, "n": 8.0}))
        assert main(["gen", "--config", str(path), "--count", "0",
                     "--out", str(tmp_path / "out")]) == 0
        assert '"n":8,' in capsys.readouterr().err

    def test_retired_delta_is_noted_once(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**EXPERIMENT_BASE, "delta": 0.01}))
        assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "r.csv")]) == 0
        err = capsys.readouterr().err
        assert err.count("config key delta is retired and ignored") == 1

    def test_readme_lists_every_key_with_its_default(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        tables = [re.findall(r"^\| `(\w+)` \| (.+?) \|", block, re.M)
                  for block in readme.split("## File formats")[1].split("| key |")[1:3]]
        linear = SamplerConfig(refund=LinearAdditiveRefund(0.1))
        for rows, load, keys in (
            (tables[0], sampler_config_from_jsonable, sampler_config_to_jsonable(linear)),
            (tables[1], experiment_config_from_jsonable,
             experiment_config_to_jsonable(ExperimentConfig())),
        ):
            assert sorted(key for key, _ in rows) == sorted(keys)
            for key, default in rows:
                if default != "none":  # linear_slope has no default
                    assert load({key: json.loads(default.strip("`"))}) == load({})


ONE_AGENT = {"agents": [{"budget": 3.0, "valuations": [3.0, 1.0]}],
             "projects": [{"target": 2.0, "bonus": 0.5}, {"target": 0.5, "bonus": 0.5}],
             "refund": "ppr"}


class TestInputFileKeys:
    # each of these used to load, the stray key ignored or the string or
    # boolean read as a number (1.5, 1.0, 0.5), and the command exit 0
    @pytest.mark.parametrize("where, key, value, message", [
        (lambda data: data, "comment", 0.3, "unknown instance key comment"),
        (lambda data: data["agents"][0], "name", 0.3, "unknown instance key agents[0].name"),
        (lambda data: data["projects"][1], "budget", 0.3,
         "unknown instance key projects[1].budget"),
        (lambda data: data, "linear_slope", 0.3,
         "instance key linear_slope applies only to refund linear-additive"),
        (lambda data: data, "delta", 0.3, "unknown instance key delta"),
        (lambda data: data["agents"][0], "budget", "1.5",
         'instance key agents[0].budget must be a number, got "1.5"'),
        (lambda data: data["agents"][0]["valuations"], 1, True,
         "instance key agents[0].valuations[1] must be a number, got true"),
        (lambda data: data["projects"][0], "bonus", "0.5",
         'instance key projects[0].bonus must be a number, got "0.5"'),
    ], ids=["top-level", "agent", "project", "slope-under-ppr", "delta", "string-budget",
            "boolean-valuation", "string-bonus"])
    def test_instance_key_is_refused(self, where, key, value, message, tmp_path, capsys):
        data = copy.deepcopy(ONE_AGENT)
        where(data)[key] = value
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps(data))
        assert main(["solve-pstar", "--instance", str(inst)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "# " not in captured.err
        assert message in captured.err

    def test_clean_files_load(self, tmp_path):
        inst, others = tmp_path / "inst.json", tmp_path / "others.json"
        inst.write_text(json.dumps(ONE_AGENT))
        others.write_text(json.dumps({"contributions": [[0.0, 0.0]]}))
        assert main(["solve-pstar", "--instance", str(inst)]) == 0
        assert main(["best-response", "--instance", str(inst), "--agent", "0",
                     "--others", str(others), "--delta", "0.5"]) == 0

    def test_profile_value_must_be_a_number(self, tmp_path, capsys):
        inst, others = tmp_path / "inst.json", tmp_path / "others.json"
        inst.write_text(json.dumps(ONE_AGENT))
        others.write_text(json.dumps({"contributions": [[0.0, "0.5"]]}))
        assert main(["best-response", "--instance", str(inst), "--agent", "0",
                     "--others", str(others), "--delta", "0.5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert 'profile key contributions[0][1] must be a number, got "0.5"' in captured.err

    def test_assignment_must_be_a_list_of_names(self, tmp_path, capsys):
        inst, names = tmp_path / "inst.json", tmp_path / "names.json"
        inst.write_text(json.dumps(ONE_AGENT))
        for data, message in (({"agents": ["symmetric"]}, "assignment file must be a list"),
                              ([1], "assignment key [0] must be a string, got 1")):
            names.write_text(json.dumps(data))
            assert main(["play", "--instance", str(inst), "--assignment", str(names)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert message in captured.err

    @pytest.mark.parametrize("names", [["symmetric"], ["symmetric"] * 3],
                             ids=["too-few", "too-many"])
    def test_assignment_must_name_every_agent(self, names, tmp_path, capsys):
        # too few names used to exit 3 with a ValueError from intent_matrix
        data = copy.deepcopy(ONE_AGENT)
        data["agents"].append(copy.deepcopy(data["agents"][0]))
        inst, path = tmp_path / "inst.json", tmp_path / "names.json"
        inst.write_text(json.dumps(data))
        path.write_text(json.dumps(names))
        assert main(["play", "--instance", str(inst), "--assignment", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f"error: {path}: assignment names {len(names)} heuristics for 2 agents"
                in captured.err)

    @pytest.mark.parametrize("rows", [[[0.0, 0.0]] * 2, [[0.0]], [[0.0, 0.0, 0.0]]],
                             ids=["extra-agent", "missing-project", "extra-project"])
    def test_profile_must_match_the_instance(self, rows, tmp_path, capsys):
        # these used to exit 3 with a ValueError from make_view
        inst, others = tmp_path / "inst.json", tmp_path / "others.json"
        inst.write_text(json.dumps(ONE_AGENT))
        others.write_text(json.dumps({"contributions": rows}))
        assert main(["best-response", "--instance", str(inst), "--agent", "0",
                     "--others", str(others), "--delta", "0.5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        shape = (len(rows), len(rows[0]))
        assert (f"error: {others}: profile shape {shape} does not match the instance's (1, 2)"
                in captured.err)

    def test_others_over_budget_are_refused(self, tmp_path, capsys):
        # agent 0 spends 10 of its 3; this used to answer exit 0 as if it were
        # feasible play. The responding agent's own row stays ignored
        data = copy.deepcopy(ONE_AGENT)
        data["agents"].append({"budget": 1.0, "valuations": [3.0, 1.0]})
        inst, others = tmp_path / "inst.json", tmp_path / "others.json"
        inst.write_text(json.dumps(data))
        others.write_text(json.dumps({"contributions": [[5.0, 5.0], [0.0, 0.5]]}))
        argv = ["best-response", "--instance", str(inst), "--others", str(others),
                "--delta", "0.5"]
        assert main(argv + ["--agent", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {others}: agent 0 spends 10, exceeding its budget 3" in captured.err
        others.write_text(json.dumps({"contributions": [[1.0, 2.0], [9.0, 9.0]]}))
        assert main(argv + ["--agent", "1"]) == 0

    def test_profile_key_is_refused(self, tmp_path, capsys):
        inst, others = tmp_path / "inst.json", tmp_path / "others.json"
        inst.write_text(json.dumps(ONE_AGENT))
        others.write_text(json.dumps({"contributions": [[0.0, 0.0]], "agent": 0}))
        assert main(["best-response", "--instance", str(inst), "--agent", "0",
                     "--others", str(others), "--delta", "0.5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown profile key agent" in captured.err


def _ordered_pair(lo, hi):
    return st.lists(st.floats(lo, hi), min_size=2, max_size=2).map(lambda v: tuple(sorted(v)))


SAMPLERS = st.builds(
    SamplerConfig,
    n=st.integers(1, 500),
    p=st.integers(1, 30),
    valuation_dist=st.one_of(
        st.tuples(st.floats(0.0, 50.0), st.floats(0.001, 50.0)).map(
            lambda t: ValuationDist("uniform", lo=t[0], hi=t[0] + t[1])),
        st.floats(0.01, 10.0).map(lambda rate: ValuationDist("exponential", rate=rate)),
    ),
    target_fraction=_ordered_pair(0.01, 0.99),
    bonus_fraction=st.floats(0.01, 1.0),
    budget_rho=_ordered_pair(0.01, 0.99),
    refund=st.one_of(st.just(PprRefund()), st.floats(0.001, 5.0).map(LinearAdditiveRefund)),
    seed=st.integers(0, 2**96),
    max_rejections=st.integers(1, 10_000),
)
# deviant heuristics and include_control, drawn together: a config needs a cell
CELLS = st.tuples(
    st.lists(st.sampled_from([h for h in Heuristic if h is not Heuristic.OPT_WELFARE]),
             max_size=4, unique=True).map(tuple),
    st.booleans(),
).filter(lambda cells: cells[0] or cells[1])
EXPERIMENTS = st.builds(
    lambda cells, **fields: ExperimentConfig(
        deviant_heuristics=cells[0], include_control=cells[1], **fields),
    CELLS,
    sampler=SAMPLERS,
    alphas=st.sets(st.floats(0.01, 1.0), min_size=1, max_size=6).map(
        lambda alphas: tuple(sorted(alphas))),
    instances_per_cell=st.integers(1, 100_000),
    seed=st.integers(0, 2**96),
    play_order=st.sampled_from(PLAY_ORDERS),
    matched_baseline=st.booleans(),
)


class TestConfigRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(cfg=st.one_of(SAMPLERS, EXPERIMENTS))
    def test_dump_load_dump(self, cfg):
        if isinstance(cfg, SamplerConfig):
            dump, load = sampler_config_to_jsonable, sampler_config_from_jsonable
        else:
            dump, load = experiment_config_to_jsonable, experiment_config_from_jsonable
        text = dumps_canonical(dump(cfg))
        back = load(json.loads(text))
        assert back == cfg
        assert dumps_canonical(dump(back)) == text
