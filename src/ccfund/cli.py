"""Command-line entry point.

Subcommands: ``gen`` (sample instances), ``fixture`` (print a constructed
fixture with its certificate), ``solve-pstar`` (optimal subset), ``play``
(heuristic play-out), ``best-response`` (exact discretized best response),
``experiment`` (Monte-Carlo runs to CSV), and ``verify`` (run a fixture's
certificate checks). Exit codes: 0 success, 1 verification failure, 2 usage
error (bad flags, a missing or unusable file, or a file that is not a valid
instance, profile, config or assignment), 3 numeric or solver error.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import shutil
import sys

import numpy as np

from . import io
from .bestresponse import (
    best_response_bruteforce,
    best_response_exact,
    demonstrate_nonexistence,
    knapsack_form_oracle,
    make_view,
)
from .errors import InputError, SolverError
from .generators import (
    build_appendix_b,
    build_example1,
    build_example2,
    build_procedure1,
    build_theorem2_witness,
    sample_instance,
)
from .harness import FULL_SCALE_INSTANCES, run_experiment, run_workers
from .heuristics import HEURISTIC_NAMES, PLAY_ORDERS, Assignment, Heuristic, PlayOrder, play
from .model import evaluate
from .refunds import LINEAR_ADDITIVE_TAG, PPR_TAG, scheme_from_tag, thresholds
from .welfare import solve_pstar_bruteforce, solve_pstar_dp, welfare_of

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_SOLVER = 3


def _echo(kind: str, resolved: dict) -> None:
    print(f"# {kind}: {io.dumps_canonical(resolved)}", file=sys.stderr)


def _positive_float(text: str) -> float:
    """argparse type for grid steps and slopes: a positive finite float."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")
    return value


def _non_negative_int(text: str) -> int:
    """argparse type for counts and seeds: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {text!r}")
    return value


def _scheme_from_args(args):
    slope = args.linear_slope
    if slope is not None and args.refund != LINEAR_ADDITIVE_TAG:
        raise InputError(f"--linear-slope applies only to --refund {LINEAR_ADDITIVE_TAG}")
    if args.refund == LINEAR_ADDITIVE_TAG and slope is None:
        slope = 0.1
    return scheme_from_tag(args.refund, slope)


# -- subcommand handlers -------------------------------------------------------


def cmd_gen(args) -> int:
    cfg = io.load_sampler_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    _echo("gen", {"config": io.sampler_config_to_jsonable(cfg), "count": args.count})
    os.makedirs(args.out, exist_ok=True)
    for k in range(args.count):
        instance, solution = sample_instance(cfg, seed=(cfg.seed, k))
        io.save_instance(os.path.join(args.out, f"instance_{k:05d}.json"), instance)
        with open(
            os.path.join(args.out, f"instance_{k:05d}.solution.json"), "w", encoding="utf-8"
        ) as fh:
            fh.write(io.dumps_canonical(solution) + "\n")
    print(f"wrote {args.count} instances to {args.out}", file=sys.stderr)
    return EXIT_OK


# -- fixtures ------------------------------------------------------------------
# Each FIXTURES entry builds one fixture under a refund scheme and returns the
# instance, the certificate part of ``fixture``'s JSON and the (passed, text)
# lines that ``verify`` prints: a generator's certificate carries its own, and
# example1 and example2, which have no certificate, get theirs written here.


def _fields(obj, *names) -> dict:
    return {name: getattr(obj, name) for name in names}


def _certified(build, key: str, *names: str):
    """An entry for ``build``, whose certificate is shown under ``key`` by ``names``."""

    def fixture(scheme):
        instance, cert = build(scheme)
        return instance, {key: _fields(cert, *names)}, cert.checks

    return fixture


def _example1(scheme):
    instance = build_example1()
    optimum = solve_pstar_bruteforce(instance).subset
    w_first = welfare_of(instance, (0,))
    w_second = welfare_of(instance, (1,))
    shown = {"constrained_optimum": optimum, "welfare_first": w_first,
             "welfare_second": w_second}
    response = best_response_exact(make_view(instance, np.zeros_like(instance.valuations), 0),
                                   0.01)
    checks = [
        (optimum == (1,),
         f"only the second project is affordable: constrained optimum={optimum}"),
        (w_first > w_second,
         f"unconstrained welfare prefers the first project: {w_first:.6g} > {w_second:.6g}"),
        (bool(response.funded[1]) and abs(response.utility - 1.0) <= 1e-9,
         f"the budgeted agent funds the second project for utility {response.utility:.6g}"),
        (float(instance.budgets[1]) == 0.0, "the high-value agent has no budget to contribute"),
    ]
    return instance, {"certificate": shown}, checks


def _example2(scheme):
    instance = build_example2(scheme)
    report = demonstrate_nonexistence(instance, (0.1, 0.01, 0.001))
    shown = _fields(report, "epsilons", "deviation_utilities", "funded_utility",
                    "limit_utility", "gap", "strictly_increasing", "sup_attained")
    utilities = ", ".join(f"{u:.6g}" for u in report.deviation_utilities)
    checks = [
        (report.strictly_increasing,
         f"deviation utilities rise as the shaved amount shrinks: {utilities}"),
        (report.all_exceed_funded,
         f"every deviation beats completing the funding ({report.funded_utility:.6g})"),
        (report.gap > 0 and not report.sup_attained,
         f"supremum {report.limit_utility:.6g} is not attained (gap {report.gap:.6g})"),
    ]
    return instance, {"certificate": shown}, checks


# name -> (builder, whether it takes a refund scheme); example1 and appendixB
# are fixed proportional-refund games
FIXTURES = {
    "procedure1": (_certified(build_procedure1, "certificate", "threshold_11", "threshold_21",
                              "theta_21", "theta_22", "target_2", "on_path_utility",
                              "deviation_utility", "pstar", "all_pass"), True),
    "example1": (_example1, False),
    "example2": (_example2, True),
    "theorem2": (_certified(build_theorem2_witness, "certificate", "budget_surplus",
                            "poor_block_budget", "min_target", "subset_feasible_all",
                            "rich_block_threshold_capacity", "rich_block_required",
                            "all_pass"), True),
    "appendixB": (_certified(lambda _: build_appendix_b(), "report", "threshold_11",
                             "threshold_21", "remainder_after_11", "split_consistent", "pstar",
                             "welfare_first", "welfare_second", "expected_findings_hold"), False),
}


def _fixture(args):
    """The named fixture's builder and the scheme to build it under."""
    build, takes_scheme = FIXTURES[args.name]
    if not takes_scheme and args.refund != PPR_TAG:
        raise InputError(
            f"fixture {args.name!r} is a fixed proportional-refund game; "
            f"it does not take --refund {args.refund}"
        )
    return build, _scheme_from_args(args)


def cmd_fixture(args) -> int:
    build, scheme = _fixture(args)
    _echo("fixture", {"name": args.name, "refund": scheme.tag})
    instance, shown, _ = build(scheme)
    print(io.dumps_canonical({"instance": io.instance_to_jsonable(instance), **shown}))
    return EXIT_OK


def cmd_verify(args) -> int:
    build, scheme = _fixture(args)
    _echo("verify", {"fixture": args.name, "refund": scheme.tag})
    _, _, checks = build(scheme)
    for passed, text in checks:
        print(f"[{'PASS' if passed else 'FAIL'}] {text}")
    return EXIT_OK if all(passed for passed, _ in checks) else EXIT_VERIFY_FAILED


def cmd_solve_pstar(args) -> int:
    instance = io.load_instance(args.instance)
    _echo("solve-pstar",
          {"instance": args.instance, "resolution": args.resolution, "method": args.method})
    if args.method == "bruteforce":
        solution = solve_pstar_bruteforce(instance)
    else:
        solution = solve_pstar_dp(instance, resolution=args.resolution)
    print(io.dumps_canonical(solution))
    return EXIT_OK


def cmd_best_response(args) -> int:
    instance = io.load_instance(args.instance)
    if not 0 <= args.agent < instance.n_agents:
        raise InputError(f"--agent {args.agent} is out of range for {instance.n_agents} agents")
    profile = io.load_profile(args.others)
    if profile.contributions.shape != instance.valuations.shape:
        raise InputError(f"{args.others}: profile shape {profile.contributions.shape} does not "
                         f"match the instance's {instance.valuations.shape}")
    try:
        view = make_view(instance, profile, args.agent)
    except ValueError as exc:
        raise InputError(f"{args.others}: {exc}") from exc
    _echo(
        "best-response",
        {"instance": args.instance, "agent": args.agent, "delta": args.delta,
         "method": args.method},
    )
    if args.method == "bruteforce":
        response = best_response_bruteforce(view, args.delta)
    elif args.method == "knapsack":
        response = knapsack_form_oracle(view, args.delta)
    else:
        response = best_response_exact(view, args.delta)
    print(io.dumps_canonical(response))
    return EXIT_OK


def cmd_play(args) -> int:
    instance = io.load_instance(args.instance)
    if args.assignment is not None:
        assignment = io.load_assignment(args.assignment)
        if len(assignment.heuristics) != instance.n_agents:
            raise InputError(f"{args.assignment}: assignment names {len(assignment.heuristics)} "
                             f"heuristics for {instance.n_agents} agents")
    else:
        assignment = Assignment.uniform(Heuristic(args.heuristic), instance.n_agents)
    _echo(
        "play",
        {
            "instance": args.instance,
            "heuristics": [h.value for h in assignment.heuristics],
            "order": args.order,
            "seed": args.seed,
        },
    )
    solution = solve_pstar_bruteforce(instance)
    thr = thresholds(instance)
    order = PlayOrder(args.order, seed=args.seed)
    profile = play(instance, assignment, solution.subset, thr, order)
    outcome = evaluate(instance, profile)
    print(io.dumps_canonical({
        "contributions": profile.contributions,
        "funded": outcome.funded,
        "totals": outcome.totals,
        "agent_utilities": outcome.agent_utilities,
        "social_welfare": outcome.social_welfare,
        "pstar": solution.subset,
    }))
    return EXIT_OK


def cmd_experiment(args) -> int:
    cfg = io.load_experiment_config(args.config)
    shown = io.experiment_config_to_jsonable(cfg)  # as read: --full-scale changes only the run
    if args.full_scale:
        cfg = dataclasses.replace(cfg, instances_per_cell=FULL_SCALE_INSTANCES)
    workers = run_workers(cfg)
    _echo(
        "experiment",
        {
            "config": shown,
            "full_scale": args.full_scale,
            "workers": workers,
        },
    )
    # unusable paths exit 2 before the run; a failed run keeps an old report and leaves no new path
    made = None  # the outermost series directory this run makes
    if args.emit_series is not None:
        path = os.path.abspath(args.emit_series)
        while not os.path.exists(path):
            made, path = path, os.path.dirname(path)
        os.makedirs(args.emit_series, exist_ok=True)
    created = not os.path.exists(args.out)
    try:
        with open(args.out, "a", encoding="utf-8", newline="\n") as fh:
            report = run_experiment(cfg, workers=workers)
            fh.truncate(0)
            fh.write(report.to_csv_text())
    except BaseException:
        if created and os.path.isfile(args.out):
            os.remove(args.out)
        if made is not None:
            shutil.rmtree(made)
        raise
    if args.emit_series is not None:
        written = report.write_series(args.emit_series)
        print(f"wrote {len(written)} series files to {args.emit_series}", file=sys.stderr)
    print(f"wrote report to {args.out} (seed {report.seed})", file=sys.stderr)
    return EXIT_OK


# -- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccfund",
        description="Combinatorial civic crowdfunding: solvers, play-outs and experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="sample instances to a directory")
    gen.add_argument("--config", required=True, help="sampler config JSON")
    gen.add_argument("--count", type=_non_negative_int, required=True)
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--seed", type=_non_negative_int, help="override the config seed")
    gen.set_defaults(func=cmd_gen)

    # the refund options shared by ``fixture`` and ``verify``
    refund = argparse.ArgumentParser(add_help=False)
    refund.add_argument("--refund", choices=(PPR_TAG, LINEAR_ADDITIVE_TAG), default=PPR_TAG)
    refund.add_argument("--linear-slope", type=_positive_float, default=None)

    fixture = sub.add_parser(
        "fixture", parents=[refund], help="print a constructed fixture as JSON"
    )
    fixture.add_argument("--name", required=True, choices=FIXTURES)
    fixture.set_defaults(func=cmd_fixture)

    solve = sub.add_parser("solve-pstar", help="welfare-optimal subset")
    solve.add_argument("--instance", required=True)
    solve.add_argument("--resolution", type=_positive_float, default=0.01)
    solve.add_argument("--method", choices=("dp", "bruteforce"), default="dp")
    solve.set_defaults(func=cmd_solve_pstar)

    br = sub.add_parser("best-response", help="exact discretized best response")
    br.add_argument("--instance", required=True)
    br.add_argument("--agent", type=int, required=True)
    br.add_argument("--others", required=True, help="profile JSON; the agent's row is ignored")
    br.add_argument("--delta", type=_positive_float, default=0.01)
    br.add_argument("--method", choices=("exact", "bruteforce", "knapsack"), default="exact")
    br.set_defaults(func=cmd_best_response)

    play_cmd = sub.add_parser("play", help="heuristic play-out")
    play_cmd.add_argument("--instance", required=True)
    group = play_cmd.add_mutually_exclusive_group(required=True)
    group.add_argument("--heuristic", choices=HEURISTIC_NAMES)
    group.add_argument("--assignment", help="JSON list with one heuristic name per agent")
    play_cmd.add_argument("--order", choices=PLAY_ORDERS, default="ascending")
    play_cmd.add_argument("--seed", type=_non_negative_int, default=0)
    play_cmd.set_defaults(func=cmd_play)

    exp = sub.add_parser("experiment", help="Monte-Carlo experiment to CSV")
    exp.add_argument("--config", required=True, help="experiment config JSON")
    exp.add_argument("--out", required=True, help="CSV report path")
    exp.add_argument("--full-scale", action="store_true")
    exp.add_argument("--emit-series", default=None, help="directory for plot-ready JSON")
    exp.set_defaults(func=cmd_experiment)

    verify = sub.add_parser("verify", parents=[refund], help="run a fixture's certificate checks")
    verify.add_argument("name", choices=FIXTURES)
    verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, SolverError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
