#!/usr/bin/env python3
"""Capture the experiment workload's CSV digests with one worker.

Run from the repository root:

    python3 benchmark/make_golden.py [--size full|tiny] [--workload NAME]

Each pool entry is the SHA-256 of ``run_experiment(...).to_csv_text()`` for
the workload's chunk config with that seed, computed with one worker.
Regenerate only when a change is meant to alter report bytes; the experiment
workloads check every chunk against this file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
os.environ["CCFUND_THREADS"] = "1"

from ccfund.harness import run_experiment  # noqa: E402

from workloads import GOLDEN_PATH, SIZES, csv_digest, experiment_config  # noqa: E402

EXPERIMENTS = ("experiment", "experiment-2w")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--workload", choices=EXPERIMENTS, action="append")
    args = parser.parse_args()
    golden = {}
    if GOLDEN_PATH.exists():
        golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    for workload in args.workload or EXPERIMENTS:
        pool = SIZES[args.size][workload]["pool"]
        digests = [
            csv_digest(run_experiment(experiment_config(args.size, workload, k)).to_csv_text())
            for k in range(pool)
        ]
        golden.setdefault(args.size, {})[workload] = digests
        print(f"{len(digests)} digests for {workload} ({args.size})")
    GOLDEN_PATH.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
