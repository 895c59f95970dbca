#!/usr/bin/env python3
"""Measures how steady the store-path benchmark is.

    python3 storebench/steady.py [--runs 10] [--sets 1] [--seconds 10]
                                 [--workloads kv_closed,log_contended]
                                 [--first-seed 1]

Run it from the root of the repository. For each workload it makes `--sets`
sets of `--runs` untraced runs, each run with its own seed, and prints one
JSON record per set, workload and end-to-end metric: the median, the first
and third quartiles as `statistics.quantiles(values, n=4)` gives them, the
spread (third minus first quartile, as a share of the median) beside the
metric's bound in BENCHMARK.json, with the commit, the core count and the
run count. With two or more sets it also prints, per metric, how far each
set's median moved from the first set's, in the metric's worse direction.
Exits 1 if a run fails or reports `correct: false`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def commit_id() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def one_run(workload: str, seed: int, seconds: int) -> dict:
    out = subprocess.run(
        [
            sys.executable,
            os.path.join(HERE, "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "0",
        ],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        check=False,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit code {out.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: outputs failed their checks")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    header = {
        "commit": commit_id(),
        "cores": os.cpu_count(),
        "runs": args.runs,
        "seconds": seconds,
    }

    seed = args.first_seed
    for workload in workloads:
        medians = []
        for set_ix in range(args.sets):
            values = {name: [] for name in metrics}
            failed_share = set()
            for _ in range(args.runs):
                try:
                    result = one_run(workload, seed, seconds)
                except RuntimeError as e:
                    print(f"steady: {e}", file=sys.stderr)
                    return 1
                seed += 1
                failed_share.add(result["failed"] / result["attempted"])
                for name in metrics:
                    values[name].append(result["metrics"][name]["value"])
            set_medians = {}
            for name, vals in values.items():
                q1, med, q3 = statistics.quantiles(vals, n=4)
                set_medians[name] = med
                record = dict(header, workload=workload, set=set_ix, metric=name,
                              unit=metrics[name]["unit"], median=med, q1=q1, q3=q3,
                              spread=(q3 - q1) / med, bound=metrics[name]["bound"],
                              failed_shares=sorted(failed_share))
                print(json.dumps(record), flush=True)
            medians.append(set_medians)
        for set_ix in range(1, len(medians)):
            for name, m in metrics.items():
                first, later = medians[0][name], medians[set_ix][name]
                worse = (later - first) / first if m["better"] == "lower" else (first - later) / first
                print(json.dumps(dict(header, workload=workload, set=set_ix, metric=name,
                                      worse_than_first=worse, bound=m["bound"])), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
