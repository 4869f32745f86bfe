"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload all --seeds 1-10 --seconds 25

For every workload and metric: the median of the runs and the distance
between the first and third quartile (``statistics.quantiles(values,
n=4)``) as a share of that median — the figure ``BENCHMARK.json``'s
bounds are judged against.  Exits non-zero as soon as a run does (a
wrong verdict, a bad witness, a crash).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("mix-cold", "tiny-hot", "query-store")


def seeds_from(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def spread(workload: str, seeds: list[int], seconds: float, trace: int) -> int:
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for seed in seeds:
        completed = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=os.path.dirname(HERE),
            capture_output=True,
            text=True,
        )
        if completed.returncode != 0:
            print(completed.stdout[-2000:], completed.stderr[-4000:], file=sys.stderr)
            return completed.returncode
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        row = {name: m["value"] for name, m in result["metrics"].items()}
        units.update({name: m["unit"] for name, m in result["metrics"].items()})
        print(
            f"{workload} seed {seed}: "
            + " ".join(f"{k}={v:.4g}" for k, v in row.items()),
            flush=True,
        )
        for name, value in row.items():
            values.setdefault(name, []).append(value)
    print(f"{workload:12s} {'metric':28s} {'median':>12s} {'unit':6s} {'iqr/median':>10s}")
    for name, series in values.items():
        middle = statistics.median(series)
        if len(series) > 1:
            q1, _q2, q3 = statistics.quantiles(series, n=4)
            share = (q3 - q1) / middle if middle else float("nan")
        else:
            share = float("nan")
        print(f"{workload:12s} {name:28s} {middle:12.4f} {units[name]:6s} {share:10.4f}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, help="a workload, or 'all'")
    parser.add_argument("--seeds", default="1-5", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        code = spread(workload, seeds_from(args.seeds), args.seconds, args.trace)
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
