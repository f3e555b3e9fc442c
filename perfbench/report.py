"""Run every workload (or some) over a set of seeds and tabulate.

Run from the repository root::

    python3 perfbench/report.py --seeds 1097            # one run each
    python3 perfbench/report.py --seeds 1-10            # steadiness check
    python3 perfbench/report.py --seeds 1-5 --trace 1 --workloads cold-analyze

For each workload it prints every metric by name with its unit: the
median over the seeds and, with several seeds, the spread (the
distance between the first and third quartile as a share of the
median) next to the metric's bound from ``BENCHMARK.json``.  It also
prints the error rate against attempted ops and the cause of every
failed op.  Each run is one ``run.py`` process, started with the
command line ``BENCHMARK.json`` defines.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    lines = completed.stdout.strip().splitlines()
    failures = [line for line in lines if line.startswith("failed op:")]
    return json.loads(lines[-1]), failures


def spread(values: list[float]) -> float | None:
    median = statistics.median(values)
    if len(values) < 2 or not median:
        return None
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / median


def main(argv: list[str]) -> int:
    contract = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1097",
                        help="seeds, e.g. 1097 or 1-10 or 1,4,9 "
                        "(default 1097, the held-out seed)")
    parser.add_argument("--workloads", default=None,
                        help="comma-separated workloads (default: all)")
    parser.add_argument("--seconds", type=int,
                        default=contract["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    names = (
        args.workloads.split(",") if args.workloads
        else [w["name"] for w in contract["workloads"]]
    )
    bounds = {m["name"]: m.get("bound") for m in contract["end_to_end"]}
    status = 0
    for name in names:
        results = []
        failures: list[str] = []
        for seed in seeds:
            result, failed = run_once(name, seed, args.seconds, args.trace)
            results.append(result)
            failures.extend(f"seed {seed}: {line}" for line in failed)
        attempted = sum(r["attempted"] for r in results)
        failed_ops = sum(r["failed"] for r in results)
        print(f"{name}  ({len(seeds)} run(s), seeds {args.seeds}, "
              f"{args.seconds} s each)")
        for metric, entry in results[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in results]
            line = (f"  {metric:28s} {statistics.median(values):14.6g} "
                    f"{entry['unit']:6s}")
            width = spread(values)
            if width is not None:
                line += f" spread {width:6.3f}"
                if bounds.get(metric) is not None:
                    line += f" (bound {bounds[metric]})"
            print(line)
        print(f"  error_rate = {failed_ops}/{attempted} = "
              f"{failed_ops / max(attempted, 1):.6g}")
        for line in failures:
            print(f"  {line}")
        if failed_ops or not all(r["correct"] for r in results):
            status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
