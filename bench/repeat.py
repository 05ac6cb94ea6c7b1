"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/repeat.py --runs 10 [--workload NAME ...] [--first-seed 1]

Runs the command in ``BENCHMARK.json`` once per seed and workload, one
run at a time, and writes ``bench/results.json``.  For every end-to-end
metric it gives the median, the quartiles (``statistics.quantiles(values,
n=4)``) and the spread: the distance between the quartiles as a share of
the median.  A spread above a third of the metric's bound is flagged.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv: list[str] | None = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"run_seconds": spec["run_seconds"], "runs": args.runs,
               "seeds": [args.first_seed, args.first_seed + args.runs - 1],
               "cpus": os.cpu_count(), "workloads": {}}
    ok = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        attempted = failed = 0
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                spec["command"] + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        rows = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            steady = name == "setup_s" or spread < bounds[name] / 3
            ok = ok and steady
            rows[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bounds[name], "steady": steady, "values": vals}
            print(f"{workload:18} {name:12} median {median:10.4f} spread {spread:6.3f} "
                  f"bound {bounds[name]:.2f}{'' if steady else '  ABOVE A THIRD'}")
        summary["workloads"][workload] = {"attempted": attempted, "failed": failed,
                                          "metrics": rows}
        print(f"{workload:18} failed {failed}/{attempted}")
    with open(os.path.join(ROOT, "bench", "results.json"), "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2)
        handle.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
