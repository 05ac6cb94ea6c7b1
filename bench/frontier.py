"""Frontier record: the ROADMAP baseline inputs too slow to repeat.

    python3 bench/frontier.py

Each input runs once, through ``python3 -m dimdraw.cli`` in its own
subprocess, with ``--timeout 30`` for every k of the cover search and a
wall-clock budget of 120 s for the whole invocation.  The exit code, a
one-line verdict and the time are written to ``bench/frontier.json``.
Nothing is gated on these figures; they record where the program stands
on inputs the timed workloads cannot afford.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import subprocess
import sys
import time

from corpus import (Item, Workload, contranominal, crown, make_inputs, random_context,
                    write_inputs)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".bench_work", "frontier")
TIMEOUT_PER_K = 30
WALL_BUDGET_S = 120


def one_incident_cell(n: int) -> Item:
    rows = (frozenset({0}),) + (frozenset(),) * (n - 1)
    return Item(f"one-cell-{n}x{n}", "cxt", n, rows, 1, 0)


ROWS = (
    ("draw", contranominal(6)),
    ("draw", random_context(15, 15, 0.5, 4, None, 0)),
    ("draw", random_context(20, 12, 0.4, 5, None, 0)),
    ("dimension", random_context(20, 20, 0.3, 6, None, 0)),
    ("dimension", crown(24)),
    ("dimension", crown(40)),
    ("dimension", one_incident_cell(40)),
)


def _verdict(command: str, code: int | None, stdout: str, stderr: str,
             out_path: str) -> str:
    if code is None:
        return f"killed after the {WALL_BUDGET_S} s budget"
    if code == 0 and command == "draw":
        with open(out_path, encoding="utf-8") as handle:
            doc = json.load(handle)
        return f"drawn: dimension {doc['dimension']}, {doc['crossings']} crossings"
    if code == 0:
        return stdout.strip()
    lines = stderr.strip().splitlines()
    return lines[-1] if lines else f"exit {code} without a message"


def run_row(command: str, item: Item) -> dict:
    workload = Workload("frontier", command, (item,), TIMEOUT_PER_K, None)
    (inp,) = make_inputs(workload, 0)
    write_inputs([inp], WORK)
    in_path = os.path.join(WORK, inp.filename)
    out_path = os.path.join(WORK, item.id + ".out")
    args = [sys.executable, "-m", "dimdraw.cli", command, in_path, "-o", out_path,
            "--timeout", str(TIMEOUT_PER_K)]
    if command == "draw":
        args += ["--format", "json"]
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    start = time.perf_counter()
    try:
        proc = subprocess.run(args, capture_output=True, text=True, env=env,
                              timeout=WALL_BUDGET_S)
        code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired:
        code, stdout, stderr = None, "", ""
    seconds = time.perf_counter() - start
    row = {"input": item.id, "command": command, "exit": code,
           "verdict": _verdict(command, code, stdout, stderr, out_path),
           "seconds": round(seconds, 2)}
    print(json.dumps(row), file=sys.stderr)
    return row


def main() -> int:
    try:
        rows = [run_row(command, item) for command, item in ROWS]
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    record = {
        "note": "measured once each; not gated",
        "timeout_per_k_s": TIMEOUT_PER_K,
        "wall_budget_s": WALL_BUDGET_S,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "rows": rows,
    }
    with open(os.path.join(ROOT, "bench", "frontier.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
