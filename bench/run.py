"""dimdraw benchmark: one workload, run through ``dimdraw.cli.main`` in-process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/`` directory, and nothing is installed.  Whole passes over the
corpus run until ``--seconds`` have elapsed, one process and no threads.
Set-up (a fresh import of dimdraw plus writing the seeded corpus, see
``corpus.py``) is timed three times before the first pass and once more
before each later one.  Every invocation gets the
workload's ``--timeout``, so a search that blows up shows as a counted
exit 2.  Outputs are checked outside the timed region by ``checks.py``;
an invocation fails when it exits nonzero, raises, writes output that
fails a check, or writes other bytes than on the first pass.

With ``--trace 0`` the result holds the end-to-end metrics.  With
``--trace 1`` untraced and traced passes alternate (see ``tracing.py``):
the result holds the per-layer metrics, the traced artifacts must be
byte-identical to the CLI's, and the spans are written to
``.bench_work/spans-<workload>-s<seed>.json``.  The last line of stdout
is the JSON result; a readable summary goes to stderr.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import checks
import tracing
from corpus import WORKLOADS, make_inputs, write_inputs

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_REPEATS = 3


def import_program():
    """Import dimdraw afresh from this checkout, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "dimdraw" or n.startswith("dimdraw.")]:
        del sys.modules[name]
    return importlib.import_module("dimdraw.cli")


class Run:
    """State of one benchmark run: inputs, reference outputs, failures."""

    def __init__(self, workload, seed: int, directory: str):
        self.workload = workload
        self.seed = seed
        self.directory = directory
        self.setup_times: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.reference: dict[str, tuple[str, bytes]] = {}
        self.json_crossings = 0

    def set_up(self) -> None:
        start = time.perf_counter()
        self.cli = import_program()
        self.inputs = make_inputs(self.workload, self.seed)
        write_inputs(self.inputs, self.directory)
        self.setup_times.append(time.perf_counter() - start)
        self.contexts = {inp.item.id: checks.RawContext(inp.objects, inp.attributes,
                                                        inp.item.rows)
                         for inp in self.inputs}

    def paths(self, inp, suffix: str = "") -> tuple[str, str]:
        return (os.path.join(self.directory, inp.filename),
                os.path.join(self.directory, f"{inp.item.id}.out{suffix}"))

    def cli_args(self, inp) -> list[str]:
        in_path, out_path = self.paths(inp)
        args = [self.workload.command, in_path, "-o", out_path]
        if inp.output_format:
            args += ["--format", inp.output_format]
        if self.workload.timeout is not None:
            args += ["--timeout", str(self.workload.timeout),
                     "--max-k", str(self.workload.max_k)]
        return args

    def fail(self, inp, problem: str) -> None:
        self.failures.append(f"{inp.item.id}: {problem}")

    def _clear_outputs(self, suffix: str = "") -> None:
        for inp in self.inputs:
            out_path = self.paths(inp, suffix)[1]
            if os.path.exists(out_path):
                os.remove(out_path)

    def _read(self, inp, suffix: str = "") -> bytes | None:
        out_path = self.paths(inp, suffix)[1]
        if not os.path.exists(out_path):
            return None
        with open(out_path, "rb") as handle:
            return handle.read()

    def untraced_pass(self) -> tuple[float, list[float]]:
        """One pass through ``cli.main``; returns its wall time and the
        time of each invocation."""
        self._clear_outputs()
        argv = [self.cli_args(inp) for inp in self.inputs]
        gc.collect()
        results = []
        start = time.perf_counter()
        for args in argv:
            out, err = io.StringIO(), io.StringIO()
            began = time.perf_counter()
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    code = self.cli.main(args)
                raised = None
            except Exception as exc:  # a raising invocation is a counted failure
                code, raised = None, f"{type(exc).__name__}: {exc}"
            results.append((time.perf_counter() - began, code, out.getvalue(),
                            err.getvalue(), raised))
        wall = time.perf_counter() - start

        for inp, (_, code, stdout, stderr, raised) in zip(self.inputs, results):
            self.attempted += 1
            if raised or code != 0:
                self.fail(inp, raised or f"exit {code}: {stderr.strip()[:200]}")
                continue
            self._check(inp, stdout, self._read(inp))
        return wall, [r[0] for r in results]

    def _check(self, inp, stdout: str, artifact: bytes | None) -> None:
        if artifact is None:
            self.fail(inp, "no artifact written")
            return
        reference = self.reference.get(inp.item.id)
        if reference is not None:
            if reference != (stdout, artifact):
                self.fail(inp, "output differs from the first pass")
            return
        problems = checks.check_output(
            self.contexts[inp.item.id], self.workload.command, inp.output_format, stdout,
            artifact.decode("utf-8", errors="replace"), inp.item.dim,
            inp.item.n_concepts)
        if problems:
            self.fail(inp, problems[0])
            return
        self.reference[inp.item.id] = (stdout, artifact)
        if inp.output_format == "json":
            self.json_crossings += json.loads(artifact)["crossings"]

    def traced_pass(self, tracer: tracing.Tracer) -> tuple[float, list[dict]]:
        """One traced pass; returns its wall time and the facts per input."""
        self._clear_outputs(".traced")
        gc.collect()
        outcomes = []
        start = time.perf_counter()
        with tracing.instrumented(tracer):
            for inp in self.inputs:
                in_path, out_path = self.paths(inp, ".traced")
                try:
                    stdout, facts = tracing.traced_invocation(
                        tracer, self.workload.command, inp.item.id, in_path,
                        inp.item.file_format, out_path,
                        inp.output_format, self.workload.timeout, self.workload.max_k)
                    outcomes.append((stdout, facts, None))
                except Exception as exc:  # a raising invocation is a counted failure
                    outcomes.append(("", {}, f"{type(exc).__name__}: {exc}"))
        wall = time.perf_counter() - start

        facts_list = []
        for inp, (stdout, facts, raised) in zip(self.inputs, outcomes):
            self.attempted += 1
            if raised:
                self.fail(inp, f"traced: {raised}")
                continue
            problems = self._traced_problems(tracer, inp, stdout, facts)
            if problems:
                self.fail(inp, "traced: " + problems[0])
            facts_list.append(facts)
        return wall, facts_list

    def _traced_problems(self, tracer, inp, stdout: str, facts: dict) -> list[str]:
        reference = self.reference.get(inp.item.id)
        if reference is None:
            return ["no checked CLI output to compare with"]
        if reference != (stdout, self._read(inp, ".traced")):
            return ["artifact differs from the CLI's"]
        if "dim" in facts:
            problems = tracing.witness_problems(tracer.spans, inp.item.id, facts["dim"])
            if problems:
                return problems
        layout = facts.pop("layout", None)
        if layout is not None:
            facts["crossings"] = checks.count_crossings(layout.points, layout.edges)
            if facts["crossings"] != layout.crossings:
                return [f"Layout.crossings is {layout.crossings}, "
                        f"recount gives {facts['crossings']}"]
        return []

    def alloc_peak_mb(self) -> float:
        """tracemalloc peak of ``concepts()`` on the input with the most concepts.

        Lattice memory grows with the square of the concept count, so that
        input holds the workload's peak; tracing every allocation slows
        the call about twentyfold, so the others are not repeated.
        """
        inp = max(self.inputs, key=lambda i: i.item.n_concepts)
        return tracing.concepts_alloc_peak(
            self.paths(inp)[0], inp.item.file_format) / 2 ** 20


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"median {values[0]:.4f} (n=1)"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median {q2:.4f} q1 {q1:.4f} q3 {q3:.4f} (n={len(values)})"


def measure(run: Run, seconds: float, trace: bool) -> dict:
    """Run passes until ``seconds`` have elapsed; return the metric values."""
    walls, input_times, traced_walls, per_pass, spans = [], [], [], [], []
    start = time.perf_counter()
    while True:
        if walls:
            # set-ups spread over the run sample the machine as the passes do
            run.set_up()
        began = time.perf_counter()
        wall, times = run.untraced_pass()
        walls.append(wall)
        input_times.append(times)
        if trace:
            tracer = tracing.Tracer()
            wall, facts = run.traced_pass(tracer)
            traced_walls.append(wall)
            per_pass.append(tracing.pass_metrics(tracer.spans, facts))
            spans.append(tracer.spans)
        # stop before a pass that would end past the measuring window
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            break

    print(f"{run.workload.name} seed {run.seed}: {len(walls)} untraced passes, "
          f"wall_s {_quartiles(walls)}; failed {len(run.failures)}/{run.attempted} "
          f"(failed_frac {len(run.failures) / run.attempted:.4f}); crossings in "
          f"JSON drawings {run.json_crossings}", file=sys.stderr)
    os.makedirs(WORK, exist_ok=True)
    stem = f"{run.workload.name}-s{run.seed}"
    with open(os.path.join(WORK, f"passes-{stem}.json"), "w", encoding="utf-8") as handle:
        json.dump({"inputs": [inp.item.id for inp in run.inputs], "walls": walls,
                   "input_times": input_times, "setup": run.setup_times}, handle)
    if not trace:
        return {
            "wall_s": (statistics.median(walls), "s"),
            "max_input_s": (statistics.median(max(t) for t in input_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (statistics.median(run.setup_times), "s"),
        }

    with open(os.path.join(WORK, f"spans-{stem}.json"), "w",
              encoding="utf-8") as handle:
        json.dump([{"pass": p, **s} for p, pass_spans in enumerate(spans)
                   for s in pass_spans], handle)
    metrics = {name: (statistics.median(p[name] for p in per_pass), _unit(name))
               for name in per_pass[0]}
    metrics["lattice.alloc_peak_mb"] = (run.alloc_peak_mb(), "MB")
    metrics["trace.wall_s"] = (statistics.median(traced_walls), "s")
    metrics["trace.overhead_s"] = (statistics.median(traced_walls) - statistics.median(walls), "s")
    print(f"traced wall_s {_quartiles(traced_walls)}", file=sys.stderr)
    return metrics


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name == "render.bytes":
        return "bytes"
    return "count"


def _declared_metrics(trace: bool) -> dict[str, str] | None:
    """Names and units BENCHMARK.json declares for this mode, if it is there."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "dimdraw", "cli.py")):
        print(f"bench: no dimdraw sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    run = Run(WORKLOADS[args.workload], args.seed,
              os.path.join(WORK, f"{args.workload}-s{args.seed}-p{os.getpid()}"))
    try:
        for _ in range(SETUP_REPEATS):
            run.set_up()
        if not os.path.abspath(run.cli.__file__).startswith(SRC + os.sep):
            print(f"bench: dimdraw imported from {run.cli.__file__}, not {SRC}",
                  file=sys.stderr)
            return 2
        metrics = measure(run, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(run.directory, ignore_errors=True)

    for problem in run.failures[:10]:
        print(f"FAILED {problem}", file=sys.stderr)
    declared = _declared_metrics(bool(args.trace))
    reported = {name: unit for name, (_, unit) in metrics.items()}
    if declared is not None and reported != declared:
        print(f"bench: metrics {sorted(reported.items())} differ from BENCHMARK.json "
              f"{sorted(declared.items())}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
