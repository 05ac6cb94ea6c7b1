"""The traced pass: dimdraw's pipeline called stage by stage, with spans.

The benchmark measures every module from outside.  For each input the
traced pass calls the same public functions, in the same order, as the
CLI command would, and records one span per call: name, start, end,
parent span and input id.  Three calls made *inside* the program are
seen through wrappers that exist only while a traced pass runs:
``dimdraw.cli.poset_to_context`` (inside ``load_context``),
``dimdraw.dimension.ferrers_cover`` (one call per k tried by
``order_dimension``) and ``dimdraw.projection.project`` (one call per
assignment tried by ``best_assignment``).  Spans stay in memory; the
caller writes them out when the run ends.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from contextlib import contextmanager

MODULES = ("cli", "context", "lattice", "dimension", "embedding", "projection",
           "render")


class Tracer:
    """Spans of one traced pass, in start order."""

    def __init__(self):
        self.spans: list[dict] = []
        self.input_id: str | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        record = {"id": len(self.spans), "name": name, "input": self.input_id,
                  "parent": self._open[-1] if self._open else None,
                  "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()


def _program(name: str):
    return sys.modules[f"dimdraw.{name}"]


@contextmanager
def instrumented(tracer: Tracer):
    """Install the span-recording wrappers for the duration of a pass."""
    cli, dimension, projection = _program("cli"), _program("dimension"), _program("projection")
    originals = [(cli, "poset_to_context", cli.poset_to_context),
                 (dimension, "ferrers_cover", dimension.ferrers_cover),
                 (projection, "project", projection.project)]
    poset_to_context, ferrers_cover, project = (fn for _, _, fn in originals)

    def traced_poset_to_context(*args, **kwargs):
        with tracer.span("context.poset_to_context"):
            return poset_to_context(*args, **kwargs)

    def traced_ferrers_cover(ctx, k, *args, **kwargs):
        with tracer.span("dimension.ferrers_cover", k=k, outcome="raised") as record:
            cover = ferrers_cover(ctx, k, *args, **kwargs)
            record["outcome"] = "refuted" if cover is None else "witness"
            return cover

    def traced_project(*args, **kwargs):
        with tracer.span("projection.project"):
            return project(*args, **kwargs)

    cli.poset_to_context = traced_poset_to_context
    dimension.ferrers_cover = traced_ferrers_cover
    projection.project = traced_project
    try:
        yield
    finally:
        for module, attr, fn in originals:
            setattr(module, attr, fn)


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def traced_invocation(tracer: Tracer, command: str, input_id: str, in_path: str,
                      input_format: str, out_path: str, output_format: str | None,
                      timeout: float | None, max_k: int | None) -> tuple[str, dict]:
    """Run one input through the CLI's stages; return its stdout and facts.

    The artifact goes to ``out_path`` exactly as ``dimdraw <command> -o``
    would write it.  Facts are the counts the per-layer metrics need and
    the layout, whose crossings the caller recounts.
    """
    cli, lattice, dimension = _program("cli"), _program("lattice"), _program("dimension")
    embedding, projection, render = (_program("embedding"), _program("projection"),
                                     _program("render"))
    tracer.input_id = input_id
    facts: dict = {}
    stdout = ""
    with tracer.span(f"cli.{command}"):
        with tracer.span("context.load_context"):
            ctx = cli.load_context(in_path, input_format)
        with tracer.span("lattice.concepts"):
            lat = lattice.concepts(ctx)
        facts["concepts"] = lat.n
        facts["cover_edges"] = len(lat.covers)
        if command == "concepts":
            with tracer.span("render.emit"):
                # the listing is formatted inside the CLI's concepts command
                lines = [f"concepts: {lat.n}"]
                for i, c in enumerate(lat.concepts):
                    extent = ",".join(ctx.objects[g] for g in sorted(c.extent))
                    intent = ",".join(ctx.attributes[m] for m in sorted(c.intent))
                    lines.append(f"{i}\t{{{extent}}}\t{{{intent}}}")
                text = "\n".join(lines) + "\n"
                _write(out_path, text)
        else:
            facts["cells"] = ctx.n_objects * ctx.n_attributes - len(ctx.incidence)
            with tracer.span("dimension.order_dimension"):
                dim, cover = dimension.order_dimension(ctx, timeout_per_k=timeout,
                                                       max_k=max_k)
            facts["dim"] = dim
            with tracer.span("dimension.realizer_from_cover"):
                real = dimension.realizer_from_cover(ctx, lat, cover)
            if command == "dimension":
                with tracer.span("dimension.certificate_json"):
                    text = dimension.certificate_json(ctx, lat, dim, cover, real)
                stdout = f"dimension: {dim}\n"
                with tracer.span("render.emit"):
                    _write(out_path, text)
            else:
                with tracer.span("projection.default_frame"):
                    frame = projection.default_frame(dim, 45.0)
                with tracer.span("embedding.embed"):
                    emb = embedding.embed(lat, real)
                with tracer.span("projection.best_assignment"):
                    search = projection.best_assignment(emb, frame)
                with tracer.span("projection.normalize"):
                    normalized = projection.normalize(search.layout)
                with tracer.span("projection.repair_incidences"):
                    layout = projection.repair_incidences(normalized)
                with tracer.span("render.label"):
                    diagram = render.label(ctx, lat, layout, real)
                with tracer.span("render.emit"):
                    emitter = {"svg": render.to_svg, "tikz": render.to_tikz,
                               "json": render.to_json}[output_format]
                    text = emitter(diagram)
                    _write(out_path, text)
                facts["layout"] = layout
                facts["repair_moved"] = sum(
                    a[0] != b[0] for a, b in zip(normalized.points, layout.points))
    facts["bytes"] = len(text.encode("utf-8")) + len(stdout.encode("utf-8"))
    return stdout, facts


def concepts_alloc_peak(in_path: str, input_format: str) -> int:
    """Peak bytes traced by tracemalloc during one untimed ``concepts()`` call."""
    ctx = _program("cli").load_context(in_path, input_format)
    tracemalloc.start()
    try:
        _program("lattice").concepts(ctx)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per module: span durations minus the part their child spans cover."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += _duration(span)
    totals = dict.fromkeys(MODULES, 0.0)
    for span in spans:
        module = span["name"].split(".")[0]
        totals[module] += _duration(span) - child_time[span["id"]]
    return totals


def pass_metrics(spans: list[dict], facts: list[dict]) -> dict[str, float]:
    """Per-layer values of one traced pass, summed over its inputs."""
    def total(name, **match):
        return sum(_duration(s) for s in spans if s["name"] == name
                   and all(s.get(k) == v for k, v in match.items()))

    def count(name):
        return sum(1 for s in spans if s["name"] == name)

    def fact(key):
        return sum(f.get(key, 0) for f in facts)

    refute = total("dimension.ferrers_cover", outcome="refuted")
    witness = total("dimension.ferrers_cover", outcome="witness")
    metrics = {
        "projection.assign_s": total("projection.best_assignment"),
        "projection.project_calls": count("projection.project"),
        "projection.project_s": total("projection.project"),
        "projection.normalize_s": total("projection.normalize"),
        "projection.repair_s": total("projection.repair_incidences"),
        "projection.repair_moved": fact("repair_moved"),
        "projection.crossings": fact("crossings"),
        "dimension.refute_s": refute,
        "dimension.witness_s": witness,
        "dimension.refute_frac": refute / (refute + witness) if refute + witness else 0.0,
        "dimension.k_tried": count("dimension.ferrers_cover"),
        "dimension.cells": fact("cells"),
        "dimension.realizer_s": total("dimension.realizer_from_cover"),
        "dimension.certificate_s": total("dimension.certificate_json"),
        "embedding.embed_s": total("embedding.embed"),
        "lattice.concepts_s": total("lattice.concepts"),
        "lattice.concepts": fact("concepts"),
        "lattice.cover_edges": fact("cover_edges"),
        "context.parse_s": total("context.load_context"),
        "render.label_s": total("render.label"),
        "render.emit_s": total("render.emit"),
        "render.bytes": fact("bytes"),
    }
    for module, seconds in self_times(spans).items():
        metrics[f"{module}.self_s"] = seconds
    return metrics


def witness_problems(spans: list[dict], input_id: str, dim: int) -> list[str]:
    """The k that order_dimension chose must be its only witness call, and
    every refuted k must lie below it."""
    calls = [s for s in spans
             if s["name"] == "dimension.ferrers_cover" and s["input"] == input_id]
    witnesses = [s["k"] for s in calls if s["outcome"] == "witness"]
    if witnesses != [dim]:
        return [f"order_dimension chose {dim}, ferrers_cover witnessed {witnesses}"]
    if any(s["k"] >= dim for s in calls if s["outcome"] == "refuted"):
        return [f"a k at or above the chosen {dim} was refuted"]
    return []
