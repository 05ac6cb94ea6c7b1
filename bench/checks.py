"""Output checks that do not rely on dimdraw's own verification.

Everything here works from raw definitions on the cross table the
benchmark generated: closure under the two derivation operators, the
Ferrers condition "(g, m), (h, n) in F imply (g, n) or (h, m) in F", the
order of concepts as inclusion of their extents, and an exact
(rational) parametric segment-intersection test.  Nothing imports
dimdraw, so a defect in the program cannot hide in its checker.

Each ``check_*`` function returns a list of problems; an empty list
means the output is correct.
"""

from __future__ import annotations

import json
import re
import xml.etree.ElementTree as ET
from fractions import Fraction


class RawContext:
    """Objects, attributes and incidence rows, with both derivations."""

    def __init__(self, objects, attributes, rows):
        self.objects = tuple(objects)
        self.attributes = tuple(attributes)
        self.rows = tuple(frozenset(r) for r in rows)
        self.cols = tuple(frozenset(g for g, row in enumerate(self.rows) if m in row)
                          for m in range(len(self.attributes)))
        self.object_index = {name: g for g, name in enumerate(self.objects)}
        self.attribute_index = {name: m for m, name in enumerate(self.attributes)}

    def intent_of(self, extent) -> frozenset:
        """Attributes shared by every object of the extent."""
        common = set(range(len(self.attributes)))
        for g in extent:
            common &= self.rows[g]
        return frozenset(common)

    def extent_of(self, intent) -> frozenset:
        """Objects having every attribute of the intent."""
        common = set(range(len(self.objects)))
        for m in intent:
            common &= self.cols[m]
        return frozenset(common)

    def non_incident(self) -> set:
        return {(g, m) for g in range(len(self.objects))
                for m in range(len(self.attributes)) if m not in self.rows[g]}

    def all_extents(self) -> set:
        """Every concept extent: intersections of attribute extents, and G."""
        extents = {frozenset(range(len(self.objects)))}
        frontier = list(extents)
        while frontier:
            fresh = []
            for ext in frontier:
                for col in self.cols:
                    cut = ext & col
                    if cut not in extents:
                        extents.add(cut)
                        fresh.append(cut)
            frontier = fresh
        return extents


def cover_pairs(extents) -> set:
    """Pairs (i, j) with extents[i] strictly inside extents[j], nothing between."""
    n = len(extents)
    above = [{j for j in range(n) if extents[i] < extents[j]} for i in range(n)]
    return {(i, j) for i in range(n) for j in above[i]
            if not any(j in above[k] for k in above[i])}


def order_problems(extents, extensions) -> list[str]:
    """Whether the linear orders (bottom first) intersect to extent inclusion."""
    n = len(extents)
    for ext in extensions:
        if sorted(ext) != list(range(n)):
            return ["a realizer extension is not a permutation of the concepts"]
    ranks = [{c: r for r, c in enumerate(ext)} for ext in extensions]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            below_everywhere = all(rank[i] < rank[j] for rank in ranks)
            if below_everywhere != (extents[i] < extents[j]):
                return [f"realizer intersection disagrees with extent inclusion "
                        f"on concepts {i} and {j}"]
    return []


def _proper_crossing(p1, p2, q1, q2) -> bool:
    """Segments meet in one point interior to both (exact arithmetic)."""
    if (max(p1[0], p2[0]) < min(q1[0], q2[0]) or max(q1[0], q2[0]) < min(p1[0], p2[0])
            or max(p1[1], p2[1]) < min(q1[1], q2[1])
            or max(q1[1], q2[1]) < min(p1[1], p2[1])):
        return False
    rx, ry = p2[0] - p1[0], p2[1] - p1[1]
    sx, sy = q2[0] - q1[0], q2[1] - q1[1]
    denom = rx * sy - ry * sx
    if denom == 0:
        return False
    wx, wy = q1[0] - p1[0], q1[1] - p1[1]
    t = (wx * sy - wy * sx) / denom
    u = (wx * ry - wy * rx) / denom
    return 0 < t < 1 and 0 < u < 1


def count_crossings(points, edges) -> int:
    """Edge pairs without a shared endpoint that cross in their interiors."""
    exact = [(Fraction(x), Fraction(y)) for x, y in points]
    total = 0
    for i, (a, b) in enumerate(edges):
        for c, d in edges[i + 1:]:
            if len({a, b, c, d}) == 4 and _proper_crossing(
                    exact[a], exact[b], exact[c], exact[d]):
                total += 1
    return total


def _names_to_set(text: str, index: dict, what: str) -> frozenset:
    if not text:
        return frozenset()
    names = text.split(",")
    unknown = [name for name in names if name not in index]
    if unknown:
        raise ValueError(f"unknown {what} {unknown[0]!r}")
    return frozenset(index[name] for name in names)


def _closure_problem(ctx: RawContext, extent, intent) -> str | None:
    if ctx.intent_of(extent) != intent or ctx.extent_of(intent) != extent:
        return "a listed concept is not closed"
    return None


def check_concepts_listing(ctx: RawContext, text: str, n_expected: int) -> list[str]:
    lines = text.split("\n")
    if lines[-1] != "":
        return ["listing does not end with a newline"]
    header, body = lines[0], lines[1:-1]
    if header != f"concepts: {n_expected}":
        return [f"header {header!r}, expected 'concepts: {n_expected}'"]
    if len(body) != n_expected:
        return [f"{len(body)} concept lines, expected {n_expected}"]
    seen = set()
    for i, line in enumerate(body):
        m = re.fullmatch(r"(\d+)\t\{([^}]*)\}\t\{([^}]*)\}", line)
        if m is None or int(m.group(1)) != i:
            return [f"malformed concept line {i}: {line!r}"]
        try:
            extent = _names_to_set(m.group(2), ctx.object_index, "object")
            intent = _names_to_set(m.group(3), ctx.attribute_index, "attribute")
        except ValueError as exc:
            return [f"concept line {i}: {exc}"]
        problem = _closure_problem(ctx, extent, intent)
        if problem:
            return [f"concept line {i}: {problem}"]
        if extent in seen:
            return [f"concept line {i} repeats an extent"]
        seen.add(extent)
    return []


def check_certificate(ctx: RawContext, stdout: str, text: str,
                      d_expected: int, n_expected: int) -> list[str]:
    if stdout != f"dimension: {d_expected}\n":
        return [f"stdout {stdout!r}, expected 'dimension: {d_expected}'"]
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return [f"certificate is not JSON: {exc}"]
    if doc.get("dimension") != d_expected:
        return [f"certificate dimension {doc.get('dimension')}, expected {d_expected}"]
    parts = [{tuple(cell) for cell in part} for part in doc["ferrers_parts"]]
    if len(parts) != d_expected:
        return [f"{len(parts)} Ferrers parts for dimension {d_expected}"]
    n_g, n_m = len(ctx.objects), len(ctx.attributes)
    for p, part in enumerate(parts):
        if any(not (0 <= g < n_g and 0 <= m < n_m) for g, m in part):
            return [f"part {p} has a cell out of range"]
        if any(m in ctx.rows[g] for g, m in part):
            return [f"part {p} meets the incidence"]
        for g, m in part:
            for h, n in part:
                if (g, n) not in part and (h, m) not in part:
                    return [f"part {p} is not Ferrers: ({g}, {m}) and ({h}, {n})"]
    if set().union(*parts) != ctx.non_incident():
        return ["the parts' union is not exactly the non-incident cells"]

    by_index = doc["realizer"]["by_index"]
    by_intent = doc["realizer"]["by_intent"]
    if len(by_index) != d_expected or len(by_intent) != d_expected:
        return ["realizer size differs from the dimension"]
    intent_of_index: dict[int, frozenset] = {}
    for ext_idx, ext_int in zip(by_index, by_intent):
        if len(ext_idx) != len(ext_int):
            return ["realizer by_index and by_intent differ in length"]
        for c, names in zip(ext_idx, ext_int):
            intent = frozenset(ctx.attribute_index.get(name, -1) for name in names)
            if intent_of_index.setdefault(c, intent) != intent:
                return [f"concept {c} has two intents in the realizer"]
    if sorted(intent_of_index) != list(range(n_expected)):
        return [f"realizer lists {len(intent_of_index)} concepts, expected {n_expected}"]
    extents = []
    for c in range(n_expected):
        intent = intent_of_index[c]
        if -1 in intent:
            return [f"concept {c} names an unknown attribute"]
        extent = ctx.extent_of(intent)
        if ctx.intent_of(extent) != intent:
            return [f"concept {c} has an intent that is not closed"]
        extents.append(extent)
    if len(set(extents)) != n_expected:
        return ["the realizer lists a concept twice"]
    return order_problems(extents, by_index)


def _label_problems(ctx: RawContext, labels: list[str]) -> list[str]:
    names = [name for text in labels for name in text.split(", ")]
    expected = list(ctx.objects) + list(ctx.attributes)
    if sorted(names) != sorted(expected):
        return ["labels do not name every object and attribute exactly once"]
    return []


def check_drawing(ctx: RawContext, fmt: str, text: str,
                  d_expected: int, n_expected: int) -> list[str]:
    extents = list(ctx.all_extents())
    if len(extents) != n_expected:
        return [f"the context has {len(extents)} concepts, pinned {n_expected}"]
    if fmt == "json":
        return _check_json_drawing(ctx, text, d_expected, n_expected, set(extents))
    if fmt == "svg":
        try:
            root = ET.fromstring(text)
        except ET.ParseError as exc:
            return [f"SVG does not parse: {exc}"]
        ns = "{http://www.w3.org/2000/svg}"
        circles = root.findall(f".//{ns}circle")
        lines = root.findall(f".//{ns}line")
        labels = [el.text or "" for el in root.findall(f".//{ns}text")]
    elif fmt == "tikz":
        if not (text.startswith("\\documentclass") and text.endswith("\\end{document}\n")):
            return ["TikZ document is not standalone"]
        circles = re.findall(r"^  \\node\[circle", text, re.M)
        lines = re.findall(r"^  \\draw ", text, re.M)
        labels = re.findall(r"^  \\node\[(?:above left|below right),[^\n]*\{([^{}]*)\};$",
                            text, re.M)
    else:
        return [f"unknown drawing format {fmt!r}"]
    if len(circles) != n_expected:
        return [f"{len(circles)} nodes drawn, expected {n_expected}"]
    n_covers = len(cover_pairs(extents))
    if len(lines) != n_covers:
        return [f"{len(lines)} edges drawn, expected {n_covers} cover pairs"]
    return _label_problems(ctx, labels)


def _check_json_drawing(ctx, text, d_expected, n_expected, all_extents) -> list[str]:
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return [f"layout is not JSON: {exc}"]
    concepts = doc["concepts"]
    if len(concepts) != n_expected:
        return [f"{len(concepts)} concepts in the layout, expected {n_expected}"]
    extents = []
    for i, c in enumerate(concepts):
        if c["index"] != i:
            return [f"concept {i} has index {c['index']}"]
        try:
            extent = frozenset(ctx.object_index[name] for name in c["extent"])
            intent = frozenset(ctx.attribute_index[name] for name in c["intent"])
        except KeyError as exc:
            return [f"concept {i} names unknown {exc}"]
        problem = _closure_problem(ctx, extent, intent)
        if problem:
            return [f"concept {i}: {problem}"]
        extents.append(extent)
    if set(extents) != all_extents:
        return ["the layout does not list every concept exactly once"]
    edges = [tuple(e) for e in doc["edges"]]
    if set(edges) != cover_pairs(extents) or len(edges) != len(set(edges)):
        return ["the edges are not the cover pairs of the concept order"]
    points = [(c["x"], c["y"]) for c in concepts]
    if len(set(points)) != len(points):
        return ["two concepts share a point"]
    if any(points[lo][1] >= points[hi][1] for lo, hi in edges):
        return ["an edge does not point upward"]
    recount = count_crossings(points, edges)
    if recount != doc["crossings"]:
        return [f"layout reports {doc['crossings']} crossings, recount gives {recount}"]
    if doc["dimension"] != d_expected or len(doc["realizer"]) != d_expected:
        return [f"layout dimension {doc['dimension']}, expected {d_expected}"]
    problems = order_problems(extents, doc["realizer"])
    if problems:
        return problems
    index_of = {ext: i for i, ext in enumerate(extents)}
    for g, name in enumerate(ctx.objects):
        home = index_of[ctx.extent_of(ctx.rows[g])]
        if name not in concepts[home]["object_labels"]:
            return [f"object {name!r} is not labelled at its object concept"]
    for m, name in enumerate(ctx.attributes):
        home = index_of[ctx.cols[m]]
        if name not in concepts[home]["attribute_labels"]:
            return [f"attribute {name!r} is not labelled at its attribute concept"]
    return _label_problems(ctx, [name for c in concepts
                                 for name in c["object_labels"] + c["attribute_labels"]])


def check_output(ctx: RawContext, command: str, fmt: str | None, stdout: str,
                 artifact: str, d_expected: int | None, n_expected: int) -> list[str]:
    """Dispatch on the command that produced the output; a document that
    lacks a field or has one of the wrong type fails the check."""
    try:
        if command == "concepts":
            return check_concepts_listing(ctx, artifact, n_expected)
        if command == "dimension":
            return check_certificate(ctx, stdout, artifact, d_expected, n_expected)
        if stdout:
            return [f"draw wrote to stdout: {stdout[:80]!r}"]
        return check_drawing(ctx, fmt, artifact, d_expected, n_expected)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]
