"""Tests of the benchmark's own checkers.

    python3 -m pytest bench/test_checks.py -q
"""

from __future__ import annotations

import json
import os
import sys

import pytest

import checks
from corpus import Workload, contranominal, make_inputs, write_inputs

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _run_cli(tmp_path, command, item, fmt=None):
    """The program's output for one item, with the raw context to check it on."""
    sys.path.insert(0, SRC)
    try:
        from dimdraw.cli import main
    finally:
        sys.path.remove(SRC)
    workload = Workload("test", command, (item,), 10.0, 6)
    (inp,) = make_inputs(workload, 0)
    write_inputs([inp], str(tmp_path))
    out = tmp_path / "out"
    args = [command, str(tmp_path / inp.filename), "-o", str(out)]
    if fmt:
        args += ["--format", fmt]
    assert main(args) == 0
    ctx = checks.RawContext(inp.objects, inp.attributes, item.rows)
    return ctx, out.read_text(encoding="utf-8")


@pytest.fixture
def certificate(tmp_path):
    item = contranominal(3)
    ctx, text = _run_cli(tmp_path, "dimension", item)
    return ctx, json.loads(text)


def _check(ctx, doc):
    return checks.check_certificate(ctx, "dimension: 3\n", json.dumps(doc), 3, 8)


def test_program_certificate_passes(certificate):
    ctx, doc = certificate
    assert _check(ctx, doc) == []


def test_certificate_with_a_dropped_cell_fails(certificate):
    ctx, doc = certificate
    doc["ferrers_parts"][0].pop()
    assert "union" in _check(ctx, doc)[0]


def test_certificate_with_a_non_ferrers_part_fails(certificate):
    # contranominal cells are the diagonal; two diagonal cells in one
    # part have incomparable rows, while the union stays the same
    ctx, doc = certificate
    doc["ferrers_parts"][0] = sorted(doc["ferrers_parts"][0] + doc["ferrers_parts"][1])
    assert "not Ferrers" in _check(ctx, doc)[0]


def test_certificate_with_a_wrong_realizer_fails(certificate):
    ctx, doc = certificate
    chain = doc["realizer"]["by_index"][0]
    chain[1], chain[2] = chain[2], chain[1]
    doc["realizer"]["by_index"][1] = list(chain)
    assert _check(ctx, doc)


def test_crossing_recount_matches_a_hand_count():
    points = [(0.0, 0.0), (2.0, 0.0), (0.0, 2.0), (2.0, 2.0), (1.0, 1.0),
              (1.0, 3.0), (0.5, 0.0), (1.5, 0.0)]
    edges = [(0, 3), (1, 2),  # the diagonals cross at (1, 1): 1
             (0, 1),          # shares an endpoint with both diagonals
             (4, 5),          # starts at that crossing point: not interior
             (2, 3),          # crossed by (4, 5) at (1, 2): 2
             (6, 7)]          # collinear with (0, 1), overlapping: not counted
    assert checks.count_crossings(points, edges) == 2


def test_json_drawing_with_a_wrong_crossing_count_fails(tmp_path):
    ctx, text = _run_cli(tmp_path, "draw", contranominal(4), "json")
    assert checks.check_drawing(ctx, "json", text, 4, 16) == []
    doc = json.loads(text)
    doc["crossings"] += 1
    assert "recount" in checks.check_drawing(ctx, "json", json.dumps(doc), 4, 16)[0]


def test_concepts_listing_with_an_unclosed_concept_fails(tmp_path):
    ctx, text = _run_cli(tmp_path, "concepts", contranominal(3))
    assert checks.check_concepts_listing(ctx, text, 8) == []
    lines = text.split("\n")
    lines[1] = lines[1].replace("{}", "{" + ctx.objects[0] + "}", 1)
    assert "not closed" in checks.check_concepts_listing(ctx, "\n".join(lines), 8)[0]


def test_malformed_certificate_fails_without_raising(certificate):
    ctx, doc = certificate
    del doc["realizer"]
    problems = checks.check_output(ctx, "dimension", None, "dimension: 3\n",
                                   json.dumps(doc), 3, 8)
    assert "malformed" in problems[0]
