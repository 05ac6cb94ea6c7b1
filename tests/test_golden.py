"""Golden artifacts: every file under ``tests/golden/`` is what ``main``
writes for one pinned input and command.

A refactor that keeps behaviour keeps these bytes.  A change that is
meant to alter an artifact regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and says why in its description.
"""

from __future__ import annotations

import os

import pytest

from dimdraw import write_cxt
from dimdraw.cli import main
from helpers import (contra_nominal, crown_context, life_cxt_text,
                     random_order_context, seeded_context)

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def _poset_edges(ctx) -> str:
    """The order of a poset context as its elements, then every strict
    ``a < b`` pair, for the ``poset-edges`` format."""
    names = ctx.objects
    lines = list(names)
    lines.extend(f"{names[a]} < {names[b]}" for a, b in sorted(ctx.incidence)
                 if a != b)
    return "\n".join(lines) + "\n"


def _inputs() -> dict[str, tuple[str, str]]:
    """Input name -> (file name, text)."""
    return {
        "life": ("life.cxt", life_cxt_text()),
        "contranominal4": ("cn4.cxt", write_cxt(contra_nominal(4))),
        "contranominal8": ("cn8.cxt", write_cxt(contra_nominal(8))),
        "seeded-7x7-s1": ("s1.cxt", write_cxt(seeded_context(7, 7, 0.5, 1))),
        "seeded-7x7-s9": ("s9.cxt", write_cxt(seeded_context(7, 7, 0.5, 9))),
        "crown12": ("crown12.cxt", write_cxt(crown_context(12))),
        "poset2d-16-s0": ("p16.poset",
                          _poset_edges(random_order_context(16, 2, 0))),
    }


# golden file -> (input name, CLI arguments after the input path)
CASES = {
    "life.svg": ("life", ["draw", "--format", "svg"]),
    "life.tikz": ("life", ["draw", "--format", "tikz"]),
    "life.json": ("life", ["draw", "--format", "json"]),
    "life.dimension.json": ("life", ["dimension"]),
    "life.realizer.json": ("life", ["realizer"]),
    "contranominal4.json": ("contranominal4", ["draw", "--format", "json"]),
    "seeded-7x7-s1.json": ("seeded-7x7-s1", ["draw", "--format", "json"]),
    "seeded-7x7-s9.json": ("seeded-7x7-s9", ["draw", "--format", "json"]),
    "crown12.dimension.json": ("crown12", ["dimension"]),
    "poset2d-16-s0.json": ("poset2d-16-s0", ["draw", "--format", "json"]),
    # 19 concepts, decoded bit by bit, and 256, decoded by byte tables
    "life.concepts.txt": ("life", ["concepts"]),
    "contranominal8.concepts.txt": ("contranominal8", ["concepts"]),
}


def _artifact(golden: str, directory: str) -> bytes:
    """Write the case's input to ``directory``, run ``main`` on it and
    return the bytes it writes to ``-o``."""
    input_name, args = CASES[golden]
    file_name, text = _inputs()[input_name]
    in_path = os.path.join(directory, file_name)
    out_path = os.path.join(directory, "out-" + golden)
    with open(in_path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
    command, *flags = args
    code = main([command, in_path, *flags, "-o", out_path])
    assert code == 0, f"{golden}: exit {code}"
    with open(out_path, "rb") as handle:
        return handle.read()


@pytest.mark.parametrize("golden", sorted(CASES))
def test_artifact_matches_golden_file(golden, tmp_path):
    with open(os.path.join(GOLDEN, golden), "rb") as handle:
        expected = handle.read()
    assert _artifact(golden, str(tmp_path)) == expected


if __name__ == "__main__":
    import tempfile

    os.makedirs(GOLDEN, exist_ok=True)
    with tempfile.TemporaryDirectory() as work:
        for name in sorted(CASES):
            data = _artifact(name, work)
            with open(os.path.join(GOLDEN, name), "wb") as handle:
                handle.write(data)
            print(f"wrote tests/golden/{name} ({len(data)} bytes)")
