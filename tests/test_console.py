"""The console entry point, run the way a user runs it: in a subprocess.

Each case runs the ``dimdraw`` that ``shutil.which`` finds on PATH, so
after ``pip install -e .`` these tests check the installed console
script.  With none on PATH they run ``python -m dimdraw.cli`` with
``src`` first on PYTHONPATH.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from dimdraw import write_cxt
from helpers import (contra_nominal, crown_context, random_order_context,
                     seeded_context)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
INSTALLED = shutil.which("dimdraw")
COMMAND = [INSTALLED] if INSTALLED else [sys.executable, "-m", "dimdraw.cli"]
# the commands run in a temporary directory, so each PYTHONPATH entry
# is made absolute where the tests run
PATHS = [os.path.abspath(entry) for entry in
         os.environ.get("PYTHONPATH", "").split(os.pathsep) if entry]
ENV = {**os.environ,
       "PYTHONPATH": os.pathsep.join(PATHS if INSTALLED else [SRC, *PATHS])}

# Crown C_6 has order dimension 3.  Random 20x20 .3 s6 has 5 and random
# 12x12 .2 s0 has 3, with k = 2 refuted by the two-colouring.  The order
# of the pairs ranked alike by two seeded random orders of 12 elements
# has 2.  Contranominal 5 (d = 5, repair moves 10 nodes) is drawn with
# 152 crossings; on more than one CPU its assignment search is split
# across forked children.  Random 60x30 .5 s2 lists 21,006 concepts.
INPUTS = {
    "crown6.cxt": write_cxt(crown_context(6)),
    "random20-s6.cxt": write_cxt(seeded_context(20, 20, 0.3, 6)),
    "poset2d.cxt": write_cxt(random_order_context(12, 2, 0)),
    "random12-s0.cxt": write_cxt(seeded_context(12, 12, 0.2, 0)),
    "contranominal5.cxt": write_cxt(contra_nominal(5)),
    "random60x30-s2.cxt": write_cxt(seeded_context(60, 30, 0.5, 2)),
    "cycle.poset": "a < b\nb < a\n",
    "self-pair.poset": "a < a\na < b\n",  # a self-pair is harmless
    # a lone carriage return ends a line in each input format
    "lone-cr.cxt": "B\n\n1\n1\ng\rh\nm\nX\n",
    "lone-cr.csv": "name,a\rb\ng,X\n",
    "lone-cr.poset": "a\r< b\n",
    "bom.cxt": "\ufeffB\n\n1\n1\ng\nm\nX\n",
    "no-bom.cxt": "B\n\n1\n1\ng\nm\nX\n",
    "bom.poset": "\ufeffa < b\n",
    "no-bom.poset": "a < b\n",
}


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    path = tmp_path_factory.mktemp("console")
    for name, text in INPUTS.items():
        (path / name).write_bytes(text.encode("utf-8"))
    return path


def dimdraw(work, *args):
    return subprocess.run([*COMMAND, *args], cwd=work, env=ENV, timeout=60,
                          capture_output=True, text=True)


ARTIFACTS = [
    ("crown6-certificate.json", ["dimension", "crown6.cxt"],
     "dimension: 3\n", {}),
    ("random20-s6-certificate.json",
     ["dimension", "random20-s6.cxt", "--timeout", "5"], "dimension: 5\n", {}),
    ("poset2d-certificate.json", ["dimension", "poset2d.cxt"],
     "dimension: 2\n", {}),
    ("poset2d-drawing.json", ["draw", "poset2d.cxt", "--format", "json"],
     "", {}),
    ("random12-s0-certificate.json",
     ["dimension", "random12-s0.cxt", "--timeout", "5"], "dimension: 3\n", {}),
    ("crown6-realizer.json", ["realizer", "crown6.cxt"], "", {}),
    ("crown6-drawing.json", ["draw", "crown6.cxt", "--format", "json"],
     "", {}),
    ("contranominal5-drawing.json",
     ["draw", "contranominal5.cxt", "--format", "json"], "", {"crossings": 152}),
    ("self-pair-certificate.json", ["dimension", "self-pair.poset"],
     "dimension: 1\n", {}),
]


@pytest.mark.parametrize("artifact, args, stdout, fields", ARTIFACTS,
                         ids=[case[0] for case in ARTIFACTS])
def test_json_artifact(work, artifact, args, stdout, fields):
    done = dimdraw(work, *args, "-o", artifact)
    assert (done.returncode, done.stdout, done.stderr) == (0, stdout, "")
    text = (work / artifact).read_text(encoding="utf-8")
    # the text that `python -m json.tool --indent 2` writes
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
    doc = json.loads(text)
    assert {key: doc[key] for key in fields} == fields


def test_large_listing_counts_every_concept(work):
    done = dimdraw(work, "concepts", "random60x30-s2.cxt", "-o", "listing.txt")
    assert (done.returncode, done.stderr) == (0, "")
    lines = (work / "listing.txt").read_text(encoding="utf-8").splitlines()
    assert (lines[0], len(lines)) == ("concepts: 21006", 21007)


@pytest.mark.parametrize("kind", ["cxt", "poset"])
def test_byte_order_mark_lists_the_same_concepts(work, kind):
    listings = []
    for name in (f"bom.{kind}", f"no-bom.{kind}"):
        done = dimdraw(work, "concepts", name, "-o", f"{name}.txt")
        assert (done.returncode, done.stderr) == (0, "")
        listings.append((work / f"{name}.txt").read_bytes())
    assert listings[0] == listings[1]


# stderr None: not checked
EXITS = [
    (["dimension", "cycle.poset"], 1,
     "dimdraw: error: cycle detected: a < b < a\n"),
    (["concepts", "lone-cr.cxt"], 1,
     "dimdraw: error: line 7: illegal character 'm' in row\n"),
    (["concepts", "lone-cr.csv"], 1,
     "dimdraw: error: line 2: ragged row: expected 2 cells, got 1\n"),
    (["concepts", "lone-cr.poset"], 1,
     "dimdraw: error: line 2: expected 'a < b' or a bare element name, "
     "got '< b'\n"),
    (["draw", "crown6.cxt", "--spread", "95"], 1, None),
    (["dimension", "crown6.cxt", "--max-k", "0"], 1, None),
    (["dimension", "crown6.cxt", "--timeout", "nan"], 1, None),
    (["dimension", "crown6.cxt", "--check-oracle"], 1, None),  # removed
    (["draw", "--help"], 0, None),
]


@pytest.mark.parametrize("args, code, stderr", EXITS,
                         ids=[" ".join(case[0]) for case in EXITS])
def test_exit_code_and_message(work, args, code, stderr):
    done = dimdraw(work, *args)
    assert done.returncode == code
    if stderr is not None:
        assert done.stderr == stderr


def test_closed_stdout_pipe_exits_0_quietly(work):
    # the read end is closed before the command starts, so writing the
    # answer fails with EPIPE: at once when unbuffered, else at the flush
    env = {k: v for k, v in ENV.items() if k != "PYTHONUNBUFFERED"}
    for unbuffered in ({}, {"PYTHONUNBUFFERED": "1"}):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [*COMMAND, "dimension", "crown6.cxt"], cwd=work,
                stdout=write_end, stderr=subprocess.PIPE, timeout=60,
                env={**env, **unbuffered})
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (0, b""), unbuffered
