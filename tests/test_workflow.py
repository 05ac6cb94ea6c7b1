"""The CI workflow names only paths that exist.

``.github/workflows/tests.yml`` runs only on the hosted runners, so a
renamed test file or package directory would first show there.  Every
``run:`` step is split into words: the entries of a ``PYTHONPATH=``
assignment, each word that names a file (a ``/`` or a ``.py`` suffix),
and the directory of a ``pip install -e DIR[extra]`` must exist, and the
extra must be declared in ``pyproject.toml``.
"""

import os
import re
import shlex

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _named(runs) -> tuple[list[str], list[str]]:
    """The paths and the pip extras that the ``run:`` steps name."""
    paths, extras = [], []
    for word in (word for run in runs for word in shlex.split(run)):
        if word.startswith("PYTHONPATH="):
            # drop the ${PYTHONPATH:+...} suffix that keeps the caller's entries
            paths += word.split("=", 1)[1].split("$", 1)[0].split(":")
        elif match := re.fullmatch(r"(.+)\[(\w+)\]", word):
            paths.append(match[1])
            extras.append(match[2])
        elif "/" in word or word.endswith(".py"):
            paths.append(word)
    return [path for path in paths if path], extras


def test_every_path_the_workflow_runs_exists():
    yaml = pytest.importorskip("yaml")
    with open(os.path.join(ROOT, ".github", "workflows", "tests.yml"),
              encoding="utf-8") as handle:
        workflow = yaml.safe_load(handle)
    runs = [step["run"] for job in workflow["jobs"].values()
            for step in job["steps"] if "run" in step]
    paths, extras = _named(runs)
    assert "src" in paths and "tests/test_golden.py" in paths and extras == ["test"]
    assert [path for path in paths
            if not os.path.exists(os.path.join(ROOT, path))] == []
    with open(os.path.join(ROOT, "pyproject.toml"), encoding="utf-8") as handle:
        pyproject = handle.read()
    assert all(f"\n{extra} = [" in pyproject for extra in extras)
