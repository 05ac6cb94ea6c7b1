"""The CI workflow names only paths that exist.

``.github/workflows/tests.yml`` runs only on the hosted runners, so a
renamed test file or package directory would first show there.  Every
``run:`` step is split into words: the entries of a ``PYTHONPATH=``
assignment, each word that names a file (a ``/`` or a ``.py`` suffix),
and the directory of a ``pip install -e DIR[extra]`` must exist, and the
extra must be declared in ``pyproject.toml``.  The matrix's lowest
Python is the floor that ``requires-python`` declares, and the job's
token can only read the repository.
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


def _workflow() -> dict:
    yaml = pytest.importorskip("yaml")
    with open(os.path.join(ROOT, ".github", "workflows", "tests.yml"),
              encoding="utf-8") as handle:
        return yaml.safe_load(handle)


def _pyproject() -> str:
    with open(os.path.join(ROOT, "pyproject.toml"), encoding="utf-8") as handle:
        return handle.read()


def test_every_path_the_workflow_runs_exists():
    runs = [step["run"] for job in _workflow()["jobs"].values()
            for step in job["steps"] if "run" in step]
    paths, extras = _named(runs)
    assert "src" in paths and "tests/test_golden.py" in paths and extras == ["test"]
    assert [path for path in paths
            if not os.path.exists(os.path.join(ROOT, path))] == []
    pyproject = _pyproject()
    assert all(f"\n{extra} = [" in pyproject for extra in extras)


def test_the_matrix_starts_at_the_declared_python_floor():
    # the code needs 3.10 for int.bit_count and graphlib needs 3.9; a
    # floor below the lowest Python that CI runs would go untested
    floor = re.search(r'\nrequires-python = ">=(\d+)\.(\d+)"\n', _pyproject())
    versions = [tuple(map(int, str(v).split(".")))
                for v in _workflow()["jobs"]["tier1"]["strategy"]["matrix"]["python-version"]]
    assert floor is not None
    assert min(versions) == (int(floor[1]), int(floor[2])) == (3, 10)


def test_the_workflow_token_is_read_only():
    # the job only checks out the code and runs the tests
    assert _workflow()["permissions"] == {"contents": "read"}
