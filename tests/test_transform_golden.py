"""`tmc-forge transform` on every corpus file and the fixture: stdout,
stderr and exit code, pinned in tests/goldens/transform.json.

Regenerate (only when a change of output is intended) with
`PYTHONPATH=src python3 tests/test_transform_golden.py --write`."""

import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from tmc_forge.cli import main

from conftest import CORPUS, FIXTURES, GOLDENS, ROOT

GOLDEN = GOLDENS / "transform.json"
# Paths relative to the repository root, which is also how they appear in
# the diagnostics.
FILES = sorted(str(f.relative_to(ROOT)) for f in CORPUS.glob("*.tmc")) + [
    str((FIXTURES / "broken_hole_map.tmc").relative_to(ROOT))]


def run_transform(name: str) -> dict:
    """Run from the repository root, without colour."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["transform", name])
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.setenv("TMC_FORGE_COLOR", "0")


def test_golden_covers_every_file():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(FILES)
    assert len(FILES) == 13


@pytest.mark.parametrize("name", FILES)
def test_transform_output(name):
    assert run_transform(name) == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python3 tests/test_transform_golden.py "
                 "--write")
    os.chdir(ROOT)
    os.environ["TMC_FORGE_COLOR"] = "0"
    GOLDEN.write_text(json.dumps({name: run_transform(name) for name in FILES},
                                 indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
