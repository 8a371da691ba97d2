"""`tmc-forge transform` on all 64 `transform_large` pool programs
(benchmark/workloads.generate_program): the sha256 of stdout and stderr,
and the exit code, pinned in tests/goldens/transform_pool.json.

Regenerate (only when a change of output is intended) with
`PYTHONPATH=src python3 tests/test_transform_pool_golden.py --write`."""

import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest

from tmc_forge.cli import main

from conftest import GOLDENS, ROOT

sys.path.insert(0, str(ROOT / "benchmark"))
from workloads import corpus_units, generate_program  # noqa: E402

GOLDEN = GOLDENS / "transform_pool.json"
INDICES = range(64)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_transform(index: int, units, workdir: str) -> dict:
    """Write pool program `index` to workdir as pool<index>.tmc, which is
    also how it appears in the diagnostics, and transform it from there."""
    name = f"pool{index}.tmc"
    with open(os.path.join(workdir, name), "w") as f:
        f.write(generate_program(index, units))
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["transform", name])
    finally:
        os.chdir(cwd)
    return {"exit": code, "stdout": digest(out.getvalue()),
            "stderr": digest(err.getvalue())}


@pytest.fixture(scope="module")
def units():
    return corpus_units()


@pytest.fixture(autouse=True)
def no_color(monkeypatch):
    monkeypatch.setenv("TMC_FORGE_COLOR", "0")


def test_golden_covers_the_sample():
    assert sorted(json.loads(GOLDEN.read_text()), key=int) == [
        str(i) for i in INDICES]


@pytest.mark.parametrize("index", INDICES)
def test_transform_pool_output(index, units, tmp_path):
    assert (run_transform(index, units, str(tmp_path))
            == json.loads(GOLDEN.read_text())[str(index)])


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python3 "
                 "tests/test_transform_pool_golden.py --write")
    os.environ["TMC_FORGE_COLOR"] = "0"
    all_units = corpus_units()
    with tempfile.TemporaryDirectory() as workdir:
        golden = {str(i): run_transform(i, all_units, workdir) for i in INDICES}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
