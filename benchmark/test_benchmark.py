"""Tests of the benchmark itself: determinism, the oracle and the statistics.

    python3 -m pytest benchmark -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads as wl

BENCH_DIR = Path(__file__).resolve().parent

# Prints a digest of everything a seed determines: the generated programs
# and the first cycles of every workload's op list.
_DIGEST = """
import hashlib, pathlib, sys, tempfile
sys.path.insert(0, {bench!r})
import workloads as wl
seed = int(sys.argv[1])
h = hashlib.sha256()
with tempfile.TemporaryDirectory() as d:
    for name in wl.WORKLOADS:
        prep = wl.prepare(name, seed, pathlib.Path(d) / name)
        for c in range(3):
            for op in prep.ops(c, seed):
                h.update(repr([a.replace(d, "W") for a in op.argv]).encode())
        for f in sorted((pathlib.Path(d) / name).glob("*")):
            h.update(f.name.encode() + f.read_bytes())
print(h.hexdigest())
"""


def _digest(seed: int, hashseed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    out = subprocess.run(
        [sys.executable, "-c", _DIGEST.format(bench=str(BENCH_DIR)), str(seed)],
        env=env, capture_output=True, text=True, check=True, timeout=120)
    return out.stdout.strip()


def test_same_seed_same_inputs_across_invocations():
    assert _digest(7, "1") == _digest(7, "2")


def test_different_seeds_differ():
    assert _digest(7, "1") != _digest(8, "1")


def test_generated_program_is_deterministic_and_sized():
    units = wl.corpus_units()
    text = wl.generate_program(3, units)
    assert text == wl.generate_program(3, units)
    assert text.count("(fun ") == 92 + len(wl.CHAIN_DEPTHS)
    assert text.count("(fun (@ tail_mod_cons) chain_") == len(wl.CHAIN_DEPTHS)
    assert text != wl.generate_program(4, units)


def test_lcg_list_matches_the_program_generator():
    # The oracle re-implements `list:<n>`; the program's generator must agree.
    sys.path.insert(0, str(wl.ROOT / "src"))
    from tmc_forge.gen import Lcg, gen_value

    lit = gen_value("list:50", Lcg(12345))
    values = []
    while lit.args:
        values.append(lit.args[0].n)
        lit = lit.args[1]
    assert values == wl.lcg_list(12345, 50)


def _run_large_outcome(entry: str, seed: int, golden: dict) -> wl.Outcome:
    value = wl.render_list([v + 1 for v in wl.lcg_list(seed, wl.RUN_SIZE)])
    counters = "".join(f"{k}={v}\n" for k, v in golden["run_large"][entry].items())
    return wl.Outcome(0, value + "\n" + counters, "")


def test_golden_check_accepts_the_expected_output():
    golden = wl.load_golden()
    op = wl.Op(("run",), "umap", 99)
    assert wl.check_op("run_large", op, _run_large_outcome("umap", 99, golden),
                       golden) is None


@pytest.mark.parametrize("counter", ["steps", "allocations", "dest_writes",
                                     "max_stack_depth", "effects"])
def test_golden_check_fails_on_a_tampered_counter(counter):
    golden = wl.load_golden()
    outcome = _run_large_outcome("map", 5, golden)
    good = f"{counter}={golden['run_large']['map'][counter]}\n"
    bad = f"{counter}={golden['run_large']['map'][counter] + 1}\n"
    tampered = wl.Outcome(0, outcome.stdout.replace(good, bad), "")
    reason = wl.check_op("run_large", wl.Op(("run",), "map", 5), tampered, golden)
    assert reason is not None and "golden" in reason


def test_golden_check_fails_on_a_wrong_value():
    golden = wl.load_golden()
    outcome = _run_large_outcome("map", 5, golden)
    wrong = wl.Outcome(0, outcome.stdout.replace("(Cons ", "(Cons 1", 1), "")
    assert wl.check_op("run_large", wl.Op(("run",), "map", 5), wrong, golden)


def test_invariants_hold_on_the_golden_and_catch_violations():
    golden = wl.load_golden()["run_large"]
    assert wl.check_invariants(golden) == []
    broken = json.loads(json.dumps(golden))
    broken["umap"]["max_stack_depth"] = 3
    broken["map"]["allocations"] += 1
    broken["umap"]["dest_writes"] = wl.RUN_SIZE
    assert len(wl.check_invariants(broken)) == 3


def test_diff_golden_divergences():
    golden = wl.load_golden()
    op = wl.Op(("diff",), "noisy_constr_args", 1)
    lines = ["entry=noisy trials=100 failures=0 trace_divergences=100"]
    lines += [f"TRACE-DIVERGENCE seed={i} position=0" for i in range(100)]
    ok = wl.Outcome(0, "\n".join(lines) + "\n", "")
    assert wl.check_op("diff_many", op, ok, golden) is None
    short = wl.Outcome(0, "\n".join(lines[:-1]) + "\n", "")
    assert wl.check_op("diff_many", op, short, golden) is not None


def test_probe_classification():
    want = "entry=map trials=1 failures=0 trace_divergences=0\n"
    assert wl.probe_passes(wl.Outcome(0, want, ""), want)
    assert not wl.probe_passes(wl.Outcome(0, "entry=map failures=1\n", ""), want)
    assert wl.probe_passes(wl.Outcome(1, "", "usage error: bad spec\n"), None)
    assert not wl.probe_passes(wl.Outcome(0, "", ""), None)
    assert not wl.probe_passes(wl.Outcome(None, "", "Traceback ...\nValueError\n"),
                               None)
    assert not wl.probe_passes(wl.Outcome(1, "", "Traceback (most recent call "
                                                 "last):\n  ...\nValueError: x\n"),
                               None)


@pytest.mark.parametrize("n", [21, 24, 100, 1000, 1234])
def test_tail_percentile_is_the_highest_with_ten_beyond(n):
    samples = [float(i) for i in range(n)][::-1]
    pct, value, beyond = run.tail_percentile(samples)
    xs = sorted(samples)
    assert beyond == 10 == sum(x > value for x in xs)
    # One step higher leaves fewer than ten beyond.
    k = xs.index(value)
    assert sum(x > xs[k + 1] for x in xs) < 10
    assert pct == pytest.approx(100.0 * (k + 1) / n)


def test_tail_percentile_examples():
    assert run.tail_percentile([float(i) for i in range(100)])[:2] == (90.0, 89.0)
    assert run.tail_percentile([float(i) for i in range(1000)])[:2] == (99.0, 989.0)


@pytest.mark.parametrize("n", [1, 3, 11, 16, 20])
def test_tail_percentile_is_never_below_the_median(n):
    samples = [float(i) for i in range(n)]
    pct, value, beyond = run.tail_percentile(samples)
    assert (pct, value) == (50.0, (n - 1) / 2)
    assert beyond == sum(x > value for x in samples)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
