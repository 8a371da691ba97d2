#!/usr/bin/env python3
"""Layered benchmark for tmc-forge.

    python3 benchmark/run.py --workload run_large|diff_many|transform_large \
        --seed N --seconds S --trace 0|1

Each op is one CLI command, `tmc_forge.cli.main(argv)` called in-process
on the main thread with stdout and stderr captured.  One client runs ops
back to back (a closed loop) in whole cycles until the next cycle would
overrun `--seconds`; every op's output is then checked against the oracle
in `workloads.py`.

`--trace 0` reports the end-to-end metrics, measured with tracing off.
`--trace 1` runs each op a second time right after its untraced run, with a
span around each layer's public functions (`tracing.py`), then runs one
cycle again with tracemalloc on for the per-layer peaks, and reports the
per-layer metrics.  A readable report goes to stdout first; the
last line is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_REPEATS = 15
OUT_DIR = wl.ROOT / ".bench_out"

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

# Layer self-time metrics, by the span they sum.
SELF_TIME_SPANS = {
    "surface.parse_s": "surface.parse",
    "surface.print_s": "surface.print",
    "ir.well_formed_s": "ir.well_formed",
    "analysis.collect_marks_s": "analysis.collect_marks",
    "analysis.resolve_scope_s": "analysis.resolve_scope",
    "analysis.check_annotations_s": "analysis.check_annotations",
    "transform.rewrite_self_s": "transform.transform_program",
    "gen.gen_value_s": "gen.gen_value",
    "runtime.interp_init_s": "runtime.interp_init",
    "runtime.thread_s": "runtime.eval_program",
    "runtime.instantiate_s": "runtime.instantiate",
    "runtime.eval_s": "runtime.eval",
    "runtime.hole_check_s": "runtime.hole_check",
    "runtime.render_s": "runtime.render",
    "runtime.snapshot_s": "runtime.snapshot",
    "runtime.compare_s": "runtime.compare",
}
RUNTIME_COUNTS = ("runtime.steps", "runtime.allocations", "runtime.dest_writes",
                  "runtime.effects", "runtime.store_blocks")

PER_LAYER = {
    **{name: "s" for name in SELF_TIME_SPANS},
    "surface.parse_nodes_per_s": "1/s",
    "surface.parse_peak_mb": "MB",
    "transform.transform_program_s": "s",
    "transform.peak_mb": "MB",
    "transform.in_nodes": "count",
    "transform.out_nodes": "count",
    "transform.dps_functions": "count",
    "runtime.eval_steps_per_s": "1/s",
    "runtime.eval_peak_mb": "MB",
    "runtime.hole_check_peak_mb": "MB",
    "runtime.max_stack_depth": "count",
    **{name: "count" for name in RUNTIME_COUNTS},
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "steps_per_s": "1/s",
    "error_rate": "ratio",
    "probe_failures": "count",
}

# The layer expected to hold the most self time, per workload.
EXPECTED_LARGEST = {
    "run_large": ("runtime.hole_check_s",),
    "diff_many": ("runtime.eval_s",),
    "transform_large": ("transform.rewrite_self_s", "surface.print_s"),
}


# ---------------------------------------------------------------------------
# Set-up and ops
# ---------------------------------------------------------------------------


def import_program() -> dict:
    """Import tmc_forge afresh; returns the modules the tracer patches."""

    for name in [m for m in sys.modules if m.split(".")[0] == "tmc_forge"]:
        del sys.modules[name]
    importlib.import_module("tmc_forge.cli")
    return {n: sys.modules[f"tmc_forge.{n}"]
            for n in ("cli", "transform", "runtime", "surface", "ir")}


def set_up(name: str, seed: int, workdir: Path, repeats: int):
    """Import and prepare `repeats` times; returns the times and the last
    modules and preparation."""

    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        modules = import_program()
        prepared = wl.prepare(name, seed, workdir)
        times.append(perf_counter() - t0)
    return times, modules, prepared


def run_op(main, op: wl.Op):
    """One CLI command as the console script runs it; returns (outcome, s)."""

    if op.out is not None and op.out.exists():
        op.out.unlink()
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(op.argv))
    except SystemExit as exc:
        if isinstance(exc.code, str):
            err.write(exc.code + "\n")
        rc = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception:  # noqa: BLE001 - a traceback is a measured outcome
        rc = None
        err.write(traceback.format_exc())
    dt = perf_counter() - t0
    digest = ""
    if op.out is not None and rc == 0 and op.out.exists():
        digest = wl.output_digest(op.out.read_text())
    return wl.Outcome(rc, out.getvalue(), err.getvalue(), digest), dt


def timed_pass(main, prepared: wl.Prepared, seed: int, budget: float,
               twin=None):
    """Whole cycles of ops until the next cycle would overrun the budget.

    `twin(i, op)`, when given, runs right after op i, outside its latency;
    the traced run uses it so that both versions of an op meet the same
    machine state.  Returns the ops, their outcomes and latencies."""

    ops, outcomes, latencies = [], [], []
    t_start = perf_counter()
    cycle = 0
    while True:
        c0 = perf_counter()
        for op in prepared.ops(cycle, seed):
            outcome, dt = run_op(main, op)
            if twin is not None:
                twin(len(ops), op)
            ops.append(op)
            outcomes.append(outcome)
            latencies.append(dt)
        cycle += 1
        now = perf_counter()
        if now - t_start + (now - c0) > budget:
            break
    return ops, outcomes, latencies


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def check_all(name, ops, outcomes, golden, modules) -> tuple[list[str], list[str]]:
    """Per-op failure reasons (None when fine) and run-level violations."""

    reasons = [wl.check_op(name, op, o, golden) for op, o in zip(ops, outcomes)]
    violations = []
    if name == "run_large":
        by_entry = {op.key: wl.parse_counters(o.stdout.splitlines()[1:])
                    for op, o, r in zip(ops, outcomes, reasons) if r is None}
        violations += wl.check_invariants(by_entry)
    if name == "transform_large":
        surface, ir = modules["surface"], modules["ir"]
        # Programs with a failed op are already counted as failed.
        seen = {op.key for op, r in zip(ops, reasons) if r is not None}
        for op in ops:
            if op.key in seen:
                continue
            seen.add(op.key)
            # The file holds the last output for this program; every output
            # for it had the golden digest, so they are all this text.
            if not op.out.exists():
                violations.append(f"pool {op.key}: output file missing")
                continue
            text = op.out.read_text()
            prog = surface.parse_program(text)
            errors = [d for d in ir.well_formed(prog) if d.severity == "Error"]
            if errors:
                violations.append(f"pool {op.key}: output not well-formed")
            if surface.print_program(prog) + "\n" != text:
                violations.append(f"pool {op.key}: print(parse(out)) != out")
    return reasons, violations


def run_probes(main) -> list[str]:
    """The known-defect probes; returns one line per failing probe."""

    failing = []
    for argv, want in wl.PROBES:
        outcome, _ = run_op(main, wl.Op(argv, "probe"))
        if not wl.probe_passes(outcome, want):
            last = (outcome.stderr.strip().splitlines() or ["(no stderr)"])[-1]
            failing.append(f"exit {outcome.rc}: {' '.join(argv)} -> {last[:120]}")
    return failing


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def tail_percentile(samples: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) at the highest percentile that has
    at least ten samples beyond it.  A tail is never below the median: with
    fewer than 21 samples this is the median."""

    xs = sorted(samples)
    n = len(xs)
    k = n - 11
    if 100.0 * (k + 1) / n <= 50.0:
        return 50.0, statistics.median(xs), n - (n + 1) // 2
    return 100.0 * (k + 1) / n, xs[k], n - 1 - k


def steps_of(outcome: wl.Outcome) -> int:
    for line in outcome.stdout.splitlines():
        if line.startswith("steps="):
            return int(line[len("steps="):])
    return 0


# ---------------------------------------------------------------------------
# The two kinds of run
# ---------------------------------------------------------------------------


def end_to_end(latencies, reasons, setup_s):
    ok = [dt for dt, r in zip(latencies, reasons) if r is None] or latencies
    pct, tail, beyond = tail_percentile(ok)
    busy = sum(latencies)
    values = {
        "setup_s": setup_s,
        "ops_per_s": sum(r is None for r in reasons) / busy,
        "op_p50_ms": statistics.median(ok) * 1e3,
        "op_tail_ms": tail * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} set-ups (import + prepare), "
                   "half before and half after the timed pass",
        "ops_per_s": f"{sum(r is None for r in reasons)} ops in {busy:.2f} s",
        "op_p50_ms": f"{len(ok)} samples",
        "op_tail_ms": f"p{pct:.1f}, {len(ok)} samples, {beyond} beyond",
        "peak_rss_mb": "ru_maxrss after the timed pass",
    }
    return values, notes


def profile_pass(modules, ops) -> tracing.Recorder:
    """tracemalloc peaks and IR node counts over the given ops."""

    cli = modules["cli"]
    prof = tracing.Recorder(profile=True)
    with tracing.patched(prof, modules):
        for i, op in enumerate(ops):
            prof.op = i
            prof.peak_spans = {k: m for k, m in tracing.PEAK_SPANS.items()
                               if not (k == "runtime.eval" and op.key in wl.DEEP_KEYS)}
            run_op(lambda argv: prof.call("cli.main", cli.main, (argv,)), op)
    return prof


def layer_metrics(name, rec: tracing.Recorder, prof: tracing.Recorder,
                  latencies: list[float], n_prof: int):
    """Per-layer values, their bases and a summary, from the traced ops
    (`rec`), the tracemalloc pass (`prof`) and the untraced latencies."""

    n = len(latencies)
    st = rec.self_times()
    v = {m: st.get(span, 0.0) / n for m, span in SELF_TIME_SPANS.items()}
    untraced_op = statistics.fmean(latencies)
    traced_op = statistics.fmean(rec.root_times())
    v["cli.self_s"] = untraced_op - sum(v.values())
    v["trace.overhead_s"] = traced_op - untraced_op
    v["transform.transform_program_s"] = rec.total("transform.transform_program") / n
    parse_nodes = prof.counts.get("surface.nodes", 0) / n_prof
    v["surface.parse_nodes_per_s"] = (parse_nodes / v["surface.parse_s"]
                                      if v["surface.parse_s"] else 0.0)
    for key in ("transform.in_nodes", "transform.out_nodes",
                "transform.dps_functions"):
        v[key] = prof.counts.get(key, 0) / n_prof
    for metric in tracing.PEAK_SPANS.values():
        v[metric] = prof.peaks.get(metric, 0.0)
    eval_total = st.get("runtime.eval", 0.0)
    v["runtime.eval_steps_per_s"] = (rec.counts.get("runtime.steps", 0) / eval_total
                                     if eval_total else 0.0)
    for key in RUNTIME_COUNTS:
        v[key] = rec.counts.get(key, 0) / n
    v["runtime.max_stack_depth"] = rec.max_stack_depth

    per_op = f"per op, mean of {n} ops"
    bases = {m: per_op for m, u in PER_LAYER.items() if u in ("s", "count")}
    bases.update({m: f"mean of {n_prof} ops" for m in
                  ("transform.in_nodes", "transform.out_nodes",
                   "transform.dps_functions")})
    bases.update({m: f"max over {n_prof} ops" for m in tracing.PEAK_SPANS.values()})
    bases.update({
        "runtime.max_stack_depth": f"max over {n} ops",
        "surface.parse_nodes_per_s": f"{parse_nodes:.0f} nodes per op",
        "runtime.eval_steps_per_s": f"runtime.steps {rec.counts.get('runtime.steps', 0)}"
                                    f" over {eval_total:.3f} s of eval",
        "trace.overhead_s": f"traced op {traced_op * 1e3:.1f} ms, untraced "
                            f"{untraced_op * 1e3:.1f} ms",
        "cli.self_s": "untraced op minus the layer spans",
    })
    if name == "run_large":
        bases["runtime.eval_peak_mb"] += f", {', '.join(wl.DEEP_KEYS)} excluded"

    layers = {m: v[m] for m in list(SELF_TIME_SPANS) + ["cli.self_s"]}
    largest = max(layers, key=layers.get)
    expected = EXPECTED_LARGEST[name]
    summary = [
        f"ops {n} traced, each right after its untraced run; {n_prof} in the "
        f"tracemalloc pass; {len(rec.spans)} spans",
        f"layer self times sum to {sum(layers.values()) * 1e3:.1f} ms per op = "
        f"untraced op {untraced_op * 1e3:.1f} ms; traced op "
        f"{traced_op * 1e3:.1f} ms (overhead {v['trace.overhead_s'] * 1e3:.1f} ms)",
        f"largest self-time layer: {largest} ({layers[largest] * 1e3:.1f} ms/op); "
        f"expected {' or '.join(expected)}: "
        + ("agrees" if largest in expected else "DISAGREES"),
    ]
    return v, bases, summary


def write_spans(rec: tracing.Recorder, name: str, seed: int) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{name}-seed{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for s in rec.spans:
            fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.op]) + "\n")
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        wl.check_sources()
        golden = wl.load_golden()
    except (FileNotFoundError, ValueError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(wl.ROOT / "src"))
    os.chdir(wl.ROOT)
    # One CPU for the whole run: every trial of `diff` hands work to a fresh
    # big-stack thread, and on a 2-CPU host the hand-offs between CPUs made
    # diff_many's op time drift by a third from run to run.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workdir = OUT_DIR / f"work-{os.getpid()}"
    try:
        return measure(args, golden, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, golden, workdir: Path) -> int:
    name, seed = args.workload, args.seed
    # Half the set-ups run before the timed pass and half after it, so that
    # the median spans the run rather than one moment of the machine.
    before, modules, prepared = set_up(name, seed, workdir, SETUP_REPEATS // 2)
    cli = modules["cli"]
    rec = tracing.Recorder()  # spans of the traced twins, for --trace 1
    traced_outcomes = []

    def traced_twin(i, op):
        with tracing.patched(rec, modules):
            rec.op = i
            outcome, _ = run_op(lambda argv: rec.call("cli.main", cli.main, (argv,)),
                                op)
        traced_outcomes.append(outcome)

    ops, outcomes, latencies = timed_pass(cli.main, prepared, seed, args.seconds,
                                          traced_twin if args.trace else None)
    after, modules, prepared = set_up(name, seed, workdir,
                                      SETUP_REPEATS - SETUP_REPEATS // 2)
    setup_s = statistics.median(before + after)
    reasons, violations = check_all(name, ops, outcomes, golden, modules)
    values, notes = end_to_end(latencies, reasons, setup_s)
    probes = run_probes(modules["cli"].main) if name == "diff_many" else []
    failed = sum(r is not None for r in reasons)
    steps = sum(steps_of(o) for o, r in zip(outcomes, reasons) if r is None)
    busy = sum(latencies)

    print(f"workload {name}  seed {seed}  trace {args.trace}  "
          f"ops {len(ops)} in {len(ops) // len(prepared.cycle)} cycles")
    for m, unit in END_TO_END.items():
        print(f"  {m:<30} {values[m]:>14.4f} {unit:<6} {notes[m]}")
    extra = {"error_rate": failed / len(ops), "steps_per_s": steps / busy,
             "probe_failures": len(probes)}
    print(f"  {'error_rate':<30} {extra['error_rate']:>14.4f} ratio  "
          f"{failed} of {len(ops)} ops")
    if name == "run_large":
        print(f"  {'steps_per_s':<30} {extra['steps_per_s']:>14.1f} 1/s    "
              f"{steps} steps over {busy:.2f} s")
    if name == "diff_many":
        print(f"  {'probe_failures':<30} {len(probes):>14d} count  "
              f"of {len(wl.PROBES)} probes")
        for line in probes:
            print(f"    probe failed: {line}")
    for op, r in zip(ops, reasons):
        if r is not None:
            print(f"  FAILED {' '.join(op.argv)}: {r}")
    for line in violations:
        print(f"  VIOLATION {line}")

    correct = failed == 0 and not violations
    if args.trace:
        mismatched = sum(a != b for a, b in zip(outcomes, traced_outcomes))
        if mismatched:
            print(f"  VIOLATION {mismatched} traced ops differ from untraced ones")
            correct = False
        n_prof = len(prepared.cycle)
        prof = profile_pass(modules, ops[:n_prof])
        v, bases, summary = layer_metrics(name, rec, prof, latencies, n_prof)
        v.update(extra)
        bases.update({
            "error_rate": f"{failed} of {len(ops)} untraced ops",
            "steps_per_s": f"{steps} steps over {busy:.2f} s untraced"
                           if name == "run_large" else "run_large only",
            "probe_failures": f"of {len(wl.PROBES)} probes"
                              if name == "diff_many" else "diff_many only",
        })
        print(f"traced run ({write_spans(rec, name, seed).relative_to(wl.ROOT)})")
        for line in summary:
            print(f"  {line}")
        for m, unit in PER_LAYER.items():
            print(f"  {name:<16} {m:<32} {v[m]:>16.6g} {unit:<6} {bases.get(m, '')}")
        metrics = {m: {"value": v[m], "unit": u} for m, u in PER_LAYER.items()}
    else:
        metrics = {m: {"value": values[m], "unit": u} for m, u in END_TO_END.items()}
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
