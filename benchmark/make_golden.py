#!/usr/bin/env python3
"""Rewrite golden.json from the program as it is now.

    python3 benchmark/make_golden.py

Run it only when a change is meant to alter an output; review the diff of
golden.json like any other golden.  The run_large counters are checked
against the paper's invariants before anything is written.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import workloads as wl


def main() -> int:
    sys.path.insert(0, str(wl.ROOT / "src"))
    os.chdir(wl.ROOT)
    cli = run.import_program()["cli"]
    golden = {"run_large": {}, "diff_many": {}, "transform_large": {}}
    for op in wl.prepare("run_large", 1, run.OUT_DIR).ops(0, 1):
        outcome, _ = run.run_op(cli.main, op)
        golden["run_large"][op.key] = wl.parse_counters(
            outcome.stdout.splitlines()[1:])
    bad = wl.check_invariants(golden["run_large"])
    if bad:
        print("\n".join(bad), file=sys.stderr)
        return 1
    for op in wl.prepare("diff_many", 1, run.OUT_DIR).ops(0, 1):
        outcome, _ = run.run_op(cli.main, op)
        summary = outcome.stdout.splitlines()[0]
        golden["diff_many"][op.key] = int(summary.rsplit("=", 1)[1])
    workdir = run.OUT_DIR / f"golden-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        units = wl.corpus_units()
        for index in range(wl.POOL_SIZE):
            src = workdir / f"gen{index}.tmc"
            src.write_text(wl.generate_program(index, units))
            op = wl.Op(("transform", str(src), "--out", str(workdir / "out.tmc")),
                       str(index))
            outcome, _ = run.run_op(cli.main, op)
            if outcome.rc != 0:
                print(f"pool {index}: exit {outcome.rc}", file=sys.stderr)
                return 1
            golden["transform_large"][str(index)] = {
                "sha256": outcome.output_sha256,
                "warnings": len(outcome.stderr.splitlines())}
    finally:
        shutil.rmtree(workdir)
    wl.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
