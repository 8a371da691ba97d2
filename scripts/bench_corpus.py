#!/usr/bin/env python3
"""Metric tables for the standard corpus.

Runs each list-shaped corpus program original-vs-transformed over a size
sweep and prints stack depth, allocation, and destination-write tables.
Optionally writes one CSV per program.

Usage:
    python3 scripts/bench_corpus.py [--sizes 10,100,1000,10000] [--seed 1]
                                    [--csv-dir out/]
"""

import argparse
import csv
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from tmc_forge.gen import Lcg, at_size, gen_value, mix_seed
from tmc_forge.runtime import TmcRuntimeError, eval_program
from tmc_forge.surface import parse_program
from tmc_forge.transform import transform_program

ROOT = pathlib.Path(__file__).resolve().parent.parent

PLAN = [
    # (file, entry, arg spec templates; a size field N takes the size)
    ("map.tmc", "map", ["fun:add1", "list:N"]),
    ("filter.tmc", "filter", ["fun:is_small", "list:N"]),
    ("umap.tmc", "umap", ["fun:add1", "list:N"]),
    ("flatten_mutual.tmc", "flatten", ["listof:Nx5"]),
    ("map_tail.tmc", "map_tail", ["fun:bump", "cmmlike:N"]),
]


def measure(program, entry, specs, size, seed):
    rng = Lcg(mix_seed(seed, size))
    args = [gen_value(at_size(s, size), rng) for s in specs]
    try:
        _, m, _ = eval_program(program, entry, args)
        return dict(max_stack_depth=m.max_stack_depth,
                    allocations=m.allocations, dest_writes=m.dest_writes,
                    steps=m.steps)
    except TmcRuntimeError as exc:
        return dict(max_stack_depth=exc.code, allocations=exc.code,
                    dest_writes=exc.code, steps=exc.code)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", default="10,100,1000,10000")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--csv-dir")
    args = ap.parse_args()
    sizes = [int(s) for s in args.sizes.split(",") if s]

    cols = ["variant", "size", "max_stack_depth", "allocations",
            "dest_writes", "steps"]
    for name, entry, specs in PLAN:
        original = parse_program((ROOT / "corpus" / name).read_text())
        transformed = transform_program(original)
        rows = []
        for label, prog in (("original", original), ("transformed", transformed)):
            for size in sizes:
                row = measure(prog, entry, specs, size, args.seed)
                rows.append({"variant": label, "size": size, **row})
        print(f"\n== {name} :: {entry}")
        widths = [max(len(c), *(len(str(r[c])) for r in rows)) for c in cols]
        print("  ".join(c.ljust(w) for c, w in zip(cols, widths)))
        for r in rows:
            print("  ".join(str(r[c]).ljust(w) for c, w in zip(cols, widths)))
        if args.csv_dir:
            out = pathlib.Path(args.csv_dir)
            out.mkdir(parents=True, exist_ok=True)
            with open(out / f"{name.removesuffix('.tmc')}.csv", "w",
                      newline="") as fh:
                w = csv.DictWriter(fh, fieldnames=cols)
                w.writeheader()
                w.writerows(rows)


if __name__ == "__main__":
    main()
