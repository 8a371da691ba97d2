"""Batch front door: tmc-forge <parse|transform|run|diff|bench> [flags].

Exit codes: 0 success (possibly with warnings), 1 static or usage error,
2 runtime error.  All commands are deterministic given (file, flags, seed).
"""

from __future__ import annotations

import argparse
import csv as csv_mod
import os
import sys
from dataclasses import dataclass, field

from .gen import BadSpec, Lcg, at_size, gen_value, mix_seed
from .ir import Diagnostic, Program
from .runtime import (
    DEFAULT_MAX_STACK,
    DEFAULT_MAX_STEPS,
    TmcRuntimeError,
    eval_program,
)
from .surface import ParseError, parse_program, print_program
from .transform import TransformError, analyze_program, transform_program


def _use_color(stream) -> bool:
    if os.environ.get("TMC_FORGE_COLOR") == "0":
        return False
    return hasattr(stream, "isatty") and stream.isatty()


def _emit_diags(diags: list[Diagnostic], filename: str, stream=None) -> None:
    stream = stream or sys.stderr
    color = _use_color(stream)
    for d in diags:
        line = d.render(filename)
        if color:
            code = "31" if d.severity == "Error" else "33"
            line = f"\x1b[{code}m{line}\x1b[0m"
        print(line, file=stream)


def _load(path: str):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return parse_program(text)


@dataclass
class DiffReport:
    entry: str
    trials: int
    failures: list = field(default_factory=list)  # (seed, input, lhs, rhs)
    trace_divergences: list = field(default_factory=list)  # (seed, position)


def run_diff(program: Program, entry: str, arg_specs: list[str], trials: int,
             seed: int, max_stack: int = DEFAULT_MAX_STACK,
             max_steps: int = DEFAULT_MAX_STEPS) -> DiffReport:
    """Randomized equivalence harness: original vs transformed."""

    transformed = transform_program(program)
    report = DiffReport(entry, trials)
    for t in range(trials):
        rng = Lcg(mix_seed(seed, t))
        args = [gen_value(s, rng) for s in arg_specs]
        v1, m1, i1 = eval_program(program, entry, args, max_stack, max_steps)
        v2, m2, i2 = eval_program(transformed, entry, args, max_stack, max_steps)
        s1, s2 = i1.snapshot(v1), i2.snapshot(v2)
        if s1 != s2:
            report.failures.append((mix_seed(seed, t), args, repr(s1), repr(s2)))
            continue
        if m1.effect_trace != m2.effect_trace:
            if sorted(m1.effect_trace) != sorted(m2.effect_trace):
                report.failures.append(
                    (mix_seed(seed, t), args,
                     f"trace {m1.effect_trace}", f"trace {m2.effect_trace}"))
            else:
                pos = next(i for i, (a, b)
                           in enumerate(zip(m1.effect_trace, m2.effect_trace))
                           if a != b)
                report.trace_divergences.append((mix_seed(seed, t), pos))
    return report


@dataclass
class BenchRow:
    variant: str
    size: int
    max_stack_depth: object
    allocations: object
    dest_writes: object
    steps: object


def run_bench(program: Program, entries: list[str], sizes: list[int],
              arg_specs: list[str], seed: int,
              max_stack: int = DEFAULT_MAX_STACK,
              max_steps: int = DEFAULT_MAX_STEPS) -> list[BenchRow]:
    """One row per (entry, size); runs on the transformed program.

    In each arg spec, a size field that is exactly `N` is replaced by the
    current size (see gen.at_size).
    """

    transformed = transform_program(program)
    rows = []
    for entry in entries:
        for size in sizes:
            rng = Lcg(mix_seed(seed, size))
            args = [gen_value(at_size(s, size), rng) for s in arg_specs]
            try:
                _, m, _ = eval_program(transformed, entry, args,
                                       max_stack, max_steps)
                rows.append(BenchRow(entry, size, m.max_stack_depth,
                                     m.allocations, m.dest_writes, m.steps))
            except TmcRuntimeError as exc:
                rows.append(BenchRow(entry, size, exc.code, exc.code, exc.code,
                                     exc.code))
    return rows


def _bench_table(rows: list[BenchRow]) -> str:
    header = ["variant", "size", "max_stack_depth", "allocations",
              "dest_writes", "steps"]
    table = [header] + [[r.variant, str(r.size), str(r.max_stack_depth),
                         str(r.allocations), str(r.dest_writes), str(r.steps)]
                        for r in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
                     for row in table)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_parse(args) -> int:
    p = _load(args.file)
    out = print_program(p)
    _write_out(args, out)
    return 0


def cmd_transform(args) -> int:
    p = _load(args.file)
    _, diags = analyze_program(p)
    _emit_diags(diags, args.file)
    if any(d.severity == "Error" for d in diags):
        return 1
    _write_out(args, print_program(transform_program(p)))
    return 0


def _write_out(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_run(args) -> int:
    p = _load(args.file)
    if args.transform:
        p = transform_program(p)
    rng = Lcg(args.seed)
    vals = [gen_value(s, rng) for s in args.arg]
    value, metrics, interp = eval_program(p, args.entry, vals,
                                          args.max_stack, args.max_steps)
    print(interp.render(value))
    if args.metrics:
        print(metrics.render())
    return 0


def cmd_diff(args) -> int:
    p = _load(args.file)
    report = run_diff(p, args.entry, args.arg, args.trials, args.seed,
                      args.max_stack, args.max_steps)
    print(f"entry={report.entry} trials={report.trials} "
          f"failures={len(report.failures)} "
          f"trace_divergences={len(report.trace_divergences)}")
    for seed, inputs, lhs, rhs in report.failures:
        print(f"FAIL seed={seed} inputs={inputs} lhs={lhs} rhs={rhs}")
    for seed, pos in report.trace_divergences:
        print(f"TRACE-DIVERGENCE seed={seed} position={pos}")
    return 0 if not report.failures else 2


def cmd_bench(args) -> int:
    p = _load(args.file)
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s]
    except ValueError:
        raise BadSpec(f"bad --sizes value {args.sizes!r}") from None
    rows = run_bench(p, args.entry, sizes, args.arg, args.seed,
                     args.max_stack, args.max_steps)
    print(_bench_table(rows))
    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            w = csv_mod.writer(fh)
            w.writerow(["variant", "size", "max_stack_depth", "allocations",
                        "dest_writes", "steps"])
            for r in rows:
                w.writerow([r.variant, r.size, r.max_stack_depth,
                            r.allocations, r.dest_writes, r.steps])
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="tmc-forge",
                                 description="TMC transformation workbench")
    sub = ap.add_subparsers(dest="command", required=True)

    def limits(sp):
        sp.add_argument("--seed", type=int, default=1)
        sp.add_argument("--max-stack", type=int, default=DEFAULT_MAX_STACK,
                        dest="max_stack")
        sp.add_argument("--max-steps", type=int, default=DEFAULT_MAX_STEPS,
                        dest="max_steps")

    def common_runtime(sp):
        sp.add_argument("--entry", required=True)
        sp.add_argument("--arg", action="append", default=[],
                        help="input spec: INT, int, list:<n>, sortedlist:<n>, "
                             "listof:<n>, tree:<d>, cmmlike:<n>, fun:<name>")
        limits(sp)

    sp = sub.add_parser("parse", help="parse and print canonical form")
    sp.add_argument("file")
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_parse)

    sp = sub.add_parser("transform", help="apply the TMC transformation")
    sp.add_argument("file")
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_transform)

    sp = sub.add_parser("run", help="evaluate an entry point")
    sp.add_argument("file")
    common_runtime(sp)
    sp.add_argument("--metrics", action="store_true")
    sp.add_argument("--transform", action="store_true",
                    help="run the transformed program instead of the original")
    sp.set_defaults(fn=cmd_run)

    sp = sub.add_parser("diff", help="randomized original-vs-transformed check")
    sp.add_argument("file")
    common_runtime(sp)
    sp.add_argument("--trials", type=int, default=100)
    sp.set_defaults(fn=cmd_diff)

    sp = sub.add_parser("bench", help="metric table over input sizes")
    sp.add_argument("file")
    sp.add_argument("--entry", action="append", required=True)
    sp.add_argument("--arg", action="append", default=[],
                    help="input spec; a size field that is exactly N is "
                         "replaced by the size")
    sp.add_argument("--sizes", default="10,100,1000")
    limits(sp)
    sp.add_argument("--csv")
    sp.set_defaults(fn=cmd_bench)
    return ap


def main(argv=None) -> int:
    """Run one command; every documented failure becomes one diagnostic
    line (several for a rejected transformation) and its exit code."""

    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"ERROR ParseError {args.file}:{exc}", file=sys.stderr)
        return 1
    except TransformError as exc:
        _emit_diags(exc.diagnostics, args.file)
        return 1
    except TmcRuntimeError as exc:
        print(f"ERROR {exc.code} {exc}", file=sys.stderr)
        return 2
    except BadSpec as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
