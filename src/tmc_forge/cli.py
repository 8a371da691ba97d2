"""Batch front door: tmc-forge <parse|transform|run|diff|bench> [flags].

Exit codes: 0 success (possibly with warnings), 1 static or usage error,
2 runtime error.  All commands are deterministic given (file, flags, seed).
"""

from __future__ import annotations

import argparse
import csv as csv_mod
import functools
import gc
import os
import pathlib
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import astuple, dataclass, field, fields

from .gen import BadSpec, Lcg, at_size, gen_value, mix_seed
from .ir import Diagnostic, Program
from .runtime import (
    DEFAULT_MAX_STACK,
    DEFAULT_MAX_STEPS,
    TmcRuntimeError,
    eval_program,
    same_text,
)
from .surface import ParseError, is_int, parse_program, print_program
from .transform import TransformError, transform_program


def _use_color(stream) -> bool:
    if os.environ.get("TMC_FORGE_COLOR") == "0":
        return False
    return hasattr(stream, "isatty") and stream.isatty()


def _emit_diags(diags: list[Diagnostic], filename: str) -> None:
    color = _use_color(sys.stderr)
    for d in diags:
        line = d.render(filename)
        if color:
            code = "31" if d.severity == "Error" else "33"
            line = f"\x1b[{code}m{line}\x1b[0m"
        print(line, file=sys.stderr)


class UsageError(Exception):
    """A bad command line, or a file that cannot be read or written."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one line and exit 1, not usage and exit 2
        raise UsageError(message)


@contextmanager
def _without_collector():
    """Run the body without automatic cyclic collection, and restore the
    caller's setting however it ends.  The static phases (parse, analysis,
    rewrite, print) build only acyclic trees, which reference counting
    frees; evaluation keeps the collector, because `setref` can tie cycles."""

    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _load(path: str):
    try:
        text = pathlib.Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        why = exc.strerror if isinstance(exc, OSError) else "not UTF-8 text"
        raise UsageError(f"cannot read {path!r}: {why}") from None
    with _without_collector():
        return parse_program(text)


@contextmanager
def _create(path: str):
    """The file at `path`, open for writing.  Failing to create, write or
    close it is a usage error, so the body does no other I/O."""

    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise UsageError(f"cannot write {path!r}: {exc.strerror}") from None


@dataclass
class DiffReport:
    entry: str
    trials: int
    failures: list = field(default_factory=list)  # (seed, inputs, lhs, rhs) as text
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
        # Both runs share the inputs: they hold no hole, so no run can write
        # into them.
        v1, m1, i1 = eval_program(program, entry, args, max_stack, max_steps)
        v2, m2, i2 = eval_program(transformed, entry, args, max_stack, max_steps)
        # Results are equal when their texts are; only a failure prints them.
        s1 = s2 = ""
        if not same_text(v1, v2):
            s1, s2 = i1.render(v1), i2.render(v2)
        # Equal values with different effect multisets fail on the traces.
        if s1 == s2 and m1.effect_trace != m2.effect_trace and (
                sorted(m1.effect_trace) != sorted(m2.effect_trace)):
            s1, s2 = f"trace {m1.effect_trace}", f"trace {m2.effect_trace}"
        if s1 != s2:
            report.failures.append(
                (mix_seed(seed, t), [i1.render(a) for a in args], s1, s2))
        elif m1.effect_trace != m2.effect_trace:
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


_BENCH_COLUMNS = tuple(f.name for f in fields(BenchRow))


def _bench_table(rows: list[BenchRow]) -> str:
    table = [_BENCH_COLUMNS] + [list(map(str, astuple(r))) for r in rows]
    widths = [max(map(len, column)) for column in zip(*table)]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
                     for row in table)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


@_without_collector()
def cmd_parse(args) -> int:
    _write_out(args, _load(args.file))
    return 0


@_without_collector()
def cmd_transform(args) -> int:
    diags: list[Diagnostic] = []
    try:
        out = transform_program(_load(args.file), diagnostics=diags)
    except TransformError:
        return 1
    finally:
        _emit_diags(diags, args.file)
    _write_out(args, out)
    return 0


def _write_out(args, program: Program) -> None:
    with _create(args.out) if args.out else nullcontext(sys.stdout) as fh:
        print_program(program, fh.write)
        fh.write("\n")


def cmd_run(args) -> int:
    p = _load(args.file)
    if args.transform:
        p = transform_program(p)
    rng = Lcg(args.seed)
    # The inputs are not kept: they are freed after evaluation.
    value, metrics, interp = eval_program(
        p, args.entry, [gen_value(s, rng) for s in args.arg],
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
        print(f"FAIL seed={seed} inputs=[{', '.join(inputs)}] lhs={lhs} rhs={rhs}")
    for seed, pos in report.trace_divergences:
        print(f"TRACE-DIVERGENCE seed={seed} position={pos}")
    return 0 if not report.failures else 2


def cmd_bench(args) -> int:
    p = _load(args.file)
    sizes = args.sizes.split(",")
    try:  # each size stands for N in a spec, so it follows the integer rule
        if not all(map(is_int, sizes)):
            raise ValueError
        sizes = [int(s) for s in sizes]  # past the digit limit: ValueError
        if any(s < 0 for s in sizes):
            raise ValueError
    except ValueError:
        raise BadSpec(f"bad --sizes value {args.sizes!r}") from None
    with _create(args.csv) if args.csv else nullcontext() as fh:
        rows = run_bench(p, args.entry, sizes, args.arg, args.seed,
                         args.max_stack, args.max_steps)
        if fh:
            w = csv_mod.writer(fh)
            w.writerow(_BENCH_COLUMNS)
            w.writerows(map(astuple, rows))
    print(_bench_table(rows))
    return 0


@functools.cache  # once per import: it takes a millisecond and holds cycles
def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="tmc-forge", description="TMC transformation workbench")
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

    try:
        args = build_parser().parse_args(argv)
        for flag in ("trials", "max_stack", "max_steps"):  # each a count
            if getattr(args, flag, 0) < 0:
                raise UsageError(f"--{flag.replace('_', '-')} must be >= 0, "
                                 f"got {getattr(args, flag)}")
        code = args.fn(args)
        sys.stdout.flush()  # so that a failed write raises here
        return code
    except ParseError as exc:
        print(f"ERROR ParseError {args.file}:{exc}", file=sys.stderr)
        return 1
    except TransformError as exc:
        _emit_diags(exc.diagnostics, args.file)
        return 1
    except TmcRuntimeError as exc:
        print(f"ERROR {exc.code} {exc}", file=sys.stderr)
        return 2
    except (BadSpec, UsageError, OSError) as exc:
        if isinstance(exc, OSError):  # from stdout: files raise UsageError
            # What stdout still buffers would fail again when Python exits.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            exc = f"cannot write stdout: {exc.strerror}"
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
