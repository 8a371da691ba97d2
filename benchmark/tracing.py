"""Spans around each layer's public functions, installed from outside.

`patched` replaces names in the already-imported `tmc_forge` modules for
the length of a traced op and restores them afterwards; no file under
`src/` changes.  Spans are kept in memory as (name, start, end, parent, op).
A layer's self time is its span's duration minus the time its child spans
cover.
"""

from __future__ import annotations

import dataclasses
import sys
import threading
import tracemalloc
from contextlib import contextmanager
from time import perf_counter
from typing import NamedTuple

# Spans whose tracemalloc peak the profile pass records, with the metric.
PEAK_SPANS = {
    "surface.parse": "surface.parse_peak_mb",
    "transform.transform_program": "transform.peak_mb",
    "runtime.eval": "runtime.eval_peak_mb",
    "runtime.hole_check": "runtime.hole_check_peak_mb",
}

_THREAD_STACK = 512 * 1024 * 1024
_THREAD_RECURSION = 400_000


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the parent span, -1 for an op's root
    op: int


class Recorder:
    """Collects spans; in profile mode it records tracemalloc peaks and IR
    node counts instead of trusting its timings."""

    def __init__(self, profile: bool = False):
        self.profile = profile
        self.peak_spans = dict(PEAK_SPANS)  # the profile pass may narrow it per op
        self.spans: list[Span | None] = []
        self.stack: list[int] = []
        self.op = -1
        self.peaks: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.max_stack_depth = 0

    def call(self, name, fn, args, kwargs=None):
        kwargs = kwargs or {}
        idx = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(idx)
        peak = (self.profile and name in self.peak_spans
                and not tracemalloc.is_tracing())
        if peak:
            tracemalloc.start()
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            if peak:
                mb = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
                metric = PEAK_SPANS[name]
                self.peaks[metric] = max(self.peaks.get(metric, 0.0), mb)
            self.stack.pop()
            self.spans[idx] = Span(name, t0, t1, parent, self.op)
        if self.profile:
            self._count(name, args, result)
        return result

    def add(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _count(self, name, args, result) -> None:
        if name == "surface.parse":
            self.add("surface.nodes", count_nodes(result))
        elif name == "transform.transform_program":
            self.add("transform.in_nodes", count_nodes(args[0]))
            self.add("transform.out_nodes", count_nodes(result))
            self.add("transform.dps_functions",
                     sum(map(len, result.groups)) - sum(map(len, args[0].groups)))

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""

        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        out: dict[str, float] = {}
        for s, c in zip(self.spans, child):
            out[s.name] = out.get(s.name, 0.0) + (s.end - s.start) - c
        return out

    def total(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def root_times(self) -> list[float]:
        return [s.end - s.start for s in self.spans if s.parent < 0]


def count_nodes(root) -> int:
    """IR nodes (expressions, patterns, function definitions) under root."""

    n, stack = 0, [root]
    while stack:
        x = stack.pop()
        if isinstance(x, (list, tuple)):
            stack.extend(x)
        elif dataclasses.is_dataclass(x) and type(x).__name__ != "Span":  # ir.Span
            n += 1
            stack.extend(getattr(x, f.name) for f in dataclasses.fields(x))
    return n


def in_big_stack_thread(fn):
    """Run fn in a worker with a 512 MB stack and a raised recursion limit,
    as the CLI does for evaluation; re-raises fn's exception here."""

    out: dict = {}

    def runner():
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(_THREAD_RECURSION)
        try:
            out["value"] = fn()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            out["error"] = exc
        finally:
            sys.setrecursionlimit(old)

    old_size = threading.stack_size(_THREAD_STACK)
    try:
        t = threading.Thread(target=runner)
        t.start()
        t.join()
    finally:
        threading.stack_size(old_size)
    if "error" in out:
        raise out["error"]
    return out["value"]


def _traced_eval_program(rec: Recorder, runtime):
    """The sequence eval_program performs, with a span per step."""

    def eval_program(program, entry, args, max_stack=runtime.DEFAULT_MAX_STACK,
                     max_steps=runtime.DEFAULT_MAX_STEPS):
        def body():
            interp = rec.call("runtime.interp_init", runtime.Interp,
                              (program, max_stack, max_steps))

            def go():
                vals = [rec.call("runtime.instantiate", interp.instantiate, (a,))
                        for a in args]
                value = rec.call("runtime.eval", interp.call, (entry, vals),
                                 {"check_holes": False})
                rec.call("runtime.hole_check", interp.assert_no_holes, (value,))
                return value

            return interp, in_big_stack_thread(go)

        interp, value = rec.call("runtime.eval_program", body, ())
        m = interp.metrics
        rec.add("runtime.steps", m.steps)
        rec.add("runtime.allocations", m.allocations)
        rec.add("runtime.dest_writes", m.dest_writes)
        rec.add("runtime.effects", len(m.effect_trace))
        rec.add("runtime.store_blocks", len(interp.blocks))
        rec.max_stack_depth = max(rec.max_stack_depth, m.max_stack_depth)
        return value, m, interp

    return eval_program


@contextmanager
def patched(rec: Recorder, modules: dict):
    """Install the spans for the duration of the block.

    `modules` maps short names (cli, transform, runtime) to the imported
    modules.  Plain functions are replaced where their caller looks them up.
    Recursive methods get a span only at their outermost call; inner calls
    pass straight through to the original.
    """

    cli, transform, runtime = modules["cli"], modules["transform"], modules["runtime"]
    saved = []

    def wrap_function(module, attr, name):
        orig = getattr(module, attr)
        saved.append((module, attr, orig))
        setattr(module, attr, lambda *a, **k: rec.call(name, orig, a, k))

    def wrap_outermost(cls, attr, name):
        orig = cls.__dict__[attr]
        saved.append((cls, attr, orig))
        open_ = [False]

        def wrapper(*a, **k):
            if open_[0]:
                return orig(*a, **k)
            open_[0] = True
            try:
                return rec.call(name, orig, a, k)
            finally:
                open_[0] = False

        setattr(cls, attr, wrapper)

    wrap_function(cli, "parse_program", "surface.parse")
    wrap_function(cli, "print_program", "surface.print")
    wrap_function(cli, "transform_program", "transform.transform_program")
    wrap_function(cli, "gen_value", "gen.gen_value")
    wrap_function(cli, "run_diff", "cli.run_diff")
    wrap_function(transform, "well_formed", "ir.well_formed")
    wrap_function(transform, "collect_marks", "analysis.collect_marks")
    wrap_function(transform, "resolve_scope", "analysis.resolve_scope")
    wrap_function(transform, "check_tailcall_annotations",
                  "analysis.check_annotations")
    saved.append((cli, "eval_program", cli.eval_program))
    cli.eval_program = _traced_eval_program(rec, runtime)
    wrap_outermost(runtime.Interp, "render", "runtime.render")
    wrap_outermost(runtime.Interp, "snapshot", "runtime.snapshot")
    wrap_outermost(runtime.LBlock, "__eq__", "runtime.compare")
    try:
        yield
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)
