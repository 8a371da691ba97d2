"""Counter golden: the evaluator's exact counters, effect traces and result
values on the corpus, and the exact code, message and counters of every
runtime error.  These pin the oracle's observable behaviour, so that a
change to the evaluator can be checked against it mechanically.

Regenerate only when a change is meant to alter the figures:

    PYTHONPATH=src python3 tests/test_counters.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys

import pytest

from conftest import CORPUS, GOLDENS
from tmc_forge.gen import Lcg, at_size, gen_value, mix_seed
from tmc_forge.runtime import (
    Interp,
    LInt,
    TmcRuntimeError,
    VBlock,
    VFun,
    VInt,
    eval_program,
    list_lit,
)
from tmc_forge.surface import parse_program
from tmc_forge.transform import transform_program

GOLDEN = GOLDENS / "counters.json"
SEED = 1
SIZES = (0, 1, 10, 100, 1000)

# The PLAN of scripts/bench_corpus.py, the four map_variants entries of the
# paper's table, and noisy_constr_args for an effect trace whose order the
# transformation changes.  A size field `N` takes the size.
CASES = (
    ("map.tmc", "map", ("fun:add1", "list:N")),
    ("filter.tmc", "filter", ("fun:is_small", "list:N")),
    ("umap.tmc", "umap", ("fun:add1", "list:N")),
    ("flatten_mutual.tmc", "flatten", ("listof:Nx5",)),
    ("map_tail.tmc", "map_tail", ("fun:bump", "cmmlike:N")),
    ("map_variants.tmc", "map_direct", ("fun:add1", "list:N")),
    ("map_variants.tmc", "map_acc", ("fun:add1", "list:N")),
    ("map_variants.tmc", "map", ("fun:add1", "list:N")),
    ("map_variants.tmc", "umap", ("fun:add1", "list:N")),
    ("noisy_constr_args.tmc", "noisy", ("list:N",)),
)

DOWN = """(program
  (letrec (fun down (n)
    (match (call eq n 0)
      (case True 0)
      (case False (call add 1 (call down (call sub n 1)))))))
  (main 0))"""

# name -> (source, entry, input literals, Interp limits)
ERRORS = {
    "StackLimit": (DOWN, "down", [LInt(100)], {"max_stack": 50}),
    "StackLimit_entry": (DOWN, "down", [LInt(3)], {"max_stack": 0}),
    "StepLimit": ("(program (letrec (fun spin (n) (call spin n))) (main 0))",
                  "spin", [LInt(0)], {"max_steps": 1000}),
    "NotAFunction": ("(program (letrec (fun apply (f x) (call f x)))"
                     " (main (call apply 3 4)))", "main", [], {}),
    "ArityMismatch": ("(program (letrec (fun f (x y) x)) (main (call f 1)))",
                      "main", [], {}),
    "ArityMismatch_dynamic": (
        "(program (letrec (fun f (x y) x) (fun apply (g x) (call g x)))"
        " (main (call apply f 1)))", "main", [], {}),
    "ArityMismatch_entry": ("(program (letrec (fun f (x y) x)) (main 0))",
                            "f", [LInt(1)], {}),
    "ArityMismatch_main": ("(program (main 0))", "main", [LInt(1)], {}),
    "UnboundName": ("(program (letrec (fun f (x) zzz)) (main (call f 1)))",
                    "main", [], {}),
    "UnboundName_callee": ("(program (letrec (fun f (x) (call g x)))"
                           " (main (call f 1)))", "main", [], {}),
    "UnboundName_entry": ("(program (main 0))", "nope", [], {}),
    "UnboundName_out_of_scope": (
        # `inner` escapes its letrec as a function value; `apply` cannot see it.
        "(program (letrec (fun apply (g x) (call g x)))"
        " (letrec (fun outer (x) (letrec (fun inner (y) y) inner)))"
        " (main (call apply (call outer 0) 1)))", "main", [], {}),
    "MatchFailure": ("(program (main (match (constr Pair 1 (constr Cons 2"
                     " (constr Nil))) (case (Cons a b) 0))))", "main", [], {}),
    "HoleInspected": ("(program (letrec (fun probe (p) (match p"
                      " (case (Pair a b) (match b (case Nil 0) (case c 1))))))"
                      " (main (call probe (constr Pair 1 (hole)))))",
                      "main", [], {}),
    "HoleInspected_nested": ("(program (main (match (constr Pair 1 (hole))"
                             " (case (Pair 2 x) 0) (case (Pair y Nil) 1))))",
                             "main", [], {}),
    "NonHoleOverwrite": ("(program (main (let p (constr Pair 1 2)"
                         " (setref p 1 9))))", "main", [], {}),
    "IndexOutOfRange": ("(program (main (let p (constr Pair 1 2)"
                        " (setref p 3 0))))", "main", [], {}),
    "TypeError": ("(program (main (call add 1 (constr Nil))))", "main", [], {}),
    "TypeError_setref_dest": ("(program (main (setref 1 1 1)))", "main", [], {}),
    "TypeError_setref_index": ("(program (main (setref (constr P (hole))"
                               " (constr Nil) 1)))", "main", [], {}),
    "HoleEscape": ("(program (main (constr Pair (constr Cons (hole) (hole))"
                   " (constr Q (hole)))))", "main", [], {}),
}

# Programs whose every step budget from 0 to one past their total is run:
# the step at which StepLimit fires against effects, allocations and other
# errors.  name -> (source, entry, input literals)
SWEEPS = {
    "map": ((CORPUS / "map.tmc").read_text(), "main", []),
    "map_transformed": ((GOLDENS / "map_transformed.tmc").read_text(), "main",
                        []),
    "noisy": ((CORPUS / "noisy_constr_args.tmc").read_text(), "noisy",
              [list_lit([LInt(1), LInt(2), LInt(3)])]),
    "unbound_after_print": ("(program (main (constr Pair (call print 1)"
                            " (seq (call print 2) zzz) (call print 3))))",
                            "main", []),
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def render(interp: Interp, v) -> str:
    """The text of Interp.render, built without recursion."""

    out, stack = [], [v]
    while stack:
        x = stack.pop()
        if isinstance(x, str):
            out.append(x)
        elif isinstance(x, VInt):
            out.append(str(x.n))
        elif isinstance(x, VFun):
            out.append(f"<fun {x.name}>")
        elif isinstance(x, VBlock):
            blk = interp.blocks[x.addr]
            if not blk.fields:
                out.append(blk.tag)
                continue
            out.append("(" + blk.tag)
            stack.append(")")
            for f in reversed(blk.fields):
                stack.append(f)
                stack.append(" ")
        else:
            out.append("<hole>")
    return "".join(out)


def counters(interp: Interp) -> dict:
    m = interp.metrics
    return {"max_stack_depth": m.max_stack_depth, "allocations": m.allocations,
            "dest_writes": m.dest_writes, "steps": m.steps,
            "store_blocks": len(interp.blocks),
            "effects": len(m.effect_trace),
            "effect_sha256": digest("\n".join(m.effect_trace))}


def run_case(name: str, entry: str, specs, size: int, variant: str) -> dict:
    program = parse_program((CORPUS / name).read_text())
    if variant == "transformed":
        program = transform_program(program)
    rng = Lcg(mix_seed(SEED, size))
    args = [gen_value(at_size(s, size), rng) for s in specs]
    value, _, interp = eval_program(program, entry, args)
    return {**counters(interp), "value_sha256": digest(render(interp, value))}


def run_error(src: str, entry: str, args, limits: dict) -> dict:
    interp = Interp(parse_program(src), **limits)
    try:
        interp.call(entry, args)
    except TmcRuntimeError as exc:
        return {"code": exc.code, "message": str(exc), **counters(interp)}
    raise AssertionError("no runtime error")


def run_sweep(src: str, entry: str, args) -> list:
    """[outcome, steps, allocations, dest_writes, effects] per budget."""

    program = parse_program(src)
    total = Interp(program)
    try:
        total.call(entry, args)
    except TmcRuntimeError:
        pass
    rows = []
    for budget in range(total.metrics.steps + 2):
        interp = Interp(program, max_steps=budget)
        try:
            interp.call(entry, args)
            outcome = "ok"
        except TmcRuntimeError as exc:
            outcome = str(exc)
        m = interp.metrics
        rows.append([outcome, m.steps, m.allocations, m.dest_writes,
                     len(m.effect_trace)])
    return rows


def case_key(name, entry, size, variant) -> str:
    return f"{name}:{entry}:{variant}:{size}"


def all_cases():
    for name, entry, specs in CASES:
        for variant in ("original", "transformed"):
            for size in SIZES:
                yield case_key(name, entry, size, variant), (name, entry, specs,
                                                             size, variant)


def build_golden() -> dict:
    return {
        "runs": {k: run_case(*a) for k, a in all_cases()},
        "errors": {k: run_error(*a) for k, a in ERRORS.items()},
        "sweeps": {k: run_sweep(*a) for k, a in SWEEPS.items()},
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden["runs"]) == sorted(k for k, _ in all_cases())
    assert sorted(golden["errors"]) == sorted(ERRORS)
    assert sorted(golden["sweeps"]) == sorted(SWEEPS)


@pytest.mark.parametrize("key,case", list(all_cases()), ids=[k for k, _ in all_cases()])
def test_run_counters(golden, key, case):
    assert run_case(*case) == golden["runs"][key]


@pytest.mark.parametrize("name", sorted(ERRORS))
def test_error_code_message_and_counters(golden, name):
    assert run_error(*ERRORS[name]) == golden["errors"][name]


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_step_budget_sweep(golden, name):
    assert run_sweep(*SWEEPS[name]) == golden["sweeps"][name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python3 tests/test_counters.py --write")
    GOLDEN.write_text(json.dumps(build_golden(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
