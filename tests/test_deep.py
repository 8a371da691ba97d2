"""Deep programs through the front end and the evaluator.

Every layer walks with `ir.drive` or an explicit stack, so nesting depth is
bounded by memory only.  These run on the caller's thread at the
interpreter's default recursion limit.  Printing is left to test_cli at a
smaller depth: the canonical text grows with the square of the depth."""

import sys
import threading

import pytest

from tmc_forge.gen import list_value
from tmc_forge.runtime import eval_program
from tmc_forge.surface import parse_program
from tmc_forge.transform import transform_program

from conftest import marked_chain

DEPTH = 10_000


def marked_map(cons_case: str, extra_clause: str = "") -> str:
    """A marked list function whose Cons case, binding x and rest, is
    `cons_case`; `extra_clause` comes first."""

    return ("(program (letrec (fun (@ tail_mod_cons) f (xs) (match xs "
            f"{extra_clause} (case Nil (constr Nil)) "
            f"(case (Cons x rest) {cons_case})))) (main (int 0)))")


def nested_call_args(depth: int) -> str:
    """The recursive call's neighbour is `depth` nested calls of add1."""

    return marked_map("(constr Cons " + "(call add1 " * depth + "x"
                      + ")" * depth + " (call f rest))")


def constructor_nest(depth: int) -> str:
    """`depth` Cons layers around the recursive call."""

    return marked_map("(constr Cons x " * depth + "(call f rest)"
                      + ")" * depth)


def nested_patterns(depth: int) -> str:
    """A first clause whose pattern nests `depth` Cons patterns; on a
    shorter list it fails after as many levels as the list is long."""

    return marked_map("(constr Cons x (call f rest))",
                      "(case " + "(Cons _ " * depth + "_" + ")" * depth
                      + " (constr Nil))")


def as_list(v) -> list[int]:
    out = []
    while v.tag != "Nil":
        out.append(v.fields[0])
        v = v.fields[1]
    return out


@pytest.fixture(autouse=True)
def default_host_stack():
    assert threading.current_thread() is threading.main_thread()
    assert sys.getrecursionlimit() <= 1000


@pytest.mark.parametrize("shape,expected", [
    (marked_chain, None),
    (nested_call_args, [1 + DEPTH, 2 + DEPTH, 3 + DEPTH]),
    (constructor_nest, [1] * DEPTH + [2] * DEPTH + [3] * DEPTH),
    (nested_patterns, [1, 2, 3]),
], ids=["marked_chain", "nested_call_args", "constructor_nest",
        "nested_patterns"])
def test_depth_10000_parses_transforms_and_runs(shape, expected):
    text = shape(DEPTH)
    p = parse_program(text)
    t = transform_program(p)
    arg = list_value([1, 2, 3])
    v1, m1, i1 = eval_program(p, "f", [arg])
    v2, m2, i2 = eval_program(t, "f", [arg])
    assert i1.render(v1) == i2.render(v2)
    if expected is not None:
        assert as_list(v2) == expected
    assert m2.allocations == m1.allocations
    assert m2.max_stack_depth <= 2
