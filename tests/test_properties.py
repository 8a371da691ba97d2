"""Transform soundness on generated programs.

Each example is a well-formed letrec group of one or two marked functions
over list or tree data.  Their recursive case nests let, seq, match and
constructors around recursive calls, some of them annotated
(@ tailcall).  The transform must either reject the program with a
TransformError or keep the value, the allocation count and the effect
multiset; it may not write more destinations than it allocates, and its
output must be well-formed and round-trip through the printer.
"""

from collections import Counter

from hypothesis import given, settings, strategies as st

from tmc_forge.ir import Int, Program, well_formed
from tmc_forge.gen import list_value
from tmc_forge.runtime import Block, Interp, eval_program
from tmc_forge.surface import parse_program, print_program
from tmc_forge.transform import TransformError, transform_program

# Per data shape: the base-case pattern, the recursive-case pattern and the
# variables it binds to smaller values.
SHAPES = {
    "list": ("Nil", "(Cons x rest)", ("rest",)),
    "tree": ("Leaf", "(Node l x r)", ("l", "r")),
}


@st.composite
def programs(draw):
    shape = draw(st.sampled_from(sorted(SHAPES)))
    base_pat, rec_pat, smaller = SHAPES[shape]
    names = ["f", "g"][:draw(st.integers(1, 2))]
    counter = iter(range(10**6))

    def atom(ints):
        return draw(st.sampled_from(ints + [f"(int {draw(st.integers(0, 3))})"]))

    def int_expr(ints):
        if draw(st.booleans()):
            return atom(ints)
        return f"(call add {atom(ints)} {atom(ints)})"

    def call(subs, annotate):
        attr = "(@ tailcall) " if annotate and draw(st.integers(0, 2)) == 0 else ""
        return (f"(call {attr}{draw(st.sampled_from(names))} "
                f"{draw(st.sampled_from(subs))})")

    def tail(depth, ints, subs):
        kinds = ["value"] + (["call", "call"] if subs else [])
        if depth > 0:
            kinds += ["let", "seq", "match", "constr", "constr", "pair"]
        kind = draw(st.sampled_from(kinds))
        if kind == "value":
            return draw(st.sampled_from(
                [int_expr(ints), "(constr Nil)", f"(call print {atom(ints)})"]))
        if kind == "call":
            return call(subs, annotate=True)
        if kind == "let":
            y = f"y{next(counter)}"
            return f"(let {y} {int_expr(ints)} {tail(depth - 1, ints + [y], subs)})"
        if kind == "seq":
            first = (call(subs, annotate=False) if subs and draw(st.booleans())
                     else f"(call print {atom(ints)})")
            return f"(seq {first} {tail(depth - 1, ints, subs)})"
        if kind == "match":
            z = f"z{next(counter)}"
            last = f"(case {z} {tail(depth - 1, ints + [z], subs)})"
            if draw(st.booleans()):
                return f"(match {atom(ints)} {last})"
            return (f"(match {atom(ints)} (case {draw(st.integers(0, 3))} "
                    f"{tail(depth - 1, ints, subs)}) {last})")
        if kind == "constr":
            left = [int_expr(ints) for _ in range(draw(st.integers(0, 2)))]
            right = [int_expr(ints) for _ in range(draw(st.integers(0, 1)))]
            args = left + [tail(depth - 1, ints, subs)] + right
            return f"(constr K{len(left)}_{len(args)} {' '.join(args)})"
        return (f"(constr Pair {tail(depth - 1, ints, subs)} "
                f"{tail(depth - 1, ints, subs)})")

    funs = []
    for name in names:
        base = tail(draw(st.integers(0, 1)), [], ())
        step = tail(draw(st.integers(1, 4)), ["x"], list(smaller))
        funs.append(f"(fun (@ tail_mod_cons) {name} (v) (match v "
                    f"(case {base_pat} {base}) (case {rec_pat} {step})))")
    return shape, f"(program (letrec {' '.join(funs)}) (main (int 0)))"


EMPTY = Program([], Int(0))
_trees = st.recursive(
    st.just(Block("Leaf", [])),
    lambda kids: st.tuples(kids, st.integers(0, 3), kids).map(
        lambda t: Block("Node", list(t))),
    max_leaves=4)
_lists = st.lists(st.integers(0, 3), max_size=3).map(list_value)


def render(v) -> str:
    return Interp(EMPTY).render(v)


@settings(max_examples=150, deadline=None)
@given(programs(), _lists, _trees)
def test_transform_keeps_value_allocations_and_effects(case, lst, tree):
    shape, text = case
    p = parse_program(text)
    try:
        t = transform_program(p)
    except TransformError:
        return
    assert well_formed(t) == [], text
    assert parse_program(print_program(t)) == t, text
    arg = lst if shape == "list" else tree
    before = render(arg)
    v1, m1, i1 = eval_program(p, "f", [arg])  # both runs share the input
    v2, m2, i2 = eval_program(t, "f", [arg])
    assert render(v1) == render(v2), text
    assert render(arg) == before, text
    assert m1.allocations == m2.allocations, text
    assert Counter(m1.effect_trace) == Counter(m2.effect_trace), text
    assert m2.dest_writes <= m2.allocations, text
