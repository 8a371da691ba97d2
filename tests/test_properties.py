"""Transform soundness on generated programs.

Each example has a toplevel letrec group of one or two marked functions
over list or tree data, sometimes with an unmarked function in the same
group.  Their recursive case nests let, seq, match, constructors and local
letrec groups (marked or not, their function sometimes named like the
unmarked one, which it shadows) around calls, some of them annotated
(@ tailcall).  Some examples add a second toplevel group whose unmarked
function calls the marked ones from a constructor argument, where the
scope rule does not let the rewrite touch them, and a main that calls a
marked function.  The transform must either reject the program with a
TransformError or keep the value, the allocation count and the effect
multiset of `f` and of main; it may not write more destinations than it
allocates, and its output must be well-formed, hold one DPS version per
marked definition and round-trip through the printer.
"""

from collections import Counter

from hypothesis import given, settings, strategies as st

from tmc_forge.analysis import resolve_scope
from tmc_forge.gen import list_value
from tmc_forge.ir import Int, Program, well_formed
from tmc_forge.runtime import Block, Interp, eval_program
from tmc_forge.surface import parse_program, print_program
from tmc_forge.transform import TransformError, transform_program

from conftest import same_tree

# Per data shape: the base-case pattern, the recursive-case pattern, the
# variables it binds to smaller values, and a small value for main.
SHAPES = {
    "list": ("Nil", "(Cons x rest)", ("rest",),
             "(constr Cons 1 (constr Cons 2 (constr Nil)))"),
    "tree": ("Leaf", "(Node l x r)", ("l", "r"),
             "(constr Node (constr Leaf) 1 (constr Leaf))"),
}


@st.composite
def programs(draw):
    shape = draw(st.sampled_from(sorted(SHAPES)))
    base_pat, rec_pat, smaller, value = SHAPES[shape]
    marked = ["f", "g"][:draw(st.integers(1, 2))]
    group = marked + ["h"] * draw(st.booleans())  # h is not marked
    outside = ["k"] * draw(st.booleans())  # k: a second group, not marked
    counter = iter(range(10**6))

    def atom(ints):
        return draw(st.sampled_from(ints + [f"(int {draw(st.integers(0, 3))})"]))

    def int_expr(ints):
        if draw(st.booleans()):
            return atom(ints)
        return f"(call add {atom(ints)} {atom(ints)})"

    def call(callees, subs, annotate):
        attr = "(@ tailcall) " if annotate and draw(st.integers(0, 2)) == 0 else ""
        return (f"(call {attr}{draw(st.sampled_from(callees))} "
                f"{draw(st.sampled_from(subs))})")

    def tail(depth, ints, subs, callees, nest):
        kinds = ["value"] + (["call", "call"] if subs else [])
        if depth > 0:
            kinds += ["let", "seq", "match", "constr", "constr", "pair"]
            if nest and subs:
                kinds.append("letrec")
        kind = draw(st.sampled_from(kinds))
        if kind == "value":
            return draw(st.sampled_from(
                [int_expr(ints), "(constr Nil)", f"(call print {atom(ints)})"]))
        if kind == "call":
            return call(callees, subs, annotate=True)
        if kind == "let":
            y = f"y{next(counter)}"
            return (f"(let {y} {int_expr(ints)} "
                    f"{tail(depth - 1, ints + [y], subs, callees, nest)})")
        if kind == "seq":
            first = (call(callees, subs, annotate=False)
                     if subs and draw(st.booleans())
                     else f"(call print {atom(ints)})")
            return f"(seq {first} {tail(depth - 1, ints, subs, callees, nest)})"
        if kind == "match":
            z = f"z{next(counter)}"
            last = f"(case {z} {tail(depth - 1, ints + [z], subs, callees, nest)})"
            if draw(st.booleans()):
                return f"(match {atom(ints)} {last})"
            return (f"(match {atom(ints)} (case {draw(st.integers(0, 3))} "
                    f"{tail(depth - 1, ints, subs, callees, nest)}) {last})")
        if kind == "constr":
            left = [int_expr(ints) for _ in range(draw(st.integers(0, 2)))]
            right = [int_expr(ints) for _ in range(draw(st.integers(0, 1)))]
            args = left + [tail(depth - 1, ints, subs, callees, nest)] + right
            return f"(constr K{len(left)}_{len(args)} {' '.join(args)})"
        if kind == "letrec":
            # Sometimes named like the group's unmarked h, which it shadows.
            n = "h" if draw(st.booleans()) else f"n{next(counter)}"
            local = function(n, draw(st.booleans()), callees + [n], False)
            return (f"(letrec {local} "
                    f"{tail(depth - 1, ints, subs, callees + [n], nest)})")
        return (f"(constr Pair {tail(depth - 1, ints, subs, callees, nest)} "
                f"{tail(depth - 1, ints, subs, callees, nest)})")

    def function(name, mark, callees, nest, step=None):
        base = tail(draw(st.integers(0, 1)), [], (), callees, False)
        if step is None:
            step = tail(draw(st.integers(1, 4)), ["x"], list(smaller), callees,
                        nest)
        attr = "(@ tail_mod_cons) " if mark else ""
        return (f"(fun {attr}{name} (v) (match v "
                f"(case {base_pat} {base}) (case {rec_pat} {step})))")

    funs = [function(name, name in marked, group + outside, True)
            for name in group]
    groups = [f"(letrec {' '.join(funs)})"]
    if outside:
        # Calls to the marked functions from a constructor argument that
        # lies outside their group and outside any marked function.
        rest = tail(draw(st.integers(0, 2)), ["x"], list(smaller),
                    marked + outside, False)
        step = f"(constr Wrap {call(marked, list(smaller), False)} {rest})"
        groups.append(f"(letrec {function('k', False, (), False, step)})")
    main = f"(call {draw(st.sampled_from(marked))} {value})" if draw(
        st.booleans()) else "(int 0)"
    return shape, f"(program {' '.join(groups)} (main {main}))"


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
    # One DPS version per marked definition; a nested group is shared by
    # both versions of its encloser, so definitions count once each.
    marked = [f.name for f in resolve_scope(p).marked]
    dps = {id(f): f.name for f in resolve_scope(t).definitions
           if f.name.endswith("_dps")}
    assert sorted(dps.values()) == sorted(n + "_dps" for n in marked), text
    printed = print_program(t)
    assert "(@" not in printed, text  # holes, nested groups and main too
    assert same_tree(parse_program(printed), t), text
    arg = lst if shape == "list" else tree
    before = render(arg)
    for entry, args in (("f", [arg]), ("main", [])):
        v1, m1, i1 = eval_program(p, entry, args)  # both runs share the input
        v2, m2, i2 = eval_program(t, entry, args)
        assert render(v1) == render(v2), text
        assert render(arg) == before, text
        assert m1.allocations == m2.allocations, text
        assert Counter(m1.effect_trace) == Counter(m2.effect_trace), text
        assert m2.dest_writes <= m2.allocations, text
