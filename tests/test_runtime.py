"""Interpreter semantics: builtins, mutable blocks, hole discipline,
metrics accounting, tail-call frame reuse."""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from tmc_forge.gen import Lcg, gen_cmm_then_chain, gen_value, list_value
from tmc_forge.ir import Int, Program
from tmc_forge.cli import run_diff
from tmc_forge.runtime import (
    JUMP,
    MOVE,
    Block,
    Interp,
    TmcRuntimeError,
    VHOLE,
    compile_program,
    eval_dps,
    eval_program,
    same_text,
)
from tmc_forge.surface import parse_program
from tmc_forge.transform import transform_program

from conftest import CORPUS, FIXTURES


EMPTY = Program([], Int(0))


def run_src(src, entry, args, **kw):
    return eval_program(parse_program(src), entry, args, **kw)


class TestBuiltins:
    def test_arithmetic(self):
        v, _, _ = run_src("(program (main (call add 2 3)))", "main", [])
        assert v == 5
        v, _, _ = run_src("(program (main (call sub 2 3)))", "main", [])
        assert v == -1
        v, _, _ = run_src("(program (main (call add1 41)))", "main", [])
        assert v == 42

    def test_comparisons_return_boolean_blocks(self):
        v, _, i = run_src("(program (main (call leq 1 2)))", "main", [])
        assert i.render(v) == "True"
        v, _, i = run_src("(program (main (call eq 1 2)))", "main", [])
        assert i.render(v) == "False"

    def test_comparisons_do_not_allocate(self):
        _, m, _ = run_src("(program (main (call leq 1 2)))", "main", [])
        assert m.allocations == 0

    def test_print_records_effect_and_allocates_unit(self):
        v, m, i = run_src("(program (main (seq (call print 7) 1)))", "main", [])
        assert m.effect_trace == ["7"]
        assert m.allocations == 1  # the returned unit tuple
        assert v == 1

    def test_type_errors(self):
        with pytest.raises(TmcRuntimeError) as ei:
            run_src("(program (main (call add 1 (constr Nil))))", "main", [])
        assert ei.value.code == "TypeError"


class TestBlocks:
    def test_fields_are_one_indexed(self):
        src = """(program (main
          (let p (constr Pair (hole) 2) (seq (setref p 1 7) p))))"""
        v, _, i = run_src(src, "main", [])
        assert i.render(v) == "(Pair 7 2)"

    def test_overwrite_raises(self):
        src = """(program (main
          (let p (constr Pair 1 2) (setref p 1 9))))"""
        with pytest.raises(TmcRuntimeError) as ei:
            run_src(src, "main", [])
        assert ei.value.code == "NonHoleOverwrite"

    def test_hole_then_write_then_read(self):
        src = """(program (main
          (let p (constr Pair 1 (hole))
            (seq (setref p 2 41) p))))"""
        v, _, i = run_src(src, "main", [])
        assert i.render(v) == "(Pair 1 41)"

    def test_index_out_of_range(self):
        src = "(program (main (let p (constr Pair 1 2) (setref p 3 0))))"
        with pytest.raises(TmcRuntimeError) as ei:
            run_src(src, "main", [])
        assert ei.value.code == "IndexOutOfRange"

    def test_hole_escape_detected_on_result(self):
        src = "(program (main (constr Pair 1 (hole))))"
        with pytest.raises(TmcRuntimeError) as ei:
            run_src(src, "main", [])
        assert ei.value.code == "HoleEscape"

    def test_matching_a_hole_raises(self):
        src = """(program
          (letrec (fun probe (p)
            (match p (case (Pair a b) (match b (case Nil 0) (case c 1))))))
          (main (call probe (constr Pair 1 (hole)))))"""
        with pytest.raises(TmcRuntimeError) as ei:
            run_src(src, "main", [])
        assert ei.value.code == "HoleInspected"

    def test_match_failure(self):
        src = "(program (main (match (constr Nil) (case (Cons a b) 0))))"
        with pytest.raises(TmcRuntimeError) as ei:
            run_src(src, "main", [])
        assert ei.value.code == "MatchFailure"


class TestEquality:
    """Values are equal when they render equal, as `diff` compares them."""

    def test_render_ignores_sharing(self):
        i = Interp(EMPTY)
        shared = Block("Leaf", [1])
        a = Block("Node", [shared, shared])
        b = Block("Node", [Block("Leaf", [1]), Block("Leaf", [1])])
        assert i.render(a) == i.render(b)
        assert i.render(a) != i.render(Block("Node", [shared, Block("Leaf", [2])]))

    def test_assert_no_holes_cycle_terminates(self):
        x = Block("Loop", [0])
        x.fields[0] = x
        Interp(EMPTY).assert_no_holes(x)  # must not loop forever


# Scalars near every edge of same_text: the largest ints it accepts, the
# smallest it refuses, one past the digit limit, and 12, whose text is the
# text of a block tagged "12".
_SCALARS = [0, 1, 12, -3, 2**2000 - 1, -(2**2000 - 1), 2**2000, 10**5000,
            "f", "g", VHOLE]
_TAGS = ["A", "B", "12"]
# Drawn by index: the strategy's repr would fail on 10**5000.
_scalars = st.integers(0, len(_SCALARS) - 1).map(lambda i: _SCALARS[i])


def blocks_of(v) -> list:
    """The blocks reachable from v, each once."""

    seen, todo = {}, [v]
    while todo:
        x = todo.pop()
        if x.__class__ is Block and id(x) not in seen:
            seen[id(x)] = x
            todo += x.fields
    return list(seen.values())


def copy_value(v):
    """A copy of v with the same sharing and cycles."""

    copies = {id(x): Block(x.tag, x.fields) for x in blocks_of(v)}
    for c in copies.values():
        c.fields = [copies[id(f)] if f.__class__ is Block else f
                    for f in c.fields]
    return copies[id(v)] if v.__class__ is Block else v


_trees = st.recursive(
    _scalars | st.sampled_from(_TAGS).map(lambda t: Block(t, [])),
    lambda kids: st.builds(Block, st.sampled_from(_TAGS),
                           st.lists(kids, max_size=3)),
    max_leaves=12)


def tie(draw, v) -> None:
    """Perhaps point one field of v at one of v's blocks: a shared block,
    or a cycle when that block holds the field."""

    blocks = blocks_of(v)
    holders = [x for x in blocks if x.fields]
    if holders and draw(st.booleans()):
        x = draw(st.sampled_from(holders))
        x.fields[draw(st.integers(0, len(x.fields) - 1))] = draw(
            st.sampled_from(blocks))


@st.composite
def value_pairs(draw):
    """Two values that often agree: a copy of the first, perhaps with a
    field changed or tied on one side, or a second value of its own."""

    a = draw(_trees)
    tie(draw, a)
    if draw(st.booleans()):
        return a, draw(_trees)
    b = copy_value(a)
    tie(draw, b)
    holders = [x for x in blocks_of(b) if x.fields]
    if holders and draw(st.booleans()):
        x = draw(st.sampled_from(holders))
        x.fields[draw(st.integers(0, len(x.fields) - 1))] = draw(_scalars)
    return a, b


def render_or_none(v):
    try:
        return Interp(EMPTY).render(v)
    except TmcRuntimeError:
        return None


# Trees whose copies same_text must accept: no hole, no wide int, no
# block twice.
_plain_trees = st.recursive(
    st.sampled_from([0, 7, -(2**2000 - 1), "f"])
    | st.sampled_from(_TAGS).map(lambda t: Block(t, [])),
    lambda kids: st.builds(Block, st.sampled_from(_TAGS),
                           st.lists(kids, max_size=3)),
    max_leaves=12)


class TestSameText:
    """`diff` takes same_text's True for equal texts and renders the rest."""

    @settings(max_examples=500)
    @given(value_pairs())
    def test_true_means_both_render_to_equal_text(self, pair):
        a, b = pair
        if same_text(a, b):
            text = render_or_none(a)
            assert text is not None and render_or_none(b) == text

    @given(_plain_trees)
    def test_true_on_a_copy_of_an_acyclic_unshared_tree(self, tree):
        assert same_text(tree, copy_value(tree))

    def test_equal_text_of_different_values_is_false(self):
        i = Interp(EMPTY)
        assert i.render(Block("12", [])) == i.render(12)
        assert not same_text(Block("12", []), 12)

    @pytest.mark.parametrize("a,b", [
        (VHOLE, VHOLE), (2**2000, 2**2000), ("f", "g"), (1, "1"),
        (Block("A", [1]), Block("B", [1])), (Block("A", [1]), Block("A", [1, 1])),
    ], ids=["hole", "wide_int", "names", "classes", "tags", "arity"])
    def test_false_cases(self, a, b):
        assert not same_text(a, b)

    def test_shared_and_cyclic_blocks_are_false(self):
        leaf = Block("Leaf", [1])
        assert not same_text(Block("Pair", [leaf, leaf]), Block("Pair", [leaf, leaf]))
        loop = Block("Loop", [0, VHOLE])
        loop.fields[1] = loop
        assert not same_text(loop, loop)
        # Only the first value's blocks are tracked; the lockstep walk still
        # ends, because a cycle of the second never matches a finite first.
        unrolled = Block("Loop", [0, Block("Loop", [0, Block("Nil", [])])])
        assert not same_text(unrolled, loop)

    def test_shared_empty_blocks_are_true(self):
        nil = Block("Nil", [])
        assert same_text(Block("Pair", [nil, nil]), Block("Pair", [nil, nil]))


class TestHoleCheck:
    def test_reports_the_first_hole_in_depth_first_order(self):
        # Fields are visited last to first: field 2's hole is found before
        # the one in field 1.
        root = Block("Pair", [VHOLE, Block("Cons", [VHOLE, 1])])
        with pytest.raises(TmcRuntimeError) as ei:
            Interp(EMPTY).assert_no_holes(root)
        assert str(ei.value) == "HoleEscape: hole reachable at field path 2.1"

    def test_hole_at_the_end_of_a_long_list(self):
        v = Block("Cons", [0, VHOLE])
        for n in range(1, 100_000):
            v = Block("Cons", [n, v])
        with pytest.raises(TmcRuntimeError) as ei:
            Interp(EMPTY).assert_no_holes(v)
        assert str(ei.value) == ("HoleEscape: hole reachable at field path "
                                 + ".".join(["2"] * 100_000))

    def test_hole_as_the_root(self):
        with pytest.raises(TmcRuntimeError) as ei:
            Interp(EMPTY).assert_no_holes(VHOLE)
        assert str(ei.value) == "HoleEscape: hole reachable at field path <root>"


class TestDeepValues:
    """Value walkers use explicit stacks: a 10^5-element list needs no
    more than the default host recursion limit."""

    N = 100_000

    def test_render_and_compare(self):
        i = Interp(EMPTY)
        v = list_value(range(self.N))
        text = i.render(v)
        assert text.startswith("(Cons 0 (Cons 1 ") and text.endswith(
            "Nil" + ")" * self.N)
        assert i.render(list_value(range(self.N))) == text
        assert i.render(list_value(range(1, self.N + 1))) != text

    def test_same_text_on_a_long_list(self):
        assert sys.getrecursionlimit() <= 1000
        v = list_value(range(self.N))
        assert same_text(v, list_value(range(self.N)))
        assert not same_text(v, list_value([*range(self.N - 1), -1]))

    def test_same_text_on_a_deep_chain_in_a_non_last_field(self):
        assert sys.getrecursionlimit() <= 1000
        v = gen_cmm_then_chain(10_000, Lcg(1))
        assert same_text(v, gen_cmm_then_chain(10_000, Lcg(1)))
        assert not same_text(v, gen_cmm_then_chain(10_000, Lcg(2)))

    def test_walkers_reject_cycles(self):
        x = Block("Loop", [0, VHOLE])
        x.fields[1] = x
        with pytest.raises(TmcRuntimeError) as ei:
            Interp(EMPTY).render(x)
        assert ei.value.code == "CyclicValue"

    def test_shared_blocks_are_not_cycles(self):
        leaf = Block("Leaf", [1])
        v = Block("Node", [leaf, Block("Pair", [leaf, leaf])])
        assert Interp(EMPTY).render(v) == "(Node (Leaf 1) (Pair (Leaf 1) (Leaf 1)))"


class TestMetricsAndLimits:
    def test_only_constructors_allocate(self):
        src = """(program (main
          (let a (call add 1 2)
            (let b (constr Cons a (constr Nil)) b))))"""
        _, m, _ = run_src(src, "main", [])
        assert m.allocations == 2

    def test_input_instantiation_is_not_counted(self):
        p = parse_program(
            "(program (letrec (fun id (x) x)) (main 0))")
        _, m, _ = eval_program(p, "id", [gen_value("list:50", Lcg(1))])
        assert m.allocations == 0

    def test_stack_limit(self):
        src = """(program
          (letrec (fun down (n)
            (match (call eq n 0)
              (case True 0)
              (case False (call add 1 (call down (call sub n 1)))))))
          (main 0))"""
        with pytest.raises(TmcRuntimeError) as ei:
            run_src(src, "down", [100], max_stack=50)
        assert ei.value.code == "StackLimit"

    def test_step_limit(self):
        src = """(program
          (letrec (fun spin (n) (call spin n)))
          (main 0))"""
        with pytest.raises(TmcRuntimeError) as ei:
            run_src(src, "spin", [0], max_steps=1000)
        assert ei.value.code == "StepLimit"

    def test_tail_calls_reuse_the_frame(self):
        # A self-tail-calling countdown touches depth 1 only, for a
        # million iterations, well under any stack limit.
        src = """(program
          (letrec (fun loop (n)
            (match (call eq n 0)
              (case True 0)
              (case False (call loop (call sub n 1))))))
          (main 0))"""
        _, m, _ = run_src(src, "loop", [1_000_000], max_stack=10)
        assert m.max_stack_depth == 1

    def test_non_tail_recursion_grows_the_stack(self):
        src = """(program
          (letrec (fun down (n)
            (match (call eq n 0)
              (case True 0)
              (case False (call add 1 (call down (call sub n 1)))))))
          (main 0))"""
        _, m, _ = run_src(src, "down", [40])
        assert m.max_stack_depth == 41


class TestEvalDps:
    def test_dps_entry_with_scratch_destination(self):
        p = parse_program((CORPUS / "map.tmc").read_text())
        from tmc_forge.transform import transform_program
        t = transform_program(p)
        v, m, i = eval_dps(t, "map_dps",
                           [gen_value("fun:add1", Lcg(1)),
                            list_value([1, 2])])
        assert i.render(v) == "(Cons 2 (Cons 3 Nil))"
        assert m.dest_writes == 3  # two conses + final nil

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_dps_entry_agrees_with_direct_entry(self, seed):
        # Writing through a one-slot scratch block must produce the same
        # value the original function returns.
        from tmc_forge.transform import transform_program
        p = parse_program((CORPUS / "map.tmc").read_text())
        args = [gen_value("fun:add1", Lcg(seed)),
                gen_value("list:17", Lcg(seed + 100))]
        v1, _, i1 = eval_program(p, "map", args)
        v2, _, i2 = eval_dps(transform_program(p), "map_dps", args)
        assert i1.render(v1) == i2.render(v2)

    def test_broken_dps_fixture_overwrites_a_filled_field(self):
        p = parse_program((FIXTURES / "broken_hole_map.tmc").read_text())
        with pytest.raises(TmcRuntimeError) as ei:
            eval_dps(p, "map_dps", [gen_value("fun:add1", Lcg(1)),
                                    gen_value("list:5", Lcg(2))])
        assert ei.value.code == "NonHoleOverwrite"


class TestFunctionValues:
    def test_function_passed_by_name(self):
        v, _, _ = run_src(
            "(program (letrec (fun twice (f x) (call f (call f x))))"
            " (main (call twice add1 40)))", "main", [])
        assert v == 42

    def test_calling_a_non_function_value(self):
        src = """(program
          (letrec (fun apply (f x) (call f x)))
          (main (call apply 3 4)))"""
        with pytest.raises(TmcRuntimeError) as ei:
            run_src(src, "main", [])
        assert ei.value.code == "NotAFunction"

    def test_arity_mismatch(self):
        src = "(program (letrec (fun f (x y) x)) (main (call f 1)))"
        with pytest.raises(TmcRuntimeError) as ei:
            run_src(src, "main", [])
        assert ei.value.code == "ArityMismatch"

    def test_unbound_variable(self):
        # well_formed flags this statically, but the runtime also rejects it
        src = "(program (letrec (fun f (x) zzz)) (main (call f 1)))"
        with pytest.raises(TmcRuntimeError) as ei:
            run_src(src, "main", [])
        assert ei.value.code == "UnboundName"

    # A function value is a name; a call through it resolves the name in the
    # function scope of the call site.
    H = "(fun h (y) (call add y {}))"

    def test_local_function_value_called_in_its_own_scope(self):
        src = (f"(program (letrec (fun top (x) (letrec {self.H.format(100)}"
               " (let g h (call g x))))) (main 0))")
        assert run_src(src, "top", [5])[0] == 105

    def test_enclosing_function_value_called_from_a_nested_group(self):
        src = ("(program (letrec (fun inc (y) (call add y 10)))"
               f" (letrec (fun top (x) (letrec {self.H.format(100)}"
               " (let g inc (call g x))))) (main 0))")
        assert run_src(src, "top", [5])[0] == 15

    def test_local_function_value_is_unbound_where_it_escapes_to(self):
        src = ("(program (letrec (fun apply (f x) (call f x)))"
               f" (letrec (fun top (x) (letrec {self.H.format(100)}"
               " (call apply h x)))) (main 0))")
        with pytest.raises(TmcRuntimeError) as ei:
            run_src(src, "top", [5])
        assert str(ei.value) == "UnboundName: h"

    def test_local_function_shadows_the_name_passed_in(self):
        src = (f"(program (letrec {self.H.format(1)})"
               f" (letrec (fun apply (f x) (letrec {self.H.format(1000)}"
               " (call f x)))) (main (call apply h 5)))")
        assert run_src(src, "main", [])[0] == 1005


class TestInstantiateAndRender:
    def test_nested_literal(self):
        v = Block("Node", [Block("Leaf", [1]), Block("Leaf", [2])])
        assert Interp(EMPTY).render(v) == "(Node (Leaf 1) (Leaf 2))"

    def test_list_lit(self):
        v = list_value([3, 4])
        assert Interp(EMPTY).render(v) == "(Cons 3 (Cons 4 Nil))"

    @given(st.lists(st.integers(-5, 5), max_size=6))
    def test_render_matches_input_list(self, xs):
        want = "".join(f"(Cons {x} " for x in xs) + "Nil" + ")" * len(xs)
        assert Interp(EMPTY).render(list_value(xs)) == want


class TestBoundBranches:
    """An `if` or `match` whose value is bound, not returned: each clause
    leaves its value in one register (MOVE) and jumps past the clauses
    after it (JUMP)."""

    SRC = """(program
      (letrec (fun (@ tail_mod_cons) f (v)
        (match v
          (case Nil (constr Nil))
          (case (Cons x rest)
            (let y (if (call leq x 50) 0 x)
              (let z (match rest (case Nil 7) (case _ y))
                (constr Cons (call add y z) (call f rest))))))))
      (main (int 0)))"""

    def test_the_code_moves_and_jumps(self):
        code = compile_program(parse_program(self.SRC)).functions["f"].code
        assert {MOVE, JUMP} <= {ins[0] for ins in code}

    def test_value_and_counters(self):
        # The input of `run --arg list:6 --seed 1`: 49 69 39 65 83 56.
        p = parse_program(self.SRC)
        arg = gen_value("list:6", Lcg(1))
        for prog, counters in ((p, (7, 7, 0, 111)),
                               (transform_program(p), (2, 7, 6, 175))):
            v, m, i = eval_program(prog, "f", [arg])
            assert i.render(v) == ("(Cons 0 (Cons 138 (Cons 0 (Cons 130"
                                   " (Cons 166 (Cons 63 Nil))))))")
            assert (m.max_stack_depth, m.allocations, m.dest_writes,
                    m.steps) == counters

    def test_steps_on_one_element_by_hand(self):
        # One step per node whose evaluation starts.  f's body: match, v;
        # let y, the if's match, leq, x, 50, the True clause's 0 (8); let z,
        # match, rest, the Nil clause's 7 (12); then, in the original, Cons,
        # add, y, z, call f, rest (18) and f(Nil): match, v, Nil (21).  The
        # direct version goes on with let dst0, Cons, add, y, z, hole (18),
        # seq, call f_dps, dst0, 2, rest (23), f_dps(Nil): match, v,
        # setref, dst, idx, Nil (29), and returns dst0 (30).
        p = parse_program(self.SRC)
        for prog, counters in ((p, (2, 2, 0, 21)),
                               (transform_program(p), (2, 2, 1, 30))):
            v, m, i = eval_program(prog, "f", [list_value([5])])
            assert i.render(v) == "(Cons 7 Nil)"
            assert (m.max_stack_depth, m.allocations, m.dest_writes,
                    m.steps) == counters

    def test_diff_finds_no_failure(self):
        report = run_diff(parse_program(self.SRC), "f", ["list:6"], 50, 1)
        assert report.failures == [] and report.trace_divergences == []


def test_printed_hole_and_a_nested_pattern_that_fails_on_a_field():
    # print renders the hole in its argument; (Pair a b) does not match the
    # int 5, so the second clause is taken.
    v, m, i = run_src("""(program (main
      (seq (call print (constr Box (hole)))
        (match (constr Cons 5 (constr Nil))
          (case (Cons (Pair a b) rest) 0)
          (case (Cons y rest) (tuple y 1))))))""", "main", [])
    assert i.render(v) == "(Tuple 5 1)"
    assert m.effect_trace == ["(Box <hole>)"]
