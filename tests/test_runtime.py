"""Interpreter semantics: builtins, mutable blocks, hole discipline,
metrics accounting, tail-call frame reuse."""

import pytest
from hypothesis import given, strategies as st

from tmc_forge.gen import Lcg, gen_value
from tmc_forge.ir import Int, Program
from tmc_forge.runtime import (
    Interp,
    LBlock,
    LInt,
    TmcRuntimeError,
    VHOLE,
    VInt,
    eval_dps,
    eval_program,
    list_lit,
)
from tmc_forge.surface import parse_program

from conftest import CORPUS, FIXTURES


EMPTY = Program([], Int(0))


def run_src(src, entry, args, **kw):
    return eval_program(parse_program(src), entry, args, **kw)


class TestBuiltins:
    def test_arithmetic(self):
        v, _, _ = run_src("(program (main (call add 2 3)))", "main", [])
        assert v == VInt(5)
        v, _, _ = run_src("(program (main (call sub 2 3)))", "main", [])
        assert v == VInt(-1)
        v, _, _ = run_src("(program (main (call add1 41)))", "main", [])
        assert v == VInt(42)

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
        assert v == VInt(1)

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
    def test_struct_eq_ignores_sharing(self):
        i = Interp(EMPTY)
        shared = i.alloc("Leaf", [VInt(1)])
        a = i.alloc("Node", [shared, shared])
        b = i.alloc("Node", [i.alloc("Leaf", [VInt(1)]),
                             i.alloc("Leaf", [VInt(1)])])
        assert i.struct_eq(a, b)

    def test_struct_eq_cyclic_terminates(self):
        i = Interp(EMPTY)
        # two distinct one-node cycles compare equal
        x = i.alloc("Loop", [VInt(0)])
        i.blocks[x.addr].fields[0] = x
        y = i.alloc("Loop", [VInt(0)])
        i.blocks[y.addr].fields[0] = y
        assert i.struct_eq(x, y)

    def test_assert_no_holes_cycle_terminates(self):
        i = Interp(EMPTY)
        x = i.alloc("Loop", [VInt(0)])
        i.blocks[x.addr].fields[0] = x
        i.assert_no_holes(x)  # must not loop forever


class TestHoleCheck:
    def test_reports_the_first_hole_in_depth_first_order(self):
        # Fields are visited last to first: field 2's hole is found before
        # the one in field 1.
        i = Interp(EMPTY)
        inner = i.alloc("Cons", [VHOLE, VInt(1)])
        root = i.alloc("Pair", [VHOLE, inner])
        with pytest.raises(TmcRuntimeError) as ei:
            i.assert_no_holes(root)
        assert str(ei.value) == "HoleEscape: hole reachable at field path 2.1"

    def test_hole_at_the_end_of_a_long_list(self):
        i = Interp(EMPTY)
        v = i.alloc("Cons", [VInt(0), VHOLE])
        for n in range(1, 100_000):
            v = i.alloc("Cons", [VInt(n), v])
        with pytest.raises(TmcRuntimeError) as ei:
            i.assert_no_holes(v)
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

    def test_render_snapshot_compare_and_repr(self):
        i = Interp(EMPTY)
        lit = list_lit(range(self.N))
        v = i.instantiate(lit)
        text = i.render(v)
        assert text.startswith("(Cons 0 (Cons 1 ") and text.endswith(
            "Nil" + ")" * self.N)
        snap = i.snapshot(v)
        assert snap == lit and not snap != lit
        assert snap != list_lit(range(1, self.N + 1))
        assert repr(snap).startswith("(Cons LInt(n=0) (Cons LInt(n=1) ")

    def test_walkers_reject_cycles(self):
        i = Interp(EMPTY)
        x = i.alloc("Loop", [VInt(0), VHOLE])
        i.blocks[x.addr].fields[1] = x
        for walk in (i.render, i.snapshot):
            with pytest.raises(TmcRuntimeError) as ei:
                walk(x)
            assert ei.value.code == "CyclicValue"

    def test_shared_blocks_are_not_cycles(self):
        i = Interp(EMPTY)
        leaf = i.alloc("Leaf", [VInt(1)])
        v = i.alloc("Node", [leaf, leaf])
        assert i.render(v) == "(Node (Leaf 1) (Leaf 1))"
        assert i.snapshot(v) == LBlock("Node", (LBlock("Leaf", (LInt(1),)),) * 2)


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
            run_src(src, "down", [LInt(100)], max_stack=50)
        assert ei.value.code == "StackLimit"

    def test_step_limit(self):
        src = """(program
          (letrec (fun spin (n) (call spin n)))
          (main 0))"""
        with pytest.raises(TmcRuntimeError) as ei:
            run_src(src, "spin", [LInt(0)], max_steps=1000)
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
        _, m, _ = run_src(src, "loop", [LInt(1_000_000)], max_stack=10)
        assert m.max_stack_depth == 1

    def test_non_tail_recursion_grows_the_stack(self):
        src = """(program
          (letrec (fun down (n)
            (match (call eq n 0)
              (case True 0)
              (case False (call add 1 (call down (call sub n 1)))))))
          (main 0))"""
        _, m, _ = run_src(src, "down", [LInt(40)])
        assert m.max_stack_depth == 41


class TestEvalDps:
    def test_dps_entry_with_scratch_destination(self):
        p = parse_program((CORPUS / "map.tmc").read_text())
        from tmc_forge.transform import transform_program
        t = transform_program(p)
        v, m, i = eval_dps(t, "map_dps",
                           [gen_value("fun:add1", Lcg(1)),
                            list_lit([LInt(1), LInt(2)])])
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
        assert i1.snapshot(v1) == i2.snapshot(v2)

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
        assert v == VInt(42)

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


class TestInstantiateAndRender:
    def test_nested_literal(self):
        i = Interp(EMPTY)
        v = i.instantiate(LBlock("Node", (LBlock("Leaf", (LInt(1),)),
                                          LBlock("Leaf", (LInt(2),)))))
        assert i.render(v) == "(Node (Leaf 1) (Leaf 2))"

    def test_list_lit(self):
        i = Interp(EMPTY)
        v = i.instantiate(list_lit([LInt(3), LInt(4)]))
        assert i.render(v) == "(Cons 3 (Cons 4 Nil))"

    @given(st.lists(st.integers(-5, 5), max_size=6))
    def test_snapshot_matches_input_literal(self, xs):
        i = Interp(EMPTY)
        lit = list_lit([LInt(x) for x in xs])
        assert i.snapshot(i.instantiate(lit)) == lit
