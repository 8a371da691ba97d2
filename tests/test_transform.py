"""Destination-passing rewrite: output shape, write compression,
tail-position discipline, determinism."""

import sys
import threading
from collections import Counter

import pytest
from hypothesis import given, settings

from tmc_forge.analysis import collect_marks, resolve_scope
from tmc_forge.gen import list_value
from tmc_forge.ir import (
    Call,
    Constr,
    Expr,
    Let,
    Letrec,
    Match,
    Program,
    Seq,
    SetRef,
    children,
    well_formed,
)
from tmc_forge.runtime import eval_program
from tmc_forge.surface import parse_program, print_program
from tmc_forge.transform import (
    FreshNamer,
    TransformError,
    transform_program,
)

from conftest import CORPUS, ROOT, load, marked_chain, nested_chain, same_tree
from test_properties import programs

sys.path.insert(0, str(ROOT / "benchmark"))
from workloads import corpus_units, generate_program  # noqa: E402


def fundefs(p: Program):
    return {f.name: f for f in resolve_scope(p).definitions}


def tail_leaves(e: Expr):
    """The expressions in evaluated-last position of a body."""
    if isinstance(e, Let):
        yield from tail_leaves(e.body)
    elif isinstance(e, Seq):
        yield from tail_leaves(e.second)
    elif isinstance(e, Match):
        for _, b in e.clauses:
            yield from tail_leaves(b)
    elif isinstance(e, Letrec):
        yield from tail_leaves(e.body)
    else:
        yield e


def assert_completes(text, compress, what):
    """Every control path of each DPS body of text's rewrite ends in one
    destination write or one call to a DPS companion."""
    p = parse_program(text)
    t = transform_program(p, compress=compress)
    dps_names = set(collect_marks(resolve_scope(p)).dps_name.values())
    for f in resolve_scope(t).definitions:
        stack = [f.body] if f.name in dps_names else []
        while stack:
            e = stack.pop()
            if isinstance(e, (Let, Seq, Match, Letrec)):
                stack += [c for c, _, tmc in children(e) if tmc is not None]
            else:
                assert isinstance(e, SetRef) or (
                    isinstance(e, Call) and e.callee in dps_names), (
                    what, compress, f.name, e)


class TestMapShape:
    def test_map_dps_structure(self):
        t = transform_program(load("map.tmc"))
        fs = fundefs(t)
        assert set(fs) == {"map", "map_dps"}
        dps = fs["map_dps"]
        assert dps.params == ["dst", "idx", "f", "xs"]
        leaves = list(tail_leaves(dps.body))
        # Nil clause writes; Cons clause tail-calls the companion.
        assert any(isinstance(l, SetRef) for l in leaves)
        assert any(isinstance(l, Call) and l.callee == "map_dps"
                   for l in leaves)

    def test_direct_map_switches_into_dps_under_constructor(self):
        t = transform_program(load("map.tmc"))
        body = fundefs(t)["map"].body
        leaves = list(tail_leaves(body))
        # The rewritten Cons clause evaluates to the freshly allocated
        # block variable, not to a call.
        assert any(not isinstance(l, (Call, SetRef)) for l in leaves)
        text = print_program(t)
        assert "(hole)" in text
        assert "map_dps" in text

    def test_main_call_not_rewritten(self):
        t = transform_program(load("map_toplevel_call.tmc"))
        assert isinstance(t.main, Call)
        assert t.main.callee == "map"


class TestDpsTailDiscipline:
    @pytest.mark.parametrize("name", [
        "map.tmc", "filter.tmc", "merge.tmc", "umap.tmc", "map_tail.tmc",
        "tree_map_annotated.tmc", "flatten_nested.tmc", "flatten_mutual.tmc",
        "map_variants.tmc", "noisy_constr_args.tmc", "map_toplevel_call.tmc",
    ])
    def test_every_dps_tail_leaf_completes_the_destination(self, name):
        for compress in (True, False):
            assert_completes((CORPUS / name).read_text(), compress, name)

    def test_every_dps_path_completes_once_on_the_pool(self):
        units = corpus_units()
        for i in range(64):
            assert_completes(generate_program(i, units), True, f"pool {i}")

    @settings(max_examples=300, deadline=None)
    @given(programs())
    def test_every_dps_path_completes_once_on_generated_programs(self, case):
        for compress in (True, False):
            try:
                assert_completes(case[1], compress, case[1])
            except TransformError:
                return

    @pytest.mark.parametrize("name", [
        "map.tmc", "umap.tmc", "merge.tmc", "tree_map_annotated.tmc",
    ])
    def test_attrs_are_consumed(self, name):
        t = transform_program(load(name))
        for f in resolve_scope(t).definitions:
            assert f.attrs == frozenset()
        assert "(@" not in print_program(t)


class TestCompression:
    def count_writes_per_step(self, compress):
        t = transform_program(load("umap.tmc"), compress=compress)
        dps = fundefs(t)[
            collect_marks(resolve_scope(load("umap.tmc"))).dps_name["umap"]]
        # Number of setref nodes along the two-element clause.
        two_elem = dps.body.clauses[2][1]
        n = [0]

        def walk(e):
            if isinstance(e, SetRef):
                n[0] += 1
            for attr in ("bound", "body", "first", "second", "dest",
                         "index", "value"):
                if hasattr(e, attr):
                    walk(getattr(e, attr))
            if isinstance(e, (Constr, Call)):
                for a in e.args:
                    walk(a)
            if isinstance(e, Match):
                for _, b in e.clauses:
                    walk(b)

        walk(two_elem)
        return n[0]

    def test_compressed_unrolled_step_writes_once(self):
        assert self.count_writes_per_step(compress=True) == 1

    def test_naive_unrolled_step_writes_twice(self):
        assert self.count_writes_per_step(compress=False) == 2

    def test_sibling_arguments_are_let_bound_in_order(self):
        t = transform_program(load("umap.tmc"))
        dps = fundefs(t)["umap_dps"]
        body = dps.body.clauses[2][1]
        # (f x1) and (f x2) are bound before any allocation so the
        # original left-to-right evaluation order survives compression.
        from tmc_forge.ir import Var
        assert isinstance(body, Let)
        assert same_tree(body.bound, Call("f", [Var("x1")]))
        inner = body.body
        assert isinstance(inner, Let)
        assert same_tree(inner.bound, Call("f", [Var("x2")]))


class TestErrorsAndDeterminism:
    def test_ambiguity_is_a_transform_error(self):
        with pytest.raises(TransformError) as ei:
            transform_program(load("tree_map_ambiguous.tmc"))
        codes = [d.code for d in ei.value.diagnostics]
        assert codes == ["AmbiguousTmc"]

    def test_unmarked_program_is_returned_unchanged(self):
        p = parse_program(
            "(program (letrec (fun f (x) (constr Cons x (call f x))))"
            " (main (int 0)))")
        assert same_tree(transform_program(p), p)

    def test_transform_is_deterministic(self):
        a = print_program(transform_program(load("merge.tmc")))
        b = print_program(transform_program(load("merge.tmc")))
        assert a == b

    def test_transformed_program_is_well_formed(self):
        for name in ("map.tmc", "merge.tmc", "umap.tmc", "flatten_nested.tmc",
                     "map_tail.tmc", "map_variants.tmc"):
            assert well_formed(transform_program(load(name))) == [], name

    def test_local_group_is_rewritten_once_and_shared(self):
        # flatten_nested's local group sits in the context of both versions
        # of `flatten`; both hold the one rewritten group.
        t = transform_program(load("flatten_nested.tmc"))
        direct, dps = t.groups[0]
        groups, stack = [], [direct.body, dps.body]
        while stack:
            x = stack.pop()
            if isinstance(x, Letrec):
                groups.append(x.group)
            stack.extend(c for c, _, _ in children(x))
        assert len(groups) == 2 and groups[0] is groups[1]

    def test_constructor_in_an_unpicked_argument_is_copied_verbatim(self):
        # Box lies in Pair's unpicked second argument, so it is not part of
        # the context, nor is anything below it: both versions copy it as a
        # hole.  The second Box is ambiguous itself; its error is dropped.
        for text in ("(constr Box x (call f rest))",
                     "(constr Box (let z x (constr Cons z (call f rest)))"
                     " (call f rest))"):
            p = parse_program(
                "(program (letrec (fun (@ tail_mod_cons) f (v) (match v"
                " (case Nil (constr Nil)) (case (Cons x rest) (constr Pair"
                f" (call (@ tailcall) f rest) {text})))))"
                " (main (int 0)))")
            box = parse_program(f"(program (main {text}))").main
            for name, f in fundefs(transform_program(p)).items():
                found, stack = [], [f.body]
                while stack:
                    x = stack.pop()
                    if isinstance(x, Constr) and x.tag == "Box":
                        found.append(x)
                    stack.extend(c for c, _, _ in children(x))
                assert len(found) == 1 and same_tree(found[0], box), name

    def test_transform_output_round_trips_through_printer(self):
        t = transform_program(load("flatten_mutual.tmc"))
        assert same_tree(parse_program(print_program(t)), t)

    def test_deep_let_seq_match_chain_under_default_recursion_limit(self):
        # A marked map whose Cons case is 300 nested let/seq/match layers
        # (a third of each, interleaved) with the recursive call at the
        # bottom: the rewrite recurses about one frame per layer.
        src = marked_chain(300)
        t = transform_program(parse_program(src))
        assert set(fundefs(t)) == {"f", "f_dps"}
        assert well_formed(t) == []
        # Round-trips through the printer, as a tree and as text.
        text = print_program(t)
        assert same_tree(parse_program(text), t)
        assert print_program(parse_program(text)) == text


    def test_each_node_is_expanded_once_before_the_rewrite(self,
                                                            monkeypatch):
        # resolve_scope's walk, which also checks well-formedness, is the
        # only pass over the source before the rewrite; the rewrite's own
        # expansions go through transform.children, which is not counted.
        from tmc_forge import analysis, ir
        counts = Counter()

        def counting(e):
            counts[id(e)] += 1
            return expand(e)

        expand = ir.children
        monkeypatch.setattr(ir, "children", counting)
        monkeypatch.setattr(analysis, "children", counting)
        for p in (load("flatten_nested.tmc"), parse_program(nested_chain(20)),
                  parse_program(marked_chain(30))):
            counts.clear()
            transform_program(p)
            assert set(counts.values()) == {1}

    def test_nested_letrec_chain_3000_deep_round_trips(self):
        assert threading.current_thread() is threading.main_thread()
        assert sys.getrecursionlimit() <= 1000
        p = parse_program(nested_chain(3000))
        t = transform_program(p)
        assert set(fundefs(t)) == {f"g{k}" for k in range(3001)} | {"g3000_dps"}
        # Round-trips through the printer.
        text = print_program(t)
        assert print_program(parse_program(text)) == text
        arg = list_value([1, 2, 3])
        v1, _, i1 = eval_program(p, "g0", [arg])
        v2, m2, i2 = eval_program(t, "g0", [arg])
        assert i1.render(v1) == i2.render(v2) == "(Cons 1 (Cons 2 (Cons 3 Nil)))"


class TestFreshNamer:
    def test_avoids_reserved(self):
        n = FreshNamer({"dst0", "y0"})
        assert n.fresh("dst") == "dst1"
        assert n.fresh("y") == "y1"
        assert n.fresh("y") == "y2"

    def test_sequential(self):
        n = FreshNamer()
        assert [n.fresh("dst") for _ in range(3)] == ["dst0", "dst1", "dst2"]
