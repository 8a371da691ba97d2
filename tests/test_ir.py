"""Core tree invariants: well-formedness diagnostics, identifier
collection and equality."""

import pytest
from hypothesis import given, strategies as st

from tmc_forge.analysis import resolve_scope
from tmc_forge.ir import (
    Call,
    Constr,
    Expr,
    FunDef,
    Hole,
    Int,
    Let,
    Letrec,
    Match,
    PConstr,
    PVar,
    Program,
    Seq,
    SetRef,
    Var,
    pattern_vars,
    well_formed,
)
from tmc_forge.surface import parse_program

from conftest import load, marked_chain, same_tree


def prog(body, params=("x",), name="f"):
    return Program([[FunDef(name, list(params), body)]], Int(0))


def codes(p):
    return sorted(d.code for d in well_formed(p))


# Each well-formedness code, from an expression or from a letrec group.
_BAD_EXPR = {
    "MisplacedHole": lambda: Hole(),
    "UnboundCallee": lambda: Call("nope", [Int(1)]),
    "ArityMismatch": lambda: Call("add", [Int(1)]),
    "EmptyMatch": lambda: Match(Int(1), []),
    "InvalidIndex": lambda: SetRef(Constr("Box", [Hole()]), Int(0), Int(1)),
    "DuplicatePatternVar": lambda: Match(Int(1), [
        (PConstr("Pair", [PVar("a"), PVar("a")]), Var("a"))]),
}
_BAD_GROUP = {
    "DuplicateFunction": lambda: [FunDef("h", ["x"], Int(1)),
                                  FunDef("h", ["y"], Int(2))],
    "DuplicateParam": lambda: [FunDef("h", ["x", "x"], Int(1))],
    "NoParams": lambda: [FunDef("h", [], Int(1))],
}


class TestWellFormed:
    def test_corpus_is_clean(self):
        for name in ("map.tmc", "merge.tmc", "flatten_nested.tmc",
                     "map_tail.tmc", "umap.tmc"):
            assert well_formed(load(name)) == []

    def test_duplicate_param(self):
        p = Program([[FunDef("f", ["x", "x"], Var("x"))]], Int(0))
        assert codes(p) == ["DuplicateParam"]

    def test_no_params(self):
        p = Program([[FunDef("f", [], Int(1))]], Int(0))
        assert codes(p) == ["NoParams"]

    def test_duplicate_function_in_group(self):
        p = Program([[FunDef("f", ["x"], Var("x")),
                      FunDef("f", ["y"], Var("y"))]], Int(0))
        assert "DuplicateFunction" in codes(p)

    def test_duplicate_function_across_groups(self):
        p = Program([[FunDef("f", ["x"], Var("x"))],
                     [FunDef("f", ["y"], Var("y"))]], Int(0))
        assert "DuplicateFunction" in codes(p)

    def test_duplicate_pattern_var(self):
        body = Match(Var("x"), [(PConstr("Pair", [PVar("a"), PVar("a")]),
                                 Var("a"))])
        assert codes(prog(body)) == ["DuplicatePatternVar"]

    def test_unbound_callee(self):
        assert codes(prog(Call("nope", [Var("x")]))) == ["UnboundCallee"]

    def test_callee_may_be_value_binder(self):
        body = Let("g", Var("x"), Call("g", [Int(1)]))
        assert codes(prog(body)) == []

    def test_empty_match(self):
        assert codes(prog(Match(Var("x"), []))) == ["EmptyMatch"]

    def test_hole_only_under_constructor(self):
        assert codes(prog(Constr("Cons", [Var("x"), Hole()]))) == []
        assert codes(prog(Hole())) == ["MisplacedHole"]
        assert codes(prog(Let("y", Hole(), Var("y")))) == ["MisplacedHole"]
        # A hole one level deeper than a constructor argument is misplaced.
        nested = Constr("Cons", [Var("x"), Let("y", Int(1), Hole())])
        assert codes(prog(nested)) == ["MisplacedHole"]

    def test_setref_index_must_be_positive(self):
        body = SetRef(Var("x"), Int(0), Int(1))
        assert codes(prog(body)) == ["InvalidIndex"]

    def test_local_functions_do_not_capture_value_vars(self):
        # The body of a local function sees only its own params and
        # functions, never the enclosing value environment.
        body = Letrec([FunDef("g", ["y"], Call("add", [Var("y"), Var("x")]))],
                      Call("g", [Int(1)]))
        assert "UnboundCallee" not in codes(prog(body))
        # Var("x") in g's body is unbound but variable use is not
        # diagnosed statically; the runtime rejects it.

    @pytest.mark.parametrize("code", sorted(_BAD_EXPR) + sorted(_BAD_GROUP))
    def test_each_code_in_a_nested_group_and_in_main(self, code):
        if code in _BAD_EXPR:
            bad = _BAD_EXPR[code]
            nested = Letrec([FunDef("g", ["y"], bad())], Call("g", [Int(1)]))
            in_main = Program([], bad())
        else:
            nested = Letrec(_BAD_GROUP[code](), Int(1))
            in_main = Program([], Letrec(_BAD_GROUP[code](), Int(1)))
        assert codes(prog(nested)) == [code]
        # Two levels of letrec, under a constructor argument.
        assert codes(prog(Constr("Box", [Letrec(
            [FunDef("k", ["z"], nested)], Call("k", [Int(2)]))]))) == [code]
        assert codes(in_main) == [code]

    def test_unknown_node_is_a_type_error(self):
        class Weird(Expr):
            span = None

        with pytest.raises(TypeError, match="unknown expression node"):
            well_formed(prog(Seq(Int(1), Weird())))

    def test_diagnostics_come_in_source_pre_order(self):
        # Toplevel duplicates first, then each group and main, each node
        # before its children and a pattern before its clause body.
        pair_aa = PConstr("Pair", [PVar("a"), PVar("a")])
        inner = [FunDef("g", [], Match(Int(1), [(pair_aa, Hole())])),
                 FunDef("g", ["y", "y"], Call("add", [Int(1)]))]
        f = FunDef("f", ["x"], Seq(SetRef(Var("x"), Int(0), Int(1)),
                                   Letrec(inner, Call("nope", [Var("x")]))))
        p = Program([[f, FunDef("f", ["x"], Match(Var("x"), []))],
                     [FunDef("f", ["x"], Var("x"))]], Hole())
        assert [d.code for d in well_formed(p)] == [
            "DuplicateFunction",  # the second f, at toplevel
            "DuplicateFunction",  # the third f, at toplevel
            "InvalidIndex", "NoParams", "DuplicatePatternVar", "MisplacedHole",
            "DuplicateFunction", "DuplicateParam", "ArityMismatch",
            "UnboundCallee",
            "DuplicateFunction",  # the second f again, in its group
            "EmptyMatch", "MisplacedHole"]


# A small recursive strategy over hole-free expressions.
_expr = st.deferred(lambda: st.one_of(
    st.integers(-50, 50).map(Int),
    st.sampled_from(["x", "y", "z"]).map(Var),
    st.tuples(_expr, _expr).map(lambda t: Seq(*t)),
    st.tuples(st.sampled_from(["a", "b"]), _expr, _expr)
      .map(lambda t: Let(*t)),
    st.lists(_expr, max_size=3).map(lambda a: Constr("K", a)),
))


class TestIdentifiers:
    @given(_expr)
    def test_scope_verdict_identifiers_are_every_name(self, e):
        ids = resolve_scope(Program([], e)).identifiers
        names, stack = set(), [e]
        while stack:
            n = stack.pop()
            if isinstance(n, Var):
                names.add(n.name)
            if isinstance(n, Let):
                names.add(n.binder)
            for attr in ("first", "second", "bound", "body"):
                if hasattr(n, attr):
                    stack.append(getattr(n, attr))
            if isinstance(n, Constr):
                names.add(n.tag)
                stack.extend(n.args)
        assert ids == names

    def test_scope_verdict_identifiers_include_patterns_and_definitions(self):
        p = parse_program("(program (letrec (fun f (x) (match x (case (Only "
                          "(Pair y _)) y) (case 0 (int 1))))) (main (int 0)))")
        assert resolve_scope(p).identifiers == {"f", "x", "Only", "Pair", "y"}

    def test_pattern_vars_in_order(self):
        pat = PConstr("Node", [PVar("l"), PConstr("Leaf", [PVar("v")])])
        assert pattern_vars(pat) == ["l", "v"]


class TestEquality:
    def test_deep_trees_compare_without_recursion(self):
        text = marked_chain(2000)
        a, b = parse_program(text), parse_program(text)
        assert a != b  # nodes compare by identity
        assert same_tree(a, b)
        # One constant, 1997 layers down, differs.
        changed = text.replace("(case 1997 ", "(case 7 ")
        assert changed != text
        assert not same_tree(a, parse_program(changed))
