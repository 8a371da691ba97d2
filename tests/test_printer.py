"""The linear printer against the recursive reference printer, at the
72-column boundary of every form, and at depths the reference cannot reach."""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from tmc_forge.ir import (
    Call,
    Constr,
    FunDef,
    Hole,
    Int,
    Let,
    Letrec,
    Match,
    PConstr,
    PInt,
    PVar,
    PWild,
    Program,
    Seq,
    SetRef,
    Var,
)
from tmc_forge.surface import parse_program, print_program
from tmc_forge.transform import TransformError, transform_program

import reference_printer as ref
from conftest import CORPUS, GOLDENS, same_tree
from test_properties import programs


def test_corpus_and_goldens_match_the_reference():
    paths = sorted(CORPUS.glob("*.tmc")) + sorted(GOLDENS.glob("*.tmc"))
    for path in paths:
        p = parse_program(path.read_text())
        assert print_program(p) == ref.print_program(p), path.name
        try:
            t = transform_program(p)
        except TransformError:
            continue
        assert print_program(t) == ref.print_program(t), path.name


@settings(max_examples=150, deadline=None)
@given(programs())
def test_generated_programs_and_transforms_match_the_reference(case):
    _, text = case
    p = parse_program(text)
    assert print_program(p) == ref.print_program(p), text
    try:
        t = transform_program(p)
    except TransformError:
        return
    assert print_program(t) == ref.print_program(t), text


# Every node kind, with names of varied length so that widths straddle the
# limit at varied indents.
_names = st.sampled_from(["x", "acc", "a_much_longer_name", "v" * 30])
_pats = st.deferred(lambda: st.one_of(
    _names.map(PVar), st.just(PWild()), st.integers(-9, 99).map(PInt),
    st.tuples(st.sampled_from(["Nil", "Cons", "Node"]),
              st.lists(_pats, max_size=3)).map(lambda t: PConstr(*t))))
_marks = st.sampled_from([frozenset(), frozenset({"tail_mod_cons"})])


def _fundefs(body):
    return st.builds(FunDef, _names, st.lists(_names, min_size=1, max_size=3),
                     body, _marks)


def _compound(kids):
    return st.one_of(
        st.builds(Call, _names, st.lists(kids, max_size=3),
                  st.sampled_from([frozenset(), frozenset({"tailcall"})])),
        st.builds(Let, _names, kids, kids),
        st.builds(Seq, kids, kids),
        st.builds(Constr, st.sampled_from(["Cons", "Pair", "Tuple"]),
                  st.lists(kids, max_size=3)),
        st.builds(Match, kids, st.lists(st.tuples(_pats, kids), min_size=1,
                                        max_size=3)),
        st.builds(SetRef, kids, kids, kids),
        st.builds(Letrec, st.lists(_fundefs(kids), min_size=1, max_size=2),
                  kids))


_exprs = st.recursive(
    st.one_of(_names.map(Var), st.integers(-999, 999).map(Int), st.just(Hole())),
    _compound, max_leaves=40)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(_fundefs(_exprs), min_size=1, max_size=2), max_size=2),
       _exprs)
def test_every_node_kind_matches_the_reference(groups, main):
    p = Program(groups, main)
    assert print_program(p) == ref.print_program(p)


# ---------------------------------------------------------------------------
# The 72-column boundary.  Each case builds a program around a name of
# length n; the node under test sits at a known indent and its flat width
# grows by one column per character of the name.
# ---------------------------------------------------------------------------

def _main(e):
    return Program([], e), e, 8  # "  (main " puts main at column 8


def _in_group(f):
    return Program([[f]], Int(0)), f, 4  # "    " before each group member


def _clause(name):
    # The match is too wide for one line, so each clause decides at the
    # match's indent plus 2.
    clause = (PConstr("Cons", [PVar("x"), PVar("rest")]),
              Constr("Cons", [Var("x"), Var(name)]))
    m = Match(Var("s" * 40), [clause, (PWild(), Var("y"))])
    return Program([], m), clause, 10


CASES = {
    "let": lambda n: _main(Let("y", Call("add", [Var("x"), Int(1)]),
                               Constr("Cons", [Var("y"), Var(n)]))),
    "seq": lambda n: _main(Seq(Call("print", [Var("x")]),
                               Constr("Cons", [Var("x"), Var(n)]))),
    "constr": lambda n: _main(Constr("Cons", [Var("x"),
                                              Call("f", [Var(n)])])),
    "call_tailcall": lambda n: _main(Call("f", [Var("x"), Var(n)],
                                          frozenset({"tailcall"}))),
    # With no arguments, a broken call or constr puts only its ")" on a
    # line of its own.
    "call_no_args": lambda n: _main(Call(n, [])),
    "constr_no_args": lambda n: _main(Constr("C" + n, [])),
    "match_case": lambda n: _clause(n),
    "setref": lambda n: _main(SetRef(Var("dst"), Int(1),
                                     Constr("Cons", [Var("x"), Var(n)]))),
    "letrec": lambda n: _main(Letrec([FunDef("g", ["x"], Var("x"))],
                                     Call("g", [Var(n)]))),
    "fun_tail_mod_cons": lambda n: _in_group(FunDef(
        "f", ["xs"], Constr("Cons", [Var("x"), Call("f", [Var(n)])]),
        frozenset({"tail_mod_cons"}))),
}


def _flat(node):
    if isinstance(node, tuple):
        pat, body = node
        return f"(case {ref._pat_str(pat)} {ref._inline(body)})"
    if isinstance(node, FunDef):
        return ref._fundef_inline(node)
    return ref._inline(node)


@pytest.mark.parametrize("column", [72, 73])
@pytest.mark.parametrize("kind", sorted(CASES))
def test_width_boundary(kind, column):
    build = CASES[kind]
    _, node, indent = build("n")
    n = column - indent - len(_flat(node)) + 1
    p, node, indent = build("n" * n)
    flat = _flat(node)
    assert indent + len(flat) == column
    text = print_program(p)
    assert text == ref.print_program(p)
    assert (flat in text) == (column <= 72)
    assert same_tree(parse_program(text), p)


# ---------------------------------------------------------------------------
# Depth
# ---------------------------------------------------------------------------

def _chain(depth):
    """A let/seq/match chain `depth` layers deep, built without the parser."""

    e = Constr("Cons", [Var("x"), Call("f", [Var("rest")])])
    for i in reversed(range(depth)):
        if i % 3 == 0:
            e = Let(f"v{i}", Call("add", [Var("x"), Int(i % 10)]), e)
        elif i % 3 == 1:
            e = Seq(Call("add1", [Var("x")]), e)
        else:
            e = Match(Var("x"), [(PInt(i), Constr("Nil", [])),
                                 (PVar(f"v{i}"), e)])
    return e


def test_chain_of_depth_3000_prints_under_the_default_recursion_limit():
    assert sys.getrecursionlimit() <= 1000
    text = print_program(Program([[FunDef("f", ["x", "rest"], _chain(3000))]],
                                 Int(0)))
    assert text.count("(let ") == text.count("(seq ") == 1000
    assert text.count("(match ") == 1000
    # The reference printer still reaches depth 40; the first 20 layers lay
    # out the same in both chains.
    shallow = Program([[FunDef("f", ["x", "rest"], _chain(40))]], Int(0))
    assert text.splitlines()[:60] == ref.print_program(shallow).splitlines()[:60]
    # Each let or seq indents its body by 2 columns and each match its
    # clause bodies by 4, so the innermost node sits at column 6 + 8 * 1000;
    # it is broken too, and its last line closes every layer.
    group, main = text.split("\n  (main ")
    assert group.splitlines()[-1] == (" " * 8010 + "rest"
                                      + ")" * (2 + 1000 + 1000 + 2 * 1000 + 2))
    assert main == "(int 0)))"
