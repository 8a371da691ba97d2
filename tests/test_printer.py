"""The linear printer against the recursive reference printer, at the
72-column boundary of every form, and at depths the reference cannot reach;
and the printer's work per node."""

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
from tmc_forge import surface
from tmc_forge.surface import ParseError, parse_program, print_program
from tmc_forge.transform import TransformError, transform_program

import reference_printer as ref
from conftest import (
    CORPUS,
    GOLDENS,
    ROOT,
    binds_integer_name,
    marked_chain,
    same_tree,
)
from test_properties import programs

sys.path.insert(0, str(ROOT / "benchmark"))
from workloads import corpus_units, generate_program  # noqa: E402


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
# limit at varied indents.  Binders may look like integers, which the reader
# refuses, and constructor tags need not be capitalized.
_names = st.sampled_from(["x", "acc", "a_much_longer_name", "v" * 30])
_binders = st.sampled_from(["x", "acc", "a_much_longer_name", "v" * 30, "7",
                            "-12"])
_pats = st.deferred(lambda: st.one_of(
    _names.map(PVar), st.just(PWild()), st.integers(-9, 99).map(PInt),
    st.tuples(st.sampled_from(["Nil", "Cons", "Node", "nil", "x", "5", "-3",
                               "_"]),
              st.lists(_pats, max_size=3)).map(lambda t: PConstr(*t))))
_marks = st.sampled_from([frozenset(), frozenset({"tail_mod_cons"})])


def _fundefs(body):
    return st.builds(FunDef, _names, st.lists(_binders, min_size=1, max_size=3),
                     body, _marks)


def _compound(kids):
    return st.one_of(
        st.builds(Call, _names, st.lists(kids, max_size=3),
                  st.sampled_from([frozenset(), frozenset({"tailcall"})])),
        st.builds(Let, _binders, kids, kids),
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
    text = print_program(p)
    assert text == ref.print_program(p)
    if binds_integer_name(p):
        with pytest.raises(ParseError, match="symbol"):
            parse_program(text)
    else:
        assert same_tree(parse_program(text), p)


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


# ---------------------------------------------------------------------------
# Work per node.  Each node's layout is built when the node is printed and
# again by each ancestor whose look-ahead reaches it, which starts within
# _WIDTH characters of it; so the calls of `_LAYOUT` stay within a fixed
# multiple of the node count, whatever the depth or the width.
# ---------------------------------------------------------------------------

LAYOUT_CALLS_PER_NODE = 3


def _layout_calls_per_node(root, monkeypatch):
    layouts = dict(surface._LAYOUT)
    nodes, stack = 0, [root]
    while stack:
        x = stack.pop()
        nodes += 1
        stack += [it[0] for it in layouts[x.__class__](x)
                  if it.__class__ is tuple]
    calls = 0

    def counted(layout):
        def count(x):
            nonlocal calls
            calls += 1
            return layout(x)
        return count

    with monkeypatch.context() as m:
        for cls, layout in layouts.items():
            m.setitem(surface._LAYOUT, cls, counted(layout))
        print_program(root, write=lambda chunk: None)
    return calls / nodes


def _with_transform(programs):
    for p in programs:
        yield p
        try:
            yield transform_program(p)
        except TransformError:
            pass


def test_layout_calls_per_node_on_corpus_and_pool(monkeypatch):
    units = corpus_units()
    sources = [path.read_text() for path in sorted(CORPUS.glob("*.tmc"))]
    sources += [generate_program(i, units) for i in range(64)]
    for p in _with_transform(map(parse_program, sources)):
        ratio = _layout_calls_per_node(p, monkeypatch)
        assert 1 <= ratio <= LAYOUT_CALLS_PER_NODE


def test_layout_calls_per_node_on_a_deep_chain(monkeypatch):
    p = transform_program(parse_program(marked_chain(3000)))
    assert 1 <= _layout_calls_per_node(p, monkeypatch) <= LAYOUT_CALLS_PER_NODE


def test_layout_calls_per_node_on_a_wide_call(monkeypatch):
    call = Call("f", [Var(f"x{i}") for i in range(20000)])
    ratio = _layout_calls_per_node(call, monkeypatch)
    assert 1 <= ratio <= LAYOUT_CALLS_PER_NODE
