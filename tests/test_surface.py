"""Reader and canonical printer: round-trips, sugar, error reporting."""

import pathlib

import pytest
from hypothesis import given, strategies as st

from tmc_forge.ir import (
    Constr,
    FunDef,
    Int,
    Let,
    Match,
    PConstr,
    PInt,
    PVar,
    PWild,
    Program,
    Seq,
    Span,
    Var,
)
from tmc_forge.runtime import eval_program
from tmc_forge.surface import ParseError, parse_program, print_program

from conftest import CORPUS, binds_integer_name, same_tree


ALL_CORPUS = sorted(CORPUS.glob("*.tmc"))


@pytest.mark.parametrize("path", ALL_CORPUS, ids=lambda p: p.name)
def test_print_parse_round_trip(path: pathlib.Path):
    p = parse_program(path.read_text())
    assert same_tree(parse_program(print_program(p)), p)


@pytest.mark.parametrize("path", ALL_CORPUS, ids=lambda p: p.name)
def test_printing_is_idempotent(path: pathlib.Path):
    text = print_program(parse_program(path.read_text()))
    assert print_program(parse_program(text)) == text


class TestSugar:
    def test_if_desugars_to_boolean_match(self):
        p = parse_program(
            "(program (letrec (fun f (x) (if x 1 2))) (main (int 0)))")
        body = p.groups[0][0].body
        assert isinstance(body, Match)
        assert same_tree([c[0] for c in body.clauses],
                         [PConstr("True", []), PConstr("False", [])])

    def test_tuple_desugars_to_constructor(self):
        p = parse_program("(program (main (tuple 1 2)))")
        assert same_tree(p.main, Constr("Tuple", [Int(1), Int(2)]))

    def test_bare_int_and_symbol(self):
        p = parse_program("(program (main (seq 7 x)))")
        assert same_tree(p.main, Seq(Int(7), Var("x")))

    def test_negative_int(self):
        p = parse_program("(program (main -3))")
        assert same_tree(p.main, Int(-3))

    @pytest.mark.parametrize("tok", ["\u00b2", "\u0663", "--5", "-", "+5",
                                     "5_0", "5-"])
    def test_only_ascii_digits_make_an_int(self, tok):
        # Anything but an optional '-' and ASCII digits is a symbol, in
        # expression and in pattern position alike.
        p = parse_program(f"(program (letrec (fun f (x) (match x"
                          f" (case {tok} {tok})))) (main {tok}))")
        assert same_tree(p.main, Var(tok))
        assert same_tree(p.groups[0][0].body.clauses, [(PVar(tok), Var(tok))])
        with pytest.raises(ParseError, match="expected integer literal"):
            parse_program(f"(program (main (int {tok})))")

    def test_comments_ignored(self):
        p = parse_program("; leading\n(program ; inline\n (main 1))")
        assert same_tree(p.main, Int(1))

    def test_capitalized_atom_pattern_is_nullary_constructor(self):
        p = parse_program(
            "(program (letrec (fun f (x)"
            " (match x (case Nil 0) (case y 1)))) (main 0))")
        clauses = p.groups[0][0].body.clauses
        assert same_tree(clauses[0][0], PConstr("Nil", []))
        assert clauses[1][0].name == "y"

    def test_attrs(self):
        p = parse_program(
            "(program (letrec (fun (@ tail_mod_cons) f (x)"
            " (call (@ tailcall) f x))) (main 0))")
        f = p.groups[0][0]
        assert "tail_mod_cons" in f.attrs
        assert "tailcall" in f.body.attrs


class TestErrors:
    def err(self, text):
        with pytest.raises(ParseError) as ei:
            parse_program(text)
        return ei.value

    def test_unbalanced(self):
        self.err("(program (main 1)")

    def test_unknown_form(self):
        e = self.err("(program (main (frobnicate 1)))")
        assert "frobnicate" in str(e)

    def test_missing_main(self):
        self.err("(program (letrec (fun f (x) x)))")

    def test_bad_attr(self):
        self.err("(program (letrec (fun (@ bogus) f (x) x)) (main 1))")

    def test_span_points_at_offending_token(self):
        e = self.err("(program\n  (main (frobnicate 1)))")
        assert e.span.line == 2

    def test_stray_close(self):
        self.err(")")

    def test_empty_input(self):
        self.err("   ; nothing here\n")

    def test_string_quote_is_rejected_where_it_stands(self):
        e = self.err('(program\n  (main (seq 1 "x")))')
        assert (e.span.byte_start, e.span.line, e.span.column) == (24, 2, 15)
        assert str(e) == "2:15: unexpected '\"': there are no string literals"

    def test_reader_has_no_depth_limit(self):
        e = self.err("(" * 5000 + ")" * 5000)
        assert str(e) == "1:0: expected a keyword form"
        e = self.err("(program\n" + "(" * 5000)
        assert str(e) == "2:5000: unclosed '(' (expected ))"


def test_spans_count_lines_and_columns():
    p = parse_program("; c\n(program\n\t(main ; (x\n  (seq x\t-12)))")
    assert p.main.span == Span(27, 38, 4, 2)
    assert p.main.first.span == Span(32, 33, 4, 7)
    assert p.main.second.span == Span(34, 37, 4, 9)


def test_printer_emits_core_forms_only():
    p = parse_program("(program (main (if 1 (tuple 1) 2)))")
    text = print_program(p)
    assert "(if" not in text
    assert "(tuple" not in text
    assert "(match" in text


def test_printer_minimal_program():
    assert print_program(Program([], Int(0))) == "(program\n  (main (int 0)))"


@pytest.mark.parametrize("pattern,arg", [("(nil)", 7), ("(5)", 5), ("(_)", 7)])
def test_nullary_pattern_that_is_not_capitalized_reads_back(pattern, arg):
    # Printed bare, (nil) would read back as a variable, (5) as an integer
    # and (_) as a wildcard, each matching 7 or 5.
    source = parse_program(
        f"(program (letrec (fun f (x) (match x (case {pattern} (int 1))"
        f" (case _ (int 2))))) (main (call f (int {arg}))))")
    printed = parse_program(print_program(source))
    assert same_tree(printed, source)
    assert [eval_program(p, "f", [arg])[0] for p in (source, printed)] == [2, 2]


_names = st.sampled_from(["x", "y", "acc"])
# The reader refuses a binder that looks like an integer.
_binders = st.sampled_from(["x", "y", "acc", "7", "-12"])
# A nullary constructor whose tag is not capitalized prints in parentheses.
_pats = st.deferred(lambda: st.one_of(
    _names.map(PVar), st.just(PWild()), st.integers(-9, 9).map(PInt),
    st.sampled_from(["Nil", "nil", "x", "5", "-3", "_"]).map(
        lambda tag: PConstr(tag, [])),
    st.lists(_pats, min_size=1, max_size=2).map(lambda s: PConstr("Cons", s))))
_expr = st.deferred(lambda: st.one_of(
    st.integers(-99, 99).map(Int),
    _names.map(Var),
    st.tuples(_expr, _expr).map(lambda t: Seq(*t)),
    st.tuples(_binders, _expr, _expr).map(lambda t: Let(*t)),
    st.lists(_expr, max_size=3).map(lambda a: Constr("Pair", a)),
    st.tuples(_expr, st.lists(st.tuples(_pats, _expr), min_size=1,
                              max_size=2)).map(lambda t: Match(*t)),
))


@given(_expr)
def test_round_trip_random_expressions(e):
    p = Program([[FunDef("f", ["x", "y", "acc"], e)]], Int(0))
    text = print_program(p)
    if binds_integer_name(p):
        with pytest.raises(ParseError, match="symbol"):
            parse_program(text)
    else:
        assert same_tree(parse_program(text), p)
