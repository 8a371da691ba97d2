"""S-expression concrete syntax: parser and canonical printer.

The grammar (EBNF over s-expressions):

    program  := ( "program" letrec* main )
    letrec   := ( "letrec" fundef+ )
    fundef   := ( "fun" attrs? SYM ( SYM+ ) expr )
    attrs    := ( "@" ("tail_mod_cons")* )
    main     := ( "main" expr )
    expr     := SYM | INT | ( "int" INT ) | ( "var" SYM )
              | ( "call" cattrs? SYM expr* )
              | ( "let" SYM expr expr ) | ( "seq" expr expr )
              | ( "constr" SYM expr* )
              | ( "match" expr clause+ )
              | ( "setref" expr expr expr ) | ( "hole" )
              | ( "letrec" fundef+ expr )
              | ( "if" expr expr expr )            ; sugar
              | ( "tuple" expr* )                  ; sugar
    cattrs   := ( "@" ("tailcall")* )
    clause   := ( "case" pat expr )
    pat      := SYM | "_" | INT | ( SYM pat* )

INT is an optional '-' and ASCII digits; every other atom is a SYM.
Comments run from ';' to end of line.  `if` desugars to a match on
True/False, `tuple` to a "Tuple" constructor; the printer emits core
forms only, so printing is canonicalizing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .ir import (
    TAIL_MOD_CONS,
    TAILCALL,
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
    Span,
    Var,
    drive,
)


@dataclass
class ParseError(Exception):
    span: Span
    message: str
    expected: list[str] = field(default_factory=list)

    def __str__(self) -> str:
        exp = f" (expected {', '.join(self.expected)})" if self.expected else ""
        return f"{self.span.line}:{self.span.column}: {self.message}{exp}"


# ---------------------------------------------------------------------------
# Reader: text -> nested atoms/lists with spans
# ---------------------------------------------------------------------------

# One match per token: blanks and comments, then "(", ")", an atom, a '"'
# or the end of the input.  Every match succeeds where the previous one
# ended, so the reader never backtracks.
_TOKEN = re.compile(r'(?:[ \t\r\n]|;[^\n]*)*(?:(\()|(\))|([^()"; \t\r\n]+)|(")|\Z)')
_OPEN, _CLOSE, _ATOM = 1, 2, 3


@dataclass(slots=True)
class Atom:
    text: str
    span: Span


@dataclass(slots=True)
class SList:
    items: list
    span: Span


def _read(text: str) -> list:
    """The first datum of text and, if more input follows, the second.

    Lists still open are kept on an explicit stack, so nesting depth is
    bounded by memory only."""

    forms = []
    stack = []  # open lists: (items, pos, line, col)
    line, line_start, last = 1, 0, 0
    for m in _TOKEN.finditer(text):
        kind = m.lastindex
        pos = m.start(kind) if kind else len(text)
        if newlines := text.count("\n", last, pos):  # in blanks and comments
            line += newlines
            line_start = text.rfind("\n", last, pos) + 1
        last = m.end()
        col = pos - line_start
        if kind == _OPEN:
            stack.append(([], pos, line, col))
            continue
        if kind == _CLOSE:
            if not stack:
                raise ParseError(Span(pos, pos, line, col), "unexpected ')'",
                                 ["expression"])
            items, start, l0, c0 = stack.pop()
            node = SList(items, Span(start, pos + 1, l0, c0))
        elif kind == _ATOM:
            node = Atom(m.group(kind), Span(pos, m.end(), line, col))
        elif kind:
            raise ParseError(Span(pos, pos, line, col),
                             "unexpected '\"': there are no string literals")
        elif stack:
            raise ParseError(Span(pos, pos, line, col), "unclosed '('", [")"])
        elif forms:
            return forms
        else:
            raise ParseError(Span(pos, pos, line, col), "unexpected end of input",
                             ["expression"])
        if stack:
            stack[-1][0].append(node)
        else:
            forms.append(node)
            if len(forms) == 2:
                return forms
    raise AssertionError("unreachable: the last token is the end of input")


_INT = re.compile(r"-?[0-9]+")


def is_int(tok: str) -> bool:
    """Whether `tok` is an integer literal: an optional '-' and ASCII
    digits.  Any other atom is a symbol."""
    return _INT.fullmatch(tok) is not None


# ---------------------------------------------------------------------------
# Builder: s-nodes -> IR
# ---------------------------------------------------------------------------


def _err(node, msg, expected=None) -> ParseError:
    return ParseError(node.span, msg, expected or [])


def _int(atom: Atom) -> int:
    try:  # Python's digit limit guards against quadratic-time conversion
        return int(atom.text)
    except ValueError:
        raise _err(atom, f"integer literal of {len(atom.text)} characters "
                   "is too long") from None


def _head(node: SList) -> str:
    if not node.items or not isinstance(node.items[0], Atom):
        raise _err(node, "expected a keyword form")
    return node.items[0].text


def _attrs(rest: list, allowed: set[str]) -> tuple[frozenset[str], list]:
    """Split an (@ ...) attribute list, if any, off the front of rest."""

    head = rest[0] if rest else None
    if not (isinstance(head, SList) and head.items
            and isinstance(head.items[0], Atom) and head.items[0].text == "@"):
        return frozenset(), rest
    out = set()
    for a in head.items[1:]:
        if not isinstance(a, Atom) or a.text not in allowed:
            raise _err(a, f"unknown attribute {getattr(a, 'text', a)!r}",
                       sorted(allowed))
        out.add(a.text)
    return frozenset(out), rest[1:]


# build_expr, build_pattern and build_fundef are walkers for `ir.drive`: each
# yields the walks of its subforms and is sent what they build.


def build_expr(node):
    if isinstance(node, Atom):
        if is_int(node.text):
            return Int(_int(node), span=node.span)
        return Var(node.text, span=node.span)
    assert isinstance(node, SList)
    if not node.items:
        raise _err(node, "empty form")
    head = _head(node)
    rest = node.items[1:]
    sp = node.span

    def need(n, what):
        if len(rest) != n:
            raise _err(node, f"'{head}' takes {n} argument(s)", [what])

    if head == "int":
        need(1, "integer")
        if not isinstance(rest[0], Atom) or not is_int(rest[0].text):
            raise _err(node, "expected integer literal")
        return Int(_int(rest[0]), span=sp)
    if head == "var":
        need(1, "symbol")
        if not isinstance(rest[0], Atom):
            raise _err(node, "expected symbol")
        return Var(rest[0].text, span=sp)
    if head == "call":
        attrs, rest = _attrs(rest, {TAILCALL})
        if not rest or not isinstance(rest[0], Atom):
            raise _err(node, "call needs a callee symbol")
        return Call(rest[0].text, (yield _build_each(rest[1:])), attrs, span=sp)
    if head == "let":
        need(3, "binder, bound, body")
        if not isinstance(rest[0], Atom):
            raise _err(node, "let binder must be a symbol")
        return Let(rest[0].text, *(yield _build_each(rest[1:])), span=sp)
    if head == "seq":
        need(2, "two expressions")
        return Seq(*(yield _build_each(rest)), span=sp)
    if head == "constr":
        if not rest or not isinstance(rest[0], Atom):
            raise _err(node, "constr needs a tag symbol")
        return Constr(rest[0].text, (yield _build_each(rest[1:])), span=sp)
    if head == "match":
        if len(rest) < 2:
            raise _err(node, "match needs a scrutinee and at least one clause")
        scrut = yield build_expr(rest[0])
        clauses = []
        for c in rest[1:]:
            if not isinstance(c, SList) or _head(c) != "case" or len(c.items) != 3:
                raise _err(c, "expected (case pat expr)")
            clauses.append(((yield build_pattern(c.items[1])),
                            (yield build_expr(c.items[2]))))
        return Match(scrut, clauses, span=sp)
    if head == "setref":
        need(3, "dest, index, value")
        return SetRef(*(yield _build_each(rest)), span=sp)
    if head == "hole":
        need(0, "nothing")
        return Hole(span=sp)
    if head == "letrec":
        if len(rest) < 2:
            raise _err(node, "letrec needs at least one fundef and a body")
        return Letrec((yield _build_each(rest[:-1], build_fundef)),
                      (yield build_expr(rest[-1])), span=sp)
    if head == "if":
        need(3, "condition, then, else")
        cond, then, else_ = yield _build_each(rest)
        return Match(cond, [(PConstr("True", []), then),
                            (PConstr("False", []), else_)], span=sp)
    if head == "tuple":
        return Constr("Tuple", (yield _build_each(rest)), span=sp)
    raise _err(node, f"unknown form '{head}'")


def build_pattern(node):
    if isinstance(node, Atom):
        if node.text == "_":
            return PWild(span=node.span)
        if is_int(node.text):
            return PInt(_int(node), span=node.span)
        if node.text[0].isupper():
            # Bare capitalized symbol: nullary constructor pattern.
            return PConstr(node.text, [], span=node.span)
        return PVar(node.text, span=node.span)
    assert isinstance(node, SList)
    if not node.items or not isinstance(node.items[0], Atom):
        raise _err(node, "constructor pattern needs a tag symbol")
    return PConstr(node.items[0].text,
                   (yield _build_each(node.items[1:], build_pattern)),
                   span=node.span)


def build_fundef(node):
    if not isinstance(node, SList) or _head(node) != "fun":
        raise _err(node, "expected (fun ...)")
    attrs, rest = _attrs(node.items[1:], {TAIL_MOD_CONS})
    if len(rest) != 3 or not isinstance(rest[0], Atom) or not isinstance(rest[1], SList):
        raise _err(node, "expected (fun attrs? name (params) body)")
    params = []
    for p in rest[1].items:
        if not isinstance(p, Atom):
            raise _err(rest[1], "parameters must be symbols")
        params.append(p.text)
    if not params:
        raise _err(rest[1], "function needs at least one parameter")
    return FunDef(rest[0].text, params, (yield build_expr(rest[2])), attrs,
                  span=node.span)


def _build_each(nodes: list, build=build_expr):
    out = []
    for n in nodes:
        out.append((yield build(n)))
    return out


def parse_program(text: str) -> Program:
    """Parse source text into a Program; raises ParseError."""

    top, *extra = _read(text)
    if extra:
        raise ParseError(extra[0].span, "trailing input after program form")
    if not isinstance(top, SList) or _head(top) != "program":
        raise _err(top, "expected (program ...)")
    groups: list[list[FunDef]] = []
    main = None
    for item in top.items[1:]:
        if not isinstance(item, SList):
            raise _err(item, "expected (letrec ...) or (main ...)")
        h = _head(item)
        if h == "letrec":
            if main is not None:
                raise _err(item, "letrec after main")
            if len(item.items) < 2:
                raise _err(item, "letrec needs at least one fundef")
            groups.append(drive(_build_each(item.items[1:], build_fundef)))
        elif h == "main":
            if main is not None:
                raise _err(item, "duplicate main")
            if len(item.items) != 2:
                raise _err(item, "main takes one expression")
            main = drive(build_expr(item.items[1]))
        else:
            raise _err(item, f"unknown toplevel form '{h}'")
    if main is None:
        raise ParseError(top.span, "program has no (main ...) form")
    return Program(groups, main)


# ---------------------------------------------------------------------------
# Canonical printer
#
# `_LAYOUT` is the one description of each node's text: a list of items,
# each a string, a break or a child.  A node whose flat width fits in
# _WIDTH columns from its indent is printed flat, its breaks as spaces.
# Otherwise each break starts a new line at the indent plus 2, and each
# child decides again at its own indent.  One bottom-up pass sums the flat
# widths and one pass emits the text, both with explicit stacks, so the
# printer takes time linear in its output and has no depth limit.
# ---------------------------------------------------------------------------

_WIDTH = 72
# Breaks.  The value is the flat width, and indexes the break's text in
# _render.
_SPACE = 1  # flat: " "; broken: a newline and the indent plus 2
_NEWLINE = 0  # flat: nothing; broken: a bare newline (no arguments follow)


def _attrs_str(attrs) -> str:
    return " (@ " + " ".join(sorted(attrs)) + ")" if attrs else ""


def _each(sep, children, offset=2) -> list:
    return [item for c in children for item in (sep, (c, offset))]


# A child item is (node, offset): when its parent is broken, the child is
# printed at the parent's indent plus offset; an offset of None prints it
# flat always.
_LAYOUT = {
    Var: lambda x: [x.name],
    Int: lambda x: [f"(int {x.n})"],
    Hole: lambda x: ["(hole)"],
    Call: lambda x: [f"(call{_attrs_str(x.attrs)} {x.callee}",
                     *(_each(_SPACE, x.args) or [_NEWLINE]), ")"],
    Constr: lambda x: [f"(constr {x.tag}",
                       *(_each(_SPACE, x.args) or [_NEWLINE]), ")"],
    # The bound decides one column right of where it starts, as it always has.
    Let: lambda x: [f"(let {x.binder} ", (x.bound, 7 + len(x.binder)), _SPACE,
                    (x.body, 2), ")"],
    Seq: lambda x: ["(seq ", (x.first, 5), _SPACE, (x.second, 2), ")"],
    Match: lambda x: ["(match ", (x.scrutinee, 7), *_each(_SPACE, x.clauses),
                      ")"],
    tuple: lambda x: ["(case ", (x[0], None), _SPACE, (x[1], 2), ")"],  # clause
    SetRef: lambda x: ["(setref ", (x.dest, 8), " ", (x.index, None), _SPACE,
                       (x.value, 2), ")"],
    Letrec: lambda x: ["(letrec", *_each(_SPACE, x.group), _SPACE, (x.body, 2),
                       ")"],
    FunDef: lambda x: [f"(fun{_attrs_str(x.attrs)} {x.name} "
                       f"({' '.join(x.params)})", _SPACE, (x.body, 2), ")"],
    PVar: lambda x: [x.name],
    PWild: lambda x: ["_"],
    PInt: lambda x: [str(x.n)],
    PConstr: lambda x: ([f"({x.tag}", *_each(" ", x.subpatterns, None), ")"]
                        if x.subpatterns else [x.tag]),
    # No breaks: the members of each group at indent 4, main at 8.
    Program: lambda x: ["(program",
                        *(it for g in x.groups
                          for it in ["\n  (letrec", *_each("\n    ", g, 4), ")"]),
                        "\n  (main ", (x.main, 8), "))"],
}


def _measure(root) -> dict:
    """id(node) -> (flat width, items) for root and every node under it."""

    order = []  # pre-order, so each node comes before its children
    stack = [root]
    while stack:
        x = stack.pop()
        layout = _LAYOUT.get(x.__class__)
        if layout is None:
            raise TypeError(f"cannot print {x!r}")
        items = layout(x)
        order.append((x, items))
        for it in items:
            if it.__class__ is tuple:
                stack.append(it[0])
    table = {}
    for x, items in reversed(order):
        w = 0
        for it in items:
            c = it.__class__
            if c is str:
                w += len(it)
            elif c is int:
                w += it
            else:
                w += table[id(it[0])][0]
        table[id(x)] = (w, items)
    return table


def _render(root, write) -> None:
    """Pass the text of a node at indent 0 to `write` in chunks."""

    table = _measure(root)
    out = []
    # Strings to emit and (node, indent, flat) to lay out, last one first.
    stack = [(root, 0, False)]
    while stack:
        x = stack.pop()
        if x.__class__ is str:
            out.append(x)
            if len(out) >= 1024:
                write("".join(out))
                out.clear()
            continue
        node, indent, flat = x
        width, items = table[id(node)]
        flat = flat or indent + width <= _WIDTH
        breaks = ("", " ") if flat else ("\n", "\n" + " " * (indent + 2))
        for it in reversed(items):
            c = it.__class__
            if c is str:
                stack.append(it)
            elif c is int:
                stack.append(breaks[it])
            elif it[1] is None:
                stack.append((it[0], 0, True))
            else:
                stack.append((it[0], indent + it[1], flat))
    write("".join(out))


def print_program(p: Program, write=None) -> str | None:
    """Canonical layout; parse_program(print_program(p)) == p.

    With `write`, the text goes to it in chunks and None is returned: the
    text grows with the square of the nesting depth."""

    chunks: list[str] = []
    _render(p, write or chunks.append)
    return None if write else "".join(chunks)
