"""Tree IR for the small first-order language.

Expressions, patterns, function definitions and programs; `children`,
the one definition of tail-modulo-cons positions, and the `drive` loop
that runs every tree walker without host recursion; diagnostics.  The
well-formedness checks run in the analysis' one walk (`resolve_scope`);
`well_formed` reads their result.
Trees are immutable by convention: passes always rebuild.  Nodes compare
by identity; a structural `==` would recurse once per level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

# Attribute names as they appear in source.
TAIL_MOD_CONS = "tail_mod_cons"
TAILCALL = "tailcall"

BUILTINS = {"add": 2, "sub": 2, "leq": 2, "eq": 2, "print": 1, "add1": 1}


class Span(NamedTuple):
    """Byte/line/column range into the source text.  The reader builds one
    per token: a named tuple is built in half the time of a dataclass."""

    byte_start: int
    byte_end: int
    line: int
    column: int


def _span_field():
    return field(default=None, compare=False, repr=False)


class Expr:
    """Base class for expression nodes."""

    span: Optional[Span]


class Pattern:
    """Base class for pattern nodes."""

    span: Optional[Span]


@dataclass(eq=False)
class Var(Expr):
    name: str
    span: Optional[Span] = _span_field()


@dataclass(eq=False)
class Int(Expr):
    n: int
    span: Optional[Span] = _span_field()


@dataclass(eq=False)
class Call(Expr):
    callee: str
    args: list[Expr]
    attrs: frozenset[str] = frozenset()
    span: Optional[Span] = _span_field()


@dataclass(eq=False)
class Let(Expr):
    binder: str
    bound: Expr
    body: Expr
    span: Optional[Span] = _span_field()


@dataclass(eq=False)
class Seq(Expr):
    first: Expr
    second: Expr
    span: Optional[Span] = _span_field()


@dataclass(eq=False)
class Constr(Expr):
    tag: str
    args: list[Expr]
    span: Optional[Span] = _span_field()


@dataclass(eq=False)
class Match(Expr):
    scrutinee: Expr
    clauses: list[tuple[Pattern, Expr]]
    span: Optional[Span] = _span_field()


@dataclass(eq=False)
class SetRef(Expr):
    dest: Expr
    index: Expr
    value: Expr
    span: Optional[Span] = _span_field()


@dataclass(eq=False)
class Hole(Expr):
    span: Optional[Span] = _span_field()


@dataclass(eq=False)
class Letrec(Expr):
    """Local group of mutually recursive functions scoping over `body`.

    Local functions may call functions in scope but may not capture value
    variables of the enclosing function (first-order, call-by-name).
    """

    group: list["FunDef"]
    body: Expr
    span: Optional[Span] = _span_field()


@dataclass(eq=False)
class PVar(Pattern):
    name: str
    span: Optional[Span] = _span_field()


@dataclass(eq=False)
class PWild(Pattern):
    span: Optional[Span] = _span_field()


@dataclass(eq=False)
class PConstr(Pattern):
    tag: str
    subpatterns: list[Pattern]
    span: Optional[Span] = _span_field()


@dataclass(eq=False)
class PInt(Pattern):
    n: int
    span: Optional[Span] = _span_field()


@dataclass(eq=False)
class FunDef:
    name: str
    params: list[str]
    body: Expr
    attrs: frozenset[str] = frozenset()
    span: Optional[Span] = _span_field()


@dataclass(eq=False)
class Program:
    groups: list[list[FunDef]]
    main: Expr


def children(e: Expr) -> list[tuple[Expr, tuple, Optional[bool]]]:
    """(child, bound_names, tmc) for each direct subexpression of e, in
    evaluation order; bound_names are the value variables the child sees
    in addition to e's.  tmc is None unless the child is in a
    tail-modulo-cons position -- Let.body, Seq.second, the Match clause
    bodies, Letrec.body and the Constr arguments -- and then says whether
    it is a constructor argument.  Every pass that follows TMC positions
    derives them from here.  The bodies of a Letrec group are not
    children: they open a fresh scope.
    """

    if isinstance(e, (Call, Constr)):
        tmc = True if isinstance(e, Constr) else None
        return [(a, (), tmc) for a in e.args]
    if isinstance(e, Let):
        return [(e.bound, (), None), (e.body, (e.binder,), False)]
    if isinstance(e, Seq):
        return [(e.first, (), None), (e.second, (), False)]
    if isinstance(e, Match):
        return [(e.scrutinee, (), None)] + [
            (b, tuple(pattern_vars(pt)), False) for pt, b in e.clauses]
    if isinstance(e, SetRef):
        return [(e.dest, (), None), (e.index, (), None), (e.value, (), None)]
    if isinstance(e, Letrec):
        return [(e.body, (), False)]
    return []


def with_children(e: Expr, new: list[Expr]) -> Expr:
    """e with `new` in place of its children (in `children` order); spans,
    binders, patterns and Letrec groups are kept, call attributes dropped."""

    if isinstance(e, Call):
        return Call(e.callee, new, span=e.span)
    if isinstance(e, Constr):
        return Constr(e.tag, new, span=e.span)
    if isinstance(e, Let):
        return Let(e.binder, new[0], new[1], span=e.span)
    if isinstance(e, Seq):
        return Seq(new[0], new[1], span=e.span)
    if isinstance(e, Match):
        return Match(new[0], [(pt, b) for (pt, _), b in zip(e.clauses, new[1:])],
                     span=e.span)
    if isinstance(e, SetRef):
        return SetRef(new[0], new[1], new[2], span=e.span)
    if isinstance(e, Letrec):
        return Letrec(e.group, new[0], span=e.span)
    return e


def drive(walk):
    """Run the walker generator `walk` to its end and return its value.

    A walker hands each sub-walk to this loop as `r = yield sub(...)` and is
    sent the sub-walk's value.  Suspended walkers wait on an explicit stack,
    so the depth of a walk is bounded by memory, not by the host stack.
    (`yield from` would nest C frames instead.)"""

    stack = [walk]
    value = None
    while stack:
        try:
            sub = stack[-1].send(value)
            while True:  # start each new sub-walk, until one of them ends
                stack.append(sub)
                sub = sub.send(None)
        except StopIteration as done:  # of the walk on top of the stack
            stack.pop()
            value = done.value
    return value


def bind(scope: dict[str, int], names, k: int) -> None:
    """Add k (1 on entry, -1 on exit) to the count of each name in scope; a
    name is in scope while its count is positive."""

    for v in names:
        scope[v] = scope.get(v, 0) + k
        if not scope[v]:
            del scope[v]


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------


@dataclass
class Diagnostic:
    severity: str  # "Error" | "Warning"
    code: str
    message: str
    span: Optional[Span] = None
    # for AmbiguousTmc, the competing calls, left to right
    candidates: list = field(default_factory=list, repr=False)

    def render(self, filename: str = "<input>") -> str:
        if self.span is not None:
            loc = f"{filename}:{self.span.line}:{self.span.column}"
        else:
            loc = f"{filename}:0:0"
        return f"{self.severity.upper()} {self.code} {loc} {self.message}"


def pattern_vars(p: Pattern) -> list[str]:
    """The variables p binds, left to right."""

    out, stack = [], [p]
    while stack:
        x = stack.pop()
        if isinstance(x, PVar):
            out.append(x.name)
        elif isinstance(x, PConstr):
            stack.extend(reversed(x.subpatterns))
    return out


def well_formed(p: Program) -> list[Diagnostic]:
    """One diagnostic per violated Program invariant, in source order."""
    from .analysis import resolve_scope  # analysis imports this module
    return resolve_scope(p).malformed
