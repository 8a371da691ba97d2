"""Tree IR for the small first-order language.

Expressions, patterns, function definitions and programs, plus the
decomposition data shared by the analysis and transform passes.
Trees are immutable by convention: passes always rebuild.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

# Attribute names as they appear in source.
TAIL_MOD_CONS = "tail_mod_cons"
TAILCALL = "tailcall"

BUILTINS = {"add": 2, "sub": 2, "leq": 2, "eq": 2, "print": 1, "add1": 1}


@dataclass(frozen=True)
class Span:
    """Byte/line/column range into the source text."""

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


@dataclass
class Var(Expr):
    name: str
    span: Optional[Span] = _span_field()


@dataclass
class Int(Expr):
    n: int
    span: Optional[Span] = _span_field()


@dataclass
class Call(Expr):
    callee: str
    args: list[Expr]
    attrs: frozenset[str] = frozenset()
    span: Optional[Span] = _span_field()


@dataclass
class Let(Expr):
    binder: str
    bound: Expr
    body: Expr
    span: Optional[Span] = _span_field()


@dataclass
class Seq(Expr):
    first: Expr
    second: Expr
    span: Optional[Span] = _span_field()


@dataclass
class Constr(Expr):
    tag: str
    args: list[Expr]
    span: Optional[Span] = _span_field()


@dataclass
class Match(Expr):
    scrutinee: Expr
    clauses: list[tuple[Pattern, Expr]]
    span: Optional[Span] = _span_field()


@dataclass
class SetRef(Expr):
    dest: Expr
    index: Expr
    value: Expr
    span: Optional[Span] = _span_field()


@dataclass
class Hole(Expr):
    span: Optional[Span] = _span_field()


@dataclass
class Letrec(Expr):
    """Local group of mutually recursive functions scoping over `body`.

    Local functions may call functions in scope but may not capture value
    variables of the enclosing function (first-order, call-by-name).
    """

    group: list["FunDef"]
    body: Expr
    span: Optional[Span] = _span_field()


@dataclass
class PVar(Pattern):
    name: str
    span: Optional[Span] = _span_field()


@dataclass
class PWild(Pattern):
    span: Optional[Span] = _span_field()


@dataclass
class PConstr(Pattern):
    tag: str
    subpatterns: list[Pattern]
    span: Optional[Span] = _span_field()


@dataclass
class PInt(Pattern):
    n: int
    span: Optional[Span] = _span_field()


@dataclass
class FunDef:
    name: str
    params: list[str]
    body: Expr
    attrs: frozenset[str] = frozenset()
    span: Optional[Span] = _span_field()


@dataclass
class Program:
    groups: list[list[FunDef]]
    main: Expr


# ---------------------------------------------------------------------------
# Decomposition data.
#
# A decomposition context mirrors the expression tree but has DecompHole
# leaves; the i-th DecompHole (left to right) corresponds to holes[i].
# ---------------------------------------------------------------------------

PLAIN_TAIL = "plain_tail"
STRICT_MOD_CONS = "strict_mod_cons"


@dataclass
class DecompHole(Expr):
    """Context leaf; `index` points into Decomposition.holes."""

    index: int
    span: Optional[Span] = _span_field()


@dataclass
class Decomposition:
    context: Expr
    holes: list[tuple[Expr, str]]  # (expression, PLAIN_TAIL | STRICT_MOD_CONS)
    chosen_constructor_paths: list[tuple]
    calls: set[int] = field(default_factory=set)  # holes that are eligible calls


Path = tuple


def children(e: Expr) -> list[tuple[str, Expr, tuple]]:
    """(label, child, bound_names) for each direct subexpression of e, in
    evaluation order; bound_names are the value variables the child sees
    in addition to e's.  Labels are the path components used by diagnostics.
    The bodies of a Letrec group are not children: they open a fresh scope.
    """

    if isinstance(e, (Call, Constr)):
        return [(f"arg{i}", a, ()) for i, a in enumerate(e.args)]
    if isinstance(e, Let):
        return [("bound", e.bound, ()), ("body", e.body, (e.binder,))]
    if isinstance(e, Seq):
        return [("first", e.first, ()), ("second", e.second, ())]
    if isinstance(e, Match):
        return [("scrutinee", e.scrutinee, ())] + [
            (f"clause{j}", b, tuple(pattern_vars(pt)))
            for j, (pt, b) in enumerate(e.clauses)]
    if isinstance(e, SetRef):
        return [("dest", e.dest, ()), ("index", e.index, ()),
                ("value", e.value, ())]
    if isinstance(e, Letrec):
        return [("letrec_body", e.body, ())]
    return []


def with_children(e: Expr, new: list[Expr]) -> Expr:
    """e with `new` in place of its children (in `children` order); spans,
    binders, patterns, attributes and Letrec groups are kept.  Walkers fill
    `new` in a plain loop, so that they recurse in one frame per level."""

    if isinstance(e, Call):
        return Call(e.callee, new, e.attrs, span=e.span)
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


def tmc_children(e: Expr) -> list[tuple[str, Expr, tuple, bool]]:
    """The tail-modulo-cons positions directly below e, as
    (label, child, bound_names, under_constr): Let.body, Seq.second, the
    Match clause bodies, Letrec.body and the Constr arguments, which have
    under_constr set.  Every pass that follows TMC positions derives them
    from here."""

    under = isinstance(e, Constr)
    if under or isinstance(e, (Let, Seq, Match, Letrec)):
        # Every child but the ones evaluated before the rest of the node.
        return [(label, c, bound, under) for label, c, bound in children(e)
                if label not in ("bound", "first", "scrutinee")]
    return []


def plug(d: Decomposition) -> Expr:
    """Rebuild the original expression from a decomposition."""

    used = [0]

    def go(e: Expr) -> Expr:
        if isinstance(e, DecompHole):
            if e.index >= len(d.holes):
                raise ValueError("decomposition arity mismatch")
            used[0] += 1
            return d.holes[e.index][0]
        new = []
        for _, c, _ in children(e):
            new.append(go(c))
        return with_children(e, new)

    out = go(d.context)
    if used[0] != len(d.holes):
        raise ValueError("decomposition arity mismatch")
    return out


# ---------------------------------------------------------------------------
# Well-formedness
# ---------------------------------------------------------------------------


@dataclass
class Diagnostic:
    severity: str  # "Error" | "Warning"
    code: str
    message: str
    span: Optional[Span] = None
    path: Path = ()
    candidate_paths: list = field(default_factory=list)

    def render(self, filename: str = "<input>") -> str:
        if self.span is not None:
            loc = f"{filename}:{self.span.line}:{self.span.column}"
        else:
            loc = f"{filename}:0:0"
        return f"{self.severity.upper()} {self.code} {loc} {self.message}"


def pattern_vars(p: Pattern, acc: Optional[list[str]] = None) -> list[str]:
    if acc is None:
        acc = []
    if isinstance(p, PVar):
        acc.append(p.name)
    elif isinstance(p, PConstr):
        for sp in p.subpatterns:
            pattern_vars(sp, acc)
    return acc


def well_formed(p: Program) -> list[Diagnostic]:
    """Check Program invariants; one diagnostic per violation."""

    diags: list[Diagnostic] = []

    def check_expr(e: Expr, path: Path, scope: set[str], funcs: set[str],
                   hole_ok: bool) -> None:
        if isinstance(e, Hole):
            if not hole_ok:
                diags.append(Diagnostic(
                    "Error", "MisplacedHole",
                    "hole outside constructor-argument position",
                    e.span, path))
        elif isinstance(e, Call):
            if (e.callee not in funcs and e.callee not in scope
                    and e.callee not in BUILTINS):
                diags.append(Diagnostic(
                    "Error", "UnboundCallee",
                    f"callee '{e.callee}' is not a function, binder or builtin",
                    e.span, path))
        elif isinstance(e, Match):
            if not e.clauses:
                diags.append(Diagnostic(
                    "Error", "EmptyMatch", "match with no clauses", e.span, path))
        elif isinstance(e, SetRef):
            if isinstance(e.index, Int) and e.index.n < 1:
                diags.append(Diagnostic(
                    "Error", "InvalidIndex",
                    f"setref index {e.index.n} must be >= 1 (fields are 1-indexed)",
                    e.span, path))
        elif isinstance(e, Letrec):
            check_group(e.group, path + ("letrec",), scope, funcs)
            funcs = funcs | {f.name for f in e.group}
        elif not isinstance(e, (Var, Int, Let, Seq, Constr)):
            raise TypeError(f"unknown expression node {e!r}")
        patterns = ({f"clause{j}": pat for j, (pat, _) in enumerate(e.clauses)}
                    if isinstance(e, Match) else {})
        for label, c, bound in children(e):
            seen: set[str] = set()
            for v in bound:
                if v in seen:
                    diags.append(Diagnostic(
                        "Error", "DuplicatePatternVar",
                        f"'{v}' bound twice in one pattern",
                        patterns[label].span, path + (label,)))
                seen.add(v)
            check_expr(c, path + (label,), scope | seen if seen else scope,
                       funcs, isinstance(e, Constr))

    def check_group(group: list[FunDef], path: Path, scope: set[str],
                    funcs: set[str]) -> None:
        names = funcs | {f.name for f in group}
        seen: set[str] = set()
        for f in group:
            if f.name in seen:
                diags.append(Diagnostic(
                    "Error", "DuplicateFunction",
                    f"function '{f.name}' defined twice in one group",
                    f.span, path))
            seen.add(f.name)
            if len(set(f.params)) != len(f.params):
                diags.append(Diagnostic(
                    "Error", "DuplicateParam",
                    f"duplicate parameter in '{f.name}'", f.span, path))
            if not f.params:
                diags.append(Diagnostic(
                    "Error", "NoParams",
                    f"function '{f.name}' has no parameters", f.span, path))
            # Local function bodies do not see enclosing value variables.
            check_expr(f.body, path + (f.name,), set(f.params), names, False)

    top: set[str] = set()
    for gi, group in enumerate(p.groups):
        for f in group:
            if f.name in top:
                diags.append(Diagnostic(
                    "Error", "DuplicateFunction",
                    f"function '{f.name}' defined twice at toplevel",
                    f.span, (f"group{gi}",)))
            top.add(f.name)
    for gi, group in enumerate(p.groups):
        check_group(group, (f"group{gi}",), set(), top)
    check_expr(p.main, ("main",), set(), top, False)
    return diags


def iter_fundefs(p: Program) -> list[FunDef]:
    """Every function definition, including nested letrec groups, in
    source order."""

    out: list[FunDef] = []

    def from_expr(e: Expr) -> None:
        if isinstance(e, Letrec):
            for f in e.group:
                out.append(f)
                from_expr(f.body)
        for _, c, _ in children(e):
            from_expr(c)

    for group in p.groups:
        for f in group:
            out.append(f)
            from_expr(f.body)
    from_expr(p.main)
    return out


def all_identifiers(e: Union[Expr, Program]) -> set[str]:
    """Every identifier occurring anywhere (used to seed fresh-name pools)."""

    out: set[str] = set()

    def pat(pt: Pattern):
        if isinstance(pt, PVar):
            out.add(pt.name)
        elif isinstance(pt, PConstr):
            out.add(pt.tag)
            for s in pt.subpatterns:
                pat(s)

    def fun(f: FunDef):
        out.add(f.name)
        out.update(f.params)
        go(f.body)

    def go(x: Expr):
        if isinstance(x, Var):
            out.add(x.name)
        elif isinstance(x, Call):
            out.add(x.callee)
        elif isinstance(x, Let):
            out.add(x.binder)
        elif isinstance(x, Constr):
            out.add(x.tag)
        elif isinstance(x, Match):
            for pt, _ in x.clauses:
                pat(pt)
        elif isinstance(x, Letrec):
            for f in x.group:
                fun(f)
        for _, c, _ in children(x):
            go(c)

    if isinstance(e, Program):
        for group in e.groups:
            for f in group:
                fun(f)
        go(e.main)
    else:
        go(e)
    return out
