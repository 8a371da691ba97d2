"""TMC candidate analysis.

One walk (`resolve_scope`) checks that the program is well formed, records
every definition, resolves each call to its definition, decides which
calls to marked definitions may be rewritten (minimal scope at toplevel,
maximal inside marked functions), builds each body's tail-modulo-cons
context from its children's candidates or finds its ambiguity, and flags
each unsatisfiable (@ tailcall).  `ScopeVerdict` holds the results, the
definitions and the identifiers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .ir import (
    BUILTINS,
    TAIL_MOD_CONS,
    TAILCALL,
    Call,
    Constr,
    Diagnostic,
    Expr,
    FunDef,
    Hole,
    Int,
    Let,
    Letrec,
    Match,
    PConstr,
    Program,
    PVar,
    Seq,
    SetRef,
    Var,
    bind,
    children,
    drive,
)


@dataclass
class MarkSet:
    dps_name: dict[str, str]
    # Every identifier of the program, the builtins and the DPS names: the
    # names a fresh name must avoid.
    used: set[str]


@dataclass
class ScopeVerdict:
    """The scope rule's verdict on every call to a marked definition, not
    shadowed by a binder, and the context of every body: its candidates
    (the eligible calls in its tail-modulo-cons positions) and the nodes
    on the way down to them, through chosen constructor arguments only.
    All else the rewrite reaches is a hole."""

    # (the call, whether it is eligible), in walk order
    sites: list[tuple[Call, bool]] = field(default_factory=list)
    # id(node of a context) -> for a constructor, the index of the argument
    # that holds the rest of the context, None if no argument is picked; None
    # for any other node.  Valid while the program it belongs to lives.
    context: dict[int, Optional[int]] = field(default_factory=dict)
    # the well-formedness errors, each node's before its children's
    malformed: list[Diagnostic] = field(default_factory=list)
    warnings: list[Diagnostic] = field(default_factory=list)
    # one TailcallNotSatisfiable per (@ tailcall) that cannot hold, in order
    unsatisfiable: list[Diagnostic] = field(default_factory=list)
    # one AmbiguousTmc per constructor of a context whose arguments compete,
    # by span; its candidates are the calls of the context below it
    errors: list[Diagnostic] = field(default_factory=list)
    # every function definition, nested ones included, in source order
    definitions: list[FunDef] = field(default_factory=list)
    # every identifier of the program, pattern tags included
    identifiers: set[str] = field(default_factory=set)

    @property
    def marked(self) -> list[FunDef]:
        """The definitions marked (@ tail_mod_cons), in source order."""
        return [f for f in self.definitions if TAIL_MOD_CONS in f.attrs]


def collect_marks(verdict: ScopeVerdict) -> MarkSet:
    """Assign a fresh DPS companion name to every marked function name."""

    used = verdict.identifiers | set(BUILTINS)
    dps_name: dict[str, str] = {}
    for f in verdict.marked:
        if f.name in dps_name:
            continue
        cand, k = f.name + "_dps", 2
        while cand in used:
            cand, k = f"{f.name}_dps{k}", k + 1
        used.add(cand)
        dps_name[f.name] = cand
    return MarkSet(dps_name, used)


def _identifiers(x: Expr) -> list[str]:
    """The identifiers that x holds itself, apart from its children's."""

    if isinstance(x, Var):
        return [x.name]
    if isinstance(x, Call):
        return [x.callee]
    if isinstance(x, Constr):
        return [x.tag]
    if isinstance(x, Let):
        return [x.binder]
    out, stack = [], [pt for pt, _ in x.clauses] if isinstance(x, Match) else []
    while stack:
        pt = stack.pop()
        if isinstance(pt, PVar):
            out.append(pt.name)
        elif isinstance(pt, PConstr):
            out.append(pt.tag)
            stack.extend(pt.subpatterns)
    return out


class _Found(NamedTuple):
    """The candidates below a node of a body, the node included."""

    annotated: bool  # one of them carries (@ tailcall)
    strict: bool  # one of them is strictly modulo cons


def _repeats(names) -> list[str]:
    """Each name that occurs earlier in names, once per repeat."""

    seen: set[str] = set()
    return [v for v in names if v in seen or seen.add(v)]


def _reach(context: dict, roots: list) -> list:
    """The nodes of `context` reached from roots through tail-modulo-cons
    children, left to right; a node without an entry ends the search."""

    out, stack = [], roots[::-1]
    while stack:
        x = stack.pop()
        if id(x) in context:
            out.append(x)
            stack.extend([c for c, _, tmc in children(x)
                          if tmc is not None][::-1])
    return out


def resolve_scope(p: Program) -> ScopeVerdict:
    """Check that p is well formed, decide every call site that targets a
    marked definition and find the context of every function body, in one
    walk.  Warn about each marked function, nested ones included, that has
    no strictly-modulo-cons candidate, and report each constructor of a
    context whose arguments hold candidates when annotations do not single
    one argument out, and each (@ tailcall) that cannot hold.  On a
    malformed program the rest of the verdict is kept but not trusted."""

    verdict = ScopeVerdict()
    useless: dict[int, Diagnostic] = {}
    ambiguous: list[tuple[Constr, Diagnostic]] = []  # (e, its AmbiguousTmc)
    defs: dict[str, Optional[FunDef]] = {}  # name -> the definition in scope
    enclosing: set[int] = set()  # ids of the enclosing groups' definitions

    def error(code: str, message: str, span) -> None:
        verdict.malformed.append(Diagnostic("Error", code, message, span))

    def misplaced(e: Expr) -> None:
        """e is not a constructor argument, so it must not be a hole."""
        if isinstance(e, Hole):
            error("MisplacedHole", "hole outside constructor-argument "
                  "position", e.span)

    def walk(e: Expr, marked: bool, scope: dict[str, int],
             tail: Optional[FunDef], under: bool):
        """Walk e, which lies inside a marked function if `marked`, in a
        tail-modulo-cons position of the function `tail` if it is given,
        with a constructor argument on the way there if `under`.  Return
        e's candidates, or None."""

        verdict.identifiers.update(_identifiers(e))
        if isinstance(e, Call):
            callee = None if e.callee in scope else defs.get(e.callee)
            builtin = callee is None and e.callee not in scope
            if builtin and e.callee not in BUILTINS:
                error("UnboundCallee", f"callee '{e.callee}' is not a "
                      "function, binder or builtin", e.span)
            elif builtin and len(e.args) != BUILTINS[e.callee]:
                error("ArityMismatch", f"{e.callee} takes {BUILTINS[e.callee]}"
                      f" arguments, got {len(e.args)}", e.span)
        elif isinstance(e, Match) and not e.clauses:
            error("EmptyMatch", "match with no clauses", e.span)
        elif isinstance(e, SetRef) and isinstance(e.index, Int) and (
                e.index.n < 1):
            error("InvalidIndex", f"setref index {e.index.n} must be >= 1 "
                  "(fields are 1-indexed)", e.span)
        elif isinstance(e, Letrec):
            outer = {f.name: defs.get(f.name) for f in e.group}
            defs.update((f.name, f) for f in e.group)
            yield group(e.group, marked)
        elif not isinstance(e, (Var, Int, Let, Seq, Constr, Match, SetRef,
                                Hole)):
            raise TypeError(f"unknown expression node {e!r}")
        below = []  # (i, candidates) for each i-th child that has some
        for i, (c, bound, tmc) in enumerate(children(e)):
            for v in _repeats(bound):  # only a pattern binds several
                error("DuplicatePatternVar", f"'{v}' bound twice in one "
                      "pattern", e.clauses[i - 1][0].span)
            if not tmc:
                misplaced(c)
            bind(scope, bound, 1)
            r = yield walk(c, marked, scope,
                           None if tmc is None else tail, under or bool(tmc))
            if r is not None:
                below.append((i, r))
            bind(scope, bound, -1)
        if isinstance(e, Letrec):
            defs.update(outer)
        if isinstance(e, Call):
            # The scope rule: a call to a marked definition, not shadowed by
            # a binder, may be rewritten anywhere inside a marked function,
            # elsewhere only from within the callee's own group.
            eligible = None
            if callee is not None and TAIL_MOD_CONS in callee.attrs:
                eligible = marked or id(callee) in enclosing
                verdict.sites.append((e, eligible))
            # (@ tailcall) holds in a tail position that is rewritten, or
            # plain in an unmarked function: a DPS version writes the result.
            if TAILCALL in e.attrs and not (tail and (eligible or not (
                    under or TAIL_MOD_CONS in tail.attrs))):
                verdict.unsatisfiable.append(Diagnostic(
                    "Error" if eligible or marked else "Warning",
                    "TailcallNotSatisfiable",
                    f"(@ tailcall) on call to '{e.callee}' cannot become a "
                    "tail call here", e.span))
            if not (eligible and tail):
                return None
            verdict.context[id(e)] = None  # a candidate
            return _Found(TAILCALL in e.attrs, under)
        if not below:
            return None
        if len(below) == 1:
            i, found = below[0]
            verdict.context[id(e)] = i if isinstance(e, Constr) else None
            return found
        found = [r for _, r in below]
        verdict.context[id(e)] = None
        if isinstance(e, Constr):
            picked = [i for i, r in below if r.annotated]
            if len(picked) == 1:  # the other arguments are holes
                verdict.context[id(e)] = j = picked[0]
                for x in _reach(verdict.context,
                                [e.args[i] for i, _ in below if i != j]):
                    del verdict.context[id(x)]
            else:
                ambiguous.append((e, Diagnostic(
                    "Error", "AmbiguousTmc",
                    f"{len(below)} constructor arguments contain TMC "
                    "candidates; add a (@ tailcall) annotation to pick one",
                    e.span, candidates=[x for x in _reach(verdict.context, [e])
                                        if isinstance(x, Call)])))
        return _Found(any(r.annotated for r in found),
                      any(r.strict for r in found))

    def group(fs: list[FunDef], marked: bool):
        """Record each definition of fs, then walk its body."""

        enclosing.update(map(id, fs))
        names: set[str] = set()
        for f in fs:
            if f.name in names:
                error("DuplicateFunction", f"function '{f.name}' defined "
                      "twice in one group", f.span)
            names.add(f.name)
            if _repeats(f.params):
                error("DuplicateParam", f"duplicate parameter in '{f.name}'",
                      f.span)
            if not f.params:
                error("NoParams", f"function '{f.name}' has no parameters",
                      f.span)
            misplaced(f.body)
            verdict.identifiers.update([f.name, *f.params])
            verdict.definitions.append(f)
            inside = marked or TAIL_MOD_CONS in f.attrs
            body = yield walk(f.body, inside, dict.fromkeys(f.params, 1),
                              f, False)
            if TAIL_MOD_CONS in f.attrs and not (body and body.strict):
                useless[id(f)] = Diagnostic(
                    "Warning", "UselessMark",
                    f"'{f.name}' has no strictly-modulo-cons candidate; "
                    "its DPS version is trivial", f.span)
        enclosing.difference_update(map(id, fs))

    for fs in p.groups:
        for f in fs:
            if f.name in defs:
                error("DuplicateFunction", f"function '{f.name}' defined "
                      "twice at toplevel", f.span)
            defs[f.name] = f
    for fs in p.groups:
        drive(group(fs, False))
    misplaced(p.main)
    drive(walk(p.main, False, {}, None, False))
    # The walkers reach themselves through their cells; unbound, they are
    # freed by reference counting, not left to the collector.
    del walk, group
    verdict.warnings = [useless[id(f)] for f in verdict.definitions
                        if id(f) in useless]
    # An ambiguous constructor in an unpicked argument is a hole: its entry,
    # and so its error, went with that argument's.
    verdict.errors = sorted(
        (d for e, d in ambiguous if id(e) in verdict.context),
        key=lambda d: d.span.byte_start if d.span else 0)
    return verdict
