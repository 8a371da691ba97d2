"""Destination-passing-style rewrite of marked functions.

For each marked function f this produces:
  * f_dps -- takes (dst, idx, ...params) and writes its result into the
    destination; every candidate of the context becomes a regular tail
    call to a *_dps companion, and every hole below the context a
    destination write.  Nested constructor applications are compressed:
    constructor layers are delayed in a one-hole constructor context and
    materialized in a single write at reification time.
  * the rewritten direct f -- same interface as before; plain tail
    positions are untouched, and the switch into DPS happens only inside
    a constructor whose chosen argument holds a candidate.
Both walk the original body: a node outside `ScopeVerdict.context` is a hole.
Like the analysis, the rewrite is one generator pair under `ir.drive`:
`walk` for a body, its context and its holes, `group` for definitions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .analysis import collect_marks, resolve_scope
from .ir import (
    TAIL_MOD_CONS,
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
    Program,
    Seq,
    SetRef,
    Var,
    children,
    drive,
    with_children,
)


class TransformError(Exception):
    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = diagnostics
        msgs = "; ".join(d.message for d in diagnostics)
        super().__init__(msgs)


@dataclass
class FreshNamer:
    """Names base0, base1, ... for each base, skipping the names in `used`,
    which it reads but never changes."""

    used: set[str] = field(default_factory=set)
    counters: dict[str, int] = field(default_factory=dict)

    def fresh(self, base: str) -> str:
        k = self.counters.get(base, 0)
        while f"{base}{k}" in self.used:
            k += 1
        self.counters[base] = k + 1
        return f"{base}{k}"


@dataclass(frozen=True)
class Dest:
    """Symbolic destination: block variable plus index expression."""

    block: str
    index: Expr

    def setref(self, value: Expr) -> Expr:
        return SetRef(Var(self.block), self.index, value)


@dataclass(frozen=True)
class CLayer:
    tag: str
    left: tuple  # argument expressions left of the hole (atoms after binding)
    right: tuple

    @property
    def hole_index(self) -> int:
        return len(self.left) + 1


def _plug(cctx: Optional[tuple], e: Expr) -> Expr:
    """e in the delayed one-hole nest of constructor applications cctx:
    None, or (innermost layer, the nest around it)."""

    while cctx:
        layer, cctx = cctx
        e = Constr(layer.tag, list(layer.left) + [e] + list(layer.right))
    return e


def transform_program(p: Program, compress: bool = True,
                      diagnostics: Optional[list[Diagnostic]] = None) -> Program:
    """Whole-program rewrite; raises TransformError on any Error diagnostic.

    Every diagnostic found, warnings included, is also appended to
    `diagnostics` when it is given, in the order found."""

    verdict = resolve_scope(p)
    marks = collect_marks(verdict)
    diags = (verdict.malformed + verdict.warnings + verdict.unsatisfiable
             + verdict.errors)
    if diagnostics is not None:
        diagnostics.extend(diags)
    errors = [d for d in diags if d.severity == "Error"]
    if errors:
        raise TransformError(errors)
    context, dps_name = verdict.context, marks.dps_name
    done: dict[int, list[FunDef]] = {}  # id(group) -> rewritten group

    def walk(e: Expr, dest: Optional[Dest], cctx: Optional[tuple],
             namer: Optional[FreshNamer]):
        """Rewrite e, a body or part of one, into the direct version of its
        function when `dest` is None, else into DPS code that writes the
        result, wrapped in the delayed `cctx`, to `dest`.  A hole, or a
        candidate of the direct version, is copied, which needs no `namer`:
        call attributes are dropped and nested letrec groups rewritten.
        With `dest`, each branch returns a `setref`, a DPS call, or a node
        whose tail-modulo-cons children it walks with a destination."""

        if dest is not None and id(e) not in context:  # a hole
            return dest.setref(_plug(cctx, (yield walk(e, None, None, None))))
        if isinstance(e, Letrec):
            return Letrec((yield group(e.group)),
                          (yield walk(e.body, dest, cctx, namer)), span=e.span)
        if dest is None and (id(e) not in context or isinstance(e, Call)):
            new = []
            for c, _, _ in children(e):
                new.append((yield walk(c, None, None, None)))
            return with_children(e, new)
        if cctx and (isinstance(e, Call) or isinstance(e, Match)
                     and len(e.clauses) >= 2):
            # Materialize the delayed context: allocate the innermost layer
            # with a hole, write the whole nest into `dest` and go on into the
            # new hole.  A call writes there, and a multi-branch match would
            # duplicate the delayed context.
            (inner, outer), d2 = cctx, namer.fresh("dst")
            alloc = Constr(inner.tag,
                           list(inner.left) + [Hole()] + list(inner.right))
            write = dest.setref(_plug(outer, Var(d2)))
            rest = yield walk(e, Dest(d2, Int(inner.hole_index)), None, namer)
            return Let(d2, alloc, Seq(write, rest))
        if isinstance(e, Call):  # a candidate: the DPS tail call
            args = (yield walk(e, None, None, None)).args
            return Call(dps_name[e.callee], [Var(dest.block), dest.index,
                                             *args], span=e.span)
        if isinstance(e, Constr):
            j = context[id(e)]  # the argument that holds the context
            args = []
            for i, a in enumerate(e.args):
                args.append(a if i == j else (yield walk(a, None, None, None)))
            if dest is None or not compress:
                # The constructor rule: allocate with a hole in argument j,
                # and go on in DPS into that hole.
                dvar = namer.fresh("dst")
                alloc = Constr(e.tag, args[:j] + [Hole()] + args[j + 1:],
                               span=e.span)
                inner = yield walk(e.args[j], Dest(dvar, Int(j + 1)), None,
                                   namer)
                if dest is None:
                    return Let(dvar, alloc, Seq(inner, Var(dvar)))
                return Let(dvar, alloc, Seq(dest.setref(Var(dvar)), inner))
            # Compression: bind the other arguments to atoms, in order, and
            # delay the allocation as a layer of the one-hole context.
            binds = []
            for i, a in enumerate(args):
                if i != j and not isinstance(a, (Var, Int)):
                    binds.append((namer.fresh("y"), a))
                    args[i] = Var(binds[-1][0])
            layer = CLayer(e.tag, tuple(args[:j]), tuple(args[j + 1:]))
            out = yield walk(e.args[j], dest, (layer, cctx), namer)
            for v, b in reversed(binds):
                out = Let(v, b, out)
            return out
        new = []
        for c, _, tmc in children(e):
            if tmc is None:
                new.append((yield walk(c, None, None, None)))
            else:
                new.append((yield walk(c, dest, cctx, namer)))
        return with_children(e, new)

    def group(fs: list[FunDef]):
        """The direct version of every function of fs, each followed by its
        DPS version when marked.  A nested group lies in the context of both
        versions of its enclosing function; it is rewritten once and shared
        by the two."""

        if id(fs) in done:
            return done[id(fs)]
        out = []
        for f in fs:
            body = yield walk(f.body, None, None, FreshNamer(marks.used))
            out.append(FunDef(f.name, list(f.params), body, frozenset(),
                              span=f.span))
            if TAIL_MOD_CONS in f.attrs:
                namer = FreshNamer(marks.used)
                dst, idx = (namer.fresh(v) if v in marks.used else v
                            for v in ("dst", "idx"))
                body = yield walk(f.body, Dest(dst, Var(idx)), None, namer)
                out.append(FunDef(dps_name[f.name], [dst, idx, *f.params],
                                  body, frozenset(), span=f.span))
        done[id(fs)] = out
        return out

    out = Program([drive(group(fs)) for fs in p.groups],
                  drive(walk(p.main, None, None, None)))
    del walk, group  # as in resolve_scope: no cycle outlives the call
    return out


# Stand-ins for names that `--trace 1` binds (benchmark/tracing.py); nothing
# in src/ calls them, so their spans read 0.  ROADMAP item 1 retires them.
from .ir import well_formed  # noqa: E402, F401
check_tailcall_annotations = lambda verdict: verdict.unsatisfiable  # noqa: E731
