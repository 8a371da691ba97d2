"""Destination-passing-style rewrite of marked functions.

For each marked function f this produces:
  * f_dps -- takes (dst, idx, ...params) and writes its result into the
    destination; every eligible call in a context hole becomes a regular
    tail call to a *_dps companion, every other hole becomes a
    destination write.  Nested constructor applications are compressed:
    constructor layers are delayed in a one-hole constructor context and
    materialized in a single write at reification time.
  * the rewritten direct f -- same interface as before; plain tail
    positions are untouched, and the switch into DPS happens only inside
    a constructor whose chosen argument holds an eligible call.
Both walk the original body: a node outside `ScopeVerdict.context` is a hole.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .analysis import MarkSet, ScopeVerdict, collect_marks, resolve_scope
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
    well_formed,
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


class _Rewriter:
    """The walkers are generators run by `ir.drive`: each yields its
    sub-walks and is sent their results."""

    def __init__(self, marks: MarkSet, verdict: ScopeVerdict, compress=True):
        self.marks = marks
        self.calls = verdict.calls
        self.context = verdict.context
        self.dps_names = set(marks.dps_name.values())
        self.compress = compress
        # id(group) -> rewritten group; see rewrite_group.
        self.groups: dict[int, list[FunDef]] = {}

    # -- generic cleanup --------------------------------------------------

    def scrub(self, e: Expr):
        """Strip consumed attributes and expand nested letrec groups."""

        if isinstance(e, Letrec):
            group = yield self.rewrite_group(e.group)
            return Letrec(group, (yield self.scrub(e.body)), span=e.span)
        new = []
        for _, c, _, _ in children(e):
            new.append((yield self.scrub(c)))
        if isinstance(e, Call):
            return Call(e.callee, new, frozenset(), span=e.span)
        return with_children(e, new)

    # -- function-level transforms ----------------------------------------

    def rewrite_group(self, group: list[FunDef]):
        """The direct version of every function of the group, each followed
        by its DPS version when marked.  A nested group lies in the context
        of both versions of its enclosing function; it is rewritten once
        and shared by the two."""

        done = self.groups.get(id(group))
        if done is not None:
            return done
        out: list[FunDef] = []
        for f in group:
            body = yield self._ctx(f.body, None, None,
                                   FreshNamer(self.marks.used))
            out.append(FunDef(f.name, list(f.params), body, frozenset(),
                              span=f.span))
            if TAIL_MOD_CONS in f.attrs:
                out.append((yield self._dps_fun(f,
                                                FreshNamer(self.marks.used))))
        self.groups[id(group)] = out
        return out

    def _dps_fun(self, f: FunDef, namer: FreshNamer):
        dst = namer.fresh("dst") if "dst" in namer.used else "dst"
        idx = namer.fresh("idx") if "idx" in namer.used else "idx"
        body = yield self._ctx(f.body, Dest(dst, Var(idx)), None, namer)
        check_single_completion(body, self.dps_names)
        return FunDef(self.marks.dps_name[f.name], [dst, idx] + list(f.params),
                      body, frozenset(), span=f.span)

    # -- context rewrite: direct and DPS versions ------------------------

    def _reify(self, dest: Dest, cctx: tuple, namer: FreshNamer):
        """Materialize the delayed context: allocate the innermost layer
        with a Hole and write the whole nest into `dest`.  Returns the new
        hole as destination, and the function that puts the code which
        continues there after the allocation and the write."""

        inner, outer = cctx
        d2 = namer.fresh("dst")
        alloc = Constr(inner.tag,
                       list(inner.left) + [Hole()] + list(inner.right))
        write = dest.setref(_plug(outer, Var(d2)))
        return (Dest(d2, Int(inner.hole_index)),
                lambda rest: Let(d2, alloc, Seq(write, rest)))

    def _ctx(self, node: Expr, dest: Optional[Dest], cctx: Optional[tuple],
             namer: FreshNamer):
        """Rewrite `node`, a body or part of its context, into the direct
        version of its function when `dest` is None, else into DPS code that
        writes the result, wrapped in the delayed `cctx`, to `dest`."""

        if id(node) not in self.context:  # a hole
            if dest is None:
                return (yield self.scrub(node))
            if id(node) in self.calls:
                if cctx:
                    dest, wrap = self._reify(dest, cctx, namer)
                    return wrap((yield self._dps_call(node, dest)))
                return (yield self._dps_call(node, dest))
            return dest.setref(_plug(cctx, (yield self.scrub(node))))
        if isinstance(node, Constr):
            if dest is None:
                # The constructor rule: switch to DPS inside the allocation.
                dvar, alloc, inner = yield self._open(node, namer)
                return Let(dvar, alloc, Seq(inner, Var(dvar)))
            return (yield self._dps_constr(node, dest, cctx, namer))
        if isinstance(node, Match) and cctx and len(node.clauses) >= 2:
            # A multi-branch match would duplicate the delayed context.
            dest, wrap = self._reify(dest, cctx, namer)
            return wrap((yield self._ctx(node, dest, None, namer)))
        if isinstance(node, Letrec):
            group = yield self.rewrite_group(node.group)
            return Letrec(group,
                          (yield self._ctx(node.body, dest, cctx, namer)),
                          span=node.span)
        new = []
        for _, c, _, tmc in children(node):
            if tmc is not None:
                c = yield self._ctx(c, dest, cctx, namer)
            else:
                c = yield self.scrub(c)
            new.append(c)
        return with_children(node, new)

    def _split(self, node: Constr):
        """The index of the argument holding the context, and the scrubbed
        arguments left and right of it."""

        j = self.context[id(node)]
        args = []
        for i, a in enumerate(node.args):
            args.append(a if i == j else (yield self.scrub(a)))
        return j, args[:j], args[j + 1:]

    def _open(self, node: Constr, namer: FreshNamer):
        """Allocate `node` with a hole in the argument holding the context:
        the block variable, the allocation, and that argument's DPS rewrite
        into the hole."""

        j, left, right = yield self._split(node)
        dvar = namer.fresh("dst")
        alloc = Constr(node.tag, left + [Hole()] + right, span=node.span)
        inner = yield self._ctx(node.args[j], Dest(dvar, Int(j + 1)), None,
                                namer)
        return dvar, alloc, inner

    def _dps_constr(self, node: Constr, dest: Dest, cctx: Optional[tuple],
                    namer: FreshNamer):
        if not self.compress:
            # Naive constructor rule: allocate and write immediately.
            dvar, alloc, inner = yield self._open(node, namer)
            return Let(dvar, alloc, Seq(dest.setref(Var(dvar)), inner))
        j, left_exprs, right_exprs = yield self._split(node)
        binds: list[tuple[str, Expr]] = []

        def atom(e: Expr) -> Expr:
            if isinstance(e, (Var, Int)):
                return e
            v = namer.fresh("y")
            binds.append((v, e))
            return Var(v)

        left_atoms = tuple(atom(e) for e in left_exprs)
        right_atoms = tuple(atom(e) for e in right_exprs)
        layer = CLayer(node.tag, left_atoms, right_atoms)
        out = yield self._ctx(node.args[j], dest, (layer, cctx), namer)
        for v, e in reversed(binds):
            out = Let(v, e, out)
        return out

    def _dps_call(self, call: Call, dest: Dest):
        args = [Var(dest.block), dest.index]
        for a in call.args:
            args.append((yield self.scrub(a)))
        return Call(self.marks.dps_name[call.callee], args, frozenset(),
                    span=call.span)


def check_single_completion(body: Expr, dps_names: set[str]) -> None:
    """Every control path of a DPS body must end in exactly one
    destination write or one call to a DPS companion."""

    stack = [body]
    while stack:
        e = stack.pop()
        if isinstance(e, SetRef) or (isinstance(e, Call)
                                     and e.callee in dps_names):
            continue
        if not isinstance(e, (Let, Seq, Match, Letrec)):
            raise AssertionError(
                "internal error: a control path of a DPS body does not end "
                "in a destination write or DPS call")
        stack.extend(c for _, c, _, tmc in children(e) if tmc is not None)


def transform_program(p: Program, compress: bool = True,
                      diagnostics: Optional[list[Diagnostic]] = None) -> Program:
    """Whole-program rewrite; raises TransformError on any Error diagnostic.

    Every diagnostic found, warnings included, is also appended to
    `diagnostics` when it is given, in the order found."""

    diags = well_formed(p)
    verdict = resolve_scope(p)
    marks = collect_marks(verdict)
    diags += verdict.warnings + verdict.unsatisfiable + verdict.errors
    if diagnostics is not None:
        diagnostics.extend(diags)
    errors = [d for d in diags if d.severity == "Error"]
    if errors:
        raise TransformError(errors)
    rw = _Rewriter(marks, verdict, compress)
    groups = [drive(rw.rewrite_group(g)) for g in p.groups]
    return Program(groups, drive(rw.scrub(p.main)))


# Stand-in for a name that `--trace 1` binds (benchmark/tracing.py); nothing
# in src/ calls it.  ROADMAP item 1 retires it.
check_tailcall_annotations = lambda verdict: verdict.unsatisfiable  # noqa: E731
