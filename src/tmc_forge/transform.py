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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .analysis import (
    AnalysisError,
    MarkSet,
    ScopeEnv,
    check_tailcall_annotations,
    collect_marks,
    decompose_tmc,
    resolve_scope,
)
from .ir import (
    Call,
    Constr,
    Decomposition,
    DecompHole,
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
    all_identifiers,
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
    used: set[str] = field(default_factory=set)
    counters: dict[str, int] = field(default_factory=dict)

    def reserve(self, names) -> None:
        self.used.update(names)

    def fresh(self, base: str) -> str:
        k = self.counters.get(base, 0)
        while f"{base}{k}" in self.used:
            k += 1
        self.counters[base] = k + 1
        name = f"{base}{k}"
        self.used.add(name)
        return name


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

    def __init__(self, marks: MarkSet, compress: bool = True):
        self.marks = marks
        self.compress = compress
        # id(group) -> (enclosing env, rewritten group); see rewrite_group.
        self.groups: dict[int, tuple[ScopeEnv, list[FunDef]]] = {}

    # -- generic cleanup --------------------------------------------------

    def scrub(self, e: Expr, env: ScopeEnv):
        """Strip consumed attributes and expand nested letrec groups."""

        if isinstance(e, Letrec):
            group = yield self.rewrite_group(e.group, env)
            return Letrec(group, (yield self.scrub(e.body, env)), span=e.span)
        new = []
        for _, c, _, _ in children(e):
            new.append((yield self.scrub(c, env)))
        if isinstance(e, Call):
            return Call(e.callee, new, frozenset(), span=e.span)
        return with_children(e, new)

    # -- function-level transforms ----------------------------------------

    def rewrite_group(self, group: list[FunDef], outer: ScopeEnv):
        """The direct version of every function of the group, each followed
        by its DPS version when marked.  Each body is decomposed once.  A
        nested group lies in the context of both versions of its enclosing
        function; it is rewritten once and shared by the two."""

        done = self.groups.get(id(group))
        if done is not None and done[0] is outer:
            return done[1]
        out: list[FunDef] = []
        for f in group:
            env = outer.enter(group, f)
            d = decompose_tmc(f.body, self.marks, env, frozenset(f.params))
            reserved = (all_identifiers(f.body) | set(f.params)
                        | set(self.marks.dps_name.values()))
            body = yield self._ctx(d.context, d, None, None, env,
                                   FreshNamer(set(reserved)))
            out.append(FunDef(f.name, list(f.params), body, frozenset(),
                              span=f.span))
            if f.name in self.marks.marked:
                out.append((yield self._dps_fun(f, d, env,
                                                FreshNamer(set(reserved)))))
        self.groups[id(group)] = (outer, out)
        return out

    def _dps_fun(self, f: FunDef, d: Decomposition, env: ScopeEnv,
                 namer: FreshNamer):
        dst = namer.fresh("dst") if "dst" in namer.used else "dst"
        idx = namer.fresh("idx") if "idx" in namer.used else "idx"
        namer.reserve((dst, idx))
        body = yield self._ctx(d.context, d, Dest(dst, Var(idx)), None, env,
                               namer)
        check_single_completion(body, self.marks)
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

    def _ctx(self, node: Expr, d: Decomposition, dest: Optional[Dest],
             cctx: Optional[tuple], env: ScopeEnv, namer: FreshNamer):
        """Rewrite the context `node` of `d` into the direct version of its
        function when `dest` is None, else into DPS code that writes the
        result, wrapped in the delayed `cctx` (see `_plug`), to `dest`."""

        if isinstance(node, DecompHole):
            expr = d.holes[node.index][0]
            if dest is None:
                return (yield self.scrub(expr, env))
            if node.index in d.calls:
                if cctx:
                    dest, wrap = self._reify(dest, cctx, namer)
                    return wrap((yield self._dps_call(expr, dest, env)))
                return (yield self._dps_call(expr, dest, env))
            return dest.setref(_plug(cctx, (yield self.scrub(expr, env))))
        if isinstance(node, Constr):
            if dest is None:
                # The constructor rule: switch to DPS inside the allocation.
                dvar, alloc, inner = yield self._open(node, d, env, namer)
                return Let(dvar, alloc, Seq(inner, Var(dvar)))
            return (yield self._dps_constr(node, d, dest, cctx, env, namer))
        if isinstance(node, Match) and cctx and len(node.clauses) >= 2:
            # A multi-branch match would duplicate the delayed context.
            dest, wrap = self._reify(dest, cctx, namer)
            return wrap((yield self._ctx(node, d, dest, None, env, namer)))
        if isinstance(node, Letrec):
            group = yield self.rewrite_group(node.group, env)
            return Letrec(group,
                          (yield self._ctx(node.body, d, dest, cctx, env, namer)),
                          span=node.span)
        new = []
        for _, c, _, tmc in children(node):
            if tmc is not None:
                c = yield self._ctx(c, d, dest, cctx, env, namer)
            else:
                c = yield self.scrub(c, env)
            new.append(c)
        return with_children(node, new)

    def _split(self, node: Constr, d: Decomposition, env: ScopeEnv):
        """The index of the argument holding the context, and the scrubbed
        arguments left and right of it."""

        j = d.chosen[id(node)]
        args = []
        for i, a in enumerate(node.args):
            args.append(a if i == j else (yield self.scrub(a, env)))
        return j, args[:j], args[j + 1:]

    def _open(self, node: Constr, d: Decomposition, env: ScopeEnv,
              namer: FreshNamer):
        """Allocate `node` with a hole in the argument holding the context:
        the block variable, the allocation, and that argument's DPS rewrite
        into the hole."""

        j, left, right = yield self._split(node, d, env)
        dvar = namer.fresh("dst")
        alloc = Constr(node.tag, left + [Hole()] + right, span=node.span)
        inner = yield self._ctx(node.args[j], d, Dest(dvar, Int(j + 1)), None,
                                env, namer)
        return dvar, alloc, inner

    def _dps_constr(self, node: Constr, d: Decomposition, dest: Dest,
                    cctx: Optional[tuple], env: ScopeEnv, namer: FreshNamer):
        if not self.compress:
            # Naive constructor rule: allocate and write immediately.
            dvar, alloc, inner = yield self._open(node, d, env, namer)
            return Let(dvar, alloc, Seq(dest.setref(Var(dvar)), inner))
        j, left_exprs, right_exprs = yield self._split(node, d, env)
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
        out = yield self._ctx(node.args[j], d, dest, (layer, cctx), env, namer)
        for v, e in reversed(binds):
            out = Let(v, e, out)
        return out

    def _dps_call(self, call: Call, dest: Dest, env: ScopeEnv):
        args = [Var(dest.block), dest.index]
        for a in call.args:
            args.append((yield self.scrub(a, env)))
        return Call(self.marks.dps_name[call.callee], args, frozenset(),
                    span=call.span)


def check_single_completion(body: Expr, marks: MarkSet) -> None:
    """Every control path of a DPS body must end in exactly one
    destination write or one call to a DPS companion."""

    dps_names = set(marks.dps_name.values())
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
    marks = collect_marks(p)
    diags.extend(resolve_scope(p, marks).warnings)
    diags.extend(check_tailcall_annotations(p, marks))
    if diagnostics is not None:
        diagnostics.extend(diags)
    errors = [d for d in diags if d.severity == "Error"]
    if errors:
        raise TransformError(errors)
    rw = _Rewriter(marks, compress)
    root = ScopeEnv()
    try:
        groups = [drive(rw.rewrite_group(g, root)) for g in p.groups]
        main = drive(rw.scrub(p.main, root))
    except AnalysisError as exc:
        if diagnostics is not None:
            diagnostics.append(exc.diagnostic)
        raise TransformError([exc.diagnostic]) from exc
    return Program(groups, main)
