"""Instrumented evaluator: an explicit-stack machine compiled once per program.

Call-by-value, left-to-right, with proper tail calls (frame reuse),
a mutable-block store with Hole values and single-write initialization,
and metrics: stack depth, allocations, destination writes, effect trace,
step count.  This is the oracle for every equivalence and stack claim.

Each Program is compiled once into flat code per function: value variables
become registers of the activation, callees become function entries and
tail positions are marked.  One loop runs that code with an explicit
continuation stack whose frames are function activations, so
`max_stack_depth` counts exactly those frames and `max_stack` is the only
stack limit.  Neither the machine nor any value walker recurses on the
host stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Union

from .ir import (
    BUILTINS,
    Call,
    Constr,
    Expr,
    Hole,
    Int,
    Let,
    Letrec,
    Match,
    PConstr,
    PInt,
    PVar,
    PWild,
    Pattern,
    Program,
    Seq,
    SetRef,
    Var,
    drive,
)

DEFAULT_MAX_STACK = 1_000_000
DEFAULT_MAX_STEPS = 10**9


class TmcRuntimeError(Exception):
    """Evaluation failure; `code` is a stable machine-readable name."""

    def __init__(self, code: str, message: str = ""):
        self.code = code
        super().__init__(f"{code}: {message}" if message else code)


# ---------------------------------------------------------------------------
# Values and store
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VInt:
    n: int


@dataclass(frozen=True)
class VBlock:
    addr: int


@dataclass(frozen=True)
class VFun:
    name: str


class _VHole:
    def __repr__(self):
        return "VHole"


VHOLE = _VHole()

Value = Union[VInt, VBlock, VFun, _VHole]


class Block:
    __slots__ = ("tag", "fields")

    def __init__(self, tag: str, fields: list):
        self.tag = tag
        self.fields = fields  # 0-indexed storage; API is 1-indexed


@dataclass
class Metrics:
    max_stack_depth: int = 0
    allocations: int = 0
    dest_writes: int = 0
    effect_trace: list[str] = field(default_factory=list)
    steps: int = 0

    def render(self) -> str:
        return "\n".join([
            f"max_stack_depth={self.max_stack_depth}",
            f"allocations={self.allocations}",
            f"dest_writes={self.dest_writes}",
            f"effects={len(self.effect_trace)}",
            f"steps={self.steps}",
        ])


def _cyclic() -> TmcRuntimeError:
    return TmcRuntimeError("CyclicValue", "value reaches itself through a field")


# ---------------------------------------------------------------------------
# Input literals: store-independent value descriptions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LInt:
    n: int


@dataclass(frozen=True)
class LFun:
    name: str


_CLOSE = object()  # end of a block in the walkers' explicit stacks


@dataclass(frozen=True)
class LBlock:
    tag: str
    args: tuple

    def __eq__(self, other):
        if other.__class__ is not LBlock:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if a.tag != b.tag or len(a.args) != len(b.args):
                return False
            for x, y in zip(a.args, b.args):
                if x.__class__ is LBlock and y.__class__ is LBlock:
                    stack.append((x, y))
                elif x != y:
                    return False
        return True

    def __repr__(self):
        # Every item is written with a leading space, dropped at the end.
        parts, stack = [], [self]
        while stack:
            x = stack.pop()
            if x is _CLOSE:
                parts.append(")")
            elif x.__class__ is not LBlock:
                parts.append(" " + repr(x))
            elif not x.args:
                parts.append(" " + x.tag)
            else:
                parts.append(" (" + x.tag)
                stack.append(_CLOSE)
                stack.extend(reversed(x.args))
        return "".join(parts)[1:]


Lit = Union[LInt, LFun, LBlock]


def list_lit(items) -> LBlock:
    out = LBlock("Nil", ())
    for x in reversed(list(items)):
        head = x if isinstance(x, (LInt, LFun, LBlock)) else LInt(x)
        out = LBlock("Cons", (head, out))
    return out


# ---------------------------------------------------------------------------
# Compilation: one flat code list per function
#
# An instruction is a 7-tuple (op, pre, a, b, c, d, e).  `pre` counts the
# expression nodes whose evaluation starts (one step each) after the previous
# instruction's effect and before this one's: variables and constants have
# no instruction, so their steps ride on the next one.  Operand lists are
# itemgetters over the activation's registers.  A destination of RET
# returns the value from the activation; for a call it marks a tail call.
# ---------------------------------------------------------------------------

CALL, DYNCALL, BUILTIN, ALLOC, MATCH, SETREF, MOVE, JUMP, RETURN, FAIL = range(10)
RET = -1


class _Fn:
    """A compiled function.  An activation's registers are its arguments
    followed by a copy of `regs`: constants, binders and temporaries, the
    last two None until written."""

    __slots__ = ("name", "nparams", "code", "regs")

    def __init__(self, name: str, nparams: int):
        self.name, self.nparams = name, nparams
        self.code: list[tuple] = []
        self.regs: list = []


class Compiled:
    """A program's toplevel functions by name, and main."""

    def __init__(self, program: Program):
        self.functions: dict[str, _Fn] = {}
        todo = []  # (entry, definition, function scope), nested groups too
        for group in program.groups:
            for f in group:
                self.functions[f.name] = fn = _Fn(f.name, len(f.params))
                todo.append((fn, f, self.functions))
        self.main = _Fn("main", 0)
        _Compiler(self.main, [], False, todo).run(program.main, self.functions)
        while todo:
            fn, f, fscope = todo.pop()
            _Compiler(fn, f.params, True, todo).run(f.body, fscope)


def compile_program(program: Program) -> Compiled:
    """The program's compiled form, built on first use and kept on the
    Program object (trees are immutable by convention)."""

    compiled = program.__dict__.get("_compiled")
    if compiled is None:
        compiled = program.__dict__["_compiled"] = Compiled(program)
    return compiled


def _operands(regs: list[int]):
    if len(regs) == 1:  # itemgetter of one index returns the bare item
        return itemgetter(slice(regs[0], regs[0] + 1))
    return itemgetter(*regs) if regs else itemgetter(slice(0, 0))


class _Compiler:
    """Compiles one function body.  `expr` is a walker for `ir.drive`: it
    yields the walk of each subexpression and is sent the register that
    holds the subexpression's value."""

    def __init__(self, fn: _Fn, params: list[str], tail: bool, todo: list):
        self.fn, self.code, self.tail, self.todo = fn, fn.code, tail, todo
        self.params = {p: [i] for i, p in enumerate(params)}  # the last wins
        self.nregs = len(params)
        self.consts: dict = {}
        self.pending = 0  # steps not yet attached to an instruction

    def run(self, body: Expr, fscope: dict) -> None:
        drive(self.expr(body, self.params, fscope, RET))

    def reg(self, value=None) -> int:
        self.fn.regs.append(value)
        self.nregs += 1
        return self.nregs - 1

    def emit(self, op, a=None, b=None, c=None, d=None, e=None) -> int:
        self.code.append((op, self.pending, a, b, c, d, e))
        self.pending = 0
        return len(self.code) - 1

    def expr(self, e: Expr, scope: dict, fscope: dict, dst):
        """Compile e to leave its value in register dst, or in any register
        when dst is None, or to return it when dst is RET.  Returns the
        register.  `scope` maps each value variable to the registers of its
        binders, innermost last; a binder is in it only around its body."""

        self.pending += 1
        t = type(e)
        if t in (Var, Int, Hole):
            if t is Var and scope.get(e.name):
                r = scope[e.name][-1]
            elif t is Var and e.name not in fscope and e.name not in BUILTINS:
                self.emit(FAIL, "UnboundName", e.name)
                return self.reg()  # never read
            else:
                v = VInt(e.n) if t is Int else VFun(e.name) if t is Var else VHOLE
                if v not in self.consts:
                    self.consts[v] = self.reg(v)
                r = self.consts[v]
            if dst is None:
                return r
            if dst >= 0:
                self.emit(MOVE, r, None, dst)
            else:
                self.emit(RETURN, r)
            return dst
        if t is Let:
            r = yield self.expr(e.bound, scope, fscope, None)
            scope.setdefault(e.binder, []).append(r)
            r = yield self.expr(e.body, scope, fscope, dst)
            scope[e.binder].pop()
            return r
        if t is Seq:
            yield self.expr(e.first, scope, fscope, None)
            return (yield self.expr(e.second, scope, fscope, dst))
        if t is Letrec:
            inner = dict(fscope)
            for f in e.group:
                inner[f.name] = fn = _Fn(f.name, len(f.params))
                self.todo.append((fn, f, inner))
            return (yield self.expr(e.body, scope, inner, dst))
        if dst is None:
            dst = self.reg()
        if t is Match:
            r = yield self.expr(e.scrutinee, scope, fscope, None)
            at = self.emit(MATCH)
            clauses, jumps = [], []
            for j, (pat, body) in enumerate(e.clauses):
                clause, binds = self.pattern(pat)
                clauses.append((*clause, len(self.code)))
                for v, reg in binds.items():
                    scope.setdefault(v, []).append(reg)
                yield self.expr(body, scope, fscope, dst)
                for v in binds:
                    scope[v].pop()
                if dst >= 0 and j < len(e.clauses) - 1:
                    jumps.append(self.emit(JUMP))
            self.code[at] = (MATCH, self.code[at][1], r, tuple(clauses), *(None,) * 3)
            for j in jumps:  # to the end of the match
                self.code[j] = (JUMP, self.code[j][1], len(self.code), *(None,) * 4)
            return dst
        if t not in (Call, Constr, SetRef):
            raise TypeError(f"cannot evaluate {e!r}")
        regs = []
        for a in ([e.dest, e.index, e.value] if t is SetRef else e.args):
            regs.append((yield self.expr(a, scope, fscope, None)))
        if t is Constr:
            self.emit(ALLOC, e.tag, _operands(regs), dst)
        elif t is SetRef:
            self.emit(SETREF, *regs, dst)
        else:
            out = self.reg() if dst == RET and not self.tail else dst
            args = _operands(regs)
            if scope.get(e.callee):
                self.emit(DYNCALL, scope[e.callee][-1], args, out, fscope,
                          e.callee)
            elif e.callee in fscope:
                self.emit(CALL, fscope[e.callee], args, out)
            elif e.callee in BUILTINS:
                self.emit(BUILTIN, e.callee, args, out)
            else:
                self.emit(FAIL, "UnboundName", e.callee)
            if out != dst:
                self.emit(RETURN, out)
        return dst

    def pattern(self, pat: Pattern) -> tuple[tuple, dict[str, int]]:
        """A clause's (tag, arity, lo, hi) for a constructor of variables and
        wildcards, which binds registers lo..hi to its fields, or
        (nodes, -1, 0, 0) for Interp._match_nodes; and the registers of the
        names it binds (the last of a repeated name wins)."""

        binds: dict[str, int] = {}
        subs = pat.subpatterns if type(pat) is PConstr else None
        if subs is not None and all(type(s) in (PVar, PWild) for s in subs):
            lo = self.nregs
            for s in subs:
                r = self.reg()
                if type(s) is PVar:
                    binds[s.name] = r
            return (pat.tag, len(subs), lo, self.nregs), binds
        # Pre-order (kind, parent node, field, payload): the order in which
        # a recursive matcher tests the subpatterns.
        nodes: list[tuple] = []
        work = [(pat, -1, 0)]
        while work:
            p, parent, j = work.pop()
            if type(p) is PVar:
                binds[p.name] = r = self.reg()
                nodes.append((PVar, parent, j, r))
            elif type(p) is PConstr:
                nodes.append((PConstr, parent, j, (p.tag, len(p.subpatterns))))
                work.extend((s, len(nodes) - 1, i) for i, s in
                            reversed(list(enumerate(p.subpatterns))))
            else:
                nodes.append((type(p), parent, j, getattr(p, "n", None)))
        return (tuple(nodes), -1, 0, 0), binds


# ---------------------------------------------------------------------------
# The machine
# ---------------------------------------------------------------------------


class Interp:
    """One evaluation owns one store; not shared across runs."""

    def __init__(self, program: Program, max_stack: int = DEFAULT_MAX_STACK,
                 max_steps: int = DEFAULT_MAX_STEPS):
        self.program = program
        self.max_stack = max_stack
        self.max_steps = max_steps
        self.blocks: list[Block] = []  # indexed by address
        self.metrics = Metrics()
        self.compiled = compile_program(program)
        # Shared result blocks for setref/leq/eq; only Constr expressions
        # and tuple-returning builtins count as allocations.
        self._count_allocs = False
        self._unit = self.alloc("Tuple", [])
        self._true = self.alloc("True", [])
        self._false = self.alloc("False", [])
        self._count_allocs = True

    # -- store ------------------------------------------------------------

    def alloc(self, tag: str, values: list) -> VBlock:
        self.blocks.append(Block(tag, values))
        if self._count_allocs:
            self.metrics.allocations += 1
        return VBlock(len(self.blocks) - 1)

    def set_field(self, dest: VBlock, index: int, v: Value) -> None:
        blk = self.blocks[dest.addr]
        if index < 1 or index > len(blk.fields):
            raise TmcRuntimeError(
                "IndexOutOfRange",
                f"field {index} of {blk.tag}/{len(blk.fields)}")
        if blk.fields[index - 1] is not VHOLE:
            raise TmcRuntimeError(
                "NonHoleOverwrite",
                f"field {index} of {blk.tag} block already initialized")
        blk.fields[index - 1] = v
        self.metrics.dest_writes += 1

    def instantiate(self, lit: Lit) -> Value:
        """Build an input value without counting its allocations."""

        blocks = self.blocks
        root = [lit]
        stack = [(root, 0)]  # literal blocks still to build, by where they go
        while stack:
            out, i = stack.pop()
            x = out[i]
            if x.__class__ is LInt:
                out[i] = VInt(x.n)
            elif x.__class__ is LFun:
                out[i] = VFun(x.name)
            else:
                fields = list(x.args)
                blocks.append(Block(x.tag, fields))
                out[i] = VBlock(len(blocks) - 1)
                for j, a in enumerate(fields):
                    if a.__class__ is LInt:
                        fields[j] = VInt(a.n)
                    else:
                        stack.append((fields, j))
        return root[0]

    # -- evaluation -------------------------------------------------------

    def call(self, entry: str, args: list, *, check_holes: bool = True) -> Value:
        """Evaluate entry(args); args may be Values or input literals."""

        vals = [a if isinstance(a, (VInt, VBlock, VFun, _VHole))
                else self.instantiate(a) for a in args]
        main = self.compiled.main
        fn = self.compiled.functions.get(entry, main if entry == "main" else None)
        if fn is not None:
            if fn.nparams != len(vals):
                raise TmcRuntimeError(
                    "ArityMismatch",
                    f"{entry} takes {fn.nparams} arguments, got {len(vals)}")
            if fn is not main:  # main's body runs at depth 1 outside any function
                self.metrics.max_stack_depth = max(self.metrics.max_stack_depth, 1)
                if self.max_stack < 1:
                    raise TmcRuntimeError("StackLimit", "depth 1")
            result = self._run(fn, vals)
        elif entry in BUILTINS:
            result = self._builtin(entry, vals)
        else:
            raise TmcRuntimeError("UnboundName", f"no function '{entry}'")
        if check_holes:
            self.assert_no_holes(result)
        return result

    def _run(self, fn: _Fn, args: list) -> Value:
        """Run fn's code on a fresh activation at depth 1 until it returns."""

        m = self.metrics
        blocks = self.blocks
        unit = self._unit
        max_steps, max_stack = self.max_steps, self.max_stack
        steps, depth_seen, allocs = m.steps, m.max_stack_depth, 0
        konts: list[tuple] = []  # suspended callers: (code, pc, regs, dst)
        code, pc, regs = fn.code, 0, args + fn.regs
        try:
            while True:
                op, pre, a, b, c, d, e = code[pc]
                pc += 1
                steps += pre
                if steps > max_steps:
                    # The first of these node starts beyond the limit.
                    steps = max(steps - pre, max_steps) + 1
                    raise TmcRuntimeError("StepLimit", f"{steps} steps")
                if op is DYNCALL:
                    f = regs[a]
                    if f.__class__ is not VFun:
                        raise TmcRuntimeError("NotAFunction", e)
                    a = d.get(f.name)
                    if a is not None:
                        op = CALL
                    elif f.name in BUILTINS:
                        a, op = f.name, BUILTIN
                    else:
                        raise TmcRuntimeError("UnboundName", f.name)
                if op is CALL:
                    vals = b(regs)
                    if len(vals) != a.nparams:
                        raise TmcRuntimeError(
                            "ArityMismatch", f"{a.name} takes {a.nparams} "
                            f"arguments, got {len(vals)}")
                    if c != RET:
                        konts.append((code, pc, regs, c))
                        depth = len(konts) + 1
                        if depth > depth_seen:
                            depth_seen = depth
                        if depth > max_stack:
                            raise TmcRuntimeError("StackLimit", f"depth {depth}")
                    code, pc, regs = a.code, 0, [*vals, *a.regs]
                    continue
                if op is MATCH:
                    v = regs[a]
                    for tag, n, lo, hi, target in b:
                        if n < 0:
                            if not self._match_nodes(tag, v, regs):
                                continue
                        elif v is VHOLE:
                            raise TmcRuntimeError("HoleInspected",
                                                  "pattern match on a hole")
                        elif v.__class__ is not VBlock:
                            continue
                        else:
                            blk = blocks[v.addr]
                            if blk.tag != tag or len(blk.fields) != n:
                                continue
                            regs[lo:hi] = blk.fields
                        pc = target
                        break
                    else:
                        raise TmcRuntimeError(
                            "MatchFailure", f"no clause matched {self.render(v)}")
                    continue
                if op is ALLOC:
                    blocks.append(Block(a, [*b(regs)]))
                    allocs += 1
                    v = VBlock(len(blocks) - 1)
                elif op is BUILTIN:
                    v = self._builtin(a, b(regs))
                elif op is SETREF:
                    dest, idx = regs[a], regs[b]
                    if dest.__class__ is not VBlock:
                        raise TmcRuntimeError("TypeError",
                                              "setref destination is not a block")
                    if idx.__class__ is not VInt:
                        raise TmcRuntimeError("TypeError",
                                              "setref index is not an integer")
                    self.set_field(dest, idx.n, regs[c])
                    v = unit
                    c = d
                elif op is MOVE:
                    regs[c] = regs[a]
                    continue
                elif op is JUMP:
                    pc = a
                    continue
                elif op is RETURN:
                    v = regs[a]
                    c = RET
                else:  # FAIL
                    raise TmcRuntimeError(a, b)
                if c != RET:
                    regs[c] = v
                    continue
                if not konts:
                    return v
                code, pc, regs, c = konts.pop()
                regs[c] = v
        finally:
            m.steps, m.max_stack_depth = steps, depth_seen
            m.allocations += allocs

    def _match_nodes(self, nodes: tuple, v: Value, regs: list) -> bool:
        """Match a pattern flattened by _Compiler.pattern, binding into regs."""

        fields = [None] * len(nodes)  # the fields of each matched constructor
        for k, (kind, parent, j, x) in enumerate(nodes):
            if parent >= 0:
                v = fields[parent][j]
            if kind is PVar:
                regs[x] = v
            elif kind is PWild:
                pass
            elif v is VHOLE:
                raise TmcRuntimeError("HoleInspected", "pattern match on a hole")
            elif kind is PInt:
                if not (v.__class__ is VInt and v.n == x):
                    return False
            elif kind is PConstr and v.__class__ is VBlock:
                blk = self.blocks[v.addr]
                if blk.tag != x[0] or len(blk.fields) != x[1]:
                    return False
                fields[k] = blk.fields
            else:
                return False
        return True

    def _builtin(self, name: str, vals) -> Value:
        try:
            if name == "print" or name == "add1":
                (a,) = vals
                b = a
            else:
                a, b = vals
        except ValueError:
            raise TmcRuntimeError("ArityMismatch", f"{name} takes {BUILTINS[name]} "
                                  f"arguments, got {len(vals)}") from None
        if name == "print":
            self.metrics.effect_trace.append(self.render(a))
            return self.alloc("Tuple", [])
        if a.__class__ is not VInt or b.__class__ is not VInt:
            raise TmcRuntimeError("TypeError", f"builtin '{name}' expects integers")
        if name == "add1":
            return VInt(a.n + 1)
        if name == "add":
            return VInt(a.n + b.n)
        if name == "sub":
            return VInt(a.n - b.n)
        if a.n <= b.n if name == "leq" else a.n == b.n:
            return self._true
        return self._false

    # -- inspection: explicit stacks, no host recursion ---------------------

    def assert_no_holes(self, v: Value) -> None:
        """Depth-first reachability check; raises HoleEscape with a path.

        Each visited block keeps a link to its parent; the field path is
        built only for the hole it reports."""

        blocks = self.blocks
        seen: set[int] = set()
        links: list[tuple[int, int]] = []  # per visited block: (parent link, field)
        stack = [(v, -1, 0)]  # (value, link of the block holding it, field)
        while stack:
            cur, parent, i = stack.pop()
            if cur is VHOLE:
                path = []
                while parent >= 0:
                    path.append(i)
                    parent, i = links[parent]
                raise TmcRuntimeError(
                    "HoleEscape", "hole reachable at field path " +
                    (".".join(str(i) for i in reversed(path)) or "<root>"))
            if cur.__class__ is VBlock:
                if cur.addr in seen:
                    continue
                seen.add(cur.addr)
                k = len(links)
                links.append((parent, i))
                for j, fv in enumerate(blocks[cur.addr].fields, 1):
                    if fv is VHOLE or fv.__class__ is VBlock:
                        stack.append((fv, k, j))

    def struct_eq(self, v1: Value, v2: Value) -> bool:
        """Structural equality by tag/arity/fields; cycle-safe."""

        stack = [(v1, v2)]
        seen: set[tuple[int, int]] = set()
        while stack:
            a, b = stack.pop()
            if a.__class__ is not VBlock or b.__class__ is not VBlock:
                if a != b:  # integers and functions by value, holes by identity
                    return False
                continue
            if (a.addr, b.addr) in seen:
                continue
            seen.add((a.addr, b.addr))
            ba, bb = self.blocks[a.addr], self.blocks[b.addr]
            if ba.tag != bb.tag or len(ba.fields) != len(bb.fields):
                return False
            stack.extend(zip(ba.fields, bb.fields))
        return True

    def snapshot(self, v: Value):
        """Store-independent copy of a hole-free, acyclic value (Lit tree)."""

        blocks = self.blocks
        root = [v]
        open_: set[int] = set()  # blocks whose fields are being copied
        stack = [(root, 0)]  # (list, index) of each Value still to copy
        while stack:
            out, i = stack.pop()
            x = out[i]
            if x.__class__ is tuple:  # the fields of this block are copied
                addr, tag, args = x
                open_.discard(addr)
                out[i] = LBlock(tag, tuple(args))
            elif x.__class__ is VInt:
                out[i] = LInt(x.n)
            elif x.__class__ is VFun:
                out[i] = LFun(x.name)
            elif x is VHOLE:
                raise TmcRuntimeError("HoleEscape", "snapshot of a hole")
            elif x.addr in open_:
                raise _cyclic()
            else:
                blk = blocks[x.addr]
                open_.add(x.addr)
                args = list(blk.fields)
                out[i] = (x.addr, blk.tag, args)  # built once its fields are
                stack.append((out, i))
                for j in range(len(args) - 1, -1, -1):
                    if args[j].__class__ is VInt:
                        args[j] = LInt(args[j].n)
                    else:
                        stack.append((args, j))
        return root[0]

    def render(self, v: Value) -> str:
        # Every item is written with a leading space, dropped at the end.
        blocks = self.blocks
        parts: list[str] = []
        open_: set[int] = set()  # blocks being written
        stack: list = [v]
        while stack:
            x = stack.pop()
            if x.__class__ is int:  # the end of the block at this address
                parts.append(")")
                open_.discard(x)
            elif x.__class__ is VInt:
                parts.append(f" {x.n}")
            elif x.__class__ is VBlock:
                blk = blocks[x.addr]
                if not blk.fields:
                    parts.append(" " + blk.tag)
                    continue
                if x.addr in open_:
                    raise _cyclic()
                open_.add(x.addr)
                parts.append(" (" + blk.tag)
                stack.append(x.addr)
                stack.extend(reversed(blk.fields))
            elif x.__class__ is VFun:
                parts.append(f" <fun {x.name}>")
            else:
                parts.append(" <hole>")
        return "".join(parts)[1:]


# ---------------------------------------------------------------------------
# Convenience entry points
# ---------------------------------------------------------------------------


def eval_program(program: Program, entry: str, args: list,
                 max_stack: int = DEFAULT_MAX_STACK,
                 max_steps: int = DEFAULT_MAX_STEPS) -> tuple[Value, Metrics, Interp]:
    """Evaluate entry(args) in a fresh store; returns (value, metrics, interp)."""

    interp = Interp(program, max_stack, max_steps)
    value = interp.call(entry, args, check_holes=False)
    interp.assert_no_holes(value)
    return value, interp.metrics, interp


def eval_dps(program: Program, dps_entry: str, args: list,
             max_stack: int = DEFAULT_MAX_STACK,
             max_steps: int = DEFAULT_MAX_STEPS) -> tuple[Value, Metrics, Interp]:
    """Call a DPS companion with a fresh 1-slot scratch destination.

    Returns the scratch slot's final value.
    """

    interp = Interp(program, max_stack, max_steps)
    interp._count_allocs = False
    scratch = interp.alloc("Scratch", [VHOLE])
    interp._count_allocs = True
    interp.call(dps_entry, [scratch, VInt(1)] + list(args), check_holes=False)
    out = interp.blocks[scratch.addr].fields[0]
    interp.assert_no_holes(out)
    return out, interp.metrics, interp
