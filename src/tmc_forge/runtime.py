"""Instrumented evaluator: an explicit-stack machine compiled once per program.

Call-by-value, left-to-right, with proper tail calls (frame reuse),
mutable blocks with Hole values and single-write initialization,
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
from types import SimpleNamespace

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
# An int of at most this many bits has at most 603 digits, below 640, the
# lowest digit limit Python allows, so printing it cannot raise IntTooLarge.
_PRINTABLE_BITS = 2000


class TmcRuntimeError(Exception):
    """Evaluation failure; `code` is a stable machine-readable name."""

    def __init__(self, code: str, message: str = ""):
        self.code = code
        super().__init__(f"{code}: {message}" if message else code)


# ---------------------------------------------------------------------------
# Values: an int is a Python int, a function value is its name (a str), a
# block is its Block object, and the hole is the one VHOLE.
# ---------------------------------------------------------------------------


class _VHole:
    def __repr__(self):
        return "VHole"


VHOLE = _VHole()


class Block:
    __slots__ = ("tag", "fields")

    def __init__(self, tag: str, fields: list):
        self.tag = tag
        self.fields = fields  # 0-indexed storage; API is 1-indexed


# A `|` union, not `typing.Union`: typing caches its unions, and the cache
# would keep this module's globals alive after the package is re-imported.
Value = int | str | Block | _VHole


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


def _find(fscope: tuple, name: str):
    """The function that name resolves to in fscope, a chain (a group's
    functions by name, the enclosing chain or None), innermost group first."""

    while fscope is not None:
        group, fscope = fscope
        if name in group:
            return group[name]
    return None


class Compiled:
    """A program's toplevel functions by name, and main."""

    def __init__(self, program: Program):
        self.functions: dict[str, _Fn] = {}
        top = (self.functions, None)
        todo = []  # (entry, definition, function scope), nested groups too
        for group in program.groups:
            for f in group:
                self.functions[f.name] = fn = _Fn(f.name, len(f.params))
                todo.append((fn, f, top))
        self.main = _Fn("main", 0)
        _Compiler(self.main, [], False, todo).run(program.main, top)
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

    def run(self, body: Expr, fscope: tuple) -> None:
        drive(self.expr(body, self.params, fscope, RET))

    def reg(self, value=None) -> int:
        self.fn.regs.append(value)
        self.nregs += 1
        return self.nregs - 1

    def emit(self, op, a=None, b=None, c=None, d=None, e=None) -> int:
        self.code.append((op, self.pending, a, b, c, d, e))
        self.pending = 0
        return len(self.code) - 1

    def expr(self, e: Expr, scope: dict, fscope: tuple, dst):
        """Compile e to leave its value in register dst, or in any register
        when dst is None, or to return it when dst is RET.  Returns the
        register.  `scope` maps each value variable to the registers of its
        binders, innermost last; a binder is in it only around its body."""

        self.pending += 1
        t = type(e)
        if t in (Var, Int, Hole):
            if t is Var and scope.get(e.name):
                r = scope[e.name][-1]
            elif (t is Var and _find(fscope, e.name) is None
                  and e.name not in BUILTINS):
                self.emit(FAIL, "UnboundName", e.name)
                return self.reg()  # never read
            else:
                v = e.n if t is Int else e.name if t is Var else VHOLE
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
            inner = ({}, fscope)
            for f in e.group:
                inner[0][f.name] = fn = _Fn(f.name, len(f.params))
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
            elif (fn := _find(fscope, e.callee)) is not None:
                self.emit(CALL, fn, args, out)
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
    """One evaluation: its limits, metrics and shared result blocks."""

    def __init__(self, program: Program, max_stack: int = DEFAULT_MAX_STACK,
                 max_steps: int = DEFAULT_MAX_STEPS):
        self.max_stack = max_stack
        self.max_steps = max_steps
        self.metrics = Metrics()
        self.compiled = compile_program(program)
        # Shared result blocks for setref/leq/eq; they are not allocations.
        self._unit = Block("Tuple", [])
        self._true = Block("True", [])
        self._false = Block("False", [])

    @property
    def nblocks(self) -> int:
        """The blocks this Interp has made: its allocations and the 3 shared."""

        return self.metrics.allocations + 3

    # -- evaluation -------------------------------------------------------

    def call(self, entry: str, args: list, *, check_holes: bool = True) -> Value:
        """Evaluate entry(args)."""

        main = self.compiled.main
        fn = self.compiled.functions.get(entry, main if entry == "main" else None)
        if fn is not None:
            if fn.nparams != len(args):
                raise TmcRuntimeError(
                    "ArityMismatch",
                    f"{entry} takes {fn.nparams} arguments, got {len(args)}")
            if fn is not main:  # main's body runs at depth 1 outside any function
                self.metrics.max_stack_depth = max(self.metrics.max_stack_depth, 1)
                if self.max_stack < 1:
                    raise TmcRuntimeError("StackLimit", "depth 1")
            result = self._run(fn, args)
        elif entry in BUILTINS:
            result = self._builtin(entry, args)
        else:
            raise TmcRuntimeError("UnboundName", f"no function '{entry}'")
        if check_holes:
            self.assert_no_holes(result)
        return result

    def _run(self, fn: _Fn, args: list) -> Value:
        """Run fn's code on a fresh activation at depth 1 until it returns."""

        m = self.metrics
        unit = self._unit
        max_steps, max_stack = self.max_steps, self.max_stack
        steps, depth_seen, allocs, writes = m.steps, m.max_stack_depth, 0, m.dest_writes
        konts: list[tuple] = []  # suspended callers: (code, pc, regs, dst)
        code, pc, regs = fn.code, 0, [*args, *fn.regs]
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
                    if f.__class__ is not str:
                        raise TmcRuntimeError("NotAFunction", e)
                    a = d[0].get(f) or d[1] and _find(d[1], f)
                    if a is not None:
                        op = CALL
                    elif f in BUILTINS:
                        a, op = f, BUILTIN
                    else:
                        raise TmcRuntimeError("UnboundName", f)
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
                        elif (v.__class__ is not Block or v.tag != tag
                              or len(v.fields) != n):
                            continue
                        else:
                            regs[lo:hi] = v.fields
                        pc = target
                        break
                    else:
                        raise TmcRuntimeError(
                            "MatchFailure", f"no clause matched {self.render(v)}")
                    continue
                if op is ALLOC:
                    v = Block(a, [*b(regs)])
                    allocs += 1
                elif op is BUILTIN:
                    v = self._builtin(a, b(regs))
                elif op is SETREF:
                    dest, idx = regs[a], regs[b]
                    if dest.__class__ is not Block:
                        raise TmcRuntimeError("TypeError",
                                              "setref destination is not a block")
                    if idx.__class__ is not int:
                        raise TmcRuntimeError("TypeError",
                                              "setref index is not an integer")
                    if idx < 1 or idx > len(dest.fields):
                        raise TmcRuntimeError(
                            "IndexOutOfRange", f"field {self.render(idx)} of "
                            f"{dest.tag}/{len(dest.fields)}")
                    if dest.fields[idx - 1] is not VHOLE:
                        raise TmcRuntimeError(
                            "NonHoleOverwrite",
                            f"field {idx} of {dest.tag} block already initialized")
                    dest.fields[idx - 1] = regs[c]
                    writes += 1
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
            m.steps, m.max_stack_depth, m.dest_writes = steps, depth_seen, writes
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
                if not (v.__class__ is int and v == x):
                    return False
            elif kind is PConstr and v.__class__ is Block:
                if v.tag != x[0] or len(v.fields) != x[1]:
                    return False
                fields[k] = v.fields
            else:
                return False
        return True

    def _builtin(self, name: str, vals) -> Value:
        if len(vals) != BUILTINS[name]:
            raise TmcRuntimeError("ArityMismatch", f"{name} takes {BUILTINS[name]} "
                                  f"arguments, got {len(vals)}")
        a, b = vals[0], vals[-1]
        if name == "print":
            self.metrics.effect_trace.append(self.render(a))
            self.metrics.allocations += 1
            return Block("Tuple", [])
        if a.__class__ is not int or b.__class__ is not int:
            raise TmcRuntimeError("TypeError", f"builtin '{name}' expects integers")
        if name == "add1":
            return a + 1
        if name == "add":
            return a + b
        if name == "sub":
            return a - b
        if a <= b if name == "leq" else a == b:
            return self._true
        return self._false

    # -- inspection: explicit stacks, no host recursion ---------------------

    def assert_no_holes(self, v: Value) -> None:
        """Depth-first reachability check, each block's fields last to
        first; raises HoleEscape with the field path of the first hole.

        The walk's stack is that path: the field lists from a holder of v
        down, and for each the index of the field being visited."""

        lists, at = [[v]], [1]  # at[k]: fields of lists[k] not yet visited
        seen: set[Block] = set()
        while lists:
            j = at[-1] - 1
            if j < 0:
                lists.pop()
                at.pop()
                continue
            at[-1] = j
            fv = lists[-1][j]
            if fv is VHOLE:
                raise TmcRuntimeError(
                    "HoleEscape", "hole reachable at field path " +
                    (".".join(str(i + 1) for i in at[1:]) or "<root>"))
            if fv.__class__ is Block and fv not in seen:
                seen.add(fv)
                lists.append(fv.fields)
                at.append(len(fv.fields))

    def render(self, v: Value) -> str:
        """The value as an s-expression: equal texts mean equal values,
        whatever blocks are shared.  A value that reaches itself through
        a field has no text: CyclicValue."""

        if v.__class__ is int and v.bit_length() <= _PRINTABLE_BITS:
            return str(v)
        # Every item is written with a leading space, dropped at the end.
        # A block's field list, pushed under its fields, marks its end.
        # Items are joined into chunks as they come, so that a large value
        # does not hold one string object per item.
        chunks: list[str] = []
        parts: list[str] = []
        open_: set[int] = set()  # ids of the field lists being written
        stack: list = [v]
        while stack:
            x = stack.pop()
            if x.__class__ is int:
                try:
                    parts.append(f" {x}")
                except ValueError:  # past Python's conversion digit limit
                    raise TmcRuntimeError(
                        "IntTooLarge", f"an integer of {x.bit_length()} bits "
                        "has too many digits to print") from None
            elif x.__class__ is Block:
                if not x.fields:
                    parts.append(" " + x.tag)
                    continue
                if id(x.fields) in open_:
                    raise TmcRuntimeError("CyclicValue",
                                          "value reaches itself through a field")
                open_.add(id(x.fields))
                if len(parts) > 4096:
                    chunks.append("".join(parts))
                    parts.clear()
                parts.append(" (" + x.tag)
                stack.append(x.fields)
                stack.extend(reversed(x.fields))
            elif x.__class__ is list:
                parts.append(")")
                open_.discard(id(x))
            elif x.__class__ is str:
                parts.append(f" <fun {x}>")
            else:
                parts.append(" <hole>")
        chunks.append("".join(parts))
        return "".join(chunks)[1:]


def same_text(a: Value, b: Value) -> bool:
    """True only if a and b surely render to the same text without error;
    False decides nothing.  True needs the same tags and field counts, equal
    ints of at most _PRINTABLE_BITS bits, equal function names, no hole,
    and no non-empty block of a met twice."""

    seen: set[Block] = set()  # keeps the walk finite
    xs, ys = [a], [b]
    while xs:
        x, y = xs.pop(), ys.pop()
        c = x.__class__
        if c is not y.__class__:
            return False
        if c is Block:
            if x.tag != y.tag or len(x.fields) != len(y.fields) or x in seen:
                return False
            if x.fields:
                seen.add(x)
                xs += x.fields  # the last on top: a list's spine first
                ys += y.fields
        elif c is int:
            if x != y or x.bit_length() > _PRINTABLE_BITS:
                return False
        elif c is not str or x != y:
            return False
    return True


# ---------------------------------------------------------------------------
# Convenience entry points
# ---------------------------------------------------------------------------


def eval_program(program: Program, entry: str, args: list,
                 max_stack: int = DEFAULT_MAX_STACK,
                 max_steps: int = DEFAULT_MAX_STEPS) -> tuple[Value, Metrics, Interp]:
    """Evaluate entry(args) in a fresh Interp; returns (value, metrics, interp)."""

    interp = Interp(program, max_stack, max_steps)
    return interp.call(entry, args), interp.metrics, interp


def eval_dps(program: Program, dps_entry: str, args: list,
             max_stack: int = DEFAULT_MAX_STACK,
             max_steps: int = DEFAULT_MAX_STEPS) -> tuple[Value, Metrics, Interp]:
    """Call a DPS companion with a fresh 1-slot scratch destination.

    Returns the scratch slot's final value.
    """

    interp = Interp(program, max_stack, max_steps)
    scratch = Block("Scratch", [VHOLE])
    interp.call(dps_entry, [scratch, 1, *args], check_holes=False)
    out = scratch.fields[0]
    interp.assert_no_holes(out)
    return out, interp.metrics, interp


# ---------------------------------------------------------------------------
# Stand-ins for names that the benchmark binds: `--trace 1` patches the
# first four (benchmark/tracing.py), and benchmark/test_benchmark.py reads a
# generated list through `Block.args`.  Nothing in src/ uses them; ROADMAP
# item 1 retires them.
# ---------------------------------------------------------------------------

Interp.instantiate = lambda self, v: v
Interp.snapshot = lambda self, v: v
Interp.blocks = property(lambda self: range(self.nblocks))
LBlock = type("LBlock", (), {"__eq__": object.__eq__})
Block.args = property(lambda self: tuple(
    SimpleNamespace(n=x) if x.__class__ is int else x for x in self.fields))
