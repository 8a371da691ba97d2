"""The recursive canonical printer that `surface.print_program` replaced.

Kept verbatim as the reference for `tests/test_printer.py`: the linear,
explicit-stack printer must produce the same text byte for byte.  It
flattens a subtree once for every ancestor that does not fit, and it
recurses once per nesting level, so it is only fit for small inputs.
"""

from tmc_forge.ir import (
    Call,
    Constr,
    Expr,
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
    Pattern,
    Program,
    Seq,
    SetRef,
    Var,
)

_WIDTH = 72


def _pat_str(p: Pattern) -> str:
    if isinstance(p, PVar):
        return p.name
    if isinstance(p, PWild):
        return "_"
    if isinstance(p, PInt):
        return str(p.n)
    assert isinstance(p, PConstr)
    if not p.subpatterns:
        return p.tag
    return "(" + " ".join([p.tag] + [_pat_str(s) for s in p.subpatterns]) + ")"


def _inline(e: Expr) -> str:
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Int):
        return f"(int {e.n})"
    if isinstance(e, Hole):
        return "(hole)"
    if isinstance(e, Call):
        parts = ["call"]
        if e.attrs:
            parts.append("(@ " + " ".join(sorted(e.attrs)) + ")")
        parts.append(e.callee)
        parts.extend(_inline(a) for a in e.args)
        return "(" + " ".join(parts) + ")"
    if isinstance(e, Let):
        return f"(let {e.binder} {_inline(e.bound)} {_inline(e.body)})"
    if isinstance(e, Seq):
        return f"(seq {_inline(e.first)} {_inline(e.second)})"
    if isinstance(e, Constr):
        return "(" + " ".join(["constr", e.tag] + [_inline(a) for a in e.args]) + ")"
    if isinstance(e, Match):
        cl = " ".join(f"(case {_pat_str(p)} {_inline(b)})" for p, b in e.clauses)
        return f"(match {_inline(e.scrutinee)} {cl})"
    if isinstance(e, SetRef):
        return f"(setref {_inline(e.dest)} {_inline(e.index)} {_inline(e.value)})"
    if isinstance(e, Letrec):
        fs = " ".join(_fundef_inline(f) for f in e.group)
        return f"(letrec {fs} {_inline(e.body)})"
    raise TypeError(f"cannot print {e!r}")


def _fundef_inline(f: FunDef) -> str:
    parts = ["fun"]
    if f.attrs:
        parts.append("(@ " + " ".join(sorted(f.attrs)) + ")")
    parts.append(f.name)
    parts.append("(" + " ".join(f.params) + ")")
    parts.append(_inline(f.body))
    return "(" + " ".join(parts) + ")"


def _fmt(e: Expr, indent: int) -> str:
    line = _inline(e)
    if indent + len(line) <= _WIDTH:
        return line
    pad = " " * (indent + 2)
    if isinstance(e, Let):
        return (f"(let {e.binder} {_fmt(e.bound, indent + 7 + len(e.binder))}\n"
                f"{pad}{_fmt(e.body, indent + 2)})")
    if isinstance(e, Seq):
        return (f"(seq {_fmt(e.first, indent + 5)}\n"
                f"{pad}{_fmt(e.second, indent + 2)})")
    if isinstance(e, Constr):
        args = "\n".join(pad + _fmt(a, indent + 2) for a in e.args)
        return f"(constr {e.tag}\n{args})"
    if isinstance(e, Call):
        head = "(call"
        if e.attrs:
            head += " (@ " + " ".join(sorted(e.attrs)) + ")"
        head += f" {e.callee}"
        args = "\n".join(pad + _fmt(a, indent + 2) for a in e.args)
        return f"{head}\n{args})"
    if isinstance(e, Match):
        cl = "\n".join(pad + _clause_fmt(p, b, indent + 2) for p, b in e.clauses)
        return f"(match {_fmt(e.scrutinee, indent + 7)}\n{cl})"
    if isinstance(e, SetRef):
        return (f"(setref {_fmt(e.dest, indent + 8)} {_inline(e.index)}\n"
                f"{pad}{_fmt(e.value, indent + 2)})")
    if isinstance(e, Letrec):
        fs = "\n".join(pad + _fundef_fmt(f, indent + 2) for f in e.group)
        return f"(letrec\n{fs}\n{pad}{_fmt(e.body, indent + 2)})"
    return line


def _clause_fmt(p: Pattern, b: Expr, indent: int) -> str:
    line = f"(case {_pat_str(p)} {_inline(b)})"
    if indent + len(line) <= _WIDTH:
        return line
    pad = " " * (indent + 2)
    return f"(case {_pat_str(p)}\n{pad}{_fmt(b, indent + 2)})"


def _fundef_fmt(f: FunDef, indent: int) -> str:
    line = _fundef_inline(f)
    if indent + len(line) <= _WIDTH:
        return line
    head = "(fun"
    if f.attrs:
        head += " (@ " + " ".join(sorted(f.attrs)) + ")"
    head += f" {f.name} (" + " ".join(f.params) + ")"
    pad = " " * (indent + 2)
    return f"{head}\n{pad}{_fmt(f.body, indent + 2)})"


def print_program(p: Program) -> str:
    """Canonical layout; parse_program(print_program(p)) == p."""

    lines = ["(program"]
    for group in p.groups:
        body = "\n".join("    " + _fundef_fmt(f, 4) for f in group)
        lines.append(f"  (letrec\n{body})")
    lines.append(f"  (main {_fmt(p.main, 8)}))")
    return "\n".join(lines)
