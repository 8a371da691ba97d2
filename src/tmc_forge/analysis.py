"""TMC candidate analysis.

Finds marked functions, resolves which call sites are rewrite-eligible
(minimal scope at toplevel, maximal inside marked functions), and computes
the tail-modulo-cons context decomposition of a body -- or reports the
ambiguity when two constructor arguments compete for the single sub-context.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Optional

from .ir import (
    BUILTINS,
    PLAIN_TAIL,
    STRICT_MOD_CONS,
    TAIL_MOD_CONS,
    TAILCALL,
    Call,
    Constr,
    Decomposition,
    DecompHole,
    Diagnostic,
    Expr,
    FunDef,
    Letrec,
    Path,
    Program,
    all_identifiers,
    bind,
    children,
    drive,
    iter_fundefs,
    path_of,
    with_children,
)


class AnalysisError(Exception):
    def __init__(self, diagnostic: Diagnostic):
        self.diagnostic = diagnostic
        super().__init__(diagnostic.message)


@dataclass
class MarkSet:
    marked: set[str]
    dps_name: dict[str, str]


def collect_marks(p: Program) -> MarkSet:
    """Assign a fresh DPS companion name to every marked function."""

    used = set(all_identifiers(p)) | set(BUILTINS)
    marked: set[str] = set()
    dps_name: dict[str, str] = {}
    for f in iter_fundefs(p):
        if TAIL_MOD_CONS not in f.attrs or f.name in dps_name:
            continue
        marked.add(f.name)
        base = f.name + "_dps"
        cand = base
        k = 2
        while cand in used:
            cand = f"{base}{k}"
            k += 1
        used.add(cand)
        dps_name[f.name] = cand
    return MarkSet(marked, dps_name)


@dataclass
class ScopeEnv:
    """Lexical context of an expression: the chain of enclosing functions.

    groups: set of function names per enclosing letrec group (innermost last).
    any_marked: some enclosing function carries the TMC mark.
    """

    group_names: list[frozenset[str]] = field(default_factory=list)
    any_marked: bool = False

    def enter(self, group: list[FunDef], fn: FunDef) -> "ScopeEnv":
        return ScopeEnv(self.group_names + [frozenset(g.name for g in group)],
                        self.any_marked or TAIL_MOD_CONS in fn.attrs)

    def eligible(self, callee: str) -> bool:
        if self.any_marked:
            return True
        return any(callee in names for names in self.group_names)


@dataclass
class ScopeVerdict:
    """Per call-site eligibility for calls to marked functions."""

    eligible_paths: dict[Path, bool] = field(default_factory=dict)
    warnings: list[Diagnostic] = field(default_factory=list)


def _is_direct_call(e: Expr, marks: MarkSet, env: ScopeEnv,
                    value_scope) -> bool:
    """Call to a marked function by its function name (not through a binder)."""

    return (isinstance(e, Call)
            and e.callee in marks.marked
            and e.callee not in value_scope
            and env.eligible(e.callee))


@dataclass(frozen=True)
class Candidate:
    """An eligible marked call in a tail-modulo-cons position."""

    path: Path
    under_constr: bool  # some position on the way down is a constructor argument
    annotated: bool  # the call carries (@ tailcall)


def tmc_candidates(e: Expr, marks: MarkSet, env: ScopeEnv,
                   value_scope: frozenset[str] = frozenset(),
                   live: Optional[dict] = None) -> list[Candidate]:
    """Every eligible marked call in a tail-modulo-cons position of `e`,
    left to right; `value_scope` holds the value variables bound around it.

    When given, `live` is filled for every node on the way down to a
    candidate, the candidate included.  A node's key is (its parent's
    pre-order number, its label), and (-1, "") for `e`; its value is (its
    own pre-order number, or None for a candidate, and whether an
    annotated candidate lies below it)."""

    out: list[Candidate] = []
    scope = dict.fromkeys(value_scope, 1)
    preorder = count()

    def go(x: Expr, key: tuple, under: bool, at: tuple):
        """Whether an annotated candidate lies below x; None if none does."""
        pos = next(preorder)
        if _is_direct_call(x, marks, env, scope):
            annotated = TAILCALL in x.attrs
            out.append(Candidate(path_of(at), under, annotated))
            pos = None
        else:
            annotated = None
            for label, c, bound, tmc in children(x):
                if tmc is None:  # not a tail-modulo-cons position
                    continue
                bind(scope, bound, 1)
                below = yield go(c, (pos, label), under or tmc, (label, at))
                bind(scope, bound, -1)
                if below is not None:
                    annotated = annotated or below
        if annotated is not None and live is not None:
            live[key] = (pos, annotated)
        return annotated

    drive(go(e, (-1, ""), False, ()))
    return out


def decompose_tmc(e: Expr, marks: MarkSet, env: ScopeEnv,
                  value_scope: frozenset[str] = frozenset()) -> Decomposition:
    """Compute the TMC context decomposition of `e`.

    Raises AnalysisError(AmbiguousTmc) when two constructor arguments
    contain candidates and annotations do not single one out.
    """

    live: dict[tuple, tuple] = {}
    cands = tmc_candidates(e, marks, env, value_scope, live)
    holes: list[tuple[Expr, str]] = []
    chosen: dict[int, int] = {}
    calls: set[int] = set()

    def go(x: Expr, key: tuple, under: bool, at: tuple):
        entry = live.get(key)
        if entry is None or entry[0] is None:  # not live, or a candidate
            if entry is not None:
                calls.add(len(holes))
            holes.append((x, STRICT_MOD_CONS if under else PLAIN_TAIL))
            return DecompHole(len(holes) - 1)
        pos = entry[0]
        kids = children(x)
        tails = [label for label, _, _, tmc in kids if tmc is not None]
        if isinstance(x, Constr):
            tails = [label for label in tails if (pos, label) in live]
            if len(tails) > 1:
                picked = [label for label in tails if live[pos, label][1]]
                if len(picked) != 1:
                    p = path_of(at)
                    raise AnalysisError(Diagnostic(
                        "Error", "AmbiguousTmc",
                        f"{len(tails)} constructor arguments contain TMC "
                        "candidates; add a (@ tailcall) annotation to pick one",
                        x.span, p, candidate_paths=[
                            c.path for c in cands if c.path[:len(p)] == p]))
                tails = picked
            under = True
        new = []
        for i, (label, c, _, _) in enumerate(kids):
            if label in tails:
                c = yield go(c, (pos, label), under, (label, at))
                j = i
            new.append(c)
        out = with_children(x, new)
        if isinstance(x, Constr):
            chosen[id(out)] = j
        return out

    return Decomposition(drive(go(e, (-1, ""), False, ())), holes, chosen, calls)


def _visit_all(p: Program, visit) -> None:
    """Call visit(e, env, scope, tail, under_constr, at) for every
    expression e of p, after visiting its subexpressions.  `scope` holds
    the value variables bound around e, `tail` says that e is in a
    tail-modulo-cons position of its function or main, `under_constr` that
    a constructor argument lies on the way there, and `at` is e's link
    for `path_of`."""

    def walk(e: Expr, env: ScopeEnv, scope: dict[str, int], tail: bool,
             under: bool, at: tuple):
        if isinstance(e, Letrec):
            for f in e.group:
                yield walk(f.body, env.enter(e.group, f),
                           dict.fromkeys(f.params, 1), True, False, (f.name, at))
        for label, c, bound, tmc in children(e):
            bind(scope, bound, 1)
            if tmc is None:
                yield walk(c, env, scope, False, False, (label, at))
            else:
                yield walk(c, env, scope, tail, under or tmc, (label, at))
            bind(scope, bound, -1)
        visit(e, env, scope, tail, under, at)

    root = ScopeEnv()
    for gi, group in enumerate(p.groups):
        for f in group:
            drive(walk(f.body, root.enter(group, f), dict.fromkeys(f.params, 1),
                       True, False, (f.name, (f"group{gi}", ()))))
    drive(walk(p.main, root, {}, False, False, ("main", ())))


def resolve_scope(p: Program, marks: MarkSet) -> ScopeVerdict:
    """Record eligibility of every call site that targets a marked function."""

    verdict = ScopeVerdict()

    def visit(e: Expr, env: ScopeEnv, scope: dict, tail, under, at: tuple):
        if isinstance(e, Call) and e.callee in marks.marked and e.callee not in scope:
            verdict.eligible_paths[path_of(at)] = env.eligible(e.callee)

    _visit_all(p, visit)
    for gi, group in enumerate(p.groups):
        for f in group:
            if TAIL_MOD_CONS in f.attrs and not any(
                    c.under_constr for c in tmc_candidates(
                        f.body, marks, ScopeEnv().enter(group, f),
                        frozenset(f.params))):
                verdict.warnings.append(Diagnostic(
                    "Warning", "UselessMark",
                    f"'{f.name}' has no strictly-modulo-cons candidate; "
                    "its DPS version is trivial",
                    f.span, (f"group{gi}", f.name)))
    return verdict


def check_tailcall_annotations(p: Program, marks: MarkSet) -> list[Diagnostic]:
    """Flag (@ tailcall) annotations that cannot land in a rewritten position.

    Silent when the annotated call already sits in a plain tail position;
    Error when the call is in an eligible region but not rewritable;
    Warning in not-eligible regions.
    """

    diags: list[Diagnostic] = []

    def visit(e: Expr, env: ScopeEnv, scope: dict, tail: bool,
              under_constr: bool, at: tuple):
        if isinstance(e, Call) and TAILCALL in e.attrs:
            direct = _is_direct_call(e, marks, env, scope)
            # Holds in a plain tail position, or a TMC one that is rewritten.
            if not (tail and (direct or not under_constr)):
                sev = "Error" if direct or env.any_marked else "Warning"
                diags.append(Diagnostic(
                    sev, "TailcallNotSatisfiable",
                    f"(@ tailcall) on call to '{e.callee}' cannot become "
                    "a tail call here",
                    e.span, path_of(at)))

    _visit_all(p, visit)
    return diags
