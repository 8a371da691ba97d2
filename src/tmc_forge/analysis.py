"""TMC candidate analysis.

Finds marked functions, resolves which call sites are rewrite-eligible
(minimal scope at toplevel, maximal inside marked functions), and computes
the tail-modulo-cons context decomposition of a body -- or reports the
ambiguity when two constructor arguments compete for the single sub-context.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    children,
    iter_fundefs,
    tmc_children,
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
                    value_scope: frozenset[str]) -> bool:
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
                   path: Path = (), live: Optional[dict] = None) -> list[Candidate]:
    """Every eligible marked call in a tail-modulo-cons position of `e`,
    left to right; `value_scope` holds the value variables bound around it.
    When given, `live` is filled with every path on the way down to a
    candidate (the candidate's own included), mapped to whether an
    annotated candidate lies below it."""

    out: list[Candidate] = []

    def go(x: Expr, scope: frozenset[str], p: Path, under: bool):
        """Whether an annotated candidate lies below x; None if none does."""
        if _is_direct_call(x, marks, env, scope):
            annotated = TAILCALL in x.attrs
            out.append(Candidate(p, under, annotated))
        else:
            annotated = None
            for label, c, bound, in_constr in tmc_children(x):
                below = go(c, scope.union(bound) if bound else scope,
                           p + (label,), under or in_constr)
                if below is not None:
                    annotated = annotated or below
        if annotated is not None and live is not None:
            live[p] = annotated
        return annotated

    go(e, frozenset(value_scope), path, False)
    return out


def has_candidate(e: Expr, marks: MarkSet, env: ScopeEnv,
                  value_scope: frozenset[str] = frozenset()) -> bool:
    """True iff some tail-modulo-cons position of `e` holds an eligible
    marked call."""

    return bool(tmc_candidates(e, marks, env, value_scope))


def decompose_tmc(e: Expr, marks: MarkSet, env: ScopeEnv,
                  value_scope: frozenset[str] = frozenset(),
                  path: Path = ()) -> Decomposition:
    """Compute the TMC context decomposition of `e`.

    Raises AnalysisError(AmbiguousTmc) when two constructor arguments
    contain candidates and annotations do not single one out.
    """

    live: dict[Path, bool] = {}
    cands = tmc_candidates(e, marks, env, value_scope, path, live)
    call_paths = {c.path for c in cands}
    holes: list[tuple[Expr, str]] = []
    chosen: list[Path] = []
    calls: set[int] = set()

    def go(x: Expr, p: Path, under: bool) -> Expr:
        if p in call_paths or p not in live:
            if p in call_paths:
                calls.add(len(holes))
            holes.append((x, STRICT_MOD_CONS if under else PLAIN_TAIL))
            return DecompHole(len(holes) - 1)
        tails = [label for label, *_ in tmc_children(x)]
        if isinstance(x, Constr):
            tails = [label for label in tails if p + (label,) in live]
            if len(tails) > 1:
                picked = [label for label in tails if live[p + (label,)]]
                if len(picked) != 1:
                    raise AnalysisError(Diagnostic(
                        "Error", "AmbiguousTmc",
                        f"{len(tails)} constructor arguments contain TMC "
                        "candidates; add a (@ tailcall) annotation to pick one",
                        x.span, p, candidate_paths=[
                            c.path for c in cands if c.path[:len(p)] == p]))
                tails = picked
            chosen.append(p + (tails[0],))
            under = True
        new = []
        for label, c, _ in children(x):
            new.append(go(c, p + (label,), under) if label in tails else c)
        return with_children(x, new)

    return Decomposition(go(e, path, False), holes, chosen, calls)


def resolve_scope(p: Program, marks: MarkSet) -> ScopeVerdict:
    """Record eligibility of every call site that targets a marked function."""

    verdict = ScopeVerdict()

    def walk_expr(e: Expr, env: ScopeEnv, scope: frozenset[str], path: Path):
        if isinstance(e, Call) and e.callee in marks.marked and e.callee not in scope:
            verdict.eligible_paths[path] = env.eligible(e.callee)
        if isinstance(e, Letrec):
            for f in e.group:
                walk_expr(f.body, env.enter(e.group, f), frozenset(f.params),
                          path + (f.name,))
        for label, c, bound in children(e):
            walk_expr(c, env, scope.union(bound) if bound else scope,
                      path + (label,))

    root = ScopeEnv()
    for gi, group in enumerate(p.groups):
        for f in group:
            fenv = root.enter(group, f)
            params = frozenset(f.params)
            walk_expr(f.body, fenv, params, (f"group{gi}", f.name))
            if TAIL_MOD_CONS in f.attrs and not any(
                    c.under_constr
                    for c in tmc_candidates(f.body, marks, fenv, params)):
                verdict.warnings.append(Diagnostic(
                    "Warning", "UselessMark",
                    f"'{f.name}' has no strictly-modulo-cons candidate; "
                    "its DPS version is trivial",
                    f.span, (f"group{gi}", f.name)))
    walk_expr(p.main, root, frozenset(), ("main",))
    return verdict


def check_tailcall_annotations(p: Program, marks: MarkSet) -> list[Diagnostic]:
    """Flag (@ tailcall) annotations that cannot land in a rewritten position.

    Silent when the annotated call already sits in a plain tail position;
    Error when the call is in an eligible region but not rewritable;
    Warning in not-eligible regions.
    """

    diags: list[Diagnostic] = []

    def walk(e: Expr, env: ScopeEnv, scope: frozenset[str], tail: bool,
             under_constr: bool, path: Path):
        if isinstance(e, Letrec):
            for f in e.group:
                walk(f.body, env.enter(e.group, f), frozenset(f.params), True,
                     False, path + (f.name,))
        tmc = {label: under for label, _, _, under in tmc_children(e)}
        for label, c, bound in children(e):
            if label in tmc:
                walk(c, env, scope.union(bound) if bound else scope, tail,
                     under_constr or tmc[label], path + (label,))
            else:
                walk(c, env, scope, False, False, path + (label,))
        if isinstance(e, Call) and TAILCALL in e.attrs:
            direct = _is_direct_call(e, marks, env, scope)
            # Holds in a plain tail position, or a TMC one that is rewritten.
            if not (tail and (direct or not under_constr)):
                sev = "Error" if direct or env.any_marked else "Warning"
                diags.append(Diagnostic(
                    sev, "TailcallNotSatisfiable",
                    f"(@ tailcall) on call to '{e.callee}' cannot become "
                    "a tail call here",
                    e.span, path))

    root = ScopeEnv()
    for gi, group in enumerate(p.groups):
        for f in group:
            walk(f.body, root.enter(group, f), frozenset(f.params), True,
                 False, (f"group{gi}", f.name))
    walk(p.main, root, frozenset(), False, False, ("main",))
    return diags
