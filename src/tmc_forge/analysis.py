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
    # Every identifier of the program, the builtins and the DPS names: the
    # names a fresh name must avoid.
    used: set[str]


def collect_marks(p: Program) -> MarkSet:
    """Assign a fresh DPS companion name to every marked function."""

    used = all_identifiers(p) | set(BUILTINS)
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
    return MarkSet(marked, dps_name, used)


@dataclass
class ScopeVerdict:
    """The scope rule's verdict on every call to a marked function by its
    own name, not shadowed by a binder."""

    # ids of the eligible calls, valid while the program they belong to lives
    calls: set[int] = field(default_factory=set)
    # (the call's link for `path_of`, whether it is eligible), in walk order
    sites: list[tuple[tuple, bool]] = field(default_factory=list)
    warnings: list[Diagnostic] = field(default_factory=list)

    @property
    def eligible_paths(self) -> dict[Path, bool]:
        """Each call's path and verdict, built on demand: a path is as long
        as the call is deep."""
        return {path_of(at): ok for at, ok in self.sites}


@dataclass(frozen=True)
class Candidate:
    """An eligible marked call in a tail-modulo-cons position."""

    path: Path
    under_constr: bool  # some position on the way down is a constructor argument
    annotated: bool  # the call carries (@ tailcall)


def tmc_candidates(e: Expr, calls: set[int],
                   live: Optional[dict] = None) -> list[Candidate]:
    """Every eligible call (its id is in `calls`, see `ScopeVerdict`) in a
    tail-modulo-cons position of `e`, left to right.

    When given, `live` is filled for every node on the way down to a
    candidate, the candidate included.  A node's key is (its parent's
    pre-order number, its label), and (-1, "") for `e`; its value is (its
    own pre-order number, or None for a candidate, and whether an
    annotated candidate lies below it)."""

    out: list[Candidate] = []
    preorder = count()

    def go(x: Expr, key: tuple, under: bool, at: tuple):
        """Whether an annotated candidate lies below x; None if none does."""
        pos = next(preorder)
        if id(x) in calls:
            annotated = TAILCALL in x.attrs
            out.append(Candidate(path_of(at), under, annotated))
            pos = None
        else:
            annotated = None
            for label, c, _, tmc in children(x):
                if tmc is None:  # not a tail-modulo-cons position
                    continue
                below = yield go(c, (pos, label), under or tmc, (label, at))
                if below is not None:
                    annotated = annotated or below
        if annotated is not None and live is not None:
            live[key] = (pos, annotated)
        return annotated

    drive(go(e, (-1, ""), False, ()))
    return out


def decompose_tmc(e: Expr, calls: set[int]) -> Decomposition:
    """Compute the TMC context decomposition of `e`; `calls` holds the ids
    of the eligible calls (see `ScopeVerdict`).

    Raises AnalysisError(AmbiguousTmc) when two constructor arguments
    contain candidates and annotations do not single one out.
    """

    live: dict[tuple, tuple] = {}
    cands = tmc_candidates(e, calls, live)
    holes: list[tuple[Expr, str]] = []
    chosen: dict[int, int] = {}

    def go(x: Expr, key: tuple, under: bool, at: tuple):
        entry = live.get(key)
        if entry is None or entry[0] is None:  # not live, or a candidate
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

    return Decomposition(drive(go(e, (-1, ""), False, ())), holes, chosen)


def _visit_all(p: Program, marks: MarkSet, visit) -> None:
    """Call visit(x, eligible, marked, tail, under_constr, at) for every
    function definition and expression x of p, after visiting what lies
    inside it.  This walk is the one place that applies the scope rule:
    `eligible` is None unless x calls a marked function by its own name,
    not shadowed by a binder, and then says whether the call may be
    rewritten -- anywhere inside a marked function (`marked`), elsewhere
    only from within the callee's own group.  `tail` says that x is in a
    tail-modulo-cons position of its function or main, `under_constr` that
    a constructor argument lies on the way there, and `at` is x's link for
    `path_of`."""

    groups: dict[str, int] = {}  # the names of the enclosing groups, see `bind`

    def walk(e: Expr, marked: bool, scope: dict[str, int], tail: bool,
             under: bool, at: tuple):
        if isinstance(e, Letrec):
            yield group(e.group, marked, at)
        for label, c, bound, tmc in children(e):
            bind(scope, bound, 1)
            if tmc is None:
                yield walk(c, marked, scope, False, False, (label, at))
            else:
                yield walk(c, marked, scope, tail, under or tmc, (label, at))
            bind(scope, bound, -1)
        eligible = None
        if (isinstance(e, Call) and e.callee in marks.marked
                and e.callee not in scope):
            eligible = marked or e.callee in groups
        visit(e, eligible, marked, tail, under, at)

    def group(fs: list[FunDef], marked: bool, at: tuple):
        bind(groups, [f.name for f in fs], 1)
        for f in fs:
            inside = marked or TAIL_MOD_CONS in f.attrs
            yield walk(f.body, inside, dict.fromkeys(f.params, 1), True,
                       False, (f.name, at))
            visit(f, None, inside, False, False, (f.name, at))
        bind(groups, [f.name for f in fs], -1)

    for gi, fs in enumerate(p.groups):
        drive(group(fs, False, (f"group{gi}", ())))
    drive(walk(p.main, False, {}, False, False, ("main", ())))


def resolve_scope(p: Program, marks: MarkSet) -> ScopeVerdict:
    """Decide every call site that targets a marked function, and warn
    about each marked function, nested ones included, that has no
    strictly-modulo-cons candidate."""

    verdict = ScopeVerdict()
    useless: dict[int, Diagnostic] = {}

    def visit(x, eligible: Optional[bool], marked, tail, under, at: tuple):
        if eligible is not None:
            verdict.sites.append((at, eligible))
            if eligible:
                verdict.calls.add(id(x))
        elif isinstance(x, FunDef) and TAIL_MOD_CONS in x.attrs and not any(
                c.under_constr for c in tmc_candidates(x.body, verdict.calls)):
            useless[id(x)] = Diagnostic(
                "Warning", "UselessMark",
                f"'{x.name}' has no strictly-modulo-cons candidate; "
                "its DPS version is trivial", x.span, path_of(at))

    _visit_all(p, marks, visit)
    verdict.warnings = [useless[id(f)] for f in iter_fundefs(p)
                        if id(f) in useless]
    return verdict


def check_tailcall_annotations(p: Program, marks: MarkSet) -> list[Diagnostic]:
    """Flag (@ tailcall) annotations that cannot land in a rewritten position.

    Silent when the annotated call already sits in a plain tail position;
    Error when the call is in an eligible region but not rewritable;
    Warning in not-eligible regions.
    """

    diags: list[Diagnostic] = []

    def visit(x, eligible: Optional[bool], marked: bool, tail: bool,
              under_constr: bool, at: tuple):
        if isinstance(x, Call) and TAILCALL in x.attrs:
            # Holds in a plain tail position, or a TMC one that is rewritten.
            if not (tail and (eligible or not under_constr)):
                diags.append(Diagnostic(
                    "Error" if eligible or marked else "Warning",
                    "TailcallNotSatisfiable",
                    f"(@ tailcall) on call to '{x.callee}' cannot become "
                    "a tail call here",
                    x.span, path_of(at)))

    _visit_all(p, marks, visit)
    return diags
