"""Scope, the tail-modulo-cons context of each body, and annotation
checks."""

import sys

from hypothesis import given, settings

from tmc_forge.analysis import collect_marks, resolve_scope
from tmc_forge.ir import TAILCALL, Call, Constr, Letrec, children
from tmc_forge.surface import parse_program

from conftest import CORPUS, ROOT, load
from test_properties import programs

sys.path.insert(0, str(ROOT / "benchmark"))
from workloads import corpus_units, generate_program  # noqa: E402

# Box is ambiguous, but lies in the argument of Pair that is not picked:
# the rewrite copies it, the let and the Cons below it as holes.
PAIR_BOX = (
    "(program (letrec (fun (@ tail_mod_cons) f (v) (match v"
    " (case Nil (constr Nil)) (case (Cons x rest) (constr Pair"
    " (call (@ tailcall) f rest) (constr Box (let z x"
    " (constr Cons z (call f rest))) (call f rest)))))))"
    " (main (int 0)))")


def verdict_and_function(p, fname):
    """p's scope verdict, and toplevel function fname."""
    verdict = resolve_scope(p)
    for group in p.groups:
        for f in group:
            if f.name == fname:
                return verdict, f
    raise KeyError(fname)


def decomposition(verdict, body):
    """The context nodes of body that the rewrite reaches, and its holes,
    left to right, each with whether a constructor argument lies on the way
    (strictly modulo cons).  The candidates, calls in the context, count as
    holes."""
    nodes, holes, stack = [], [], [(body, False)]
    while stack:
        x, under = stack.pop()
        if id(x) not in verdict.context or isinstance(x, Call):
            holes.append((x, under))
            continue
        nodes.append(x)
        kids = [(c, under or tmc) for c, _, tmc in children(x)
                if tmc is not None]
        if isinstance(x, Constr):
            kids = [kids[verdict.context[id(x)]]]
        stack.extend(reversed(kids))
    return nodes, holes


def sites_in(verdict, root):
    """The verdict on each call site below root, local functions' bodies
    included, in walk order."""
    inside, stack = set(), [root]
    while stack:
        x = stack.pop()
        inside.add(id(x))
        stack.extend(c for c, _, _ in children(x))
        if isinstance(x, Letrec):
            stack.extend(f.body for f in x.group)
    return [ok for call, ok in verdict.sites if id(call) in inside]


def context_by_hand(verdict):
    """The ids of the nodes that the rewrite does not treat as holes, found
    without reading the context: from each function body down
    tail-modulo-cons children, and through a constructor into its one
    argument with candidates, or else its one argument with annotated
    candidates, or else (an ambiguous constructor) all its arguments with
    candidates, to every node with a candidate at or below it.  The
    candidates are the eligible calls so reached."""
    eligible = {id(c) for c, ok in verdict.sites if ok}
    roots = [f.body for f in verdict.definitions]
    order, stack = [], list(roots)
    while stack:
        x = stack.pop()
        order.append(x)
        stack.extend(c for c, _, tmc in children(x) if tmc is not None)
    below = {}  # id(node) -> (its candidates, the annotated ones), counted
    for x in reversed(order):  # each node after its children
        if isinstance(x, Call):
            ok = id(x) in eligible
            below[id(x)] = (ok, ok and TAILCALL in x.attrs)
        else:
            kids = [below[id(c)] for c, _, tmc in children(x)
                    if tmc is not None]
            below[id(x)] = (sum(n for n, _ in kids), sum(a for _, a in kids))
    reached, stack = set(), roots
    while stack:
        x = stack.pop()
        if below[id(x)][0]:
            reached.add(id(x))
            kids = [c for c, _, tmc in children(x)
                    if tmc is not None and below[id(c)][0]]
            picked = [c for c in kids if below[id(c)][1]]
            if isinstance(x, Constr) and len(kids) > 1 and len(picked) == 1:
                kids = picked
            stack.extend(kids)
    return reached


def assert_exact_context(text, what):
    """If text is well formed, its context holds exactly the nodes that
    `context_by_hand` reaches, and its AmbiguousTmc errors are one per
    constructor reached in more than one argument, each listing the calls
    reached below it, left to right."""
    verdict = resolve_scope(parse_program(text))
    if verdict.malformed:
        return
    reached = context_by_hand(verdict)
    assert set(verdict.context) == reached, what
    expected, stack = [], [f.body for f in verdict.definitions]
    while stack:
        x = stack.pop()
        kids = [c for c, _, tmc in children(x)
                if tmc is not None and id(c) in reached]
        if isinstance(x, Constr) and id(x) in reached and len(kids) > 1:
            calls, below = [], [x]
            while below:
                y = below.pop()
                calls += [y] if isinstance(y, Call) else []
                below += [c for c, _, tmc in reversed(children(y))
                          if tmc is not None and id(c) in reached]
            expected.append((x.span, calls))
        stack += [c for c, _, tmc in children(x) if tmc is not None]
    expected.sort(key=lambda e: e[0].byte_start)
    assert [(d.code, d.span, d.candidates) for d in verdict.errors] == [
        ("AmbiguousTmc", span, calls) for span, calls in expected], what


def chosen(verdict):
    """id(constructor) -> the argument that holds the rest of the context."""
    return {k: j for k, j in verdict.context.items() if j is not None}


class TestCollectMarks:
    def test_fresh_dps_names(self):
        verdict = resolve_scope(load("map.tmc"))
        assert [f.name for f in verdict.marked] == ["map"]
        assert collect_marks(verdict).dps_name == {"map": "map_dps"}

    def test_dps_name_avoids_collision(self):
        p = parse_program(
            "(program"
            " (letrec (fun map_dps (x) x))"
            " (letrec (fun (@ tail_mod_cons) map (f xs)"
            "   (constr Cons 1 (call map f xs))))"
            " (main 0))")
        marks = collect_marks(resolve_scope(p))
        assert marks.dps_name["map"] not in {"map", "map_dps"}

    def test_unmarked_program_has_no_marks(self):
        p = parse_program("(program (letrec (fun f (x) x)) (main 0))")
        verdict = resolve_scope(p)
        assert verdict.marked == []
        assert collect_marks(verdict).dps_name == {}

    def test_definitions_nested_ones_and_mains_included_in_source_order(self):
        p = parse_program(
            "(program"
            " (letrec (fun a (x) (let v (letrec (fun b (y) (letrec (fun c (z) z)"
            " (call c y))) (fun d (y) y) (call b x)) (letrec (fun e (y) y) v))))"
            " (letrec (fun f (x) x) (fun g (x) x))"
            " (main (letrec (fun m (x) (letrec (fun n (y) y) (call n x)))"
            " (call m 0))))")
        names = [f.name for f in resolve_scope(p).definitions]
        assert names == ["a", "b", "c", "d", "e", "f", "g", "m", "n"]


class TestCandidates:
    def test_map_body_has_candidate(self):
        p = load("map.tmc")
        verdict, f = verdict_and_function(p, "map")
        assert id(f.body) in verdict.context

    def test_shadowed_callee_is_not_a_candidate(self):
        p = parse_program(
            "(program (letrec (fun (@ tail_mod_cons) f (g xs)"
            " (let f (call g xs) (constr Cons 1 (call f xs)))))"
            " (main 0))")
        # `f` is rebound as a value; the inner call goes through the
        # binder and must not be treated as a TMC candidate.
        assert resolve_scope(p).context == {}

    def test_candidate_outside_marked_scope_needs_group(self):
        # main's call to the marked map is not eligible, and map's own
        # context is the only one.
        p = load("map_toplevel_call.tmc")
        verdict, f = verdict_and_function(p, "map")
        nodes, holes = decomposition(verdict, f.body)
        candidates = [h for h, _ in holes if id(h) in verdict.context]
        assert sorted(verdict.context) == sorted(map(id, nodes + candidates))


class TestDecompose:
    def test_map_decomposition(self):
        p = load("map.tmc")
        verdict, f = verdict_and_function(p, "map")
        _, holes = decomposition(verdict, f.body)
        assert [under for _, under in holes] == [False, True]
        assert id(holes[1][0]) in verdict.context
        # The Cons in the body of the second clause continues in its arg1.
        assert chosen(verdict) == {id(f.body.clauses[1][1].body): 1}

    def test_ambiguous_two_candidates(self):
        p = load("tree_map_ambiguous.tmc")
        verdict, f = verdict_and_function(p, "tree_map")
        [diag] = verdict.errors
        node = f.body.clauses[1][1]  # (constr Node (call ..) (call ..))
        assert diag.code == "AmbiguousTmc"
        assert diag.span is node.span
        # Nodes compare by identity: the two calls themselves, in order.
        assert diag.candidates == node.args

    def test_nested_ambiguity_candidates_left_to_right(self):
        p = parse_program(
            "(program (letrec (fun (@ tail_mod_cons) f (t) (match t"
            " (case (Leaf v) (constr Leaf v))"
            " (case (Node a b c d e) (constr Node"
            "   (constr Pair (call f a) (call f b)) (call f c)"
            "   (constr Pair (call f d) (call f e)))))))"
            " (main (int 0)))")
        verdict, f = verdict_and_function(p, "f")
        node = f.body.clauses[1][1]
        pair1, c, pair2 = node.args
        assert all(isinstance(x, Call) for x in (*pair1.args, c, *pair2.args))
        # One error per competing constructor, the outer one first, each
        # listing every call below it.
        assert [d.code for d in verdict.errors] == ["AmbiguousTmc"] * 3
        assert [d.span for d in verdict.errors] == [
            node.span, pair1.span, pair2.span]
        spans = [d.span.byte_start for d in verdict.errors]
        assert spans == sorted(spans)
        assert [d.candidates for d in verdict.errors] == [
            [*pair1.args, c, *pair2.args], pair1.args, pair2.args]

    def test_candidates_below_an_unpicked_argument_are_holes(self):
        p = parse_program(
            "(program (letrec (fun (@ tail_mod_cons) f (t) (match t"
            " (case (Leaf v) (constr Leaf v))"
            " (case (Node a b c) (constr Pair (call (@ tailcall) f a)"
            "   (constr Box (call (@ tailcall) f b) (call f c)))))))"
            " (main (int 0)))")
        verdict, f = verdict_and_function(p, "f")
        pair = f.body.clauses[1][1]
        fa, box = pair.args
        fb, fc = box.args
        # Box picks `f b`, so `f c` is a hole and no candidate of Pair.
        [diag] = verdict.errors
        assert diag.span is pair.span
        assert diag.candidates == [fa, fb]
        assert id(fc) not in verdict.context

    def test_a_nested_body_keeps_its_candidates_to_itself(self):
        p = parse_program(
            "(program (letrec (fun (@ tail_mod_cons) f (t) (match t"
            " (case (Leaf v) (constr Leaf v))"
            " (case (Node a b) (constr Node (call f a)"
            "   (letrec (fun (@ tail_mod_cons) g (u)"
            "     (constr Pair (call g u) (call g u))) (call f b)))))))"
            " (main (int 0)))")
        verdict, f = verdict_and_function(p, "f")
        node = f.body.clauses[1][1]
        fa, letrec = node.args
        pair = letrec.group[0].body
        # The letrec's body is the second argument's one candidate; g's
        # body lies in no argument of Node and has an error of its own.
        assert [(d.span, d.candidates) for d in verdict.errors] == [
            (node.span, [fa, letrec.body]), (pair.span, pair.args)]

    def test_annotation_singles_out_one_argument(self):
        p = load("tree_map_annotated.tmc")
        verdict, f = verdict_and_function(p, "tree_map")
        # Second Node argument chosen; first stays an ordinary expression.
        assert chosen(verdict) == {id(f.body.clauses[1][1]): 1}
        assert verdict.errors == []

    def test_trivial_body_is_one_plain_hole(self):
        p = parse_program(
            "(program (letrec (fun (@ tail_mod_cons) f (x) (call add1 x)))"
            " (main 0))")
        verdict, f = verdict_and_function(p, "f")
        assert id(f.body) not in verdict.context
        assert decomposition(verdict, f.body) == ([], [(f.body, False)])

    def test_merge_decomposition_has_four_holes(self):
        p = load("merge.tmc")
        verdict, f = verdict_and_function(p, "merge")
        kinds = [under for _, under in decomposition(verdict, f.body)[1]]
        assert kinds.count(True) == 2
        assert kinds.count(False) == 2

    def test_every_context_leads_to_a_candidate_on_marked_corpus_bodies(self):
        for name in ("map.tmc", "filter.tmc", "merge.tmc", "umap.tmc",
                     "map_tail.tmc", "flatten_mutual.tmc"):
            p = load(name)
            verdict = resolve_scope(p)
            for group in p.groups:
                for f in group:
                    if f not in verdict.marked:
                        continue
                    nodes, holes = decomposition(verdict, f.body)
                    candidates = [h for h, _ in holes
                                  if id(h) in verdict.context]
                    assert candidates, name
                    # A constructor's chosen argument holds a candidate.
                    for x in nodes:
                        if isinstance(x, Constr):
                            arg = x.args[verdict.context[id(x)]]
                            assert id(arg) in verdict.context, name


class TestExactContext:
    """The context holds the candidates and the nodes on the way to them
    through chosen arguments, and nothing else: no entry below an argument
    that was not picked.  Each AmbiguousTmc lists the calls of the context
    below its constructor."""

    def test_pair_box(self):
        p = parse_program(PAIR_BOX)
        verdict, f = verdict_and_function(p, "f")
        pair = f.body.clauses[1][1]
        call, box = pair.args
        assert verdict.errors == []
        assert chosen(verdict) == {id(pair): 0}
        assert set(verdict.context) == {id(f.body), id(pair), id(call)}
        assert_exact_context(PAIR_BOX, "Pair/Box")

    def test_corpus(self):
        for path in sorted(CORPUS.glob("*.tmc")):
            assert_exact_context(path.read_text(), path.name)

    def test_pool(self):
        units = corpus_units()
        for i in range(64):
            assert_exact_context(generate_program(i, units), f"pool {i}")

    @settings(max_examples=300, deadline=None)
    @given(programs())
    def test_generated_programs(self, case):
        assert_exact_context(case[1], case[1])


class TestScope:
    def test_toplevel_main_call_not_eligible(self):
        p = load("map_toplevel_call.tmc")
        verdict = resolve_scope(p)
        assert dict(verdict.sites)[p.main] is False

    def test_recursive_call_in_own_group_eligible(self):
        p = load("map.tmc")
        verdict, f = verdict_and_function(p, "map")
        assert sites_in(verdict, f.body) == [True]

    def test_nested_local_call_inside_marked_function_eligible(self):
        p = load("flatten_nested.tmc")
        verdict = resolve_scope(p)
        # Every call site inside marked `flatten` (including the local
        # append_flatten group) is eligible.
        inside = [ok for f in p.groups[0] for ok in sites_in(verdict, f.body)]
        assert inside and all(inside)

    def test_mutual_toplevel_cross_calls_eligible(self):
        p = load("flatten_mutual.tmc")
        verdict = resolve_scope(p)
        assert verdict.sites
        assert all(ok for _, ok in verdict.sites)

    def test_unmarked_sibling_group_call_not_eligible(self):
        p = parse_program(
            "(program"
            " (letrec (fun (@ tail_mod_cons) f (xs)"
            "   (constr Cons 1 (call f xs))))"
            " (letrec (fun g (xs) (call f xs)))"
            " (main 0))")
        verdict, g = verdict_and_function(p, "g")
        assert sites_in(verdict, g.body) == [False]

    def test_useless_mark_warning(self):
        p = parse_program(
            "(program (letrec (fun (@ tail_mod_cons) f (xs) (call f xs)))"
            " (main 0))")
        verdict = resolve_scope(p)
        assert [w.code for w in verdict.warnings] == ["UselessMark"]

    def test_no_warning_with_strict_candidate(self):
        p = load("map.tmc")
        assert resolve_scope(p).warnings == []


class TestTailcallAnnotations:
    def check(self, text):
        p = parse_program(text)
        return resolve_scope(p).unsatisfiable

    def test_satisfied_annotation_is_silent(self):
        p = load("tree_map_annotated.tmc")
        assert resolve_scope(p).unsatisfiable == []

    def test_plain_tail_call_accepted_silently(self):
        diags = self.check(
            "(program (letrec (fun f (x) (call (@ tailcall) f x))) (main 0))")
        assert diags == []

    def test_unsatisfiable_in_marked_region_is_error(self):
        # The annotated call feeds a let binder, so it can never become a
        # tail call even after the rewrite.
        diags = self.check(
            "(program (letrec (fun (@ tail_mod_cons) f (x)"
            " (let y (call (@ tailcall) f x) y))) (main 0))")
        assert [(d.severity, d.code) for d in diags] == [
            ("Error", "TailcallNotSatisfiable")]

    def test_unsatisfiable_outside_marked_region_is_warning(self):
        diags = self.check(
            "(program"
            " (letrec (fun (@ tail_mod_cons) f (x)"
            "   (constr Cons 1 (call f x))))"
            " (letrec (fun g (x) (let y (call (@ tailcall) f x) y)))"
            " (main 0))")
        assert [(d.severity, d.code) for d in diags] == [
            ("Warning", "TailcallNotSatisfiable")]

    def test_unmarked_function_in_a_marked_one_keeps_its_tail_calls(self):
        # h has no DPS version, so its plain tail call stays one; in the
        # marked f itself, f_dps would write g's result instead.
        diags = self.check(
            "(program (letrec (fun (@ tail_mod_cons) f (xs) (letrec"
            " (fun h (ys) (call (@ tailcall) g ys)) (constr Cons 1 (call h xs))))"
            " (fun g (xs) (call f xs))) (main 0))")
        assert diags == []
