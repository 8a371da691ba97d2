"""Candidate detection, context decomposition, scope, and annotation
checks."""

import pytest

from tmc_forge.analysis import (
    AnalysisError,
    check_tailcall_annotations,
    collect_marks,
    decompose_tmc,
    resolve_scope,
    tmc_candidates,
)
from tmc_forge.ir import (
    PLAIN_TAIL,
    STRICT_MOD_CONS,
    plug,
)
from tmc_forge.surface import parse_program

from conftest import load


def eligible_calls(p, fname):
    """The ids of p's eligible calls, and toplevel function fname."""
    calls = resolve_scope(p, collect_marks(p)).calls
    for group in p.groups:
        for f in group:
            if f.name == fname:
                return calls, f
    raise KeyError(fname)


class TestCollectMarks:
    def test_fresh_dps_names(self):
        p = load("map.tmc")
        marks = collect_marks(p)
        assert marks.marked == {"map"}
        assert marks.dps_name == {"map": "map_dps"}

    def test_dps_name_avoids_collision(self):
        p = parse_program(
            "(program"
            " (letrec (fun map_dps (x) x))"
            " (letrec (fun (@ tail_mod_cons) map (f xs)"
            "   (constr Cons 1 (call map f xs))))"
            " (main 0))")
        marks = collect_marks(p)
        assert marks.dps_name["map"] not in {"map", "map_dps"}

    def test_unmarked_program_has_no_marks(self):
        p = parse_program("(program (letrec (fun f (x) x)) (main 0))")
        assert collect_marks(p).marked == set()


class TestCandidates:
    def test_map_body_has_candidate(self):
        p = load("map.tmc")
        calls, f = eligible_calls(p, "map")
        assert tmc_candidates(f.body, calls)

    def test_shadowed_callee_is_not_a_candidate(self):
        p = parse_program(
            "(program (letrec (fun (@ tail_mod_cons) f (g xs)"
            " (let f (call g xs) (constr Cons 1 (call f xs)))))"
            " (main 0))")
        calls, f = eligible_calls(p, "f")
        # `f` is rebound as a value; the inner call goes through the
        # binder and must not be treated as a TMC candidate.
        assert not tmc_candidates(f.body, calls)

    def test_candidate_outside_marked_scope_needs_group(self):
        p = load("map_toplevel_call.tmc")
        calls = resolve_scope(p, collect_marks(p)).calls
        assert not tmc_candidates(p.main, calls)


class TestDecompose:
    def test_map_decomposition(self):
        p = load("map.tmc")
        calls, f = eligible_calls(p, "map")
        d = decompose_tmc(f.body, calls)
        kinds = [k for _, k in d.holes]
        assert kinds == [PLAIN_TAIL, STRICT_MOD_CONS]
        # The Cons in the body of the second clause continues in its arg1.
        assert d.chosen == {id(d.context.clauses[1][1].body): 1}
        assert plug(d) == f.body

    def test_ambiguous_two_candidate_paths(self):
        p = load("tree_map_ambiguous.tmc")
        calls, f = eligible_calls(p, "tree_map")
        with pytest.raises(AnalysisError) as ei:
            decompose_tmc(f.body, calls)
        diag = ei.value.diagnostic
        assert diag.code == "AmbiguousTmc"
        assert len(diag.candidate_paths) == 2

    def test_annotation_singles_out_one_argument(self):
        p = load("tree_map_annotated.tmc")
        calls, f = eligible_calls(p, "tree_map")
        d = decompose_tmc(f.body, calls)
        # Second Node argument chosen; first stays an ordinary expression.
        assert d.chosen == {id(d.context.clauses[1][1]): 1}
        assert plug(d) == f.body

    def test_trivial_body_is_one_plain_hole(self):
        p = parse_program(
            "(program (letrec (fun (@ tail_mod_cons) f (x) (call add1 x)))"
            " (main 0))")
        calls, f = eligible_calls(p, "f")
        d = decompose_tmc(f.body, calls)
        assert [k for _, k in d.holes] == [PLAIN_TAIL]
        assert plug(d) == f.body

    def test_merge_decomposition_has_four_holes(self):
        p = load("merge.tmc")
        calls, f = eligible_calls(p, "merge")
        d = decompose_tmc(f.body, calls)
        kinds = [k for _, k in d.holes]
        assert kinds.count(STRICT_MOD_CONS) == 2
        assert kinds.count(PLAIN_TAIL) == 2
        assert plug(d) == f.body

    def test_decomposition_round_trips_on_all_marked_corpus_bodies(self):
        for name in ("map.tmc", "filter.tmc", "merge.tmc", "umap.tmc",
                     "map_tail.tmc", "flatten_mutual.tmc"):
            p = load(name)
            marks = collect_marks(p)
            calls = resolve_scope(p, marks).calls
            for group in p.groups:
                for f in group:
                    if f.name in marks.marked:
                        d = decompose_tmc(f.body, calls)
                        assert plug(d) == f.body, name


class TestScope:
    def test_toplevel_main_call_not_eligible(self):
        p = load("map_toplevel_call.tmc")
        verdict = resolve_scope(p, collect_marks(p))
        assert verdict.eligible_paths[("main",)] is False

    def test_recursive_call_in_own_group_eligible(self):
        p = load("map.tmc")
        verdict = resolve_scope(p, collect_marks(p))
        paths = {pt: ok for pt, ok in verdict.eligible_paths.items()}
        inside = [ok for pt, ok in paths.items() if pt[:2] == ("group0", "map")]
        assert inside == [True]

    def test_nested_local_call_inside_marked_function_eligible(self):
        p = load("flatten_nested.tmc")
        verdict = resolve_scope(p, collect_marks(p))
        # Every call site inside marked `flatten` (including the local
        # append_flatten group) is eligible.
        inside = {pt: ok for pt, ok in verdict.eligible_paths.items()
                  if pt and pt[0] == "group0"}
        assert inside and all(inside.values())

    def test_mutual_toplevel_cross_calls_eligible(self):
        p = load("flatten_mutual.tmc")
        verdict = resolve_scope(p, collect_marks(p))
        assert verdict.eligible_paths
        assert all(verdict.eligible_paths.values())

    def test_unmarked_sibling_group_call_not_eligible(self):
        p = parse_program(
            "(program"
            " (letrec (fun (@ tail_mod_cons) f (xs)"
            "   (constr Cons 1 (call f xs))))"
            " (letrec (fun g (xs) (call f xs)))"
            " (main 0))")
        verdict = resolve_scope(p, collect_marks(p))
        g_sites = [ok for pt, ok in verdict.eligible_paths.items()
                   if pt[:2] == ("group1", "g")]
        assert g_sites == [False]

    def test_useless_mark_warning(self):
        p = parse_program(
            "(program (letrec (fun (@ tail_mod_cons) f (xs) (call f xs)))"
            " (main 0))")
        verdict = resolve_scope(p, collect_marks(p))
        assert [w.code for w in verdict.warnings] == ["UselessMark"]

    def test_no_warning_with_strict_candidate(self):
        p = load("map.tmc")
        assert resolve_scope(p, collect_marks(p)).warnings == []


class TestTailcallAnnotations:
    def check(self, text):
        p = parse_program(text)
        return check_tailcall_annotations(p, collect_marks(p))

    def test_satisfied_annotation_is_silent(self):
        p = load("tree_map_annotated.tmc")
        assert check_tailcall_annotations(p, collect_marks(p)) == []

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
