"""Command-line behavior: exit codes, goldens, CSV output, determinism."""

import contextlib
import csv
import io
import os
import re
import subprocess
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from tmc_forge import cli, transform
from tmc_forge.cli import main
from tmc_forge.gen import Lcg, gen_value, mix_seed
from tmc_forge.ir import Constr
from tmc_forge.runtime import TmcRuntimeError, eval_program
from tmc_forge.surface import is_int, parse_program, print_program
from tmc_forge.transform import TransformError, transform_program

from conftest import CORPUS, FIXTURES, GOLDENS, marked_chain
from test_properties import programs


def run_main(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err

def corpus(name):
    return str(CORPUS / name)


NEEDS_DEV_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"),
                                    reason="needs /dev/full")

class TestParse:
    def test_parse_ok(self, capsys):
        code, out, _ = run_main(capsys, "parse", corpus("map.tmc"))
        assert code == 0
        assert out.startswith("(program")

    def test_parse_error_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.tmc"
        bad.write_text("(program (main (what 1)))")
        code, _, err = run_main(capsys, "parse", str(bad))
        assert code == 1
        assert "ParseError" in err

    def test_out_flag_writes_file(self, tmp_path, capsys):
        dest = tmp_path / "o.tmc"
        code, out, _ = run_main(capsys, "parse", corpus("map.tmc"),
                                "--out", str(dest))
        assert code == 0 and out == ""
        assert dest.read_text().startswith("(program")

@pytest.mark.parametrize("source,column,message", [
    # The builder's checks, form by form.
    ("(program (main ()))", 15, "empty form"),
    ("(program (main (let x 1)))", 15,
     "'let' takes 3 argument(s) (expected binder, bound, body)"),
    ("(program (main (var (x))))", 15, "expected symbol"),
    # An integer-looking atom is no symbol: printed bare, it reads back as
    # an integer.
    ("(program (main (var 5)))", 15, "expected symbol"),
    ("(program (main (call)))", 15, "call needs a callee symbol"),
    ("(program (main (let (x) 1 x)))", 15, "let binder must be a symbol"),
    ("(program (main (let 5 1 (var 5))))", 15, "let binder must be a symbol"),
    ("(program (main (constr)))", 15, "constr needs a tag symbol"),
    ("(program (main (match x)))", 15,
     "match needs a scrutinee and at least one clause"),
    ("(program (main (match x y)))", 24, "expected (case pat expr)"),
    ("(program (main (letrec x)))", 15,
     "letrec needs at least one fundef and a body"),
    ("(program (main (match x (case ((A) b) 1))))", 30,
     "constructor pattern needs a tag symbol"),
    ("(program (letrec (foo)) (main 0))", 17, "expected (fun ...)"),
    ("(program (letrec (fun f x x)) (main 0))", 17,
     "expected (fun attrs? name (params) body)"),
    ("(program (letrec (fun f ((a)) a)) (main 0))", 24,
     "parameters must be symbols"),
    ("(program (letrec (fun f (x -1) x)) (main 0))", 24,
     "parameters must be symbols"),
    ("(program (letrec (fun f () 0)) (main 0))", 24,
     "function needs at least one parameter"),
    # parse_program's checks of the program form.
    ("(program (main 0)) (main 1)", 19, "trailing input after program form"),
    ("(main 0)", 0, "expected (program ...)"),
    ("(program x)", 9, "expected (letrec ...) or (main ...)"),
    ("(program (main 0) (letrec (fun f (x) x)))", 18, "letrec after main"),
    ("(program (letrec) (main 0))", 9, "letrec needs at least one fundef"),
    ("(program (main 0) (main 1))", 18, "duplicate main"),
    ("(program (main 0 1))", 9, "main takes one expression"),
    ("(program (mane 0))", 9, "unknown toplevel form 'mane'"),
])
def test_parse_error_is_one_line_and_exit_1(source, column, message,
                                            tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("TMC_FORGE_COLOR", "0")
    (tmp_path / "bad.tmc").write_text(source)
    code, out, err = run_main(capsys, "parse", "bad.tmc")
    assert (code, out) == (1, "")
    assert err == f"ERROR ParseError bad.tmc:1:{column}: {message}\n"


def test_var_form_prints_as_its_name(tmp_path, capsys):
    (tmp_path / "var.tmc").write_text("(program (main (var x)))")
    code, out, err = run_main(capsys, "parse", str(tmp_path / "var.tmc"))
    assert (code, out, err) == (0, "(program\n  (main x))\n", "")


class TestTransform:
    def test_golden_map(self, capsys):
        code, out, err = run_main(capsys, "transform", corpus("map.tmc"))
        assert code == 0
        golden = (GOLDENS / "map_transformed.tmc").read_text()
        assert out == golden

    def test_golden_umap(self, capsys):
        code, out, _ = run_main(capsys, "transform", corpus("umap.tmc"))
        assert code == 0
        assert out == (GOLDENS / "umap_transformed.tmc").read_text()

    def test_golden_toplevel_scope(self, capsys):
        code, out, _ = run_main(capsys, "transform",
                                corpus("map_toplevel_call.tmc"))
        assert code == 0
        assert out == (GOLDENS / "map_toplevel_call_transformed.tmc").read_text()

    def test_ambiguous_exit_1_with_diagnostic(self, capsys, monkeypatch):
        monkeypatch.setenv("TMC_FORGE_COLOR", "0")
        code, out, err = run_main(capsys, "transform",
                                  corpus("tree_map_ambiguous.tmc"))
        assert code == 1
        assert "ERROR AmbiguousTmc" in err
        assert "tree_map_ambiguous.tmc:" in err

    def test_warning_does_not_fail(self, capsys, monkeypatch):
        monkeypatch.setenv("TMC_FORGE_COLOR", "0")
        code, out, err = run_main(capsys, "transform",
                                  corpus("flatten_nested.tmc"))
        assert code == 0
        assert "WARNING UselessMark" in err

    def test_useless_mark_sees_shadowing_parameter(self, tmp_path, capsys,
                                                   monkeypatch):
        # The parameter `f` shadows the function: the recursive-looking call
        # goes through the binder, so no candidate remains.
        monkeypatch.setenv("TMC_FORGE_COLOR", "0")
        src = tmp_path / "shadow.tmc"
        src.write_text(
            "(program (letrec (fun (@ tail_mod_cons) f (f xs)"
            " (match xs (case Nil (constr Nil))"
            " (case (Cons x rest) (constr Cons x (call f f rest))))))"
            " (main (int 0)))")
        code, _, err = run_main(capsys, "transform", str(src))
        assert code == 0
        assert "WARNING UselessMark" in err

    def test_analysis_error_is_printed_once(self, tmp_path, capsys,
                                            monkeypatch):
        # The annotated call is bound by a let, so it cannot become a tail
        # call; the marked function has no candidate left.
        monkeypatch.setenv("TMC_FORGE_COLOR", "0")
        src = tmp_path / "bound_tailcall.tmc"
        src.write_text(
            "(program (letrec (fun (@ tail_mod_cons) f (xs)"
            " (match xs (case Nil (constr Nil))"
            " (case (Cons x rest)"
            " (let y (call (@ tailcall) f rest) (constr Cons x y))))))"
            " (main (int 0)))")
        code, out, err = run_main(capsys, "transform", str(src))
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert [ln.split()[:2] for ln in lines] == [
            ["WARNING", "UselessMark"], ["ERROR", "TailcallNotSatisfiable"]]

    def test_useless_mark_on_a_nested_function(self, tmp_path, capsys,
                                               monkeypatch):
        # `g` is marked and local to the unmarked `f`; like the toplevel
        # `h`, it has no strictly-modulo-cons candidate.
        monkeypatch.setenv("TMC_FORGE_COLOR", "0")
        src = tmp_path / "nested_useless.tmc"
        src.write_text(
            "(program (letrec (fun f (xs) (letrec"
            " (fun (@ tail_mod_cons) g (ys) (call g ys)) (call g xs))))\n"
            " (letrec (fun (@ tail_mod_cons) h (ys) (call h ys))) (main 0))")
        code, _, err = run_main(capsys, "transform", str(src))
        assert code == 0
        assert [ln.split()[:3] for ln in err.splitlines()] == [
            ["WARNING", "UselessMark", f"{src}:1:37"],
            ["WARNING", "UselessMark", f"{src}:2:9"]]

    # A list copy, marked or not; `{mark}` is empty or the attribute.
    COPY = ("(fun {mark}{name} (ys) (match ys (case Nil (constr Nil))"
            " (case (Cons y r) (constr Cons y (call {name} r)))))")

    def clash(self, tmp_path):
        """An unmarked toplevel `g`, and a marked `g` local to `b`."""
        src = tmp_path / "clash.tmc"
        src.write_text(
            f"(program (letrec {self.COPY.format(mark='', name='g')})\n"
            " (letrec (fun b (xs) (letrec "
            f"{self.COPY.format(mark='(@ tail_mod_cons) ', name='g')}"
            " (call g xs))))\n (main (int 0)))")
        return str(src)

    def test_marks_belong_to_definitions(self, tmp_path, capsys):
        code, out, err = run_main(capsys, "transform", self.clash(tmp_path))
        assert (code, err) == (0, "")
        assert out.count("(fun g_dps ") == 1
        assert out.index("(fun b ") < out.index("(fun g_dps ")

    def test_unmarked_namesake_keeps_its_stack(self, tmp_path, capsys):
        src = self.clash(tmp_path)
        for extra in ((), ("--transform",)):
            code, out, _ = run_main(capsys, "run", src, "--entry", "g",
                                    "--arg", "list:5000", "--metrics", *extra)
            assert code == 0
            assert "max_stack_depth=5001" in out.splitlines(), extra

    def test_call_to_an_unmarked_namesake_is_no_candidate(self, tmp_path,
                                                          capsys, monkeypatch):
        # `a`'s only call goes to its unmarked local `g`, not to the marked
        # toplevel `g`.
        monkeypatch.setenv("TMC_FORGE_COLOR", "0")
        src = tmp_path / "namesake.tmc"
        src.write_text(
            "(program (letrec (fun (@ tail_mod_cons) a (xs) (letrec "
            f"{self.COPY.format(mark='', name='g')} (match xs"
            " (case Nil (constr Nil))"
            " (case (Cons x rest) (constr Cons x (call g rest)))))))\n"
            f" (letrec {self.COPY.format(mark='(@ tail_mod_cons) ', name='g')})"
            " (main (int 0)))")
        code, _, err = run_main(capsys, "transform", str(src))
        assert code == 0
        assert [ln.split()[:4] for ln in err.splitlines()] == [
            ["WARNING", "UselessMark", f"{src}:1:17", "'a'"]]

    def test_every_ambiguous_constructor_is_reported(self, tmp_path,
                                                     capsys, monkeypatch):
        # Both Node constructors have two arguments with candidates.
        monkeypatch.setenv("TMC_FORGE_COLOR", "0")
        src = tmp_path / "twice.tmc"
        src.write_text(
            "(program (letrec (fun (@ tail_mod_cons) t (x) (match x\n"
            " (case Leaf (constr Leaf))\n"
            " (case (Node l r) (constr Node (call t l)\n"
            "   (constr Node (call t l) (call t r))))))) (main 0))")
        code, out, err = run_main(capsys, "transform", str(src))
        assert code == 1 and out == ""
        assert [ln.split()[:3] for ln in err.splitlines()] == [
            ["ERROR", "AmbiguousTmc", f"{src}:3:18"],
            ["ERROR", "AmbiguousTmc", f"{src}:4:3"]]

    def test_ambiguity_is_reported_with_other_errors(self, tmp_path, capsys,
                                                     monkeypatch):
        monkeypatch.setenv("TMC_FORGE_COLOR", "0")
        src = tmp_path / "both.tmc"
        src.write_text(
            "(program (letrec (fun (@ tail_mod_cons) t (x) (match x"
            " (case Leaf (let y (call (@ tailcall) t x) y))"
            " (case (Node l r) (constr Node (call t l) (call t r))))))"
            " (main 0))")
        code, out, err = run_main(capsys, "transform", str(src))
        assert code == 1 and out == ""
        assert [ln.split()[:2] for ln in err.splitlines()] == [
            ["ERROR", "TailcallNotSatisfiable"], ["ERROR", "AmbiguousTmc"]]

    def test_malformed_and_analysis_diagnostics_together(self, tmp_path,
                                                         capsys, monkeypatch):
        # Well-formedness errors come first, in source order, then the
        # warnings, the unsatisfiable annotations and the ambiguities.
        monkeypatch.setenv("TMC_FORGE_COLOR", "0")
        src = tmp_path / "mix.tmc"
        src.write_text(
            "(program\n"
            "  (letrec (fun (@ tail_mod_cons) t (x)\n"
            "    (match x\n"
            "      (case Leaf (let y (call (@ tailcall) t x) y))\n"
            "      (case (Node l r) (constr Node (call t l) (call t r))))))\n"
            "  (letrec (fun (@ tail_mod_cons) h (x)\n"
            "    (match x\n"
            "      (case (Pair a a) (call nope a))\n"
            "      (case _ (hole)))))\n"
            "  (main (call add 1)))\n")
        code, out, err = run_main(capsys, "transform", str(src))
        assert (code, out) == (1, "")
        expected = [
            ("ERROR", "DuplicatePatternVar", "8:12 'a' bound twice in one "
             "pattern"),
            ("ERROR", "UnboundCallee", "8:23 callee 'nope' is not a function, "
             "binder or builtin"),
            ("ERROR", "MisplacedHole", "9:14 hole outside "
             "constructor-argument position"),
            ("ERROR", "ArityMismatch", "10:8 add takes 2 arguments, got 1"),
            ("WARNING", "UselessMark", "6:10 'h' has no strictly-modulo-cons "
             "candidate; its DPS version is trivial"),
            ("ERROR", "TailcallNotSatisfiable", "4:24 (@ tailcall) on call to "
             "'t' cannot become a tail call here"),
            ("ERROR", "AmbiguousTmc", "5:23 2 constructor arguments contain "
             "TMC candidates; add a (@ tailcall) annotation to pick one")]
        assert err.splitlines() == [f"{sev} {c} {src}:{rest}"
                                    for sev, c, rest in expected]

    def test_annotated_tail_call_lost_in_the_dps_version(self, tmp_path,
                                                         capsys, monkeypatch):
        # In f_dps the call to the unmarked g would become
        # (setref dst idx (call g rest)), which is no tail call.
        monkeypatch.setenv("TMC_FORGE_COLOR", "0")
        src = tmp_path / "lost.tmc"
        src.write_text(
            "(program (letrec\n"
            "  (fun (@ tail_mod_cons) f (xs) (match xs (case Nil (constr Nil))\n"
            "    (case (Cons x rest) (if (call leq x 50)\n"
            "      (call (@ tailcall) g rest) (constr Cons x (call f rest))))))\n"
            "  (fun g (xs) (call f xs)))\n"
            " (main 0))\n")
        assert run_main(capsys, "transform", str(src)) == (
            1, "", f"ERROR TailcallNotSatisfiable {src}:4:6 (@ tailcall) on "
            "call to 'g' cannot become a tail call here\n")

    @pytest.mark.parametrize("name", ["map.tmc", "flatten_nested.tmc",
                                      "tree_map_ambiguous.tmc"])
    def test_static_analysis_runs_once(self, name, capsys, monkeypatch):
        calls = []
        for attr in ("well_formed", "resolve_scope", "collect_marks"):
            def counted(*a, _attr=attr, _orig=getattr(transform, attr)):
                calls.append(_attr)
                return _orig(*a)
            monkeypatch.setattr(transform, attr, counted)
        run_main(capsys, "transform", corpus(name))
        # resolve_scope checks well-formedness too; well_formed is not run.
        assert calls == ["resolve_scope", "collect_marks"]


class TestRun:
    def test_run_entry(self, capsys):
        code, out, _ = run_main(capsys, "run", corpus("map.tmc"),
                                "--entry", "map", "--arg", "fun:add1",
                                "--arg", "list:3", "--seed", "1")
        assert code == 0
        assert out.strip() == "(Cons 50 (Cons 70 (Cons 40 Nil)))"

    def test_run_transform_matches_original(self, capsys):
        a = run_main(capsys, "run", corpus("map.tmc"), "--entry", "map",
                     "--arg", "fun:add1", "--arg", "list:8", "--seed", "3")
        b = run_main(capsys, "run", corpus("map.tmc"), "--entry", "map",
                     "--arg", "fun:add1", "--arg", "list:8", "--seed", "3",
                     "--transform")
        assert a[0] == b[0] == 0
        assert a[1].splitlines()[0] == b[1].splitlines()[0]

    def test_metrics_flag(self, capsys):
        code, out, _ = run_main(capsys, "run", corpus("map.tmc"),
                                "--entry", "map", "--arg", "fun:add1",
                                "--arg", "list:3", "--metrics")
        assert code == 0
        assert "max_stack_depth=" in out
        assert "allocations=" in out

    @pytest.mark.parametrize("main_expr,argv", [
        ("(call add 1)", ["--entry", "main"]),
        ("(int 0)", ["--entry", "add", "--arg", "1"]),
    ])
    def test_builtin_arity_is_a_runtime_error(self, tmp_path, capsys,
                                              main_expr, argv):
        src = tmp_path / "arity.tmc"
        src.write_text(f"(program (main {main_expr}))")
        code, out, err = run_main(capsys, "run", str(src), *argv)
        assert code == 2 and out == ""
        assert err == ("ERROR ArityMismatch ArityMismatch: add takes 2 "
                       "arguments, got 1\n")

    def test_builtin_arity_is_a_static_error_for_transform(self, tmp_path,
                                                           capsys):
        src = tmp_path / "arity.tmc"
        src.write_text("(program (letrec (fun f (x) (call add x)))"
                       " (main (int 0)))")
        code, out, err = run_main(capsys, "transform", str(src))
        assert code == 1 and out == ""
        assert err == (f"ERROR ArityMismatch {src}:1:28 add takes 2 "
                       "arguments, got 1\n")
        # Without --transform the call only fails when it runs.
        code, out, err = run_main(capsys, "run", str(src), "--entry", "f",
                                  "--arg", "1")
        assert code == 2 and out == ""
        assert err == ("ERROR ArityMismatch ArityMismatch: add takes 2 "
                       "arguments, got 1\n")

    @pytest.mark.parametrize("program", [
        "(program (letrec (fun add (x) x)) (main (call add 1)))",
        "(program (letrec (fun f (add) (call add 1))) (main (int 0)))",
    ])
    def test_shadowed_builtin_has_no_static_arity(self, tmp_path, capsys,
                                                  program):
        src = tmp_path / "shadow.tmc"
        src.write_text(program)
        code, _, err = run_main(capsys, "transform", str(src))
        assert code == 0 and err == ""

    def test_builtin_arity_through_a_function_value(self, tmp_path, capsys):
        src = tmp_path / "apply.tmc"
        src.write_text("(program (letrec (fun app (f x) (call f x)))"
                       " (main (int 0)))")
        code, out, err = run_main(capsys, "run", str(src), "--entry", "app",
                                  "--arg", "fun:add", "--arg", "3")
        assert code == 2 and out == ""
        assert err == ("ERROR ArityMismatch ArityMismatch: add takes 2 "
                       "arguments, got 1\n")
        code, out, _ = run_main(capsys, "run", str(src), "--entry", "app",
                                "--arg", "fun:add1", "--arg", "3")
        assert code == 0 and out == "4\n"

    def test_runtime_error_exit_2(self, capsys):
        code, _, err = run_main(capsys, "run", corpus("map.tmc"),
                                "--entry", "map", "--arg", "fun:add1",
                                "--arg", "list:200", "--max-stack", "50")
        assert code == 2
        assert "ERROR StackLimit" in err

    def test_deterministic_across_invocations(self, capsys):
        outs = {run_main(capsys, "run", corpus("merge.tmc"), "--entry",
                         "merge", "--arg", "sortedlist:6",
                         "--arg", "sortedlist:6", "--seed", "11")[1]
                for _ in range(2)}
        assert len(outs) == 1

class TestDiff:
    def test_diff_clean(self, capsys):
        code, out, _ = run_main(capsys, "diff", corpus("merge.tmc"),
                                "--entry", "merge", "--arg", "sortedlist:8",
                                "--arg", "sortedlist:5", "--trials", "10")
        assert code == 0
        assert "failures=0" in out

    def test_zero_trials_vacuously_succeeds(self, capsys):
        code, out, _ = run_main(capsys, "diff", corpus("map.tmc"),
                                "--entry", "map", "--arg", "fun:add1",
                                "--arg", "list:5", "--trials", "0")
        assert code == 0
        assert "trials=0" in out and "failures=0" in out

    def test_diff_reports_trace_divergence_not_failure(self, capsys):
        code, out, _ = run_main(capsys, "diff", corpus("noisy_constr_args.tmc"),
                                "--entry", "noisy", "--arg", "list:6",
                                "--trials", "5")
        assert code == 0
        assert "failures=0" in out
        assert "trace_divergences=5" in out
        assert "TRACE-DIVERGENCE" in out

    def test_failure_line_renders_inputs_and_results(self, tmp_path, capsys,
                                                     monkeypatch):
        src = tmp_path / "pair.tmc"
        src.write_text("(program (letrec (fun f (x ys) (constr Pair x ys)))"
                       " (main 0))")
        swapped = parse_program("(program (letrec (fun f (x ys)"
                                " (constr Pair ys x))) (main 0))")
        monkeypatch.setattr(cli, "transform_program", lambda p: swapped)
        code, out, err = run_main(capsys, "diff", str(src), "--entry", "f",
                                  "--arg", "int", "--arg", "list:2",
                                  "--trials", "1", "--seed", "1")
        assert code == 2 and err == ""
        assert out.splitlines() == [
            "entry=f trials=1 failures=1 trace_divergences=0",
            "FAIL seed=1000003 inputs=[24, (Cons 83 (Cons 18 Nil))] "
            "lhs=(Pair 24 (Cons 83 (Cons 18 Nil))) "
            "rhs=(Pair (Cons 83 (Cons 18 Nil)) 24)"]

    def test_extra_effect_is_a_failure_on_the_traces(self, tmp_path, capsys,
                                                     monkeypatch):
        src = tmp_path / "echo.tmc"
        src.write_text("(program (letrec (fun f (x) (seq (call print x) x)))"
                       " (main 0))")
        twice = parse_program("(program (letrec (fun f (x) (seq (call print"
                              " x) (seq (call print x) x)))) (main 0))")
        monkeypatch.setattr(cli, "transform_program", lambda p: twice)
        code, out, err = run_main(capsys, "diff", str(src), "--entry", "f",
                                  "--arg", "int", "--trials", "1",
                                  "--seed", "1")
        assert code == 2 and err == ""
        assert out.splitlines() == [
            "entry=f trials=1 failures=1 trace_divergences=0",
            "FAIL seed=1000003 inputs=[24] lhs=trace ['24'] "
            "rhs=trace ['24', '24']"]

    def test_cyclic_result_is_a_runtime_error(self, tmp_path, capsys):
        src = tmp_path / "cycle.tmc"
        src.write_text("(program (letrec (fun f (x) (let p (constr Pair (hole) x)"
                       " (seq (setref p 1 p) p)))) (main 0))")
        code, out, err = run_main(capsys, "diff", str(src), "--entry", "f",
                                  "--arg", "int")
        assert code == 2 and out == ""
        assert err == ("ERROR CyclicValue CyclicValue: value reaches itself"
                       " through a field\n")

def reference_diff(program, entry, arg_specs, trials, seed):
    """run_diff as it compared results by rendering both and comparing the
    texts, on every trial."""

    transformed = cli.transform_program(program)
    report = cli.DiffReport(entry, trials)
    for t in range(trials):
        rng = Lcg(mix_seed(seed, t))
        args = [gen_value(s, rng) for s in arg_specs]
        v1, m1, i1 = eval_program(program, entry, args)
        v2, m2, i2 = eval_program(transformed, entry, args)
        s1, s2 = i1.render(v1), i2.render(v2)
        if s1 == s2 and sorted(m1.effect_trace) != sorted(m2.effect_trace):
            s1, s2 = f"trace {m1.effect_trace}", f"trace {m2.effect_trace}"
        if s1 != s2:
            report.failures.append(
                (mix_seed(seed, t), [i1.render(a) for a in args], s1, s2))
        elif m1.effect_trace != m2.effect_trace:
            pos = next(i for i, (a, b)
                       in enumerate(zip(m1.effect_trace, m2.effect_trace))
                       if a != b)
            report.trace_divergences.append((mix_seed(seed, t), pos))
    return report


def swap_fields(program):
    """program with the fields of every constructor it builds reversed,
    except the input shapes that its functions match on."""

    todo = [program]
    while todo:
        x = todo.pop()
        if isinstance(x, (list, tuple)):
            todo += x
        elif hasattr(x, "__dataclass_fields__"):
            if type(x) is Constr and x.tag not in ("Cons", "Node", "Leaf"):
                x.args.reverse()
            todo += [getattr(x, name) for name in x.__dataclass_fields__]
    return program


def diff_outcome(run, program, entry, specs, seed):
    try:
        return run(program, entry, specs, 4, seed)
    except TmcRuntimeError as exc:
        return str(exc)


class TestDiffAgainstTextComparison:
    """run_diff renders only the results that same_text cannot vouch for;
    its reports must be those of comparing the texts of every trial."""

    @settings(max_examples=100, deadline=None)
    @given(programs(), st.booleans(), st.sampled_from([0, 3]),
           st.integers(0, 10**6))
    def test_same_report(self, case, swap, length, seed):
        shape, text = case
        try:
            transformed = transform_program(
                swap_fields(parse_program(text)) if swap else parse_program(text))
        except TransformError:
            return
        # Without inputs for the tree shape, main is the entry.
        entry, specs = ("f", [f"list:{length}"]) if shape == "list" else ("main", [])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "transform_program", lambda p: transformed)
            want = diff_outcome(reference_diff, parse_program(text), entry,
                                specs, seed)
            got = diff_outcome(cli.run_diff, parse_program(text), entry,
                               specs, seed)
        assert got == want, text

    def test_swapped_fields_make_failures(self):
        text = "(program (letrec (fun f (x) (constr Pair x 1))) (main 0))"
        transformed = transform_program(swap_fields(parse_program(text)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "transform_program", lambda p: transformed)
            got = cli.run_diff(parse_program(text), "f", ["int"], 4, 1)
            assert got == reference_diff(parse_program(text), "f", ["int"], 4, 1)
        assert len(got.failures) == 4  # no trial draws 1

    def test_results_with_equal_text_are_equal(self, tmp_path, capsys,
                                               monkeypatch):
        # A block tagged 12 and the integer 12 are different values with the
        # same text; diff compares texts, so they agree.
        src = tmp_path / "twelve.tmc"
        src.write_text("(program (letrec (fun f (x) (constr 12))) (main 0))")
        twelve = parse_program("(program (letrec (fun f (x) 12)) (main 0))")
        monkeypatch.setattr(cli, "transform_program", lambda p: twelve)
        assert run_main(capsys, "diff", str(src), "--entry", "f", "--arg",
                        "int", "--trials", "3") == (
            0, "entry=f trials=3 failures=0 trace_divergences=0\n", "")


class TestBench:
    def test_tree_sizes_are_depths_and_the_default_sizes_too_deep(self,
                                                                capsys):
        # A depth of 100 would take about 1.5^100 blocks: refused before
        # anything is built.
        assert run_main(capsys, "bench", corpus("tree_map_annotated.tmc"),
                        "--entry", "tree_map", "--arg", "fun:add1",
                        "--arg", "tree:N") == (
            1, "", "usage error: bad generator spec 'tree:100'\n")

    def test_negative_size_is_refused_and_zero_is_not(self, capsys):
        base = ("bench", corpus("map_variants.tmc"), "--entry", "map",
                "--arg", "fun:add1", "--arg", "list:N")
        assert run_main(capsys, *base, "--sizes=-3,-7") == (
            1, "", "usage error: bad --sizes value '-3,-7'\n")
        code, out, _ = run_main(capsys, *base, "--sizes", "0")
        assert code == 0 and out.splitlines()[1].split()[:2] == ["map", "0"]

    def test_table_and_csv(self, capsys, tmp_path):
        dest = tmp_path / "m.csv"
        code, out, _ = run_main(
            capsys, "bench", corpus("map_variants.tmc"),
            "--entry", "map_direct", "--entry", "map",
            "--arg", "fun:add1", "--arg", "list:N",
            "--sizes", "10,50", "--csv", str(dest))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split() == ["variant", "size", "max_stack_depth",
                                    "allocations", "dest_writes", "steps"]
        assert len(lines) == 5
        with open(dest, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        by = {(r["variant"], r["size"]): r for r in rows}
        # direct map recurses one frame per element; rewritten map does not
        assert int(by[("map_direct", "50")]["max_stack_depth"]) == 51
        assert int(by[("map", "50")]["max_stack_depth"]) == 2
        assert int(by[("map", "50")]["dest_writes"]) == 50

    def test_error_cells(self, capsys):
        code, out, _ = run_main(
            capsys, "bench", corpus("map_variants.tmc"),
            "--entry", "map_direct", "--arg", "fun:add1", "--arg", "list:N",
            "--sizes", "10,2000", "--max-stack", "100")
        assert code == 0
        assert "StackLimit" in out

    def test_size_placeholder_only_replaces_a_whole_size_field(
            self, capsys, tmp_path):
        src = tmp_path / "addn.tmc"
        src.write_text(
            "(program (letrec (fun addN (x) (call add x 1)))"
            " (letrec (fun (@ tail_mod_cons) map (f xs)"
            " (match xs (case Nil (constr Nil))"
            " (case (Cons x rest) (constr Cons (call f x) (call map f rest))))))"
            " (main (int 0)))")
        code, out, _ = run_main(capsys, "bench", str(src), "--entry", "map",
                                "--arg", "fun:addN", "--arg", "list:N",
                                "--sizes", "3")
        assert code == 0
        # Read as `fun:add3`, the callee would be unbound and every cell an
        # error code.
        variant, size, _, allocations, dest_writes, _ = out.splitlines()[1].split()
        assert (variant, size, allocations, dest_writes) == ("map", "3", "4", "3")


@pytest.mark.parametrize("argv", [
    ("run", "map.tmc", "--entry", "map", "--arg", "fun:add1", "--arg", "lst:3"),
    ("diff", "map.tmc", "--entry", "map", "--arg", "fun:add1", "--arg", "lst:3"),
    ("bench", "map_variants.tmc", "--entry", "map", "--arg", "fun:add1",
     "--arg", "lst:3"),
    ("bench", "map_variants.tmc", "--entry", "map", "--arg", "fun:add1",
     "--arg", "list:N", "--sizes", "10,bogus"),
    # A size stands for N in a spec, so it follows the integer rule.
    ("bench", "map_variants.tmc", "--entry", "map", "--arg", "fun:add1",
     "--arg", "list:N", "--sizes", "1_0"),
    ("bench", "map_variants.tmc", "--entry", "map", "--arg", "fun:add1",
     "--arg", "list:N", "--sizes", "\u0663"),
    ("run", "map.tmc", "--entry", "map", "--arg", "fun:add1", "--arg=\u00b2"),
    ("run", "map.tmc", "--entry", "map", "--arg", "fun:add1", "--arg=--5"),
    ("run", "map.tmc"),
    ("diff", "map.tmc", "--entry", "map", "--arg", "fun:add1", "--arg",
     "list:3", "--trials", "abc"),
    ("diff", "map.tmc", "--entry", "map", "--arg", "fun:add1", "--arg",
     "list:3", "--trials", "-3"),
    ("bogus", "map.tmc"),
    # Integers past Python's conversion digit limit.
    ("run", "map.tmc", "--entry", "map", "--arg", "fun:add1", "--arg",
     "1" * 5000),
    ("run", "map.tmc", "--entry", "map", "--arg", "fun:add1", "--arg",
     "list:" + "1" * 5000),
    ("diff", "map.tmc", "--entry", "map", "--arg", "fun:add1", "--arg",
     "listof:3x" + "1" * 5000),
    # A size counts elements, whether or not a spec takes it for N.
    ("bench", "map_variants.tmc", "--entry", "map", "--arg", "fun:add1",
     "--arg", "list:3", "--sizes=-3,-7"),
    ("bench", "map_variants.tmc", "--entry", "map", "--arg", "fun:add1",
     "--arg", "list:N", "--sizes=-3,-7"),
    # Each field is an integer literal: an empty one is no size.
    ("bench", "map_variants.tmc", "--entry", "map", "--arg", "fun:add1",
     "--arg", "list:N", "--sizes", "10,,20"),
    ("bench", "map_variants.tmc", "--entry", "map", "--arg", "fun:add1",
     "--arg", "list:N", "--sizes", ""),
    ("bench", "map_variants.tmc", "--entry", "map", "--arg", "fun:add1",
     "--arg", "list:N", "--sizes", ","),
])
def test_bad_input_spec_is_a_one_line_usage_error(argv, capsys):
    cmd, name, *rest = argv
    code, out, err = run_main(capsys, cmd, corpus(name), *rest)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("usage error: ")


@pytest.mark.parametrize("argv,message", [
    (("parse", "missing.tmc"),
     "cannot read 'missing.tmc': No such file or directory"),
    (("parse", "latin1.tmc"), "cannot read 'latin1.tmc': not UTF-8 text"),
    (("parse", "ok.tmc", "--out", "nodir/o.tmc"),
     "cannot write 'nodir/o.tmc': No such file or directory"),
    (("bench", "ok.tmc", "--entry", "f", "--arg", "int", "--sizes", "1",
      "--csv", "nodir/o.csv"),
     "cannot write 'nodir/o.csv': No such file or directory"),
    pytest.param(("transform", "ok.tmc", "--out", "/dev/full"),
                 "cannot write '/dev/full': No space left on device",
                 marks=NEEDS_DEV_FULL),
    pytest.param(("bench", "ok.tmc", "--entry", "f", "--arg", "int",
                  "--sizes", "1", "--csv", "/dev/full"),
                 "cannot write '/dev/full': No space left on device",
                 marks=NEEDS_DEV_FULL),
], ids=["missing", "not_utf8", "out_dir", "csv_dir", "out_full", "csv_full"])
def test_io_failure_is_a_one_line_usage_error(argv, message, tmp_path,
                                              monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ok.tmc").write_text("(program (letrec (fun f (x) x)) (main 0))")
    (tmp_path / "latin1.tmc").write_bytes(b"(program (main \xe9))")
    code, out, err = run_main(capsys, *argv)
    assert (code, out, err) == (1, "", f"usage error: {message}\n")


def cli_process(*argv, **kw):
    """The CLI in a child process, with stdout buffered as by default, so
    that output can be left over for the flush at exit."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return subprocess.Popen([sys.executable, "-m", "tmc_forge.cli", *argv],
                            stderr=subprocess.PIPE, text=True, env=env, **kw)


@NEEDS_DEV_FULL
@pytest.mark.parametrize("argv", [
    ("parse", corpus("map.tmc")),
    ("transform", corpus("map.tmc")),
    ("run", corpus("map.tmc"), "--entry", "map", "--arg", "fun:add1",
     "--arg", "list:3"),
    ("bench", corpus("map_variants.tmc"), "--entry", "map", "--arg",
     "fun:add1", "--arg", "list:N", "--sizes", "1"),
], ids=["parse", "transform", "run", "bench"])
def test_full_stdout_is_a_one_line_usage_error(argv):
    with open("/dev/full", "w") as full:
        proc = cli_process(*argv, stdout=full)
        _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (
        1, "usage error: cannot write stdout: No space left on device\n")


def test_stdout_closed_early_is_a_one_line_usage_error():
    # The value's text (about 200 KB) is larger than a pipe holds, so the
    # write is still going on when the reader goes away.
    proc = cli_process("run", corpus("map.tmc"), "--entry", "map", "--arg",
                       "fun:add1", "--arg", "list:20000",
                       stdout=subprocess.PIPE)
    assert proc.stdout.read(10) == "(Cons 50 ("
    proc.stdout.close()
    assert proc.stderr.read() == "usage error: cannot write stdout: Broken pipe\n"
    assert proc.wait(timeout=60) == 1


DOUBLE = ("(program (letrec (fun d (x n) (match n (case 0 x) (case _ (call d"
          " (call add x x) (call sub n 1))))))"
          " (letrec (fun w (n) (setref (constr Box (hole)) (call d 1 n) 1)))"
          " (letrec (fun p (n) (call print (call d 1 n)))) (main (int 0)))")
TOO_LARGE = ("ERROR IntTooLarge IntTooLarge: an integer of 15001 bits has too "
             "many digits to print\n")


@pytest.mark.parametrize("argv,code,err", [
    (("parse", "big.tmc"), 1, "ERROR ParseError big.tmc:1:20: integer "
     "literal of 5000 characters is too long\n"),
    (("run", "big_pattern.tmc", "--entry", "main"), 1, "ERROR ParseError "
     "big_pattern.tmc:1:30: integer literal of 5000 characters is too long\n"),
    (("run", "double.tmc", "--entry", "d", "--arg", "1", "--arg", "15000"),
     2, TOO_LARGE),
    (("diff", "double.tmc", "--entry", "d", "--arg", "1", "--arg", "15000",
      "--trials", "1"), 2, TOO_LARGE),
    (("run", "double.tmc", "--entry", "w", "--arg", "15000"), 2, TOO_LARGE),
    (("run", "double.tmc", "--entry", "p", "--arg", "15000"), 2, TOO_LARGE),
], ids=["literal", "pattern", "render", "diff", "index", "print"])
def test_integer_past_the_digit_limit_is_a_one_line_error(
        argv, code, err, tmp_path, monkeypatch, capsys):
    # Python refuses to convert such an integer to or from text; the limit
    # stays in place, as it guards against quadratic-time conversion.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "big.tmc").write_text(f"(program (main (int {'1' * 5000})))")
    (tmp_path / "big_pattern.tmc").write_text(
        f"(program (main (match 1 (case {'1' * 5000} 0) (case _ 1))))")
    (tmp_path / "double.tmc").write_text(DOUBLE)
    assert run_main(capsys, *argv) == (code, "", err)


@pytest.mark.parametrize("cmd", [
    ("run", "map.tmc"), ("diff", "map.tmc"),
    ("bench", "map_variants.tmc", "--sizes", "3")])
@pytest.mark.parametrize("flag", ["--max-stack", "--max-steps"])
def test_negative_limit_is_a_usage_error_and_zero_is_not(cmd, flag, capsys):
    name, file, *rest = cmd
    argv = (name, corpus(file), "--entry", "map", "--arg", "fun:add1",
            "--arg", "list:3", *rest, flag)
    assert run_main(capsys, *argv, "-5") == (
        1, "", f"usage error: {flag} must be >= 0, got -5\n")
    # A limit of 0 stops the run at once, as a runtime error.
    code, _, err = run_main(capsys, *argv, "0")
    assert code != 1 and "usage error" not in err


def test_byte_order_mark_is_skipped(tmp_path, capsys):
    text = (CORPUS / "map.tmc").read_text(encoding="utf-8")
    plain, bom = tmp_path / "plain.tmc", tmp_path / "bom.tmc"
    plain.write_text(text, encoding="utf-8")
    bom.write_text(text, encoding="utf-8-sig")
    assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
    for cmd in ("parse", "transform"):
        want = run_main(capsys, cmd, str(plain))
        assert want[0] == 0
        assert run_main(capsys, cmd, str(bom)) == want


def test_non_ascii_digit_is_a_symbol(tmp_path, capsys):
    src = tmp_path / "sup.tmc"
    src.write_text("(program (main \u00b2))", encoding="utf-8")
    for cmd in ("parse", "transform"):
        code, out, err = run_main(capsys, cmd, str(src))
        assert (code, out, err) == (0, "(program\n  (main \u00b2))\n", "")
    code, out, err = run_main(capsys, "run", str(src), "--entry", "main")
    assert code == 2 and out == ""
    assert err == "ERROR UnboundName UnboundName: \u00b2\n"


def test_string_quote_is_a_parse_error_not_a_hang(tmp_path):
    src = tmp_path / "quote.tmc"
    src.write_text('(program\n  (main "x"))')
    proc = subprocess.run(
        [sys.executable, "-m", "tmc_forge.cli", "parse", str(src)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == (f"ERROR ParseError {src}:2:8: unexpected "
                           "'\"': there are no string literals\n")


def test_console_script_help():
    proc = subprocess.run(
        [sys.executable, "-m", "tmc_forge.cli", "--help"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    for cmd in ("parse", "transform", "run", "diff", "bench"):
        assert cmd in proc.stdout

def test_broken_fixture_via_cli(capsys):
    # Running the sabotaged file's direct entry is fine (it only defines a
    # DPS function); the acceptance suite drives it through eval_dps.
    code, _, err = run_main(capsys, "run", str(FIXTURES / "broken_hole_map.tmc"),
                            "--entry", "main")
    assert code == 0


class TestExitPaths:
    """Deep runs end in success or a one-line diagnostic, on the caller's
    thread at the interpreter's default recursion limit."""

    @pytest.fixture(autouse=True)
    def default_host_stack(self):
        assert threading.current_thread() is threading.main_thread()
        assert sys.getrecursionlimit() <= 1000

    def test_untransformed_map_20000_runs(self, capsys):
        code, out, err = run_main(capsys, "run", corpus("map.tmc"),
                                  "--entry", "map", "--arg", "fun:add1",
                                  "--arg", "list:20000", "--seed", "4",
                                  "--metrics")
        assert code == 0 and err == ""
        rng = Lcg(4)
        gen_value("fun:add1", rng)
        xs, v = [], gen_value("list:20000", rng)
        while v.fields:
            xs.append(v.fields[0])
            v = v.fields[1]
        lines = out.splitlines()
        assert lines[0] == ("".join(f"(Cons {x + 1} " for x in xs) + "Nil"
                            + ")" * len(xs))
        assert "max_stack_depth=20001" in lines

    def test_untransformed_map_100000_hits_the_stack_limit(self, capsys):
        code, out, err = run_main(capsys, "run", corpus("map.tmc"),
                                  "--entry", "map", "--arg", "fun:add1",
                                  "--arg", "list:100000", "--max-stack", "50000")
        assert code == 2 and out == ""
        assert err.splitlines() == ["ERROR StackLimit StackLimit: depth 50001"]

    def test_transformed_map_100000_runs_in_constant_stack(self, capsys):
        code, out, err = run_main(capsys, "run", corpus("map.tmc"),
                                  "--entry", "map", "--arg", "fun:add1",
                                  "--arg", "list:100000", "--transform",
                                  "--metrics")
        assert code == 0 and err == ""
        assert "max_stack_depth=2" in out.splitlines()

    def test_diff_on_list_2000(self, capsys):
        code, out, err = run_main(capsys, "diff", corpus("map.tmc"),
                                  "--entry", "map", "--arg", "fun:add1",
                                  "--arg", "list:2000", "--trials", "1")
        assert code == 0 and err == ""
        assert out == "entry=map trials=1 failures=0 trace_divergences=0\n"

    def test_cyclic_result_is_a_runtime_error(self, tmp_path, capsys):
        src = tmp_path / "cycle.tmc"
        src.write_text("(program (main (let p (constr Pair (hole) 1)"
                       " (seq (setref p 1 p) p))))")
        code, out, err = run_main(capsys, "run", str(src), "--entry", "main")
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("ERROR CyclicValue")

    def test_marked_chain_of_depth_900_transforms(self, tmp_path, capsys):
        src = tmp_path / "chain.tmc"
        src.write_text(marked_chain(900))
        code, out, err = run_main(capsys, "transform", str(src))
        assert code == 0 and err == ""
        assert "(fun f_dps " in out
        # The output is canonical: parsing and printing it gives it back.
        text = out.rstrip("\n")
        assert print_program(parse_program(text)) == text

    @pytest.mark.parametrize("command", ["parse", "transform"])
    def test_marked_chain_of_depth_2000_round_trips(self, tmp_path, capsys,
                                                    command):
        src, dest = tmp_path / "deep.tmc", tmp_path / "out.tmc"
        src.write_text(marked_chain(2000))
        code, out, err = run_main(capsys, command, str(src), "--out", str(dest))
        assert code == 0 and out == "" and err == ""
        text = dest.read_text()
        assert text.endswith(")\n")
        text = text[:-1]
        # The output is canonical: parsing and printing it gives it back.
        assert print_program(parse_program(text)) == text
        if command == "transform":
            assert "(fun f_dps " in text


@pytest.mark.parametrize("argv", [
    ("run", "--entry", "tree_map", "--arg", "fun:add1", "--arg", "tree:3",
     "--transform"),
    ("diff", "--entry", "tree_map", "--arg", "fun:add1", "--arg", "tree:3"),
    ("bench", "--entry", "tree_map", "--arg", "fun:add1", "--arg", "tree:N",
     "--sizes", "1,2"),
])
def test_rejected_rewrite_is_one_line_and_exit_1(argv, capsys, monkeypatch):
    # Every command that runs the transformed program refuses it as
    # `transform` does.
    monkeypatch.chdir(CORPUS.parent)
    monkeypatch.setenv("TMC_FORGE_COLOR", "0")
    cmd, *rest = argv
    code, out, err = run_main(capsys, cmd, "corpus/tree_map_ambiguous.tmc",
                              *rest)
    assert (code, out) == (1, "")
    assert err == ("ERROR AmbiguousTmc corpus/tree_map_ambiguous.tmc:9:10 2 "
                   "constructor arguments contain TMC candidates; add a "
                   "(@ tailcall) annotation to pick one\n")


# The tokens of the surface syntax; a swap leaves those in FIXED alone.
TOKEN = re.compile(r"[()]|[^\s()]+")
FIXED = {"(", ")", "program", "letrec", "fun", "main", "int", "var", "call",
         "let", "seq", "constr", "match", "case", "setref", "hole", "if",
         "tuple", "@", "tail_mod_cons", "tailcall", "_"}
ARGS = [[], ["3"], ["list:3"], ["tree:2"], ["fun:add1", "list:3"],
        ["fun:add1", "tree:2"]]


@st.composite
def mutants(draw):
    """A generated program or a corpus file with one to three tokens
    deleted, inserted or replaced.  Most edits swap an integer for another
    of the program, or a name for another, so that most mutants parse."""
    text = draw(st.one_of(programs().map(lambda case: case[1]),
                          st.sampled_from(CORPUS_TEXTS)))
    tokens = TOKEN.findall(re.sub(";.*", "", text))  # comments dropped
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(["swap"] * 12 + ["delete", "insert",
                                                    "replace"]))
        if edit == "swap":
            i = draw(st.sampled_from([j for j, t in enumerate(tokens)
                                      if t not in FIXED]))
            tokens[i] = draw(st.sampled_from(
                [t for t in tokens
                 if t not in FIXED and is_int(t) == is_int(tokens[i])]))
            continue
        i = draw(st.integers(0, len(tokens) - 1))
        if edit == "delete":
            del tokens[i]
        elif edit == "insert":
            tokens.insert(i, draw(st.sampled_from(tokens)))
        else:
            tokens[i] = draw(st.sampled_from(tokens))
    return " ".join(tokens)


CORPUS_TEXTS = [p.read_text() for p in sorted(CORPUS.glob("*.tmc"))]


@pytest.fixture(scope="module")
def mutant_file(tmp_path_factory):
    return tmp_path_factory.mktemp("mutants") / "mutant.tmc"


@settings(max_examples=200, derandomize=True, deadline=None)
@given(text=mutants(), data=st.data())
def test_main_never_raises(mutant_file, text, data):
    """Whatever the program, each command ends in exit 0, 1 or 2 and
    writes its diagnostics one line each."""
    mutant_file.write_text(text)
    entry = data.draw(st.sampled_from(
        ["main"] + re.findall(r"\( fun (?:\( @ [^)]*\) )?([^\s()]+)", text)))
    limits = ["--entry", entry, "--max-steps", "2000"]
    for spec in data.draw(st.sampled_from(ARGS)):
        limits += ["--arg", spec]
    for argv in (["parse"], ["transform"], ["run", *limits],
                 ["diff", *limits, "--trials", "2"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([argv[0], str(mutant_file), *argv[1:]])
        assert code in (0, 1, 2), (argv, text)
        assert "Traceback" not in err.getvalue(), (argv, text)
        assert all(line.startswith(("ERROR ", "WARNING ", "usage error: "))
                   for line in err.getvalue().splitlines()), (argv, text)
