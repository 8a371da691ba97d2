"""Command-line behavior: exit codes, goldens, CSV output, determinism."""

import csv
import subprocess
import sys
import threading

import pytest

from tmc_forge.cli import main
from tmc_forge.gen import Lcg, gen_value

from conftest import CORPUS, FIXTURES, GOLDENS


def run_main(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err

def corpus(name):
    return str(CORPUS / name)

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

class TestBench:
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
])
def test_bad_input_spec_is_a_one_line_usage_error(argv, capsys):
    cmd, name, *rest = argv
    code, out, err = run_main(capsys, cmd, corpus(name), *rest)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("usage error: ")


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
        xs, lit = [], gen_value("list:20000", rng)
        while lit.args:
            xs.append(lit.args[0].n)
            lit = lit.args[1]
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
