"""The benchmark's `--trace 1` mode patches names in `tmc_forge` from
outside (benchmark/tracing.py).  A traced command must print what the
untraced one prints, and the layers it passes through must show up as
spans, so that dropping or renaming a patched name fails here."""

import importlib.util

import pytest

from tmc_forge import cli, runtime, transform

from conftest import CORPUS, ROOT

_spec = importlib.util.spec_from_file_location(
    "tracing", ROOT / "benchmark" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

MAP = str(CORPUS / "map.tmc")
EVAL = {"runtime.eval", "runtime.hole_check", "runtime.render"}
# Each command, and spans its traced run must record.
COMMANDS = {
    "run": (["run", MAP, "--entry", "map", "--arg", "fun:add1",
             "--arg", "list:50", "--transform", "--metrics"], EVAL),
    "diff": (["diff", str(CORPUS / "noisy_constr_args.tmc"), "--entry",
              "noisy", "--arg", "list:6", "--trials", "3"], EVAL),
    "transform": (["transform", MAP], {
        "surface.parse", "analysis.resolve_scope",
        "transform.transform_program", "surface.print"}),
}


def run_main(capsys, argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_traced_command_prints_the_same_and_records_the_layers(capsys, name):
    argv, spans = COMMANDS[name]
    plain = run_main(capsys, argv)
    rec = tracing.Recorder()
    modules = {"cli": cli, "transform": transform, "runtime": runtime}
    with tracing.patched(rec, modules):
        traced = run_main(capsys, argv)
    assert traced == plain and plain[0] == 0
    assert spans <= {s.name for s in rec.spans}
    assert cli.eval_program is runtime.eval_program  # restored afterwards
