"""The static pipeline and the cyclic collector.

Parse, analysis, rewrite and print build acyclic trees, so reference
counting frees them and the CLI runs those phases with automatic collection
off.  These tests keep that window bounded: a reference cycle left behind by
a static phase fails here, instead of piling up until memory runs out.
Evaluation keeps the collector, because `setref` can tie cycles."""

import gc

import pytest

from tmc_forge import cli, runtime
from tmc_forge.analysis import resolve_scope
from tmc_forge.surface import parse_program, print_program
from tmc_forge.transform import TransformError, transform_program

from conftest import CORPUS, FIXTURES, marked_chain, nested_chain

SOURCES = {
    **{path.name: path.read_text() for path in sorted(CORPUS.glob("*.tmc"))},
    "broken_hole_map.tmc": (FIXTURES / "broken_hole_map.tmc").read_text(),
    "marked_chain(300)": marked_chain(300),
    "nested_chain(40)": nested_chain(40),
}


def garbage(fn) -> int:
    """The objects that fn leaves to the collector: unreachable ones that
    reference counting could not free."""

    gc.collect()
    gc.disable()
    try:
        fn()
        return gc.collect()
    finally:
        gc.enable()


def transformed(p):
    try:
        return transform_program(p)
    except TransformError:  # tree_map_ambiguous.tmc
        return None


@pytest.mark.parametrize("name", SOURCES)
def test_static_phases_leave_no_cyclic_garbage(name):
    text = SOURCES[name]
    p = parse_program(text)
    out = transformed(p)
    assert garbage(lambda: parse_program(text)) == 0
    assert garbage(lambda: resolve_scope(p)) == 0
    assert garbage(lambda: transformed(p)) == 0
    assert garbage(lambda: print_program(p)) == 0
    if out is not None:
        assert garbage(lambda: print_program(out)) == 0


@pytest.mark.parametrize("command", ["parse", "transform"])
def test_cli_static_commands_leave_no_cyclic_garbage(command, tmp_path,
                                                     capsys):
    # The argument parser has cycles of its own; it is built once per import.
    assert cli.build_parser() is cli.build_parser()
    for name in ("map_variants.tmc", "tree_map_ambiguous.tmc"):
        argv = [command, str(CORPUS / name), "--out", str(tmp_path / "o")]
        assert garbage(lambda: cli.main(argv)) == 0
    capsys.readouterr()


def spy(monkeypatch, owner, attr, seen):
    """Record gc.isenabled() in seen[attr] on each call of owner.attr."""

    orig = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        seen.setdefault(attr, []).append(gc.isenabled())
        return orig(*args, **kwargs)

    monkeypatch.setattr(owner, attr, wrapper)


def test_the_window_covers_the_static_phases_of_transform(monkeypatch,
                                                          capsys):
    seen = {}
    for attr in ("parse_program", "transform_program", "print_program"):
        spy(monkeypatch, cli, attr, seen)
    assert cli.main(["transform", str(CORPUS / "map.tmc")]) == 0
    assert seen == {"parse_program": [False], "transform_program": [False],
                    "print_program": [False]}
    assert gc.isenabled()
    capsys.readouterr()


ENTRY = ["--entry", "map", "--arg", "fun:add1", "--arg", "list:5"]


@pytest.mark.parametrize("argv", [
    ["run", str(CORPUS / "map.tmc"), *ENTRY, "--transform"],
    ["diff", str(CORPUS / "map.tmc"), *ENTRY, "--trials", "2"],
    ["bench", str(CORPUS / "map.tmc"), "--entry", "map", "--arg", "fun:add1",
     "--arg", "list:N", "--sizes", "3,4"],
])
def test_evaluation_runs_with_the_collector(argv, monkeypatch, capsys):
    seen = {}
    spy(monkeypatch, cli, "parse_program", seen)
    spy(monkeypatch, runtime.Interp, "call", seen)
    assert cli.main(argv) == 0
    assert seen["parse_program"] == [False]
    assert seen["call"] and all(seen["call"])
    capsys.readouterr()


@pytest.mark.parametrize("argv,code", [
    (["transform", str(CORPUS / "map.tmc")], 0),
    (["parse", str(CORPUS / "map.tmc")], 0),
    (["parse", "<quote>"], 1),  # a ParseError
    (["transform", str(CORPUS / "tree_map_ambiguous.tmc")], 1),
    (["transform", str(CORPUS / "missing.tmc")], 1),  # a usage error
    (["run", str(CORPUS / "map.tmc"), *ENTRY, "--max-stack", "2"], 2),
])
@pytest.mark.parametrize("enabled", [True, False])
def test_main_restores_the_callers_setting(argv, code, enabled, tmp_path,
                                           capsys):
    quote = tmp_path / "quote.tmc"
    quote.write_text('(program (main "x"))')
    argv = [str(quote) if a == "<quote>" else a for a in argv]
    if not enabled:
        gc.disable()
    try:
        assert cli.main(argv) == code
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
    capsys.readouterr()
