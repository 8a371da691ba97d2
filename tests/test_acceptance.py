"""End-to-end acceptance checks.

One test per shipped guarantee; each prints a single pass line so the
whole gate is readable from `pytest -v` or plain stdout.
"""

import time

import pytest

from tmc_forge.analysis import collect_marks, resolve_scope
from tmc_forge.cli import run_diff
from tmc_forge.gen import Lcg, gen_cmm_then_chain, gen_cmmlike, gen_value
from tmc_forge.ir import Call, Let, Letrec, Match, Seq
from tmc_forge.runtime import TmcRuntimeError, eval_dps, eval_program
from tmc_forge.surface import print_program
from tmc_forge.transform import TransformError, transform_program

from conftest import FIXTURES, load
from tmc_forge.surface import parse_program


def ok(msg):
    print(f"PASS {msg}")


DIFF_PLAN = [
    ("map.tmc", "map", ["fun:add1", "list:25"]),
    ("filter.tmc", "filter", ["fun:is_small", "list:25"]),
    ("merge.tmc", "merge", ["sortedlist:12", "sortedlist:13"]),
    ("umap.tmc", "umap", ["fun:add1", "list:24"]),
    ("tree_map_annotated.tmc", "tree_map", ["fun:add1", "tree:5"]),
    ("map_tail.tmc", "map_tail", ["fun:bump", "cmmlike:25"]),
    ("flatten_nested.tmc", "flatten", ["listof:12"]),
    ("flatten_mutual.tmc", "flatten", ["listof:12"]),
]


def test_1_equivalence_100_trials_per_program_under_10s():
    t0 = time.monotonic()
    for name, entry, specs in DIFF_PLAN:
        report = run_diff(load(name), entry, specs, trials=100, seed=1)
        assert report.failures == [], name
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"equivalence suite took {elapsed:.1f}s"
    ok(f"equivalence: 8 programs x 100 trials, 0 value failures "
       f"({elapsed:.1f}s)")


def map_depth(program, n, transform, max_stack=1_000_000):
    p = load("map.tmc")
    if transform:
        p = transform_program(p)
    args = [gen_value("fun:add1", Lcg(1)), gen_value(f"list:{n}", Lcg(2))]
    _, m, _ = eval_program(p, "map", args, max_stack)
    return m.max_stack_depth


def test_2_transformed_map_constant_stack_untransformed_overflows():
    d_small = map_depth("map.tmc", 100, transform=True)
    d_large = map_depth("map.tmc", 10_000, transform=True)
    assert d_large == d_small
    d_orig = map_depth("map.tmc", 10_000, transform=False)
    assert d_orig >= 10_000
    with pytest.raises(TmcRuntimeError) as ei:
        map_depth("map.tmc", 10_000, transform=False, max_stack=5_000)
    assert ei.value.code == "StackLimit"
    ok(f"constant stack: transformed depth {d_large} at N=10000 equals "
       f"N=100; untransformed depth {d_orig} and StackLimit at 5000")


def allocs(p, entry, specs, seed=1):
    args = [gen_value(s, Lcg(seed + i)) for i, s in enumerate(specs)]
    _, m, _ = eval_program(p, entry, args)
    return m.allocations


def test_3_allocation_parity_and_accumulator_overhead():
    p = load("map_variants.tmc")
    t = transform_program(p)
    for n in (10, 100, 1000):
        plain = allocs(p, "map", ["fun:add1", f"list:{n}"])
        rewritten = allocs(t, "map", ["fun:add1", f"list:{n}"])
        assert plain == rewritten == n + 1, (n, plain, rewritten)
    acc = allocs(t, "map_acc", ["fun:add1", "list:1000"])
    assert acc >= 1.9 * 1001
    ok(f"allocation parity: N+1 blocks at N in (10,100,1000) both ways; "
       f"accumulator map allocates {acc} >= 1.9x at N=1000")


def test_4_compressed_writes_half_plus_one():
    p = load("umap.tmc")
    for n in (10, 100, 1000):
        args = [gen_value("fun:add1", Lcg(1)), gen_value(f"list:{n}", Lcg(2))]
        _, m, _ = eval_dps(transform_program(p), "umap_dps", args)
        assert m.dest_writes == n // 2 + 1, (n, m.dest_writes)
        _, m2, _ = eval_dps(transform_program(p, compress=False), "umap_dps",
                            args)
        assert m2.dest_writes == n + 1, (n, m2.dest_writes)
    ok("compression: unrolled map writes N/2+1 destinations at even N, "
       "N+1 with compression off")


def test_5_ambiguity_error_and_annotated_tail_call():
    with pytest.raises(TransformError) as ei:
        transform_program(load("tree_map_ambiguous.tmc"))
    (diag,) = ei.value.diagnostics
    assert diag.code == "AmbiguousTmc"
    assert [c.callee for c in diag.candidates] == ["tree_map", "tree_map"]

    t = transform_program(load("tree_map_annotated.tmc"))
    marks = collect_marks(resolve_scope(load("tree_map_annotated.tmc")))
    dps = {f.name: f for f in resolve_scope(t).definitions}[
        marks.dps_name["tree_map"]]

    def tail_leaves(e):
        if isinstance(e, (Let, Letrec)):
            yield from tail_leaves(e.body)
        elif isinstance(e, Seq):
            yield from tail_leaves(e.second)
        elif isinstance(e, Match):
            for _, b in e.clauses:
                yield from tail_leaves(b)
        else:
            yield e

    recursive = [l for l in tail_leaves(dps.body)
                 if isinstance(l, Call) and l.callee == dps.name]
    assert len(recursive) == 1  # the annotated right-child call, now a tail call
    ok("ambiguity: unannotated tree_map raises AmbiguousTmc with 2 candidate "
       "calls; annotated right child becomes a plain tail call in the DPS body")


def test_6_scope_nested_letrec_and_toplevel_main():
    t = transform_program(load("flatten_nested.tmc"))

    def depth(n):
        args = [gen_value(f"listof:{n}x10", Lcg(5))]
        _, m, _ = eval_program(t, "flatten", args)
        return m.max_stack_depth

    assert depth(1000) == depth(100)

    u = transform_program(load("map_toplevel_call.tmc"))
    assert isinstance(u.main, Call) and u.main.callee == "map"
    assert "map_dps" not in print_program(u).split("(main")[1]
    ok(f"scope: nested-letrec flatten constant depth {depth(100)} at "
       "1000x10 vs 100x10; toplevel main call left unrewritten")


def test_7_hole_safety_corpus_and_negative_fixture():
    for name, entry, specs in DIFF_PLAN:
        report = run_diff(load(name), entry, specs, trials=100, seed=2)
        assert report.failures == [], name  # hole errors would surface here
    with pytest.raises(TmcRuntimeError) as ei:
        eval_dps(parse_program((FIXTURES / "broken_hole_map.tmc").read_text()),
                 "map_dps",
                 [gen_value("fun:add1", Lcg(1)), gen_value("list:5", Lcg(2))])
    assert ei.value.code in ("NonHoleOverwrite", "HoleEscape")
    ok("hole safety: corpus x 100 trials with zero hole errors; sabotaged "
       f"fixture raises {ei.value.code}")


def test_8_effect_order_divergence_is_classified_not_failed():
    p = load("noisy_constr_args.tmc")
    t = transform_program(p)
    xs = gen_value("list:6", Lcg(3))
    _, m1, _ = eval_program(p, "noisy", [xs])
    _, m2, _ = eval_program(t, "noisy", [xs])
    assert sorted(m1.effect_trace) == sorted(m2.effect_trace)
    assert m1.effect_trace == list(reversed(m2.effect_trace))
    # In the rewritten version the sibling print fires before the chosen
    # argument's recursion: the chosen argument's effects come last.
    assert m2.effect_trace[-1] == m1.effect_trace[0]

    report = run_diff(p, "noisy", ["list:6"], trials=10, seed=1)
    assert report.failures == []
    assert len(report.trace_divergences) == 10
    ok("effect order: transformed trace reversed (chosen argument last), "
       "classified as trace divergence with zero value failures")


def test_9_compiler_ir_chain_constant_vs_then_chain_linear():
    t = transform_program(load("map_tail.tmc"))
    f = gen_value("fun:bump", Lcg(1))

    def depth_tailchain(n):
        _, m, _ = eval_program(t, "map_tail", [f, gen_cmmlike(n, Lcg(4))])
        return m.max_stack_depth

    def depth_thenchain(n):
        _, m, _ = eval_program(t, "map_tail", [f, gen_cmm_then_chain(n, Lcg(4))])
        return m.max_stack_depth

    assert depth_tailchain(5000) == depth_tailchain(100)
    d100, d200 = depth_thenchain(100), depth_thenchain(200)
    assert d200 - d100 >= 90  # grows linearly with then-direction nesting
    ok(f"compiler-IR chains: tail-direction depth {depth_tailchain(100)} "
       f"constant at 5000 nodes; then-direction depth {d100}->{d200} linear")
