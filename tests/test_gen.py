"""Deterministic input generation."""

import pytest

from tmc_forge.gen import (
    BadSpec,
    Lcg,
    at_size,
    gen_cmm_then_chain,
    gen_cmmlike,
    gen_value,
    mix_seed,
)
from tmc_forge.ir import Int, Program
from tmc_forge.runtime import Block, Interp

EMPTY = Program([], Int(0))


def test_same_seed_same_stream():
    a = [Lcg(7).below(1000) for _ in range(1)]
    xs = Lcg(7)
    ys = Lcg(7)
    assert [xs.next() for _ in range(20)] == [ys.next() for _ in range(20)]


def test_different_seeds_diverge():
    xs = Lcg(1)
    ys = Lcg(2)
    assert [xs.next() for _ in range(4)] != [ys.next() for _ in range(4)]


def test_mix_seed_is_injective_over_small_trials():
    seen = {mix_seed(s, t) for s in range(10) for t in range(100)}
    assert len(seen) == 1000


def test_pinned_stream():
    # Frozen expectation: the generator must stay byte-stable because
    # recorded seeds in goldens and reports refer to it.
    assert [Lcg(1).below(100), Lcg(2).below(100), Lcg(42).below(100)] \
        == [49, 88, 80]


def items(v: Block) -> list:
    """A generated list's elements, each inner list as a Python list."""

    out = []
    while v.tag == "Cons":
        x, v = v.fields
        out.append(items(x) if x.__class__ is Block else x)
    return out


@pytest.mark.parametrize("spec", ["list:10", "sortedlist:10"])
def test_list_specs_draw_as_repeated_below(spec):
    rng, got = Lcg(9), Lcg(9)
    want = [rng.below(100) for _ in range(10)]
    if spec.startswith("sorted"):
        want.sort()
    assert items(gen_value(spec, got)) == want and got.state == rng.state


@pytest.mark.parametrize("spec,inner", [("listof:6", None), ("listof:6x3", 3)])
def test_listof_draws_each_length_before_its_list(spec, inner):
    rng, got = Lcg(9), Lcg(9)
    want = [[rng.below(100) for _ in range(
        inner if inner is not None else rng.below(4))] for _ in range(6)]
    assert items(gen_value(spec, got)) == want and got.state == rng.state


class TestSpecs:
    def test_literal_int(self):
        assert gen_value("17", Lcg(1)) == 17
        assert gen_value("-3", Lcg(1)) == -3

    def test_random_int_range(self):
        v = gen_value("int", Lcg(5))
        assert type(v) is int and 0 <= v < 100

    def test_list_length(self):
        v = gen_value("list:4", Lcg(1))
        n = 0
        while v.tag == "Cons":
            n += 1
            v = v.fields[1]
        assert (n, v.tag) == (4, "Nil")

    def test_sortedlist_is_sorted(self):
        v = gen_value("sortedlist:10", Lcg(3))
        prev = None
        while v.tag == "Cons":
            x = v.fields[0]
            assert prev is None or prev <= x
            prev = x
            v = v.fields[1]

    def test_listof_is_list_of_lists(self):
        v = gen_value("listof:3", Lcg(1))
        while v.tag == "Cons":
            assert v.fields[0].tag in ("Cons", "Nil")
            v = v.fields[1]

    def test_tree_depth_bounded(self):
        def depth(t):
            if t.tag == "Leaf":
                return 0
            return 1 + max(depth(t.fields[0]), depth(t.fields[1]))
        assert depth(gen_value("tree:5", Lcg(1))) <= 5

    def test_fun(self):
        assert gen_value("fun:add1", Lcg(1)) == "add1"

    def test_bad_specs(self):
        # A tree's block count grows exponentially with its depth.
        for s in ("list:", "list:x", "list:-1", "frob:3", "frob", "",
                  "tree:31"):
            with pytest.raises(BadSpec):
                gen_value(s, Lcg(1))

    def test_integer_fields_are_ascii_digits(self):
        # The same integers as the reader's: an optional '-' and ASCII
        # digits, so these are usage errors, not a ValueError from `int`.
        for s in ("\u00b2", "--5", "+5", "5_0", "list:\u0663", "list: 3",
                  "listof:3x\u00b2", "tree:+2"):
            with pytest.raises(BadSpec):
                gen_value(s, Lcg(1))
        assert gen_value("-5", Lcg(1)) == -5

    def test_determinism(self):
        a, b = gen_value("tree:6", Lcg(9)), gen_value("tree:6", Lcg(9))
        assert a is not b and Interp(EMPTY).render(a) == Interp(EMPTY).render(b)

    @pytest.mark.parametrize("spec, want", [
        ("list:N", "list:12"), ("tree:N", "tree:12"),
        ("listof:Nx5", "listof:12x5"), ("listof:NxN", "listof:12x12"),
        ("list:3", "list:3"), ("fun:addN", "fun:addN"), ("N", "N"),
    ])
    def test_at_size_replaces_whole_size_fields_only(self, spec, want):
        assert at_size(spec, 12) == want


def chain_len(t: Block) -> int:
    n = 0
    while t.tag != "Cconst":
        t = t.fields[-1] if t.tag != "Cifthenelse" else t.fields[2]
        n += 1
    return n


def test_cmmlike_chain_length_and_tags():
    t = gen_cmmlike(50, Lcg(1))
    assert chain_len(t) == 50
    tags = set()
    cur = t
    while cur.tag != "Cconst":
        tags.add(cur.tag)
        cur = cur.fields[2] if cur.tag in ("Clet", "Cifthenelse") else cur.fields[1]
    assert tags <= {"Clet", "Csequence", "Cifthenelse"}


def test_then_chain_nests_in_the_then_direction():
    t = gen_cmm_then_chain(10, Lcg(1))
    n = 0
    while t.tag == "Cifthenelse":
        t = t.fields[1]
        n += 1
    assert n == 10
