"""Deterministic pseudo-random input values.

A fixed 64-bit linear congruential generator (Knuth's MMIX multiplier)
keeps generated inputs byte-stable across platforms and Python versions;
the host `random` module is deliberately not used.
"""

from __future__ import annotations

from .ir import drive
from .runtime import Block, Value
from .surface import is_int

_MASK = (1 << 64) - 1
_MUL = 6364136223846793005
_INC = 1442695040888963407


class Lcg:
    def __init__(self, seed: int):
        self.state = (seed ^ 0x9E3779B97F4A7C15) & _MASK
        self.next()

    def next(self) -> int:
        self.state = (self.state * _MUL + _INC) & _MASK
        return self.state

    def below(self, n: int) -> int:
        return (self.next() >> 33) % n


def mix_seed(seed: int, trial: int) -> int:
    return (seed * 1_000_003 + trial) & _MASK


class BadSpec(ValueError):
    pass


# Generators whose spec ends in a size: `<name>:<n>`, or `listof:<n>x<m>`.
SIZED = ("list", "sortedlist", "tree", "cmmlike", "listof")
# A tree's block count grows exponentially with its depth: about 5e5 at 30.
MAX_TREE_DEPTH = 30


def at_size(spec: str, size: int) -> str:
    """`spec` with each size field that is exactly `N` replaced by `size`:
    `list:N` and `listof:Nx5` take the size, `fun:addN` stays as it is."""

    name, sep, arg = spec.partition(":")
    if name not in SIZED:
        return spec
    return name + sep + "x".join(str(size) if f == "N" else f
                                 for f in arg.split("x"))


def _spec_int(text: str) -> int:
    try:  # Python's digit limit guards against quadratic-time conversion
        return int(text)
    except ValueError:
        raise BadSpec(f"integer of {len(text)} characters is too long") from None


def gen_value(spec: str, rng: Lcg) -> Value:
    """Build an input value from a generator spec.

    Specs: a bare integer, `int`, `list:<n>`, `sortedlist:<n>`,
    `tree:<depth>` (at most MAX_TREE_DEPTH), `cmmlike:<n>`, `fun:<name>`.
    """

    if is_int(spec):
        return _spec_int(spec)
    if spec == "int":
        return rng.below(100)
    name, _, arg = spec.partition(":")
    if name == "fun" and arg:
        return arg
    if name in SIZED:
        sizes = arg.split("x", 1) if name == "listof" else [arg]
        if not all(is_int(s) and _spec_int(s) >= 0 for s in sizes) or (
                name == "tree" and _spec_int(arg) > MAX_TREE_DEPTH):
            raise BadSpec(f"bad generator spec {spec!r}")
        n = _spec_int(sizes[0])
        inner = _spec_int(sizes[1]) if len(sizes) > 1 else None
        if name == "list":
            return list_value([rng.below(100) for _ in range(n)])
        if name == "sortedlist":
            return list_value(sorted(rng.below(100) for _ in range(n)))
        if name == "listof":
            # list of lists; input shape for flatten.  `listof:NxM` fixes
            # the inner length at M, otherwise it is short and random.
            return list_value([
                list_value([rng.below(100) for _ in range(
                    inner if inner is not None else rng.below(4))])
                for _ in range(n)])
        if name == "tree":
            return drive(_gen_tree(n, rng))
        return gen_cmmlike(n, rng)
    raise BadSpec(f"bad generator spec {spec!r}")


def list_value(items) -> Block:
    """The list of `items`, a sequence, in order."""

    out = Block("Nil", [])
    for x in reversed(items):
        out = Block("Cons", [x, out])
    return out


def _gen_tree(depth: int, rng: Lcg):  # a walker for `drive`
    if depth <= 0 or rng.below(4) == 0:
        return Block("Leaf", [rng.below(100)])
    return Block("Node", [(yield _gen_tree(depth - 1, rng)),
                          (yield _gen_tree(depth - 1, rng))])


def gen_cmmlike(n: int, rng: Lcg) -> Block:
    """Chain of n Clet/Csequence/Cifthenelse nodes nested in the tail
    (body / second / else) direction, ending in a constant leaf."""

    node = Block("Cconst", [rng.below(100)])
    for _ in range(n):
        k = rng.below(3)
        leaf = Block("Cconst", [rng.below(100)])
        if k == 0:
            node = Block("Clet", [rng.below(100), leaf, node])
        elif k == 1:
            node = Block("Csequence", [leaf, node])
        else:
            node = Block("Cifthenelse", [leaf, Block("Cconst", [1]), node])
    return node


def gen_cmm_then_chain(n: int, rng: Lcg) -> Block:
    """Cifthenelse nodes nested in the *then* direction; map_tail's stack
    grows linearly on this shape (the non-guarantee case)."""

    node = Block("Cconst", [rng.below(100)])
    for _ in range(n):
        node = Block("Cifthenelse", [Block("Cconst", [0]), node,
                                     Block("Cconst", [rng.below(100)])])
    return node
