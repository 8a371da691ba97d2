import dataclasses
import pathlib

import pytest

from tmc_forge.ir import FunDef, Let, Letrec, Program, children
from tmc_forge.surface import is_int, parse_program

ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"
GOLDENS = pathlib.Path(__file__).resolve().parent / "goldens"


def load(name: str):
    """Parse a corpus program by file name."""
    return parse_program((CORPUS / name).read_text())


def same_tree(a, b) -> bool:
    """Whether a and b are the same IR tree (or lists, tuples or values of
    them), spans aside.  IR nodes compare by identity; this compares their
    fields on an explicit stack, so depth costs no host recursion."""

    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if type(x) is not type(y):
            return False
        if isinstance(x, (list, tuple)):
            if len(x) != len(y):
                return False
            stack.extend(zip(x, y))
        elif dataclasses.is_dataclass(x):
            stack.extend((getattr(x, f.name), getattr(y, f.name))
                         for f in dataclasses.fields(x) if f.compare)
        elif x != y:
            return False
    return True


def binds_integer_name(tree) -> bool:
    """Whether a let binder or a parameter in tree (a Program or an
    expression) looks like an integer: the reader refuses such a name."""

    stack = [tree]
    while stack:
        x = stack.pop()
        if isinstance(x, Program):
            stack += [x.main, *(f for g in x.groups for f in g)]
        elif isinstance(x, FunDef):
            if any(map(is_int, x.params)):
                return True
            stack.append(x.body)
        elif isinstance(x, Let) and is_int(x.binder):
            return True
        else:
            stack += [c for c, _, _ in children(x)]
            if isinstance(x, Letrec):
                stack += x.group
    return False


def marked_chain(depth: int) -> str:
    """A program whose marked list map nests `depth` let/seq/match layers
    (a third of each, interleaved) around the recursive call in its Cons
    case; the call sits at the bottom, in TMC position."""

    var, opens, closes = "x", [], []
    for i in range(depth):
        if i % 3 == 0:
            opens.append(f"(let v{i} (call add {var} {i % 10}) ")
            closes.append(")")
            var = f"v{i}"
        elif i % 3 == 1:
            opens.append(f"(seq (call add1 {var}) ")
            closes.append(")")
        else:
            opens.append(f"(match {var} (case {i} (constr Nil)) (case v{i} ")
            closes.append("))")
            var = f"v{i}"
    body = ("".join(opens) + f"(constr Cons {var} (call f rest))"
            + "".join(reversed(closes)))
    return ("(program (letrec (fun (@ tail_mod_cons) f (xs) (match xs "
            f"(case Nil (constr Nil)) (case (Cons x rest) {body}))))"
            " (main (int 0)))")


def nested_chain(depth: int) -> str:
    """g0 defines and calls g1, which defines and calls g2, and so on down
    to g<depth>, a marked list map: each function's body holds every
    function below it."""

    opens = "".join(f"(fun g{k} (xs) (letrec " for k in range(depth))
    closes = "".join(f" (call g{k} xs)))" for k in range(depth, 0, -1))
    return ("(program (letrec " + opens + f"(fun (@ tail_mod_cons) g{depth} "
            "(xs) (match xs (case Nil (constr Nil)) (case (Cons x rest) "
            f"(constr Cons x (call g{depth} rest)))))" + closes
            + ") (main (int 0)))")


@pytest.fixture
def corpus_dir():
    return CORPUS
