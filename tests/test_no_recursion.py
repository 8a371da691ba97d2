"""No function under src/tmc_forge reaches itself through host calls.

Walkers hand their sub-walks to `ir.drive` as `r = yield walk(child)`: the
call in the operand of `yield` only creates a generator, which `ir.drive`
runs on its explicit stack.  Every other call by bare name or through
`self.` is an edge of the module's call graph, and the graph must have no
cycle, so that no input depth can exhaust the host stack.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "tmc_forge"


def call_graph(tree: ast.Module) -> dict[str, set[str]]:
    """Qualified function name -> the qualified names it calls.  A bare
    name resolves to the innermost enclosing definition of that name, then
    to a module-level function; `self.m` to the method m of the class."""

    graph: dict[str, set[str]] = {}

    def visit_def(fn, qual: str, scopes: list[dict[str, str]], cls: str):
        graph[qual] = set()
        local = {d.name: f"{qual}.{d.name}" for d in _own_nodes(fn)
                 if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef))}
        scopes = [local] + scopes
        exempt = {id(n.value) for n in ast.walk(fn)
                  if isinstance(n, ast.Yield) and isinstance(n.value, ast.Call)}
        for node in _own_nodes(fn):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit_def(node, local[node.name], scopes, cls)
            elif isinstance(node, ast.Call) and id(node) not in exempt:
                f = node.func
                if isinstance(f, ast.Name):
                    target = next((s[f.id] for s in scopes if f.id in s), None)
                elif (isinstance(f, ast.Attribute) and cls
                      and isinstance(f.value, ast.Name) and f.value.id == "self"):
                    target = f"{cls}.{f.attr}"
                else:
                    target = None
                if target is not None:
                    graph[qual].add(target)

    top = {n.name: n.name for n in tree.body
           if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))}
    for n in tree.body:
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
            visit_def(n, n.name, [top], "")
        elif isinstance(n, ast.ClassDef):
            for m in n.body:
                if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    visit_def(m, f"{n.name}.{m.name}", [top], n.name)
    return graph


def _own_nodes(fn):
    """The nodes of fn's body, nested definitions included but not their
    bodies, which belong to those definitions."""

    stack = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


def find_cycle(graph: dict[str, set[str]]):
    """Some cycle as a list of names, first name repeated last; or None."""

    state: dict[str, int] = {}  # 1 on the current path, 2 done
    for root in graph:
        if root in state:
            continue
        path, stack = [root], [iter(sorted(graph[root]))]
        state[root] = 1
        while stack:
            nxt = next(stack[-1], None)
            if nxt is None:
                state[path.pop()] = 2
                stack.pop()
            elif state.get(nxt) == 1:
                return path[path.index(nxt):] + [nxt]
            elif nxt not in state and nxt in graph:
                state[nxt] = 1
                path.append(nxt)
                stack.append(iter(sorted(graph[nxt])))
    return None


MODULES = sorted(p.name for p in SRC.glob("*.py"))


@pytest.mark.parametrize("module", MODULES)
def test_module_has_no_recursive_calls(module):
    graph = call_graph(ast.parse((SRC / module).read_text()))
    cycle = find_cycle(graph)
    assert cycle is None, f"{module}: recursive calls " + " -> ".join(cycle)


def test_the_check_sees_direct_mutual_and_method_recursion():
    source = '''
def f(x):
    return g(x)

def g(x):
    return f(x)

def walk(x):
    def go(y):
        return go(y)
    return go(x)

class C:
    def m(self, x):
        return [self.n(c) for c in x]

    def n(self, x):
        return self.m(x)

def driven(x):
    r = yield driven(x)
    return r

class D:
    def m(self, x):
        r = yield self.m(x)
        return r
'''
    graph = call_graph(ast.parse(source))
    assert find_cycle({k: graph[k] for k in ("f", "g")}) == ["f", "g", "f"]
    assert find_cycle({"walk.go": graph["walk.go"]}) == ["walk.go", "walk.go"]
    assert find_cycle({k: graph[k] for k in ("C.m", "C.n")}) == ["C.m", "C.n", "C.m"]
    assert graph["driven"] == set() and graph["D.m"] == set()
    assert graph["walk"] == {"walk.go"}
