"""No function in ``hrd`` calls itself by name, and the layers import only
what their production routes need.

Recursion on the size of an input fails at Python's recursion limit (1000
frames by default), so the library walks inputs with explicit stacks.  The
exhaustive enumerations and composition sums that recurse on a small bound
live in ``tests/oracles.py``.
"""

import ast
from pathlib import Path

import hrd

LIBRARY = Path(hrd.__file__).parent


def self_recursive(scope: ast.AST, prefix: str) -> set[str]:
    """Qualified names of the functions in ``scope`` whose bodies call them by name."""
    found = set()
    for node in ast.iter_child_nodes(scope):
        name = prefix
        if isinstance(node, ast.ClassDef):
            name = f"{prefix}.{node.name}"
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{prefix}.{node.name}"
            if any(
                isinstance(c, ast.Call) and isinstance(c.func, ast.Name) and c.func.id == node.name
                for c in ast.walk(node)
            ):
                found.add(name)
        found |= self_recursive(node, name)
    return found


def sibling_imports(module: str) -> set[str]:
    """The sibling modules that ``hrd.<module>`` imports, by ``from .x import``
    or ``from . import x``."""
    found = set()
    for node in ast.walk(ast.parse((LIBRARY / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= {node.module} if node.module else {alias.name for alias in node.names}
    return found


def sibling_names(module: str) -> set[str]:
    """The names that ``hrd.<module>`` imports from its sibling modules."""
    return {
        alias.name
        for node in ast.walk(ast.parse((LIBRARY / f"{module}.py").read_text()))
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }


def test_only_bounded_recursion_in_the_library():
    found = set()
    for path in sorted(LIBRARY.glob("*.py")):
        found |= self_recursive(ast.parse(path.read_text()), path.stem)
    assert found == set()


def test_gentree_imports_no_floorplan_and_counting_no_gentree():
    assert "floorplan" not in sibling_imports("gentree")
    assert "gentree" not in sibling_imports("counting")


def test_lowerbound_imports_no_counting():
    # CapExceeded lives in the package itself, so raising it costs no import
    assert "counting" not in sibling_imports("lowerbound")


def test_gentree_walks_ranges_not_copies():
    # the tree routes read perm._decomposition, one pass over index ranges;
    # decompose and inflate build a Permutation per child, and that pass
    # alone decides Baxter, so gentree needs no is_baxter or _insertions
    names = sibling_names("gentree")
    assert "_decomposition" in names
    assert not names & {"decompose", "inflate", "is_baxter", "_insertions"}


def next_greater_stacks(module: str) -> set[str]:
    """The functions of ``hrd.<module>`` that run a monotone stack: a while
    loop that compares the top of a list and pops it."""
    found = set()
    for fn in ast.walk(ast.parse((LIBRARY / f"{module}.py").read_text())):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for loop in ast.walk(fn):
            if not isinstance(loop, ast.While):
                continue
            tops = {
                sub.value.id
                for sub in ast.walk(loop.test)
                if isinstance(sub, ast.Subscript)
                and isinstance(sub.value, ast.Name)
                and isinstance(sub.slice, ast.UnaryOp)
                and isinstance(sub.slice.op, ast.USub)
                and getattr(sub.slice.operand, "value", None) == 1
            }
            if any(
                isinstance(c, ast.Call)
                and isinstance(c.func, ast.Attribute)
                and c.func.attr == "pop"
                and isinstance(c.func.value, ast.Name)
                and c.func.value.id in tops
                for stmt in loop.body
                for c in ast.walk(stmt)
            ):
                found.add(f"{module}.{fn.name}")
    return found


def calls(module: str, function: str) -> set[str]:
    """The names that ``hrd.<module>.<function>`` calls directly."""
    tree = ast.parse((LIBRARY / f"{module}.py").read_text())
    fn = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == function)
    return {c.func.id for c in ast.walk(fn) if isinstance(c, ast.Call) and isinstance(c.func, ast.Name)}


def test_perm_alone_decides_baxter():
    # is_baxter, bp2fp's insertions, the decomposition pass's skeleton check
    # and label growth all read perm._insertions; the census keeps its pair test
    assert "_insertions" in sibling_names("floorplan")
    assert "_insertions" in calls("perm", "_decomposition")
    modules = [path.stem for path in sorted(LIBRARY.glob("*.py"))]
    defined = {
        node.name
        for module in modules
        for node in ast.walk(ast.parse((LIBRARY / f"{module}.py").read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    assert "_is_baxter_seq" not in defined
    assert set().union(*map(next_greater_stacks, modules)) == {"perm._insertions"}


def test_no_module_imports_dataclasses():
    # dataclasses imports inspect, ast and dis: about 13 ms of every start-up
    found = set()
    for path in sorted(LIBRARY.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = {node.module}
            else:
                continue
            if any(name.split(".")[0] == "dataclasses" for name in names):
                found.add(path.stem)
    assert found == set()
