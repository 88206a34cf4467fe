"""No function in ``hrd`` calls itself by name, except the bounded ones below.

Recursion on the size of an input fails at Python's recursion limit (1000
frames by default), so the library walks inputs with explicit stacks.  The
allow-list names each remaining self-recursive function, by module and
nesting, with the bound on its depth.
"""

import ast
from pathlib import Path

import hrd

ALLOWED = {
    # depth = number of parts of a composition
    "counting._composition_sum",
    "gentree._compositions",
    # depth = n, in exhaustive enumerations exponential in n
    "gentree._trees",
    "floorplan.enumerate_floorplans",
    # depth = pattern length
    "perm.contains_pattern.extend",
}


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


def test_only_bounded_recursion_in_the_library():
    found = set()
    for path in sorted(Path(hrd.__file__).parent.glob("*.py")):
        found |= self_recursive(ast.parse(path.read_text()), path.stem)
    assert found == ALLOWED

