"""Every public function and class that ``hrd`` defines at module level, and
every public method of those classes, is used by the library, the scripts
or the benchmark, not only by the tests; every private module-level
function is used by the library itself; every module-level import is read
in its module, and every import inside a function in that function.  Code
that only tests need belongs in ``tests/oracles.py``.

The check is static and by name: a function or class counts as used where
its name is read or looked up as an attribute outside its own definition,
a method where its name is looked up as an attribute.
"""

import ast
from pathlib import Path

import hrd

LIBRARY = Path(hrd.__file__).parent
ROOT = Path(__file__).parent.parent
USERS = (LIBRARY, ROOT / "scripts", ROOT / "perfbench")


def _reads(sources: dict[str, str]) -> tuple[dict[str, list[tuple[str, int]]], set[str]]:
    """name -> (module, line) of every read of it as a name or attribute,
    and the names looked up as attributes."""
    names: dict[str, list[tuple[str, int]]] = {}
    attrs: set[str] = set()
    for module, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.setdefault(node.id, []).append((module, node.lineno))
            elif isinstance(node, ast.Attribute):
                names.setdefault(node.attr, []).append((module, node.lineno))
                attrs.add(node.attr)
    return names, attrs


def _read_outside(node: ast.stmt, module: str, names: dict[str, list[tuple[str, int]]]) -> bool:
    inside = range(node.lineno, node.end_lineno + 1)
    return any(m != module or line not in inside for m, line in names.get(node.name, ()))


def unused(library: dict[str, str], users: dict[str, str]) -> set[str]:
    """Qualified names of the public definitions in ``library`` (module name
    -> source) that nothing in ``library`` or ``users`` refers to."""
    names, attrs = _reads({**users, **library})
    found = set()
    for module, text in library.items():
        for node in ast.parse(text).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if not _read_outside(node, module, names):
                found.add(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef):
                found |= {
                    f"{module}.{node.name}.{m.name}"
                    for m in node.body
                    if isinstance(m, ast.FunctionDef) and not m.name.startswith("_") and m.name not in attrs
                }
    return found


def unused_private(library: dict[str, str]) -> set[str]:
    """Qualified names of the private module-level functions in ``library``
    that nothing in ``library`` refers to outside their own definition."""
    names, _ = _reads(library)
    return {
        f"{module}.{node.name}"
        for module, text in library.items()
        for node in ast.parse(text).body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_") and not _read_outside(node, module, names)
    }


def _loaded(tree: ast.AST) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _bound(node: ast.Import | ast.ImportFrom) -> set[str]:
    return {(alias.asname or alias.name).split(".")[0] for alias in node.names}


def unused_imports(library: dict[str, str]) -> set[str]:
    """``module.name`` for every name bound by a module-level import in
    ``library``, ``TYPE_CHECKING`` blocks included and ``__future__``
    skipped, that its module never reads, and ``module.function.name`` for
    every name a function imports and does not read itself."""
    found = set()
    for module, text in library.items():
        tree = ast.parse(text)
        read = _loaded(tree)
        stack = list(tree.body)
        while stack:
            node = stack.pop()
            if isinstance(node, ast.If):
                stack += node.body + node.orelse
            elif isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                found |= {f"{module}.{name}" for name in _bound(node) - read}
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inside = _loaded(function)
                for node in ast.walk(function):
                    if isinstance(node, (ast.Import, ast.ImportFrom)):
                        found |= {f"{module}.{function.name}.{name}" for name in _bound(node) - inside}
    return found


def _sources(directory: Path) -> dict[str, str]:
    return {f"{directory.name}/{path.stem}": path.read_text() for path in sorted(directory.glob("*.py"))}


def test_every_public_name_has_a_caller_outside_the_tests():
    library = _sources(LIBRARY)
    users = {name: text for d in USERS[1:] for name, text in _sources(d).items()}
    assert library and users
    assert unused(library, users) == set()


def test_the_check_sees_unused_names():
    library = {
        "lib": "def used(): pass\n"
        "def recursive(): recursive()\n"
        "class Box:\n"
        "    def get(self): pass\n"
        "    def put(self): pass\n"
        "def _private(): pass\n"
        "at = 0\n"
    }
    users = {"app": "from lib import used\nused()\nBox().get()\nat\n"}
    assert unused(library, users) == {"lib.recursive", "lib.Box.put"}
    # a plain name read does not count as a method call
    library["lib"] += "class Perm:\n    def at(self): pass\n"
    users["app"] += "Perm()\n"
    assert unused(library, users) == {"lib.recursive", "lib.Box.put", "lib.Perm.at"}


def test_every_private_function_has_a_caller_in_the_library():
    library = _sources(LIBRARY)
    assert unused_private(library) == set()


def test_the_check_sees_private_functions_only_tests_read():
    library = {
        "lib": "def _helper(): pass\n"
        "def _recursive(): _recursive()\n"
        "def _stranded(): pass\n"
        "def public(): return _helper()\n",
        "other": "from lib import _recursive\n",
    }
    # the import names it but is no read; a read in another module counts
    assert unused_private(library) == {"lib._recursive", "lib._stranded"}
    library["other"] += "_recursive()\n"
    assert unused_private(library) == {"lib._stranded"}


def test_every_import_is_read_in_its_module():
    assert unused_imports(_sources(LIBRARY)) == set()


def test_the_check_sees_unused_imports():
    library = {
        "lib": "from __future__ import annotations\n"
        "import os, sys\n"
        "import xml.dom\n"
        "from typing import TYPE_CHECKING\n"
        "from .perm import is_baxter as check, is_simple\n"
        "if TYPE_CHECKING:\n"
        "    from .floorplan import Room, Floor\n"
        "def f(r: Room) -> None:\n"
        "    import json\n"
        "    from .gentree import is_hrd, tree_of_perm\n"
        "    return sys.argv, xml.dom.minidom, is_simple, json.dumps, tree_of_perm\n"
        "def g() -> None:\n"
        "    import json\n"
        "    return f\n"
    }
    # a name read only inside a function still counts; a function's own
    # imports must be read in that function, not elsewhere in the module
    assert unused_imports(library) == {"lib.os", "lib.check", "lib.Floor", "lib.f.is_hrd", "lib.g.json"}
