"""Every public function and class that ``hrd`` defines at module level, and
every public method of those classes, is used by the library, the scripts
or the benchmark, not only by the tests.  Code that only tests need belongs
in ``tests/oracles.py``.

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


def unused(library: dict[str, str], users: dict[str, str]) -> set[str]:
    """Qualified names of the public definitions in ``library`` (module name
    -> source) that nothing in ``library`` or ``users`` refers to."""
    names: dict[str, list[tuple[str, int]]] = {}  # name -> (module, line) of reads
    attrs: set[str] = set()
    for module, text in {**users, **library}.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.setdefault(node.id, []).append((module, node.lineno))
            elif isinstance(node, ast.Attribute):
                names.setdefault(node.attr, []).append((module, node.lineno))
                attrs.add(node.attr)
    found = set()
    for module, text in library.items():
        for node in ast.parse(text).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            inside = range(node.lineno, node.end_lineno + 1)
            if not any(m != module or line not in inside for m, line in names.get(node.name, ())):
                found.add(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef):
                found |= {
                    f"{module}.{node.name}.{m.name}"
                    for m in node.body
                    if isinstance(m, ast.FunctionDef) and not m.name.startswith("_") and m.name not in attrs
                }
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
