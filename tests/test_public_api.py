"""Every public function and class has a caller, and every private one a reader.

A public module-level function or class of ``sinograph`` must be named
somewhere in the package's own source (as a name, an attribute or an
imported name), or be imported by the acceptance suite, which pins the
paper's public names.  An API that no pipeline path calls fails here.
A ``_``-prefixed module-level function, class or constant must be read
(named in load context) somewhere in the package's own source, so that
a deletion leaves no helper behind.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "sinograph").glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _public_definitions():
    """(module, name) of each public module-level function and class."""
    return [(path.stem, node.name)
            for path in SOURCES
            for node in _tree(path).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not node.name.startswith("_")]


def _private_definitions():
    """(module, name) of each ``_``-prefixed module-level function, class
    and assigned name, dunders aside."""
    found = []
    for path in SOURCES:
        for node in _tree(path).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            found += [(path.stem, name) for name in names
                      if name.startswith("_") and not name.startswith("__")]
    return found


def _referenced(paths):
    """Every name the files at ``paths`` use or import."""
    names = set()
    for path in paths:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_every_public_name_has_a_caller():
    used = _referenced(SOURCES) | _referenced([ROOT / "tests" / "test_acceptance.py"])
    unused = [f"{module}.{name}" for module, name in _public_definitions()
              if name not in used]
    assert unused == [], "named nowhere under src/: " + ", ".join(unused)


def test_every_private_name_is_read():
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for path in SOURCES for node in ast.walk(_tree(path))
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)}
    unread = [f"{module}.{name}" for module, name in _private_definitions()
              if name not in read]
    assert unread == [], "read nowhere under src/: " + ", ".join(unread)
