"""Every public function and class has a caller.

A public module-level function or class of ``sinograph`` must be named
somewhere in the package's own source (as a name, an attribute or an
imported name), or be imported by the acceptance suite, which pins the
paper's public names.  An API that no pipeline path calls fails here.
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
