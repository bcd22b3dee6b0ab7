"""No module imports a name it never uses.

Every module of ``src/mbc`` and ``tests`` is parsed with ``ast``: each
name an import statement binds must be read somewhere in the module, or
be listed in its ``__all__``.  ``from __future__`` imports are features,
not names, and are left out."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*ROOT.glob("src/mbc/*.py"), *ROOT.glob("tests/*.py")])


def unused_imports(source):
    """The names that ``source``'s imports bind and nothing reads."""
    tree = ast.parse(source)
    bound = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_gate_finds_an_unused_name():
    source = ("import os\nimport os.path\nfrom json import dumps, loads as ld\n"
              "from x import y\n__all__ = ['y']\nprint(dumps)\n")
    assert unused_imports(source) == [(1, "os"), (3, "ld")]


def test_modules_found():
    names = {p.name for p in MODULES}
    assert {"checkers.py", "cli.py", "test_unused_imports.py"} <= names


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
