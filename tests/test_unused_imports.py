"""No module imports a name it never uses, and nothing in ``src/mbc``
defines a name that nothing there reads.

Every module of ``src/mbc`` and ``tests`` is parsed with ``ast``: each
name an import statement binds must be read somewhere in the module, or
be listed in its ``__all__``.  ``from __future__`` imports are features,
not names, and are left out.  Every top-level function, class and
assigned name of ``src/mbc`` must be read somewhere in ``src/mbc``, by
name or as an attribute, apart from those in ``UNREAD``."""

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


# Names defined at the top of a module of ``src/mbc`` that nothing in
# ``src/mbc`` reads: the package's metadata and what the Boogie export
# keeps for its tests.
UNREAD = {"__all__", "__version__", "exported_operations", "NOT_EXPORTED"}


def unread_definitions(sources):
    """The top-level functions, classes and assigned names of the modules
    ``sources`` that no module among them reads, by name or as an
    attribute."""
    defined = set()
    read = set()
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                defined |= {t.id for t in targets if isinstance(t, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return defined - read


def test_dead_definition_gate_finds_one():
    sources = ["import m\ndef f(): pass\ndef g(): return f\nclass C: pass\n"
               "x: int = 1\ny = m.C\n"]
    assert unread_definitions(sources) == {"g", "x", "y"}


def test_every_definition_is_read():
    sources = [p.read_text(encoding="utf-8")
               for p in sorted(ROOT.glob("src/mbc/*.py"))]
    assert unread_definitions(sources) == UNREAD
