"""The benchmark's hooks name functions that exist.

``perfbench/workloads.py`` patches ``mbc`` functions by name
(``timed_calls`` and ``checkpoints``), and ``perfbench/spans.py`` assigns
span names to phases (``PHASES``).  A renamed function makes the
benchmark skip its hook silently, so each name is resolved here.  The
benchmark is read, not imported."""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Names the benchmark still uses that no longer exist in mbc; repointing
# them is a change to the benchmark.
STALE = {"mbc.checkers._raw_pre", "mbc.checkers.check_precondition_soundness"}


def _dotted(node):
    if isinstance(node, ast.Name):
        return node.id
    return f"{_dotted(node.value)}.{node.attr}"


def _hook_names():
    """Every ``module.name`` that workloads.py patches, and every PHASES
    key of spans.py, as a dotted name from ``mbc``."""
    names = set()
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("timed_calls", "checkpoints")):
            module, attrs = node.args[0], ast.literal_eval(node.args[1])
            attrs = (attrs,) if isinstance(attrs, str) else attrs
            names |= {f"{_dotted(module)}.{a}" for a in attrs}
    tree = ast.parse((PERFBENCH / "spans.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [_dotted(t) for t in node.targets] == ["PHASES"]):
            names |= {f"mbc.{k}" for k in ast.literal_eval(node.value)}
    return names


def _exists(dotted):
    """Whether ``dotted`` names an attribute of an importable module."""
    parts = dotted.split(".")
    for i in range(len(parts) - 1, 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for attr in parts[i:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


NAMES = sorted(_hook_names())


def test_hooks_found():
    assert "mbc.checkers._post_holds" in NAMES
    assert "mbc.checkers.enumerate_states" in NAMES
    assert "mbc.model_math.MSet.__init__" in NAMES


@pytest.mark.parametrize("name", NAMES)
def test_hook_exists(name):
    assert _exists(name) != (name in STALE)


@pytest.mark.parametrize("name", sorted(STALE))
def test_stale_name_still_used(name):
    assert name in NAMES
