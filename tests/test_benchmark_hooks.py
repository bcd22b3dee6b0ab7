"""The benchmark's hooks name functions that exist.

``perfbench/workloads.py`` patches ``mbc`` functions by name
(``timed_calls`` and ``checkpoints``), ``perfbench/spans.py`` assigns span
names to phases (``PHASES``) and wraps private functions by name
(``EXTRA``), ``perfbench/run.py`` reads per-layer metrics from span names
(``calls[...]``, ``self_ns[...]``, ``incl_ns[...]``), and every benchmark
file imports names from ``mbc`` and reads their attributes.  A renamed
function makes the benchmark skip its hook or zero a metric silently, or
fail its run, so each name is resolved here.  The benchmark is read, not
imported.  How often a fixed script calls the functions at which
``monitored-client`` cuts its timings is pinned too."""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Names the benchmark still uses that no longer exist in mbc; repointing
# them is a change to the benchmark.
STALE = {"mbc.checkers._raw_pre", "mbc.checkers.check_precondition_soundness",
         "mbc.contracts._mode_keeps"}
# Dicts of run.py keyed by span name.
SPAN_COUNTERS = ("calls", "self_ns", "incl_ns")


def _dotted(node):
    if isinstance(node, ast.Name):
        return node.id
    return f"{_dotted(node.value)}.{node.attr}"


def _is_chain(node):
    """Whether ``node`` is a chain of attributes on a name."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return isinstance(node, ast.Name)


def _literal(tree, name):
    """The value of the module-level assignment to ``name`` in ``tree``."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [_dotted(t) for t in node.targets] == [name]):
            return ast.literal_eval(node.value)
    raise LookupError(name)


def _mbc_uses(tree):
    """Every name imported from ``mbc`` in ``tree``, and every attribute
    chain read on one: ``from mbc import contracts`` and
    ``contracts.checked_query(...)`` give ``mbc.contracts`` and
    ``mbc.contracts.checked_query``."""
    names, aliases = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "mbc":
                    names.add(a.name)
                    if a.asname:
                        aliases[a.asname] = a.name
                    else:
                        aliases["mbc"] = "mbc"
        elif (isinstance(node, ast.ImportFrom)
              and (node.module or "").split(".")[0] == "mbc"):
            for a in node.names:
                names.add(f"{node.module}.{a.name}")
                aliases[a.asname or a.name] = f"{node.module}.{a.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _is_chain(node):
            head, _, rest = _dotted(node).partition(".")
            if head in aliases:
                names.add(f"{aliases[head]}.{rest}")
    return names


def _hook_names():
    """Every ``module.name`` that workloads.py patches, every PHASES key and
    EXTRA name of spans.py, every span name run.py reads a counter of, and
    every ``mbc`` name a benchmark file uses, as a dotted name from
    ``mbc``."""
    names = set()
    trees = {p.name: ast.parse(p.read_text())
             for p in sorted(PERFBENCH.glob("*.py"))}
    for node in ast.walk(trees["workloads.py"]):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("timed_calls", "checkpoints")):
            module, attrs = node.args[0], ast.literal_eval(node.args[1])
            attrs = (attrs,) if isinstance(attrs, str) else attrs
            names |= {f"{_dotted(module)}.{a}" for a in attrs}
    spans = trees["spans.py"]
    names |= {f"mbc.{k}" for k in _literal(spans, "PHASES")}
    names |= {f"mbc.{k}" for k in _literal(spans, "EXTRA")}
    run = trees["run.py"]
    for node in ast.walk(run):
        if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                and node.value.id in SPAN_COUNTERS
                and isinstance(node.slice, ast.Constant)):
            names.add(f"mbc.{node.slice.value}")
    # run.py times the imports of a child process it runs from source text.
    trees["SETUP_CODE"] = ast.parse(_literal(run, "SETUP_CODE"))
    for tree in trees.values():
        names |= _mbc_uses(tree)
    return names


def _exists(dotted):
    """Whether ``dotted`` names an attribute of an importable module."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
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
    assert "mbc.autotest.run_campaign" in NAMES  # a counter of run.py
    assert "mbc.cli._emit" in NAMES  # spans.EXTRA
    assert "mbc.contracts.checked_query" in NAMES  # read by client.py
    assert "mbc.model_math.to_text" in NAMES  # imported by client.py


@pytest.mark.parametrize("name", NAMES)
def test_hook_exists(name):
    assert _exists(name) != (name in STALE)


@pytest.mark.parametrize("name", sorted(STALE))
def test_stale_name_still_used(name):
    assert name in NAMES


# -- the cut points of monitored-client -----------------------------------
#
# ``monitored-client`` times each checked call as the sum of its best
# segments, cut at every call of these functions.  A change that calls
# them more or less often moves the cuts, and can then read faster without
# doing less work, so their counts over one fixed script are pinned.

# Per container: (feature, argument) after make_empty; an argument is an
# element token, ``LIST`` or None.  The last LinkedList call merges in a
# list of one with the seeded merge_right fault on, a violation, so the
# state texts are written.
LIST = "<list>"
SCRIPT = {
    "Stack": [("put", t) for t in "abcab"] + [
        ("count", None), ("is_empty", None), ("item", None),
        ("remove", None), ("item", None), ("wipe_out", None)],
    "Queue": [("put", t) for t in "abcab"] + [
        ("count", None), ("item", None), ("remove", None), ("remove", None),
        ("is_empty", None)],
    "Collection": [("put", t) for t in "abcab"] + [
        ("occurrences", "a"), ("occurrences", "z"), ("count", None),
        ("wipe_out", None), ("is_empty", None)],
    "LinkedList": [("put_right", t) for t in "abcab"] + [
        ("forth", None), ("item", None), ("has", "c"), ("count", None),
        ("start", None), ("forth", None), ("go_before", None),
        ("merge_right", LIST)],
}
CUT_COUNTS = {"contracts.abstract_state": 97,
              "contracts.serialize_state": 3,
              "model_math.MBag.extended": 15,
              "model_math.MSet.__init__": 0,
              "model_math.MSeq.occurrences": 0}


def test_cut_points_called_as_pinned(monkeypatch):
    from mbc import contracts
    from mbc.containers import FaultSwitch
    from mbc.model_math import Ref

    counts = dict.fromkeys(CUT_COUNTS, 0)
    for dotted in CUT_COUNTS:
        owner, _, name = dotted.rpartition(".")
        module, *attrs = owner.split(".")
        target = importlib.import_module(f"mbc.{module}")
        for attr in attrs:
            target = getattr(target, attr)

        def counting(*args, _key=dotted, _real=getattr(target, name),
                     **kwargs):
            counts[_key] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(target, name, counting)

    faults = FaultSwitch(merge_right_missing_link=True)
    other = contracts.checked_constructor(contracts.REGISTRY["LinkedList"],
                                          "make_empty")
    contracts.checked_command(other, "put_right", [Ref("z")])
    for spec_name, calls in SCRIPT.items():
        spec = contracts.REGISTRY[spec_name]
        obj = contracts.checked_constructor(spec, "make_empty", faults=faults)
        for feature, arg in calls:
            args = [] if arg is None else [other] if arg == LIST else [Ref(arg)]
            if spec.features[feature].kind == "query":
                contracts.checked_query(obj, feature, args)
            else:
                try:
                    contracts.checked_command(obj, feature, args)
                except contracts.ContractViolation:
                    assert feature == "merge_right"
    assert counts == CUT_COUNTS
