"""The checked work of a fixed campaign and a fixed script is pinned.

A checked call may get cheaper, but it must still make the same checked
calls, take the same abstract-state snapshots, evaluate the same clauses
and run the same raw bodies.  Each count is taken the way the benchmark's
tracer takes it: every ``mbc`` module's binding of a public function is
rebound, every clause of a feature and of an invariant is counted, and so
is every frame clause that ``expand_frame`` returns.  A speed-up that
skips a snapshot or a clause changes a count here."""

import dataclasses
import sys
from collections import Counter

import pytest

from mbc import autotest, contracts
from mbc.containers import CONTAINER_NAMES, FaultSwitch
from mbc.contracts import REGISTRY
from mbc.model_math import Ref

from test_benchmark_hooks import LIST, SCRIPT

CAMPAIGN = {"checked_calls": 1000, "abstract_state_calls": 836,
            "clause_evals": 1340, "body_calls": 778}
SCRIPTS = {"checked_calls": 50, "abstract_state_calls": 97,
           "clause_evals": 126, "body_calls": 50}


def _rebind(monkeypatch, name, wrap):
    """Replace ``contracts.<name>`` by ``wrap(it)`` wherever a module of
    ``mbc`` binds it."""
    real = getattr(contracts, name)
    wrapped = wrap(real)
    for module_name, module in sorted(sys.modules.items()):
        if module is None or not (module_name == "mbc"
                                  or module_name.startswith("mbc.")):
            continue
        for attr, obj in list(vars(module).items()):
            if obj is real:
                monkeypatch.setattr(module, attr, wrapped)


@pytest.fixture
def counts(monkeypatch):
    counts = Counter()

    def counting(key):
        def wrap(fn):
            def counted(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            counted.counted = True
            return counted
        return wrap

    clause = counting("clause_evals")

    def counted_clauses(clauses):
        return tuple(c if getattr(c.fn, "counted", False)
                     else dataclasses.replace(c, fn=clause(c.fn))
                     for c in clauses)

    for name in ("checked_command", "checked_query", "checked_constructor"):
        _rebind(monkeypatch, name, counting("checked_calls"))
    _rebind(monkeypatch, "abstract_state", counting("abstract_state_calls"))
    _rebind(monkeypatch, "expand_frame",
            lambda fn: lambda feature, signature:
            counted_clauses(fn(feature, signature)))
    body = counting("body_calls")
    for spec in REGISTRY.values():
        monkeypatch.setattr(spec, "invariants",
                            counted_clauses(spec.invariants))
        for f in [*spec.features.values(), *spec.constructors]:
            monkeypatch.setattr(f, "clauses", counted_clauses(f.clauses))
            monkeypatch.setattr(f, "body", body(f.body))
    return counts


def test_campaign_work_is_pinned(counts):
    result = autotest.run_campaign(list(CONTAINER_NAMES), 1000, 1,
                                   mode="model")
    assert result.stats["violations"] == 0
    assert dict(counts) == CAMPAIGN


def test_script_work_is_pinned(counts):
    faults = FaultSwitch(merge_right_missing_link=True)
    other = contracts.checked_constructor(REGISTRY["LinkedList"], "make_empty")
    contracts.checked_command(other, "put_right", [Ref("z")])
    for spec_name, calls in SCRIPT.items():
        spec = REGISTRY[spec_name]
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
    assert dict(counts) == SCRIPTS
