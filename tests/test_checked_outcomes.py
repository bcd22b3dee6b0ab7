"""Outcome gate for the checked calls: the sha256 of every outcome of a
checked call of every feature, with every argument combination, on every
representative of the default state space, is pinned.

Each call runs on a fresh build of its representative's trace, and each
container argument is a fresh build of one of its type's representatives.
The calls run in model and in classic mode, and once more on LinkedList
with the seeded ``merge_right`` bug on.  An outcome is the returned state or
result text, a precondition rejection, or the violation's clause, kind,
state texts and argument texts, so a change to what the engine checks, or
to the text it writes, changes the digest."""

import hashlib
import itertools
import json

import pytest

from mbc.checkers import EnumerationConfig, _build, element_tokens, state_space
from mbc.containers import CONTAINER_NAMES, FaultSwitch, reset_ref_counter
from mbc.contracts import (
    REGISTRY, AbstractState, ContractViolation, PreconditionRejected, abstract_state,
    checked_command, checked_constructor, checked_query, domain_values,
    serialize_state,
)
from mbc.model_math import to_text

pytestmark = pytest.mark.bytegate

OUTCOMES = "d191b3e1724a77efbc374cabfe55a3cbca02fc210ae8812cbf88e2c1d524b281"
CALLS = 30_976


def _text(x):
    if isinstance(x, AbstractState):
        return "state " + serialize_state(x)
    if any(type(x) is spec.cls for spec in REGISTRY.values()):
        return "container " + serialize_state(abstract_state(x))
    if isinstance(x, (bool, int)):
        return str(x)
    return to_text(x)


def _builder(faults):
    """A raw step for ``_build`` that gives every constructor ``faults``."""
    def call(spec, obj, feature, args):
        if feature.kind == "constructor":
            return feature.body(*args, faults=faults)
        return feature.body(obj, *args)
    return call


def _argument_pools(feature, cfg, spaces):
    """One pool per argument: values of a plain domain, or for a container
    argument ``(type, representative index)`` pairs, built fresh per call."""
    pools = []
    for d in feature.arg_domains:
        if d[0] == "container":
            pools.append([("container", d[1], i)
                          for i in range(len(spaces[d[1]]))])
        else:
            pools.append(domain_values(d, element_tokens(cfg.universe)))
    return list(itertools.product(*pools))


def _outcome(checked, *args, **kwargs):
    try:
        out = checked(*args, **kwargs)
    except PreconditionRejected:
        return "rejected"
    except ContractViolation as v:
        return "violation " + json.dumps(v.to_dict(), ensure_ascii=False)
    return _text(out)


def _outcome_lines(names, modes, faults):
    cfg = EnumerationConfig()
    spaces = {n: state_space(n, cfg) for n in CONTAINER_NAMES}
    build = _builder(faults)
    reset_ref_counter()
    lines = []
    for name, mode in itertools.product(names, modes):
        spec = REGISTRY[name]
        features = list(spec.constructors) + list(spec.features.values())
        for feature in features:
            targets = ([None] if feature.kind == "constructor"
                       else range(len(spaces[name])))
            for t, combo in itertools.product(
                    targets, _argument_pools(feature, cfg, spaces)):
                args = [_build(REGISTRY[a[1]], spaces[a[1]][a[2]].trace, build)
                        if isinstance(a, tuple) else a for a in combo]
                key = "|".join([mode, name, feature.name, str(t)] + [
                    f"{a[1]}#{a[2]}" if isinstance(a, tuple) else _text(a)
                    for a in combo])
                if feature.kind == "constructor":
                    out = _outcome(checked_constructor, spec, feature.name,
                                   args, mode=mode, faults=faults)
                else:
                    obj = _build(spec, spaces[name][t].trace, build)
                    checked = (checked_command if feature.kind == "command"
                               else checked_query)
                    out = _outcome(checked, obj, feature.name, args, mode=mode)
                lines.append(f"{key} -> {out}")
    return lines


def test_checked_call_outcomes_digest():
    lines = (_outcome_lines(CONTAINER_NAMES, ("model", "classic"), None)
             + _outcome_lines(["LinkedList"], ("model", "classic"),
                              FaultSwitch(merge_right_missing_link=True)))
    text = "\n".join(lines)
    assert (len(lines), hashlib.sha256(text.encode()).hexdigest()) == (
        CALLS, OUTCOMES)
