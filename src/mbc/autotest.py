"""Contract-based random testing: generate objects by random constructor
and command calls, filter by preconditions, check postconditions and
invariants, and report violations with replayable traces.

Generation is contract-blind (uniform over features and argument pools);
filtering is the precondition's job.  Runs are deterministic for a fixed
seed.  Constructor, command and query calls take one path, in the
campaign and in replay; a failing constructor's report has a one-entry trace.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from . import containers
from .checkers import _state_size
from .contracts import (
    ContractViolation, PreconditionRejected, REGISTRY, abstract_state,
    checked_command, checked_constructor, checked_query, domain_values,
    draw_value,
)
from .model_math import Ref

ELEMENT_POOL = [Ref(c) for c in "abcd"]
MAX_OBJECTS = 32      # live objects in a campaign's pool
MAX_OBJECT_SIZE = 8


class ReplayError(Exception):
    """A recorded trace cannot be replayed against the current registry."""


@dataclass
class TestBudget:
    __test__ = False  # not a test case, despite the name
    max_calls: int = 10_000
    seed: int = 0


@dataclass
class FaultReport:
    violation: dict
    trace: list

    def to_json(self) -> str:
        return json.dumps({"violation": self.violation, "trace": self.trace},
                          ensure_ascii=False, sort_keys=True)


@dataclass
class CampaignResult:
    stats: dict
    reports: list = field(default_factory=list)

    @property
    def violations(self) -> int:
        return self.stats["violations"]

    def to_json_lines(self) -> str:
        lines = [json.dumps({"stats": self.stats}, ensure_ascii=False,
                            sort_keys=True)]
        lines.extend(r.to_json() for r in self.reports)
        return "\n".join(lines) + "\n"


# The encoding tag of each argument-domain kind.
_TAGS = {"element": "elem", "int": "int", "bool": "bool", "path": "path",
         "relation": "rel", "container": "obj"}


def _encode_arg(domain, a):
    """The ``[tag, value]`` encoding of a value ``a`` of a non-container
    domain; container arguments are encoded by the caller."""
    kind = domain[0]
    if kind == "element":
        value = a.token
    elif kind == "path":
        value = list(a.items)
    elif kind == "relation":
        value = [[x.token, y.token] for x, y in a.pairs]
    else:
        value = a
    return [_TAGS[kind], value]


def _decode_arg(domain, e, faults, mode):
    """The value of ``domain`` that encodes as ``e``: a container argument
    is replayed from its trace; any other is looked up among the domain's
    values, so a value outside the declared domain is rejected.  Encodings
    are compared by ``repr``, which tells JSON ``true`` from ``1``."""
    if domain[0] == "container":
        obj = _replay_trace(e[1], faults, mode)
        if obj.spec_name != domain[1]:
            raise ReplayError(
                f"argument {obj.spec_name} object is not a {domain[1]}")
        return obj
    for v in domain_values(domain, ELEMENT_POOL):
        if repr(_encode_arg(domain, v)) == repr(e):
            return v
    raise ReplayError(
        f"bad argument value {e!r}: not in the domain {domain!r}")


def _decode_args(feature, encoded, faults, mode):
    if not isinstance(encoded, list):
        raise ReplayError(
            f"{feature.name}: arguments {encoded!r} are not a list")
    if len(encoded) != len(feature.arg_domains):
        raise ReplayError(
            f"{feature.name} takes {len(feature.arg_domains)} arguments, "
            f"the trace gives {len(encoded)}")
    for domain, e in zip(feature.arg_domains, encoded):
        if not (isinstance(e, list) and len(e) == 2):
            raise ReplayError(
                f"{feature.name}: argument encoding {e!r} is not a "
                f"[tag, value] pair")
        if e[0] != _TAGS[domain[0]]:
            raise ReplayError(
                f"{feature.name}: argument {e!r} is not tagged "
                f"{_TAGS[domain[0]]!r}, as its domain {domain[0]} requires")
    return [_decode_arg(d, a, faults, mode)
            for d, a in zip(feature.arg_domains, encoded)]


def _call(spec, obj, feature, args, faults, mode):
    """Make one checked call of ``feature`` and return what it returns:
    a constructor's new object, a command's poststate, a query's result."""
    if feature.kind == "constructor":
        return checked_constructor(spec, feature.name, args, mode=mode,
                                   faults=faults)
    if feature.kind == "command":
        return checked_command(obj, feature.name, args, mode=mode)
    return checked_query(obj, feature.name, args, mode=mode)


def _replay_trace(trace, faults, mode):
    """Rebuild an object by re-running its recorded calls under checking.
    Raises the ContractViolation of whichever call fails."""
    if not (isinstance(trace, list) and trace):
        raise ReplayError(f"trace {trace!r} is not a nonempty list")
    head, *calls = trace
    if not (isinstance(head, list) and len(head) == 4 and head[0] == "new"):
        raise ReplayError("trace must start with a constructor entry")
    _, spec_name, ctor_name, ctor_args = head
    if not isinstance(spec_name, str) or spec_name not in REGISTRY:
        raise ReplayError(f"unknown container type {spec_name!r}")
    spec = REGISTRY[spec_name]
    try:
        ctor = spec.constructor(ctor_name)
    except KeyError:
        raise ReplayError(f"unknown constructor {spec_name}.{ctor_name}") from None
    obj = _call(spec, None, ctor, _decode_args(ctor, ctor_args, faults, mode),
                faults, mode)
    for entry in calls:
        if not (isinstance(entry, list) and len(entry) == 3
                and entry[0] == "call"):
            raise ReplayError(f"bad trace entry {entry!r}")
        _, feature_name, enc_args = entry
        if not (isinstance(feature_name, str)
                and feature_name in spec.features):
            raise ReplayError(f"unknown feature {spec_name}.{feature_name}")
        feature = spec.features[feature_name]
        _call(spec, obj, feature,
              _decode_args(feature, enc_args, faults, mode), faults, mode)
    return obj


def replay(report: FaultReport, faults=None, mode="model"):
    """Re-run a fault report's trace; returns the reproduced violation, or
    None when the trace runs clean (e.g. with the fault switch off)."""
    faults = faults or containers.FaultSwitch()
    try:
        _replay_trace(report.trace, faults, mode)
    except ContractViolation as v:
        return v
    except PreconditionRejected as p:
        raise ReplayError(f"trace no longer valid: {p}") from p
    return None


@dataclass(eq=False)
class _LiveObject:
    """A pool object, its trace, and its abstract state after its last
    passed call.  Compared by identity."""
    spec: object
    obj: object
    trace: list
    state: object = None


def generate_arguments(feature, rng, pools, target=None):
    """Draw an argument tuple for a feature from its argument domains over
    the element pool, and from the live objects of ``pools`` (type name to
    live objects); preconditions filter afterwards."""
    args = []
    encoded = []
    for d in feature.arg_domains:
        if d[0] == "container":
            candidates = [o for o in pools.get(d[1], ())
                          if o.obj is not target]
            if not candidates:
                return None
            live = rng.choice(candidates)
            args.append(live)
            encoded.append(["obj", [list(e) for e in live.trace]])
        else:
            a = draw_value(d, rng, ELEMENT_POOL)
            args.append(a)
            encoded.append(_encode_arg(d, a))
    return args, encoded


def run_campaign(targets, budget: TestBudget, faults=None,
                 mode="model") -> CampaignResult:
    """Random-testing campaign over the given container types.

    Precondition rejections are filtered calls, never faults.  Every
    emitted FaultReport carries the campaign seed and is self-validated by
    replaying its trace before it is returned.

    The pool keeps one insertion-ordered list of live objects per type.
    The size cap reads each object's state as its last passed call left
    it: a command's returns its poststate, a query proves the state
    unchanged, a constructor's is taken once here.  That holds because a
    pool object changes only inside its own checked calls: a command
    retires its container arguments and a query checks theirs for purity.
    """
    faults = faults or containers.FaultSwitch()
    for t in targets:
        if t not in REGISTRY:
            raise KeyError(f"unknown container type {t!r}")
    containers.reset_ref_counter()
    rng = random.Random(budget.seed)
    pools = {t: [] for t in targets}
    features = {t: list(REGISTRY[t].features.values()) for t in targets}
    live_count = 0
    stats = {"calls": 0, "rejected": 0, "passed": 0, "violations": 0}
    reports = []

    def retire(a):
        nonlocal live_count
        of_type = pools[a.spec.name]
        if a in of_type:
            of_type.remove(a)
            live_count -= 1

    while stats["calls"] < budget.max_calls:
        target_name = rng.choice(targets)
        spec = REGISTRY[target_name]
        live_of_type = pools[target_name]
        if not live_of_type or (live_count < MAX_OBJECTS
                                and rng.random() < 0.15):
            live = _LiveObject(spec, None, [])
            feature = rng.choice(spec.constructors)
        else:
            live = rng.choice(live_of_type)
            feature = rng.choice(features[target_name])
        drawn = generate_arguments(feature, rng, pools, target=live.obj)
        if drawn is None:
            continue
        args, encoded = drawn
        entry = (["new", spec.name, feature.name, encoded]
                 if feature.kind == "constructor"
                 else ["call", feature.name, encoded])
        raw_args = [a.obj if isinstance(a, _LiveObject) else a for a in args]
        stats["calls"] += 1
        try:
            out = _call(spec, live.obj, feature, raw_args, faults, mode)
        except PreconditionRejected:
            stats["rejected"] += 1
            continue
        except ContractViolation as v:
            stats["violations"] += 1
            trace = [list(e) for e in live.trace]
            trace.append(entry)
            report = FaultReport(violation={**v.to_dict(), "seed": budget.seed},
                                 trace=trace)
            confirmed = replay(report, faults=faults, mode=mode)
            if confirmed is None or confirmed.clause != v.clause:
                raise RuntimeError(
                    f"fault report failed self-validation: {v.clause}")
            reports.append(report)
            # The call may have mutated its container arguments before the
            # violation surfaced; their traces are stale too.
            for a in [live, *args]:
                if isinstance(a, _LiveObject):
                    retire(a)
            continue
        stats["passed"] += 1
        live.trace.append(entry)
        if feature.kind == "constructor":
            live.obj = out
            live.state = abstract_state(out)
            live_of_type.append(live)
            live_count += 1
            continue
        if feature.kind == "command":
            live.state = out
            # Container arguments were mutated outside their own trace.
            for a in args:
                if isinstance(a, _LiveObject):
                    retire(a)
        if _state_size(live.state) > MAX_OBJECT_SIZE:
            retire(live)
    return CampaignResult(stats=stats, reports=reports)
