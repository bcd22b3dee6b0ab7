"""Contract-based random testing: generate objects by random constructor
and command calls, filter by preconditions, check postconditions and
invariants, and report violations with replayable traces.

Generation is contract-blind (uniform over features and argument pools);
filtering is the precondition's job.  Runs are deterministic for a fixed
seed.  Constructor, command and query calls take one path, in the
campaign and in replay; a failing constructor's report has a one-entry trace.
Pool objects are the checkers' ``Built`` records, and replay runs their
``_build`` with checked calls; a trace is JSON only in a fault report.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from functools import partial

from . import containers
from .checkers import MAX_UNIVERSE, Built, _build, _state_size, element_tokens
from .contracts import (
    ContractViolation, PreconditionRejected, REGISTRY, abstract_state,
    checked_command, checked_constructor, checked_query, domain_values,
)
from .model_math import MSeq

ELEMENT_POOL = element_tokens(4)
_UNIVERSE_OF = {r.token: i + 1 for i, r in enumerate(element_tokens(MAX_UNIVERSE))}
MAX_OBJECTS = 32      # live objects in a campaign's pool
MAX_OBJECT_SIZE = 8


class ReplayError(Exception):
    """A recorded trace cannot be replayed against the current registry."""


class UnconfirmedViolation(RuntimeError):
    """A fault report failed self-validation: replaying its trace does not
    reproduce the violation the campaign saw."""


@dataclass
class FaultReport:
    violation: dict
    trace: list

    def to_json(self) -> str:
        return json.dumps(vars(self), ensure_ascii=False, sort_keys=True)


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
    """The ``[tag, value]`` encoding of a value ``a`` of ``domain``; a
    container argument's value is the encoding of its trace."""
    kind = domain[0]
    if kind == "container":
        value = _encode_trace(REGISTRY[domain[1]], a)
    elif kind == "element":
        value = a.token
    elif kind == "path":
        value = list(a.items)
    elif kind == "relation":
        value = [[x.token, y.token] for x, y in a.pairs]
    else:
        value = a
    return [_TAGS[kind], value]


def _encode_trace(spec, trace):
    """The JSON form of a trace of a ``spec`` object: ``["new", type,
    constructor, arguments]``, then ``["call", feature, arguments]``."""
    return [(["new", spec.name] if f.kind == "constructor" else ["call"])
            + [f.name, [_encode_arg(d, a) for d, a in zip(f.arg_domains, args)]]
            for f, args in trace]


def _universe(value):
    """The least universe of ``element_tokens`` holding every one of its
    tokens (``a`` to ``z``) in the encoded ``value``, or else 0."""
    if isinstance(value, list):
        return max(map(_universe, value), default=0)
    return _UNIVERSE_OF.get(value, 0) if isinstance(value, str) else 0


def _decode_arg(feature, domain, e):
    """The value of ``domain`` that ``e``, an argument of ``feature``,
    encodes: a container's is its decoded trace, any other is looked up
    among the domain's values over the least universe holding its tokens
    (an element or a relation spells each), so a value outside the domain
    is rejected.  Encodings are compared by ``repr``, which tells JSON
    ``true`` from ``1``."""
    if not (isinstance(e, list) and len(e) == 2):
        raise ReplayError(
            f"{feature.name}: argument encoding {e!r} is not a "
            f"[tag, value] pair")
    if e[0] != _TAGS[domain[0]]:
        raise ReplayError(
            f"{feature.name}: argument {e!r} is not tagged "
            f"{_TAGS[domain[0]]!r}, as its domain {domain[0]} requires")
    if domain[0] == "container":
        spec, trace = _decode_trace(e[1])
        if spec.name != domain[1]:
            raise ReplayError(
                f"argument {spec.name} object is not a {domain[1]}")
        return trace
    for v in domain_values(domain, element_tokens(_universe(e[1]))):
        if repr(_encode_arg(domain, v)) == repr(e):
            return v
    raise ReplayError(
        f"bad argument value {e!r}: not in the domain {domain!r}")


def _decode_args(feature, encoded):
    if not isinstance(encoded, list):
        raise ReplayError(
            f"{feature.name}: arguments {encoded!r} are not a list")
    if len(encoded) != len(feature.arg_domains):
        raise ReplayError(
            f"{feature.name} takes {len(feature.arg_domains)} arguments, "
            f"the trace gives {len(encoded)}")
    return [_decode_arg(feature, d, e)
            for d, e in zip(feature.arg_domains, encoded)]


def _decode_trace(trace):
    """The spec and the trace that a JSON trace encodes, each step and
    each container argument's trace checked before anything runs."""
    if not (isinstance(trace, list) and trace):
        raise ReplayError(f"trace {trace!r} is not a nonempty list")
    head, *calls = trace
    if not (isinstance(head, list) and len(head) == 4 and head[0] == "new"):
        raise ReplayError("trace must start with a constructor entry")
    _, spec_name, ctor_name, ctor_args = head
    if not isinstance(spec_name, str) or spec_name not in REGISTRY:
        raise ReplayError(f"unknown container type {spec_name!r}")
    spec = REGISTRY[spec_name]
    ctor = spec.named.get(ctor_name) if isinstance(ctor_name, str) else None
    if ctor is None or ctor.kind != "constructor":
        raise ReplayError(f"unknown constructor {spec_name}.{ctor_name}")
    steps = [(ctor, _decode_args(ctor, ctor_args))]
    for entry in calls:
        if not (isinstance(entry, list) and len(entry) == 3
                and entry[0] == "call"):
            raise ReplayError(f"bad trace entry {entry!r}")
        _, feature_name, enc_args = entry
        feature = (spec.named.get(feature_name)
                   if isinstance(feature_name, str) else None)
        if feature is None or feature.kind == "constructor":
            raise ReplayError(f"unknown feature {spec_name}.{feature_name}")
        steps.append((feature, _decode_args(feature, enc_args)))
    return spec, steps


def _call(spec, obj, feature, args, faults, mode, old=None):
    """Make one checked call of ``feature`` and return what it returns:
    a constructor's new object, a command's poststate, a query's result.
    A command or query takes ``old``, the target's held state, as its
    prestate; None takes a fresh one."""
    if feature.kind == "constructor":
        return checked_constructor(spec, feature.name, args, mode=mode,
                                   faults=faults)
    if feature.kind == "command":
        return checked_command(obj, feature.name, args, mode=mode, old=old)
    return checked_query(obj, feature.name, args, mode=mode, old=old)


def replay(report: FaultReport, faults=None, mode="model"):
    """Decode and check a fault report's whole trace, then re-run it by checked
    calls, each with a fresh prestate: the reproduced violation, or None
    (e.g. with the fault off)."""
    faults = faults or containers.FaultSwitch()
    spec, trace = _decode_trace(report.trace)
    try:
        _build(spec, trace, partial(_call, faults=faults, mode=mode))
    except ContractViolation as v:
        return v
    except PreconditionRejected as p:
        raise ReplayError(f"trace no longer valid: {p}") from p
    return None


_TABLES = {}  # a drawn domain -> domain_values(domain, ELEMENT_POOL)


def generate_arguments(feature, rng, pools, target=None):
    """Draw an argument list for a feature from its argument domains over
    the element pool, and from the ``Built`` records of ``pools`` (type name
    to pool objects), or None; preconditions filter afterwards.  A path is
    drawn by its length, then its bits, any other value from ``_TABLES``."""
    args = []
    for d in feature.arg_domains:
        if d[0] == "container":
            candidates = [o for o in pools.get(d[1], ())
                          if o.obj is not target]
            if not candidates:
                return None
            args.append(rng.choice(candidates))
        elif d[0] == "path":
            n = rng.randint(0, d[1])
            args.append(MSeq(rng.choice([False, True]) for _ in range(n)))
        else:
            table = _TABLES.get(d)
            if table is None:
                table = _TABLES[d] = domain_values(d, ELEMENT_POOL)
            args.append(rng.choice(table))
    return args


def run_campaign(targets, calls, seed, faults=None,
                 mode="model") -> CampaignResult:
    """Random-testing campaign of ``calls`` calls over the given container
    types, drawn from a generator seeded with ``seed``.

    Precondition rejections are filtered calls, never faults.  Every
    emitted FaultReport carries the campaign seed and is self-validated by
    replaying its trace before it is returned.

    The pool keeps one insertion-ordered list of live objects per type, each
    holding the state its last passed call left it in and that state's
    ``_state_size``, both taken when a constructor or command sets the state
    (a query proves it unchanged).  Each call on a pool object takes the held
    state as its prestate, and the size cap reads the held size after every
    passed query or command.  This is sound because a pool object changes
    only in its own checked calls: a command retires its container arguments,
    a query checks theirs for purity.  An object changed elsewhere is caught:
    the held state disagrees with a fresh poststate at its next query's purity
    check or command's postconditions, and replay, with fresh prestates, does
    not confirm it, so self-validation fails with ``UnconfirmedViolation``.
    """
    faults = faults or containers.FaultSwitch()
    for t in targets:
        if t not in REGISTRY:
            raise KeyError(f"unknown container type {t!r}")
    containers.reset_ref_counter()
    rng = random.Random(seed)
    pools = {t: [] for t in targets}
    features = {t: list(REGISTRY[t].features.values()) for t in targets}
    stats = {"calls": 0, "rejected": 0, "passed": 0, "violations": 0}
    reports = []
    live_count = 0  # the objects in all pools

    def retire(*objs):
        nonlocal live_count
        for a in objs:
            for of_type in pools.values():
                if isinstance(a, Built) and a in of_type:
                    of_type.remove(a)
                    live_count -= 1

    while stats["calls"] < calls:
        target_name = rng.choice(targets)
        spec = REGISTRY[target_name]
        live_of_type = pools[target_name]
        if not live_of_type or (live_count < MAX_OBJECTS
                                and rng.random() < 0.15):
            live = Built([], None, None)
            feature = rng.choice(spec.constructors)
        else:
            live = rng.choice(live_of_type)
            feature = rng.choice(features[target_name])
        args = generate_arguments(feature, rng, pools, target=live.obj)
        if args is None:
            continue
        raw_args, step = args, (feature, args)
        if feature.container_args:  # pool objects are recorded as traces
            raw_args = [a.obj if isinstance(a, Built) else a for a in args]
            step = (feature, [tuple(a.trace) if isinstance(a, Built) else a
                              for a in args])
        stats["calls"] += 1
        try:
            out = _call(spec, live.obj, feature, raw_args, faults, mode,
                        live.state)
        except PreconditionRejected:
            stats["rejected"] += 1
            continue
        except ContractViolation as v:
            stats["violations"] += 1
            report = FaultReport(violation={**v.to_dict(), "seed": seed},
                                 trace=_encode_trace(spec, [*live.trace, step]))
            confirmed = replay(report, faults=faults, mode=mode)
            if confirmed is None or confirmed.clause != v.clause:
                got = "no violation" if confirmed is None else confirmed.clause
                raise UnconfirmedViolation(
                    f"fault report failed self-validation: {v.clause}: the "
                    f"{spec.name} target's own trace of {len(report.trace)} "
                    f"steps does not reproduce the violation (replay gives "
                    f"{got}); either the object changed outside its own "
                    f"checked calls, or its implementation is not "
                    f"deterministic")
            reports.append(report)
            # The call may have mutated its container arguments before the
            # violation surfaced; their traces are stale too.
            retire(live, *args)
            continue
        stats["passed"] += 1
        live.trace.append(step)
        if feature.kind == "constructor":
            live.obj = out
            out = abstract_state(out)
            live_of_type.append(live)
            live_count += 1
        if feature.kind != "query":
            live.state = out
            live.size = _state_size(out)
        if feature.kind == "command":
            # Container arguments were mutated outside their own trace.
            retire(*args)
        if live.size > MAX_OBJECT_SIZE and feature.kind != "constructor":
            retire(live)
    return CampaignResult(stats=stats, reports=reports)
