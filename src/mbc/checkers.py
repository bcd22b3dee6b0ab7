"""Brute-force checkers over enumerated small state spaces:

- precondition soundness (the same answer under a second identity token)
  and postcondition completeness for commands and queries (all satisfying
  poststates/results equivalent), both from one pass over (abstract state,
  arguments) pairs: a defining clause's value is computed once per pair and
  only the candidates that hold it are kept, and the relational clauses run
  on those only.  Both read the contract alone: no implementation code
  runs once the state spaces are built,
- bounded observational adequacy of the chosen model (model-tuple equality
  versus indistinguishability under call sequences of depth <= k), one
  loop over calls per pair and depth, shortest sequences first; by default
  it tests minimality only.

Each exploration (an enumeration, a verdict, an adequacy check) builds its
calls, ``(feature, arguments)`` pairs, once.  Every verdict reads the
bounded state space of a container from ``state_space``: one representative
object per abstract state, enumerated once per configuration object (and
interface restriction) and kept on it.  The representatives are shared by
every checker run with the configuration, so they are read-only: queries
run on them as stored (the runtime's purity check makes queries abstractly
pure, and every library query body only reads), commands only on a
``_successor``.  Every object is a ``Built`` record, made from its trace by
the one builder ``_build``; the tester keeps its pool objects so and replays
through it.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass, field

from . import containers
from .contracts import (
    AbstractState, Ctx, REGISTRY, abstract_state, domain_values, expand_frame,
    pre_holds, serialize_state,
)
from .model_math import DomainError, Ref


class EnumerationRefused(Exception):
    """Requested bounds would replay too many trace steps."""


# Most trace steps an enumeration may replay, and its bounds may estimate.
STATE_LIMIT = 10**7
OTHER_REF = Ref("#other")  # a token ``fresh_ref`` (``#<n>``) never draws
MAX_UNIVERSE = 26  # the element tokens ``a`` to ``z``


def element_tokens(n):
    """The element tokens ``a``, ``b``, ... of a universe of ``n``, which
    is 0 to MAX_UNIVERSE."""
    if not 0 <= n <= MAX_UNIVERSE:
        raise ValueError(f"universe {n} not in 0..{MAX_UNIVERSE}")
    return [Ref(chr(ord("a") + i)) for i in range(n)]


@dataclass
class EnumerationConfig:
    universe: int = 2      # number of distinct element tokens
    max_size: int = 3      # max model structure size
    depth: int = 3         # call depth for adequacy
    # state_space's memo: not a setting, so not an init field.
    _spaces: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    def estimate(self) -> int:
        """An up-front guess at the trace steps an enumeration replays:
        each sequence of k <= max_size elements, times max_size + 2 cursor
        slots, rebuilt from a trace of k + 1 steps; the search may replay
        several times more.  The sum stops once it is over STATE_LIMIT."""
        steps = 0
        for k in range(self.max_size + 1):
            steps += self.universe**k * (k + 1) * (self.max_size + 2)
            if steps > STATE_LIMIT:
                break
        return steps


@dataclass
class CheckVerdict:
    feature: str
    pre_sound: bool = True
    post_sound: bool = True
    post_complete: bool = True
    tag: str | None = None
    witnesses: list = field(default_factory=list)
    states_checked: int = 0

    def to_dict(self):
        return {**asdict(self), "witnesses": sorted(self.witnesses)}


def _state_size(state: AbstractState) -> int:
    sizes = [getattr(v, "count") for v in state if hasattr(v, "count")]
    return max(sizes, default=0)


@dataclass(eq=False)
class Built:
    """An object, its trace and its abstract state (in a campaign, after its
    last passed call, and the prestate of its next checked call); compared
    by identity.  A trace is the steps ``(feature, raw arguments)`` from a
    constructor, each container argument recorded as its own trace."""
    trace: tuple  # a list in a campaign, which appends its passed calls
    obj: object
    state: AbstractState
    size: int = 0  # in a campaign, _state_size(state), taken with the state


def _build(spec, trace, call=None):
    """The ``spec`` object that ``trace`` builds: each step's container
    arguments first, in order, from their own traces, then the step, by its
    raw body or by ``call(spec, obj, feature, args)`` (replay's checked one)."""
    obj = None
    for feature, args in trace:
        if feature.container_args:
            args = [_build(REGISTRY[d[1]], a, call) if d[0] == "container"
                    else a for d, a in zip(feature.arg_domains, args)]
        if call is not None:
            out = call(spec, obj, feature, args)
        elif feature.kind == "constructor":
            out = feature.body(*args)
        else:
            out = feature.body(obj, *args)
        if feature.kind == "constructor":
            obj = out
    return obj


def _successor(spec, e, feat, args):
    """What ``e`` becomes after ``feat(*args)``; ``e.obj`` is left as it is."""
    trace = e.trace + ((feat, args),)
    obj = _build(spec, trace)
    return Built(trace, obj, abstract_state(obj))


def enumerate_states(name: str, cfg: EnumerationConfig, features=None):
    """One reachable object per abstract state within the size bounds, with
    its trace, in ``serialize_state`` order: the first that a breadth-first
    search over constructor and command calls finds, so its trace is a
    shortest one.  The search is refused past STATE_LIMIT replayed trace
    steps.  Commands taking container arguments are not used (the others
    already reach every registered type's state space), nor those not in
    ``features``, if given, where a name the spec lacks is a KeyError."""
    spec = REGISTRY[name]
    unknown = set(features or ()) - set(spec.features)
    if unknown:
        raise KeyError(f"{name} has no feature {', '.join(sorted(unknown))}")
    if cfg.estimate() > STATE_LIMIT:
        raise EnumerationRefused(
            f"estimated trace steps exceed limit {STATE_LIMIT}")
    containers.reset_ref_counter()
    found = {}  # each abstract state's representative
    # A constructor's object is kept whatever its size.
    for ctor, args in _calls(spec.constructors, cfg):
        if pre_holds(ctor, None, args, None):
            e = _successor(spec, Built((), None, None), ctor, args)
            found.setdefault(e.state, e)
    reps = list(found.values())
    calls = _calls(spec.commands(), cfg, features)
    replayed = 0
    for cur in reps:
        for feat, args in calls:
            if pre_holds(feat, cur.state, args, cur.obj.ref):
                replayed += len(cur.trace) + 1
                if replayed > STATE_LIMIT:
                    raise EnumerationRefused(
                        f"more than {STATE_LIMIT} trace steps replayed")
                nxt = _successor(spec, cur, feat, args)
                if (_state_size(nxt.state) <= cfg.max_size
                        and found.setdefault(nxt.state, nxt) is nxt):
                    reps.append(nxt)
    return sorted(reps, key=lambda e: serialize_state(e.state))


def state_space(name, cfg, features=None):
    """``enumerate_states(name, cfg, features)``, enumerated once per
    configuration object and shared, so callers must not mutate it."""
    key = (name, None if features is None else frozenset(features))
    if key not in cfg._spaces:
        cfg._spaces[key] = enumerate_states(name, cfg, features=features)
    return cfg._spaces[key]


def _arg_combos(feature, cfg):
    """Cartesian product of argument pools; container arguments are drawn
    from the enumerated states of their type, as ``Ctx`` views holding
    only an identity token ``ref`` and the prestate ``old``."""
    pools = []
    for d in feature.arg_domains:
        if d[0] == "container":
            pools.append([Ctx(old=e.state, ref=Ref(f"arg{j}"))
                          for j, e in enumerate(state_space(d[1], cfg))])
        else:
            pools.append(domain_values(d, element_tokens(cfg.universe)))
    return itertools.product(*pools)


def _calls(features, cfg, allowed=None):
    """``(feature, arguments)`` for each of ``features`` named in
    ``allowed`` (all if None) and each of its argument combinations;
    features taking a container argument are left out."""
    return [(f, args) for f in features
            if (allowed is None or f.name in allowed)
            and not f.container_args
            for args in _arg_combos(f, cfg)]


def _model_clauses(feature, signature):
    """The model clauses that constrain a candidate, the target's poststate
    or the result: those naming a target.  A clause on a container
    argument's poststate (no target) constrains no candidate."""
    return [c for c in expand_frame(feature, signature)
            if c.tag == "model" and c.target is not None]


def _post_holds(clauses, old, new, args, result):
    ctx = Ctx(old=old, new=new, args=args, result=result)
    try:
        return all(c.fn(ctx) for c in clauses)
    except DomainError:
        # A partial clause rejects a candidate outside its domain; any other
        # exception is a specification error and propagates.
        return False


def _satisfying(defining, relational, index, old, args, on_result):
    """The candidates, in order, that satisfy the postcondition.  Each
    defining clause's ``expr`` is evaluated once (a DomainError leaves no
    candidate), the candidates whose defined targets hold those values
    are looked up in ``index``, and kept when the relational clauses hold."""
    ctx = Ctx(old=old, args=args)
    try:
        expected = [d.expr(ctx) for d in defining]
    except DomainError:
        return []
    return [c for c in index.get((*expected, *map(type, expected)), ())
            if _post_holds(relational, old, old if on_result else c, args,
                           c if on_result else None)]


def _completeness(name, feature, cfg):
    """Both verdicts of ``feature`` of container ``name``, from one pass
    over (prestate, arguments) pairs: each representative of the state
    space is a prestate, and a constructor has none.  Objects in one
    abstract state differ by identity token only, so the precondition runs
    under the representative's token and ``OTHER_REF``; a disagreement
    makes it unsound, with one witness per pair.  Where it holds, count the
    candidates that satisfy the model postcondition; more than one makes
    the feature incomplete.  A candidate is a state of the state space, or
    a query's result (``_result_candidates``).  The defining clauses are
    evaluated once per pair and their values looked up in an index of the
    candidates, built once per verdict; the relational ones run on the
    candidates found only.

    Only the contract is read: no feature body runs.  A container argument
    is a view of its prestate, and a clause on an argument's poststate
    constrains no candidate, so ``_model_clauses`` leaves it out.
    """
    on_result = feature.kind == "query"
    space = state_space(name, cfg)
    reps = [None] if feature.kind == "constructor" else space
    candidates = (_result_candidates(feature, cfg) if on_result
                  else [e.state for e in space])
    verdict = CheckVerdict(f"{name}.{feature.name}", tag=feature.incompleteness_tag)
    clauses = _model_clauses(feature, REGISTRY[name].signature)
    defining = [c for c in clauses if c.expr is not None]
    relational = [c for c in clauses if c.expr is None]
    # Candidates in order, by the values of their defined targets and the
    # types of those, so a bool and an int differ as by order_key.  A query's
    # defining clauses all target its result (ContainerSpec checks this).
    index = {}
    for c in candidates:
        values = [c if on_result else getattr(c, d.target) for d in defining]
        index.setdefault((*values, *map(type, values)), []).append(c)
    show = repr if on_result else serialize_state
    combos = list(_arg_combos(feature, cfg))
    for pre_e in reps:
        old, ref = (pre_e.state, pre_e.obj.ref) if pre_e else (None, None)
        for args in combos:
            holds = pre_holds(feature, old, args, ref)
            if pre_e and pre_holds(feature, old, args, OTHER_REF) != holds:
                verdict.pre_sound = False
                verdict.witnesses.append(
                    f"pre disagreement at {serialize_state(old)}")
            if not holds:
                continue
            satisfying = _satisfying(defining, relational, index, old, args,
                                     on_result)
            verdict.states_checked += len(candidates)
            if len(satisfying) > 1:
                verdict.post_complete = False
                where = f"from {serialize_state(old)}" if pre_e else "constructor"
                verdict.witnesses.append(
                    f"{where}: {show(satisfying[0])} vs {show(satisfying[1])}")
    return verdict


def check_command_completeness(name, feature_name, cfg) -> CheckVerdict:
    """For every valid prestate and argument combination, all candidate
    poststates satisfying the effective (frame-expanded) postcondition must
    be abstractly equal.  Candidates are drawn from the enumerated state
    space."""
    return _completeness(name, REGISTRY[name].feature(feature_name), cfg)


def _result_candidates(feature, cfg):
    d = feature.result_domain
    if d is None:
        return []
    if feature.returns_container:
        return [e.state for e in state_space(d[1], cfg)]
    if d == ("int",):
        # Sizes up to one past the bound, and a margin of negatives.
        d = ("int", -4, max(4, cfg.max_size) + 1)
    return domain_values(d, element_tokens(cfg.universe))


def check_query_completeness(name, feature_name, cfg) -> CheckVerdict:
    """All results satisfying the postcondition must be equal: model
    values by value, element results by token, container results by
    abstract state."""
    return _completeness(name, REGISTRY[name].feature(feature_name), cfg)


def check_constructor_completeness(name, ctor_name, cfg) -> CheckVerdict:
    """Constructors are queries returning fresh objects: all poststates
    satisfying the postcondition must be abstractly equal."""
    return _completeness(name, REGISTRY[name].feature(ctor_name), cfg)


@dataclass
class AdequacyVerdict:
    container: str
    depth: int
    adequate: bool = True
    failures: list = field(default_factory=list)
    pairs_checked: int = 0

    def to_dict(self):
        return {**asdict(self), "failures": sorted(self.failures)}


def _query_result(obj, feat, args):
    """What a client observes of a query whose precondition holds: a
    container-domain result by its abstract state, an element by its token."""
    result = feat.body(obj, *args)
    if feat.returns_container:
        return ("value", abstract_state(result))
    if isinstance(result, Ref):
        return ("ref", result.token)
    return ("value", result)


def _distinguishable(spec, queries, commands, e1, e2, depth):
    """Whether some call sequence of at most ``depth`` commands followed by
    a query tells the two ``Built`` objects apart.  One loop over the
    calls: a precondition (on ``e.state`` and ``e.obj.ref``) that holds on
    one object only tells them apart, a query runs on each stored ``e.obj``
    and compares results, a command recurses on the two ``_successor``s.
    The search is depth first, so its cost grows with ``depth`` even where
    a short sequence would do; callers deepen ``depth`` one level at a
    time."""
    for feat, args in queries + (commands if depth else []):
        holds = pre_holds(feat, e1.state, args, e1.obj.ref)
        if holds != pre_holds(feat, e2.state, args, e2.obj.ref):
            return True
        if not holds:
            continue
        if feat.kind == "query":
            if _query_result(e1.obj, feat, args) != _query_result(e2.obj, feat, args):
                return True
        elif _distinguishable(spec, queries, commands,
                              _successor(spec, e1, feat, args),
                              _successor(spec, e2, feat, args), depth - 1):
            return True
    return False


def check_observational_adequacy(name, cfg, model_fn=None, features=None):
    """Compare model-tuple equality against bounded indistinguishability.

    ``model_fn`` maps a concrete object to its model tuple (default: its
    recorded abstract state); ``features`` optionally restricts the
    interface, and a name the spec lacks is a KeyError.  Verdicts are
    valid up to call depth ``cfg.depth`` only.  Shortest call sequences
    are tried first: each pair is searched at depth 0, 1, ... in turn, so
    a pair told apart by a short sequence costs the same at any
    ``cfg.depth``.  Under the default model every pair of representatives
    is model-distinct, so only minimality is tested; soundness needs a
    coarser ``model_fn``.
    """
    spec = REGISTRY[name]
    # One representative per full abstract state; a model_fn may merge them.
    reps = [(e, e.state if model_fn is None else model_fn(e.obj))
            for e in state_space(name, cfg, features)]
    queries = _calls(spec.queries(), cfg, features)
    commands = _calls(spec.commands(), cfg, features)
    verdict = AdequacyVerdict(name, cfg.depth)
    for (e1, m1), (e2, m2) in itertools.combinations(reps, 2):
        verdict.pairs_checked += 1
        same_model = m1 == m2
        told_apart = any(_distinguishable(spec, queries, commands, e1, e2, k)
                         for k in range(cfg.depth + 1))
        if same_model == told_apart:
            verdict.adequate = False
            kind = ("soundness: model-equal but distinguishable" if same_model
                    else "minimality: model-distinct but indistinguishable")
            verdict.failures.append(f"{kind}: {serialize_state(e1.state)} "
                                    f"vs {serialize_state(e2.state)}")
    return verdict


BENIGN_TAGS = {"nondeterministic", "inheritance", "information-hiding"}


def classify_feature(name, feature_name, cfg) -> CheckVerdict:
    kind = REGISTRY[name].feature(feature_name).kind
    if kind == "constructor":
        return check_constructor_completeness(name, feature_name, cfg)
    if kind == "command":
        return check_command_completeness(name, feature_name, cfg)
    return check_query_completeness(name, feature_name, cfg)


def classify_library(cfg, names=None) -> dict:
    """Per-feature verdicts across registered containers, with summary
    counts.  An incomplete feature without a benign-cause tag is an error
    (it signals a specification bug)."""
    names = list(names) if names is not None else list(containers.CONTAINER_NAMES)
    report = {"containers": {}, "summary": {}}
    total = 0
    incomplete = 0
    errors = []
    for name in names:
        per = {}
        for feature_name in REGISTRY[name].named:
            v = classify_feature(name, feature_name, cfg)
            per[feature_name] = v.to_dict()
            total += 1
            if not v.post_complete:
                incomplete += 1
                if v.tag not in BENIGN_TAGS:
                    errors.append(f"{name}.{feature_name}: incomplete without benign tag")
            elif v.tag is not None and v.tag not in BENIGN_TAGS:
                errors.append(f"{name}.{feature_name}: unknown tag {v.tag!r}")
        report["containers"][name] = per
    report["summary"] = {
        "features": total,
        "incomplete": incomplete,
        "incomplete_pct": round(100.0 * incomplete / total, 1) if total else 0.0,
        "errors": sorted(errors),
    }
    return report


def report_to_json(report) -> str:
    return json.dumps(report, ensure_ascii=False, sort_keys=True, indent=2)
