"""Contract engine: model signatures, abstract states, frame expansion,
and runtime checking of pre/postconditions, invariants, and abstract purity.

Container types register a :class:`ContainerSpec` describing their model
queries and contracted features (:func:`refine` derives an heir's); the
functions here find an object's spec by its class and evaluate the
contracts against live objects.

An abstract state is a tuple of model values, of one AbstractState type
per signature.  Every postcondition and invariant clause is a
:class:`Clause`, ``fn(ctx)``, read on one record, :class:`Ctx`: the
call's target, each container argument and each checked object is seen
through one.  ``checked_command``, ``checked_query`` and
``checked_constructor`` name a feature and its kind, and one routine
checks a call of any kind: it takes each object's state (the target's
and every container argument's) once before the body, or uses the
caller's held one as the target's, and once after it, and checks
postconditions, purity and invariants against those snapshots; the
kinds differ only in data.  Which arguments are container objects, and
whether a query returns one, is read from the feature's domains
(``Feature.container_args``, ``Feature.returns_container``), never from
the objects, and a command's frame-expanded clauses are built once per
clause tuple (``expand_frame``).  Model mode checks every clause;
classic mode filters them.  A body or a model query that raises is an
``exception`` violation; so is a precondition, postcondition or
invariant clause that raises anything but ``DomainError``, which makes
it false.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, field, fields, replace
from operator import itemgetter
from typing import Callable, Optional, Sequence, Tuple

from .model_math import (
    DomainError, MSeq, ModelValue, identity_relation, to_text, total_relation,
)


class UsageError(Exception):
    """The engine was called inconsistently (e.g. mismatched signatures)."""


class ConfigurationError(Exception):
    """A contract references a name outside its model signature."""


class PreconditionRejected(Exception):
    """A call was filtered out by its precondition; not a fault."""

    def __init__(self, feature: str, reason: str = ""):
        super().__init__(f"{feature}: precondition rejected {reason}".rstrip())
        self.feature = feature


@dataclass(eq=False)
class ContractViolation(Exception):
    """A checked call failed: a postcondition, invariant or purity clause
    was false, or the body or a clause raised (kind ``exception``)."""
    feature: str
    clause: str
    kind: str  # postcondition | class-invariant | abstract-purity | exception
    old_state: str
    new_state: str
    args: tuple = field()  # argument texts; field(): no inherited default

    def __str__(self):
        return f"{self.clause} [{self.kind}]"

    def __reduce__(self):
        # For copy and pickle: BaseException's passes ``self.args`` alone.
        return type(self), tuple(getattr(self, f.name) for f in fields(self))

    def to_dict(self) -> dict:
        return {**asdict(self), "args": list(self.args)}


class ModelSignature:
    """Ordered model queries of a container type: (name, sort) pairs, or
    (name, sort, definition) for a query defined as by a JML ``represents``
    clause: ``definition(state)`` computes it from the queries that are
    not defined, which an object reads through its methods ``model_<q>``."""

    def __init__(self, entries: Sequence[tuple]):
        names = [e[0] for e in entries]
        if len(set(names)) != len(names) or not names:
            raise ConfigurationError("signature names must be unique and nonempty")
        self.entries = tuple(entries)
        self.names = tuple(names)
        # The method that reads each query, in order; None for a defined one.
        self.methods = tuple(None if len(e) > 2 else "model_" + e[0]
                             for e in entries)
        self.definitions = tuple((i, e[2]) for i, e in enumerate(entries)
                                 if len(e) > 2)
        self.defined = frozenset(names[i] for i, _ in self.definitions)
        # This signature's states: ``state.q`` reads the entry of query q.
        namespace = {q: property(itemgetter(i)) for i, q in enumerate(names)}
        namespace["__slots__"] = ()
        self.state_type = type("AbstractState", (AbstractState,), namespace)

    def __repr__(self):
        return f"ModelSignature({list(self.entries)!r})"


class AbstractState(tuple):
    """Tuple of model values, one per signature entry, in signature order.

    Abstract equivalence is tuple equality and the hash is the tuple's, so
    ``(True,)`` and ``(1,)`` are equal and hash alike.  Nothing tells states
    apart by signature: on this library two signatures of one arity either
    share their sorts (Table and BinaryTree) or differ in the class of
    their first value, which never compares equal.
    """

    __slots__ = ()

    def __new__(cls, signature: ModelSignature, values: Sequence[ModelValue]):
        if len(values) != len(signature.names):
            raise UsageError("state arity does not match signature")
        return tuple.__new__(signature.state_type, values)

    def __reduce__(self):
        # For copy and deepcopy; the generated type is not picklable by name.
        return tuple.__new__, (type(self), tuple(self))

    def __repr__(self):
        return f"AbstractState({serialize_state(self)})"


def serialize_state(state: AbstractState) -> str:
    return "(" + ", ".join(to_text(v) for v in state) + ")"


@dataclass
class Ctx:
    """One object in a checked call, as clauses see it.

    The call's target has the full context: its prestate ``old`` and
    poststate ``new``, the arguments ``args`` and the ``result``.  Each
    container argument is a ``Ctx`` too, with its ``old`` and ``new`` and
    no arguments or result; so is the object an invariant is checked on.
    Model clauses read only ``old``, ``new``, ``args`` and ``result``.
    Classic and representation clauses may also read the object ``obj``,
    its identity token ``ref`` and the pre-call snapshot ``cold``; all
    three are None when a clause is evaluated symbolically (e.g. by the
    completeness checkers).
    """
    old: Optional[AbstractState] = None
    new: Optional[AbstractState] = None
    args: Tuple = ()
    result: object = None
    obj: object = None
    cold: Optional[dict] = None
    ref: object = None


@dataclass(frozen=True)
class Clause:
    """One assertion clause, ``fn(ctx) -> bool`` on a :class:`Ctx`: a
    postcondition reads the call's target's, a class invariant the view of
    the object it constrains (its ``new`` and ``obj``) and has no target.
    Its tag says what it reads: a ``"model"`` clause the abstract states
    only, a ``"representation"`` invariant also the concrete fields it
    ties to the model, a ``"classic"`` clause the object and its pre-call
    snapshot, not the model.  Model
    mode checks all three; classic mode only the classic ones.

    A postcondition's model clause names the ``target`` it constrains: a
    model query of the poststate for a command or constructor,
    ``"result"`` for a query, and None for a clause on a container
    argument's poststate, which only a feature with a container argument
    may have.  The completeness checkers vary the target's poststate or
    the result only, so a clause on an argument's poststate constrains no
    candidate there.  ``expand_frame`` says which queries a command's
    frame covers.  A defining clause (built by :meth:`defines`) also gives the
    ``expr(ctx)`` its target must equal; ``expr`` reads no poststate and
    no result.  The checkers evaluate ``expr`` once instead of testing
    ``fn`` on every candidate.  Frame clauses are defining; the rest, with
    no ``expr``, are relational.
    """
    cid: str
    tag: str  # "model", "representation" or "classic"
    fn: Callable
    target: Optional[str] = None
    expr: Optional[Callable] = None

    @classmethod
    def defines(cls, cid, target, expr):
        """The model clause ``new.target == expr(ctx)``, or
        ``result == expr(ctx)`` when ``target`` is ``"result"``."""
        if target == "result":
            fn = lambda c: c.result == expr(c)
        else:
            fn = lambda c: getattr(c.new, target) == expr(c)
        return cls(cid, "model", fn, target, expr)


@dataclass
class Feature:
    """A feature as its spec declares it.  Its ``kind`` is ``"query"`` if
    it declares a ``result_domain``, else ``"command"``, or ``"constructor"``
    if its spec lists it under ``constructors``.  Its domains say, once,
    which arguments are objects the caller supplies (``container_args``)
    and whether a query's result is one (``returns_container``)."""
    name: str
    pre: Optional[Callable] = None  # fn(state, args, target_ref) -> bool
    clauses: Tuple[Clause, ...] = ()
    incompleteness_tag: Optional[str] = None  # nondeterministic | inheritance | information-hiding
    arg_domains: Tuple = ()  # one domain per argument, see domain_values
    result_domain: Optional[object] = None
    # fn(obj, *args) -> result, or fn(*args, faults=None) -> object for a
    # constructor; bound by ContainerSpec.
    body: Optional[Callable] = field(default=None, init=False, repr=False,
                                     compare=False)
    # expand_frame's memo: (clauses, signature, expanded clauses).
    _frame: Optional[tuple] = field(default=None, init=False, repr=False,
                                    compare=False)

    def __post_init__(self):
        self.kind = "command" if self.result_domain is None else "query"
        self.container_args = tuple(i for i, d in enumerate(self.arg_domains)
                                    if d[0] == "container")
        self.returns_container = (self.result_domain is not None
                                  and self.result_domain[0] == "container")


# Argument domains.  A feature declares one per argument: a tuple whose
# first entry names the kind.
#   ("element",)        an element token of the universe in use
#   ("int", lo, hi)     an integer in lo..hi
#   ("bool",)           False or True
#   ("path", n)         a tree path: a sequence of at most n booleans
#   ("relation",)       the identity or the total relation on the universe
#   ("container", T)    an object of registered type T; the caller supplies
#                       it (the checkers enumerate them, the tester draws
#                       live objects from its pool)
# Result domains use the same kinds, except that an integer result may
# leave its bounds to the checker: ("int",).

def domain_values(domain, elements):
    """All values of a non-container domain, in a fixed order, over the
    element tokens ``elements``."""
    kind = domain[0]
    if kind == "element":
        return list(elements)
    if kind == "int":
        return list(range(domain[1], domain[2] + 1))
    if kind == "bool":
        return [False, True]
    if kind == "path":
        return [MSeq(bits) for n in range(domain[1] + 1)
                for bits in itertools.product([False, True], repeat=n)]
    if kind == "relation":
        return [identity_relation(elements), total_relation(elements)]
    raise ValueError(f"unknown argument domain {domain!r}")


class ContainerSpec:
    """Self-description of a container type for the engine and the tools,
    named by its concrete class ``cls``.  Each feature runs the routine
    ``do_<name>`` of ``cls``, which must have one, and each constructor
    runs ``cls`` with its arguments and ``faults``.  ``named`` maps every
    feature, then every constructor, by name.  A ConfigurationError is
    raised for a name given twice, a constructor with a result domain (it
    returns its object), and a ``model_<q>`` method of ``cls`` for a query
    ``q`` that the signature defines."""

    def __init__(self, cls, signature, features, invariants=(),
                 constructors=(), snapshot=None):
        self.name = name = cls.__name__
        self.cls = cls
        self.signature = signature
        self.features = {f.name: f for f in features}
        self.invariants = tuple(invariants)
        self.constructors = tuple(constructors)
        self.snapshot = snapshot or (lambda obj: {})
        for q in signature.defined:
            if hasattr(cls, "model_" + q):
                raise ConfigurationError(
                    f"{name}: model_{q} reads the defined query {q!r}")
        self.named = {}
        for i, f in enumerate([*features, *constructors]):
            if f.name in self.named:
                raise ConfigurationError(f"{name}: two features named {f.name!r}")
            self.named[f.name] = f
            if i >= len(features):
                if f.result_domain is not None:
                    raise ConfigurationError(
                        f"{name}.{f.name}: a constructor declares a result")
                f.kind = "constructor"
            for c in f.clauses:
                if c.target is not None:
                    _check_target(name, f, c, signature)
                elif c.tag == "model" and not f.container_args:
                    raise ConfigurationError(
                        f"{name}.{f.name}: clause {c.cid} names no target")
            f.body = (cls if f.kind == "constructor"
                      else getattr(cls, "do_" + f.name, None))
            if f.body is None:
                raise ConfigurationError(
                    f"{name}.{f.name}: {cls.__name__} has no do_{f.name}")

    def feature(self, name) -> Feature:
        try:
            return self.named[name]
        except KeyError:
            raise KeyError(f"{self.name} has no feature {name!r}") from None

    def commands(self):
        return [f for f in self.features.values() if f.kind == "command"]

    def queries(self):
        return [f for f in self.features.values() if f.kind == "query"]


def _check_target(name, feature, clause, signature):
    """A query's clause constrains its result; a command's or
    constructor's, a model query."""
    where = f"{name}.{feature.name}: clause {clause.cid}"
    if feature.kind == "query":
        if clause.target != "result":
            raise ConfigurationError(f"{where} must target 'result'")
    elif clause.target not in signature.names:
        raise ConfigurationError(
            f"{where} targets unknown model query {clause.target!r}")


def declare(name, defines=None, clauses=(), **declared) -> Feature:
    """The feature ``name`` with the fields ``declared``, whose clauses are
    one defining clause ``<name>/<q>`` (:meth:`Clause.defines`) for each
    entry ``q: expr`` of ``defines``, in order, then ``clauses``."""
    return Feature(name, clauses=tuple(
        Clause.defines(f"{name}/{q}", q, expr)
        for q, expr in (defines or {}).items()) + clauses, **declared)


def refine(parent: ContainerSpec, cls, strengthen) -> ContainerSpec:
    """The spec of ``cls``, an heir of ``parent``: the parent's signature,
    invariants and snapshot, and copies of its constructors and features
    bound to ``cls``.  ``strengthen`` maps a feature's name to the heir's
    own defining clauses, ``{target: expr}`` as :func:`declare` takes them,
    checked after the parent's (Eiffel's ``ensure then``); a strengthened
    feature drops the parent's incompleteness tag.  The heir keeps the
    parent's preconditions and invariants and conjoins every postcondition,
    so it is a behavioural subtype by construction."""
    unknown = set(strengthen) - set(parent.features)
    if unknown:
        raise ConfigurationError(
            f"{cls.__name__}: {parent.name} has no {sorted(unknown)}")

    def heir(f):
        own = declare(f.name, strengthen.get(f.name)).clauses
        tag = None if own else f.incompleteness_tag
        return replace(f, clauses=f.clauses + own, incompleteness_tag=tag)

    return ContainerSpec(cls, parent.signature,
                         [heir(f) for f in parent.features.values()],
                         parent.invariants, [heir(c) for c in parent.constructors],
                         parent.snapshot)


REGISTRY: dict = {}
_BY_CLASS: dict = {}


def register(spec: ContainerSpec) -> ContainerSpec:
    REGISTRY[spec.name] = spec
    _BY_CLASS[spec.cls] = spec
    return spec


def spec_of(obj) -> ContainerSpec:
    """The registered spec of ``obj``'s class; an object of any other
    class, a subclass of a registered one too, is a UsageError."""
    try:
        return _BY_CLASS[type(obj)]
    except KeyError:
        raise UsageError(f"object {obj!r} is not a registered container") from None


def abstract_state(obj) -> AbstractState:
    """The tuple of current model-query values of a registered object.

    It calls each query that is not defined by its prebuilt method name,
    then fills in the defined ones, and builds the ``state_type`` directly:
    one value per query, so the arity check of ``AbstractState`` cannot fail.
    """
    sig = spec_of(obj).signature
    values = [getattr(obj, m)() if m else None for m in sig.methods]
    for i, definition in sig.definitions:
        values[i] = definition(tuple.__new__(sig.state_type, values))
    return tuple.__new__(sig.state_type, values)


def _serialize_arg(a) -> str:
    if isinstance(a, Ctx):
        return f"{a.ref.token}:{_state_text(a.old)}"
    return to_text(a)


def expand_frame(feature: Feature, signature: ModelSignature):
    """Effective clause tuple: a query's or constructor's own clauses; a
    command's explicit clauses, then one frame clause for every model
    query q that no clause targets and that is not defined (what fixes
    the queries it reads fixes it), which defines q as ``old.q``.  A
    defined query is computed from the queries that are not, so a clause
    on it may constrain any of them: a command with one gets no frame
    clause.  Built once per clause tuple and signature and kept on the
    feature, so callers must not mutate it."""
    if feature.kind != "command":
        return feature.clauses
    memo = feature._frame
    if (memo is not None and memo[0] is feature.clauses
            and memo[1] is signature):
        return memo[2]
    targets = {c.target for c in feature.clauses}
    targets = signature.names if targets & signature.defined else (
        targets | signature.defined)
    clauses = tuple(feature.clauses) + tuple(
        Clause.defines(f"{feature.name}/frame:{q}", q,
                       lambda c, _q=q: getattr(c.old, _q))
        for q in signature.names if q not in targets)
    feature._frame = (feature.clauses, signature, clauses)
    return clauses


def _state_text(state):
    """``serialize_state(state)``, or ``()`` for a state that does not
    exist (a constructor's prestate, or one whose model query raised)."""
    return "()" if state is None else serialize_state(state)


def _violation(feature_name, clause, kind, old, new, views):
    """A ContractViolation whose texts are written now, from immutable
    snapshots."""
    return ContractViolation(
        feature_name, clause, kind, _state_text(old), _state_text(new),
        tuple(_serialize_arg(v) for v in views))


def _exception(feature_name, where, e, old, new, views):
    """The ``exception`` violation named ``<where>/exception:<Type>`` for
    an exception ``e`` raised while checking a call of ``feature_name``."""
    return _violation(feature_name, f"{where}/exception:{type(e).__name__}",
                      "exception", old, new, views)


def _state(obj, feature_name, old, new, views):
    """``abstract_state(obj)``, taken for a call of ``feature_name``.  A
    model query that raises is an ``exception`` violation named
    ``<feature>/model/exception:<Type>``, raised from the original, with
    the states ``old`` and ``new`` taken so far."""
    try:
        return abstract_state(obj)
    except Exception as e:
        raise _exception(feature_name, f"{feature_name}/model", e, old, new,
                         views) from e


def pre_holds(feature, state, args, ref):
    """Whether ``feature``'s precondition holds on ``state``: an absent one
    holds, and one raising DomainError is false; any other exception
    propagates."""
    if feature.pre is None:
        return True
    try:
        return feature.pre(state, args, ref)
    except DomainError:
        return False


def _check_clauses(clauses, ctx, kind, feature_name, old, new, views, mode,
                   owner=None):
    """Raise a ``kind`` violation, written with ``old`` and ``new``, at the
    first clause ``mode`` keeps that is false on ``ctx``, named by its id
    (prefixed by ``<owner>/invariant:`` for an invariant of the spec named
    ``owner``).  Model mode keeps every clause, classic mode the classic
    ones.  A clause raising
    DomainError is false; one raising anything else is an ``exception``
    violation, raised from the original."""
    if mode != "model":
        clauses = [c for c in clauses if c.tag == "classic"]
    for clause in clauses:
        try:
            holds = clause.fn(ctx)
        except DomainError:
            holds = False
        except Exception as e:
            raise _exception(feature_name, _clause_name(clause, owner), e,
                             old, new, views) from e
        if not holds:
            raise _violation(feature_name, _clause_name(clause, owner), kind,
                             old, new, views)


def _clause_name(clause, owner):
    return clause.cid if owner is None else f"{owner}/invariant:{clause.cid}"


def _check_invariants(spec, view, feature_name, old, views, mode):
    """Check ``spec``'s invariant on ``view``, written with the target's
    prestate ``old`` and the poststate ``view.new``."""
    _check_clauses(spec.invariants, view, "class-invariant", feature_name,
                   old, view.new, views, mode, spec.name)


def _checked_call(spec, obj, name, kind, args, mode, faults=None, old=None):
    """Check one call of ``spec``'s feature or constructor ``name`` on
    ``obj``; return a command's checked poststate, a query's result, or a
    constructor's new object, built with ``faults`` (``obj`` is None).
    One not of ``kind``, or whose arguments do not match its domains in
    number or container type, is a UsageError, raised before anything runs.
    A given ``old`` is the target's prestate, as the caller last saw it
    checked, and no prestate of the target is taken; a wrong one is not
    trusted, since purity and the postconditions compare it with the
    poststate taken after the body.
    Only an argument of a container domain (``Feature.container_args``) is
    an object: it is seen through a ``Ctx`` with its own prestate and
    poststate, which a query checks for purity and a command or
    constructor against its invariant.  Only a query of a container result
    domain (``Feature.returns_container``) returns an object: its clauses
    read the object's state, and its invariant is checked.  Any other
    argument or result is a value, whatever it is.
    The kinds differ only in data: a constructor has no prestate; a query
    checks abstract purity of its target and container arguments; a
    command's clauses are frame-expanded.  A command's or constructor's
    target and container arguments must satisfy their invariants.  Raises
    PreconditionRejected when the precondition filters the call, and
    ContractViolation on a false clause or when the body, a clause, the
    precondition or a model query raises."""
    feature = spec.named.get(name)
    if feature is None:
        raise KeyError(f"{spec.name} has no feature {name!r}")
    if feature.kind != kind:
        raise UsageError(f"{spec.name}.{name} is a {feature.kind}, "
                         f"not a {kind}")
    query = kind == "query"
    views = raw = tuple(args)
    if len(raw) != len(feature.arg_domains):
        raise UsageError(f"{spec.name}.{name}: {len(raw)} arguments given, "
                         f"{len(feature.arg_domains)} declared")
    nested = feature.container_args
    if nested:  # each container argument seen with its prestate
        views = list(raw)
        for i in nested:
            a = raw[i]
            a_spec = spec_of(a)
            if a_spec.name != feature.arg_domains[i][1]:
                raise UsageError(f"{spec.name}.{name}: a {a_spec.name} "
                                 f"argument, not a {feature.arg_domains[i][1]}")
            views[i] = Ctx(obj=a, ref=a.ref, cold=a_spec.snapshot(a))
        views = tuple(views)
        for i in nested:
            views[i].old = _state(raw[i], name, None, None, views)
    if kind == "constructor":
        old = cold = ref = None
    else:
        if old is None:
            old = _state(obj, name, None, None, views)
        cold = spec.snapshot(obj)
        ref = obj.ref
    if feature.pre is not None:
        try:
            holds = pre_holds(feature, old, views, ref)
        except Exception as e:
            raise _exception(name, f"{name}/precondition", e, old, old,
                             views) from e
        if not holds:
            raise PreconditionRejected(f"{spec.name}.{name}")

    try:
        if kind == "constructor":
            out = obj = feature.body(*raw, faults=faults)
        else:
            out = feature.body(obj, *raw)
    except Exception as e:
        raise _exception(name, name, e, old, old, views) from e

    new = _state(obj, name, old, None, views)
    if query and old != new:
        raise _violation(name, f"{name}/purity:target", "abstract-purity",
                         old, new, views)
    for i in nested:
        v = views[i]
        v.new = _state(v.obj, name, old, new, views)
        if query and v.old != v.new:
            raise _violation(name, f"{name}/purity:argument",
                             "abstract-purity", old, v.new, views)
    result = out if query else None
    if query and feature.returns_container:  # clauses read its state
        result = _state(out, name, old, new, views)
    ctx = Ctx(old, new, views, result, obj, cold, obj.ref)
    _check_clauses(expand_frame(feature, spec.signature), ctx,
                   "postcondition", name, old, new, views, mode)
    if query:
        if feature.returns_container:
            _check_invariants(spec_of(out), Ctx(new=result, obj=out), name,
                              old, views, mode)
        return out
    _check_invariants(spec, ctx, name, old, views, mode)
    for i in nested:
        v = views[i]
        _check_invariants(spec_of(v.obj), v, name, old, views, mode)
    return new if kind == "command" else obj


def checked_command(obj, feature_name, args=(), mode="model", old=None):
    """Check a call of a command; return the poststate it checked.  A
    given ``old`` is ``obj``'s state as the caller last saw it checked,
    used as the prestate instead of a fresh one."""
    return _checked_call(spec_of(obj), obj, feature_name, "command", args,
                         mode, old=old)


def checked_query(obj, feature_name, args=(), mode="model", old=None):
    """Check a call of a query; return its result.  A given ``old`` is
    ``obj``'s state as the caller last saw it checked, used as the
    prestate instead of a fresh one."""
    return _checked_call(spec_of(obj), obj, feature_name, "query", args,
                         mode, old=old)


def checked_constructor(spec: ContainerSpec, ctor_name: str, args=(),
                        mode="model", faults=None):
    """Check a call of a constructor; return the new object."""
    return _checked_call(spec, None, ctor_name, "constructor", args, mode,
                         faults)
