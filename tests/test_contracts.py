"""Contract engine: frame expansion, checked calls, purity, violations."""

import copy
import dataclasses
import json
import pickle
import random

import pytest

from mbc import contracts
from mbc.autotest import ELEMENT_POOL, generate_arguments
from mbc.checkers import EnumerationConfig, state_space
from mbc.containers import ALL_SPECS, CONTAINER_NAMES, Ref, FaultSwitch
from mbc.contracts import (
    Clause, ConfigurationError, ContainerSpec, ContractViolation, Ctx, Feature,
    ModelSignature, PreconditionRejected, REGISTRY, UsageError, AbstractState,
    abstract_state, checked_command, checked_constructor, checked_query,
    domain_values, expand_frame, serialize_state,
)
from mbc.model_math import MSeq

SPEC = REGISTRY["LinkedList"]


def make_list(*items):
    obj = checked_constructor(SPEC, "make_empty", [])
    for x in reversed(items):
        checked_command(obj, "put_right", [Ref(x)])
    return obj


class _Thing:
    """The concrete class of the specs built in these tests: it has a
    routine for their one feature, ``f``."""

    def do_f(self):
        pass


class TestAbstractState:
    def test_named_access(self):
        obj = make_list("x", "y")
        s = abstract_state(obj)
        assert s.sequence == MSeq([Ref("x"), Ref("y")])
        assert s.index == 0
        with pytest.raises(AttributeError):
            s.no_such_query

    def test_equality_and_serialization(self):
        a, b = make_list("x"), make_list("x")
        assert abstract_state(a) == abstract_state(b)
        assert serialize_state(abstract_state(a)) == "(⟨x⟩, 0)"

    def test_unregistered_subclass_is_a_usage_error(self):
        # Its spec would run the registered class's routines, not its own.
        from mbc.containers import Stack

        class Broken(Stack):
            def do_put(self, v):
                raise RuntimeError("not run by a checked call")

        obj = Broken()
        for call in (lambda: checked_command(obj, "put", [Ref("x")]),
                     lambda: checked_query(obj, "count"),
                     lambda: abstract_state(obj)):
            with pytest.raises(UsageError, match="not a registered container"):
                call()
        assert obj.items == []

    def test_arity_mismatch(self):
        with pytest.raises(UsageError):
            AbstractState(SPEC.signature, [MSeq()])

    def test_state_is_a_tuple(self):
        s = abstract_state(make_list("x", "y"))
        assert isinstance(s, tuple) and isinstance(s, AbstractState)
        assert s == tuple(s) == (MSeq([Ref("x"), Ref("y")]), 0)
        assert hash(s) == hash(tuple(s))
        # The model query, not tuple.index.
        assert s.index == 0
        assert repr(s) == "AbstractState((⟨x,y⟩, 0))"

    def test_copies_keep_the_type(self):
        s = abstract_state(make_list("x"))
        for c in (copy.copy(s), copy.deepcopy(s)):
            assert type(c) is type(s) and c == s and c.index == 0

    def test_equal_states_hash_alike(self):
        sig = ModelSignature([("value", "int")])
        a, b = AbstractState(sig, [True]), AbstractState(sig, [1])
        assert a == b and hash(a) == hash(b)

    def test_every_query_read_by_name_in_signature_order(self):
        # A query that is not defined is read by its method, a defined one
        # is its definition of the state.
        for name in CONTAINER_NAMES:
            sig = REGISTRY[name].signature
            for e in state_space(name, EnumerationConfig()):
                s = abstract_state(e.obj)
                assert type(s) is sig.state_type
                want = [entry[2](s) if len(entry) > 2
                        else getattr(e.obj, "model_" + entry[0])()
                        for entry in sig.entries]
                assert list(s) == want
                assert list(map(type, s)) == list(map(type, want))

    def test_model_methods_are_the_queries_not_defined(self):
        # A class's model_* methods are exactly those of its signature's
        # queries that are not defined.
        for spec in REGISTRY.values():
            sig, cls = spec.signature, spec.constructors[0].body
            methods = {a for a in dir(cls) if a.startswith("model_")}
            assert methods == {"model_" + q for q in sig.names
                               if q not in sig.defined}, spec.name
            # And its do_* routines exactly its commands and queries, so
            # no routine runs uncontracted.
            routines = {a for a in dir(cls) if a.startswith("do_")}
            assert routines == {"do_" + f for f in spec.features}, spec.name
        assert REGISTRY["Collection"].signature.defined == frozenset()
        for name in ("Dispenser", "Stack", "Queue"):
            assert REGISTRY[name].signature.defined == {"bag"}


class TestSnapshots:
    """A checked call takes each object's abstract state once before the
    body, unless the caller gives the target's, and once after it;
    invariants are checked on the snapshot."""

    def _count_states(self, monkeypatch):
        calls = []
        real = contracts.abstract_state
        monkeypatch.setattr(contracts, "abstract_state",
                            lambda obj: calls.append(obj) or real(obj))
        return calls

    def test_abstract_state_calls_per_checked_call(self, monkeypatch):
        stack = checked_constructor(REGISTRY["Stack"], "make_empty", [])
        a, b = make_list("x"), make_list("y")
        calls = self._count_states(monkeypatch)
        checked_constructor(REGISTRY["Stack"], "make_empty", [])
        assert len(calls) == 1
        calls.clear()
        checked_command(stack, "put", [Ref("a")])
        assert len(calls) == 2
        calls.clear()
        checked_command(a, "merge_right", [b])
        assert len(calls) == 4 and calls.count(a) == calls.count(b) == 2
        calls.clear()
        assert checked_query(a, "count") == 2
        assert len(calls) == 2

    def test_given_prestate_is_not_taken_again(self, monkeypatch):
        stack = checked_constructor(REGISTRY["Stack"], "make_empty", [])
        a, b = make_list("x"), make_list("y")
        held = {o: abstract_state(o) for o in (stack, a, b)}
        calls = self._count_states(monkeypatch)
        held[stack] = checked_command(stack, "put", [Ref("a")],
                                      old=held[stack])
        assert calls == [stack]
        calls.clear()
        assert checked_query(stack, "count", old=held[stack]) == 1
        assert calls == [stack]
        calls.clear()
        checked_command(a, "merge_right", [b], old=held[a])
        assert len(calls) == 3 and calls.count(a) == 1
        assert calls.count(b) == 2  # an argument's prestate is always fresh

    def test_wrong_prestate_is_caught_not_trusted(self):
        stack = checked_constructor(REGISTRY["Stack"], "make_empty", [])
        empty = abstract_state(stack)
        for x in ("a", "b"):
            checked_command(stack, "put", [Ref(x)])
        with pytest.raises(ContractViolation) as e:
            checked_query(stack, "count", old=empty)
        assert (e.value.clause, e.value.kind) == ("count/purity:target",
                                                  "abstract-purity")
        assert e.value.old_state == serialize_state(empty)
        with pytest.raises(ContractViolation) as e:
            checked_command(stack, "put", [Ref("c")], old=empty)
        assert e.value.kind == "postcondition"
        assert e.value.old_state == serialize_state(empty)
        # No given prestate: the call checks as it always did.  The body
        # of the failed put ran, so the twin's put makes the same stack.
        twin = checked_constructor(REGISTRY["Stack"], "make_empty", [])
        for x in ("a", "b"):
            checked_command(twin, "put", [Ref(x)])
        assert checked_query(twin, "count", old=None) == 2
        assert (checked_command(twin, "put", [Ref("c")], old=None)
                == abstract_state(stack))

    def test_argument_invariant_checked(self, monkeypatch):
        # The body leaves the argument's count field stale; with the classic
        # clause that reads the same field dropped, only the argument's
        # invariant can see it.
        feature = SPEC.features["merge_right"]
        original = feature.body

        def stale(o, other):
            n = other.count
            original(o, other)
            other.count = n

        monkeypatch.setattr(feature, "body", stale)
        monkeypatch.setattr(feature, "clauses", tuple(
            c for c in feature.clauses
            if c.cid != "merge_right/other_is_empty_classic"))
        a, b = make_list("x"), make_list("y")
        with pytest.raises(ContractViolation) as e:
            checked_command(a, "merge_right", [b])
        assert e.value.clause == "LinkedList/invariant:count_consistent"
        assert e.value.new_state == "(⟨⟩, 0)"  # the argument's poststate


class TestBodyExceptions:
    def test_command_body_raises(self, monkeypatch):
        stack = checked_constructor(REGISTRY["Stack"], "make_empty", [])
        checked_command(stack, "put", [Ref("a")])
        feature = REGISTRY["Stack"].features["remove"]
        monkeypatch.setattr(feature, "body", lambda o: [].pop())
        with pytest.raises(ContractViolation) as e:
            checked_command(stack, "remove")
        v = e.value
        assert (v.clause, v.kind) == ("remove/exception:IndexError", "exception")
        assert isinstance(v.__cause__, IndexError)
        assert v.old_state == v.new_state == "({a:1}, ⟨a⟩)"

    def test_query_body_raises(self, monkeypatch):
        obj = make_list("x")
        monkeypatch.setattr(SPEC.features["has"], "body", lambda o, x: 1 // 0)
        with pytest.raises(ContractViolation) as e:
            checked_query(obj, "has", [Ref("x")])
        assert e.value.clause == "has/exception:ZeroDivisionError"
        assert e.value.args == ("x",)

    def test_constructor_body_raises(self, monkeypatch):
        eqset = REGISTRY["EqSet"]
        monkeypatch.setattr(eqset.feature("make"), "body",
                            lambda rel, faults=None: 1 // 0)
        rel = domain_values(("relation",), ELEMENT_POOL)[0]
        with pytest.raises(ContractViolation) as e:
            checked_constructor(eqset, "make", [rel])
        v = e.value
        assert (v.clause, v.kind) == ("make/exception:ZeroDivisionError",
                                      "exception")
        assert isinstance(v.__cause__, ZeroDivisionError)
        assert v.old_state == v.new_state == "()"


class TestRaisingHooks:
    """A precondition raising DomainError is false; one raising anything
    else, or a raising model query, is an ``exception`` violation."""

    def _stack(self, *tokens):
        stack = checked_constructor(REGISTRY["Stack"], "make_empty", [])
        for t in tokens:
            checked_command(stack, "put", [Ref(t)])
        return stack

    def test_precondition_domain_error_is_a_rejection(self, monkeypatch):
        stack = self._stack("a")
        monkeypatch.setattr(REGISTRY["Stack"].features["remove"], "pre",
                            lambda s, a, r: s.sequence.item(5) is not None)
        with pytest.raises(PreconditionRejected):
            checked_command(stack, "remove")

    def test_precondition_raises(self, monkeypatch):
        stack = self._stack("a")
        monkeypatch.setattr(REGISTRY["Stack"].features["remove"], "pre",
                            lambda s, a, r: 1 // 0)
        with pytest.raises(ContractViolation) as e:
            checked_command(stack, "remove")
        v = e.value
        assert (v.clause, v.kind) == (
            "remove/precondition/exception:ZeroDivisionError", "exception")
        assert isinstance(v.__cause__, ZeroDivisionError)
        assert v.old_state == v.new_state == "({a:1}, ⟨a⟩)"

    def test_constructor_precondition_raises(self, monkeypatch):
        make = REGISTRY["EqSet"].feature("make")
        monkeypatch.setattr(make, "pre", lambda s, a, r: s.count)
        rel = domain_values(("relation",), ELEMENT_POOL)[0]
        with pytest.raises(ContractViolation) as e:
            checked_constructor(REGISTRY["EqSet"], "make", [rel])
        assert e.value.clause == "make/precondition/exception:AttributeError"
        assert e.value.old_state == e.value.new_state == "()"

    @pytest.mark.parametrize("size, old", [(2, "({a:1,b:1}, ⟨a,b⟩)"),
                                           (3, "()")])
    def test_model_query_raises(self, monkeypatch, size, old):
        # A stack of two raises in its poststate, one of three in its
        # prestate.
        stack = self._stack(*"abc"[:size])

        def model_sequence(self):
            if len(self.items) >= 3:
                raise IndexError("walk off the end")
            return MSeq(self.items)

        monkeypatch.setattr(type(stack), "model_sequence", model_sequence)
        with pytest.raises(ContractViolation) as e:
            checked_command(stack, "put", [Ref("d")])
        v = e.value
        assert (v.clause, v.kind) == ("put/model/exception:IndexError",
                                      "exception")
        assert isinstance(v.__cause__, IndexError)
        assert (v.old_state, v.new_state) == (old, "()")

    def test_argument_model_query_raises(self, monkeypatch):
        a, b = make_list("x"), make_list("y")
        real = type(b).model_sequence

        def model_sequence(self):
            if self is b:
                raise RuntimeError("broken argument")
            return real(self)

        monkeypatch.setattr(type(b), "model_sequence", model_sequence)
        with pytest.raises(ContractViolation) as e:
            checked_command(a, "merge_right", [b])
        v = e.value
        assert v.clause == "merge_right/model/exception:RuntimeError"
        assert v.old_state == v.new_state == "()"
        assert v.args == (f"{b.ref.token}:()",)


class TestFrameExpansion:
    def test_unmentioned_queries_get_frame_clauses(self):
        start = SPEC.features["start"]
        cids = [c.cid for c in expand_frame(start, SPEC.signature)]
        assert "start/frame:sequence" in cids
        assert not any("frame:index" in c for c in cids)

    def test_clause_on_a_defined_query_leaves_no_frame(self):
        put = REGISTRY["Dispenser"].features["put"]
        cids = [c.cid for c in expand_frame(put, REGISTRY["Dispenser"].signature)]
        # put/bag constrains the bag, so put may change the sequence that
        # defines it: no frame clause for either.
        assert cids == ["put/bag"]

    @pytest.mark.parametrize("name", ["Dispenser", "Stack", "Queue"])
    def test_defined_query_gets_no_frame_clause(self, name):
        # The bag is defined by the sequence, which remove and wipe_out
        # change: a frame clause would wrongly freeze it.  put/bag, which
        # says what put adds, is the family's only clause on the bag.
        spec = REGISTRY[name]
        for f in spec.named.values():
            clauses = expand_frame(f, spec.signature)
            assert [c.cid for c in clauses if c.target == "bag"] == (
                ["put/bag"] if f.name == "put" else []), f.name

    def test_query_and_constructor_keep_their_clauses(self):
        # Only a command has a frame: a query's state is kept by purity,
        # and a constructor has no prestate.
        for f in (SPEC.features["count"], SPEC.feature("make_empty")):
            assert f.clauses
            assert expand_frame(f, SPEC.signature) is f.clauses

    def test_frame_clauses_define_their_query(self):
        start = SPEC.features["start"]
        frame = expand_frame(start, SPEC.signature)[-1]
        assert (frame.cid, frame.target) == ("start/frame:sequence", "sequence")
        old = abstract_state(make_list("x"))
        assert frame.expr(Ctx(old=old, new=None)) == old.sequence

    def test_expanded_once_per_clause_tuple(self, monkeypatch):
        start = SPEC.features["start"]
        first = expand_frame(start, SPEC.signature)
        assert isinstance(first, tuple)
        assert expand_frame(start, SPEC.signature) is first
        own = (Clause.defines("start/index", "index", lambda c: 1),)
        monkeypatch.setattr(start, "clauses", own)
        again = expand_frame(start, SPEC.signature)
        assert again[0] is own[0]
        assert [c.cid for c in again] == [c.cid for c in first]

    def test_signature_validation(self):
        sig = ModelSignature([("value", "int")])
        bad = Feature("f", clauses=(
            Clause("f/nope", "model", lambda c: True, target="nope"),))
        with pytest.raises(ConfigurationError):
            ContainerSpec(_Thing, sig, features=[bad])


def _defines(target):
    return (Clause.defines("f/x", target, lambda c: 0),)


class TestBinding:
    SIG = ModelSignature([("value", "int")])

    def test_bodies_are_the_class_routines(self):
        spec = ContainerSpec(_Thing, self.SIG,
                             features=[Feature("f")],
                             constructors=[Feature("make")])
        assert spec.features["f"].body is _Thing.do_f
        assert spec.constructors[0].body is _Thing

    def test_named_holds_features_then_constructors(self):
        spec = ContainerSpec(_Thing, self.SIG,
                             features=[Feature("f")],
                             constructors=[Feature("make")])
        assert list(spec.named) == ["f", "make"]
        assert spec.feature("f") is spec.features["f"]
        assert spec.feature("make") is spec.constructors[0]
        with pytest.raises(KeyError, match="_Thing has no feature 'nope'"):
            spec.feature("nope")
        for spec in REGISTRY.values():
            assert list(spec.named.values()) == [*spec.features.values(),
                                                 *spec.constructors]

    def test_two_features_with_one_name_rejected(self):
        with pytest.raises(ConfigurationError,
                           match="_Thing: two features named 'f'"):
            ContainerSpec(_Thing, self.SIG, features=[
                Feature("f"), Feature("f", result_domain=("bool",))])

    def test_constructor_named_like_a_command_rejected(self):
        with pytest.raises(ConfigurationError,
                           match="_Thing: two features named 'f'"):
            ContainerSpec(_Thing, self.SIG,
                          features=[Feature("f")],
                          constructors=[Feature("f")])

    def test_missing_routine_rejected(self):
        with pytest.raises(ConfigurationError, match="_Thing has no do_g"):
            ContainerSpec(_Thing, self.SIG,
                          features=[Feature("g", result_domain=("bool",))])

    def test_spec_named_by_its_class(self):
        spec = ContainerSpec(_Thing, self.SIG, features=[])
        assert (spec.name, spec.cls) == ("_Thing", _Thing)
        for name, spec in REGISTRY.items():
            assert name == spec.name == spec.cls.__name__

    def test_model_method_of_a_defined_query_rejected(self):
        # The definition computes the bag; a model_bag would be a second
        # reading that no state ever takes.
        class Bagged(_Thing):
            def model_bag(self):
                pass

        sig = REGISTRY["Dispenser"].signature
        with pytest.raises(ConfigurationError,
                           match="Bagged: model_bag reads the defined query"):
            ContainerSpec(Bagged, sig, features=[])

    @pytest.mark.parametrize("result_domain, constructor, kind", [
        (None, False, "command"), (("bool",), False, "query"),
        (None, True, "constructor")])
    def test_kind_follows_the_declaration(self, result_domain, constructor,
                                          kind):
        # A result domain makes a query; a feature listed under
        # constructors is a constructor, whose body is the class.
        f = Feature("f", result_domain=result_domain)
        if constructor:
            ContainerSpec(_Thing, self.SIG, [], constructors=[f])
        else:
            ContainerSpec(_Thing, self.SIG, [f])
        assert f.kind == kind
        assert f.body is (_Thing if constructor else _Thing.do_f)

    def test_constructor_with_a_result_domain_rejected(self):
        # A constructor returns its object.
        with pytest.raises(ConfigurationError,
                           match="f: a constructor declares a result"):
            ContainerSpec(_Thing, self.SIG, [], constructors=[
                Feature("f", result_domain=("bool",))])

    def test_refining_an_unknown_feature_rejected(self):
        from mbc.containers import Stack
        with pytest.raises(ConfigurationError,
                           match=r"Dispenser has no \['nope'\]"):
            contracts.refine(REGISTRY["Dispenser"], Stack, {"nope": {}})

    def test_strengthened_ids_name_feature_and_target(self):
        class Heir(_Thing):
            pass

        parent = ContainerSpec(_Thing, self.SIG, [Feature("f")])
        heir = contracts.refine(parent, Heir, {"f": {"value": lambda c: 0}})
        assert [c.cid for c in heir.features["f"].clauses] == ["f/value"]
        assert heir.features["f"].clauses[0].target == "value"


class TestDefiningClauses:
    SIG = ModelSignature([("value", "int"), ("other", "int")])

    def test_fn_compares_with_expr(self):
        state = AbstractState(self.SIG, [3, 4])
        value = Clause.defines("f/value", "value", lambda c: c.old.other - 1)
        assert value.fn(Ctx(old=state, new=state))
        result = Clause.defines("q/result", "result", lambda c: c.old.other)
        assert result.fn(Ctx(old=state, new=None, result=4))
        assert not result.fn(Ctx(old=state, new=None, result=3))

    @pytest.mark.parametrize("feature, message", [
        (Feature("f", clauses=_defines("nope")),
         "unknown model query 'nope'"),
        (Feature("f", clauses=_defines("value"), result_domain=("int",)),
         "target 'result'"),
        # A result clause without a result domain is a command's, so it
        # names no model query; read as a query's, it would be complete
        # over no candidate results, a verdict that cannot fail.
        (Feature("f", clauses=_defines("result")),
         "unknown model query 'result'"),
    ])
    def test_bad_target_rejected(self, feature, message):
        with pytest.raises(ConfigurationError, match=message):
            ContainerSpec(_Thing, self.SIG, features=[feature])

    def test_constructor_target_must_be_a_query(self):
        ctor = Feature("make", clauses=_defines("result"))
        with pytest.raises(ConfigurationError, match="unknown model query"):
            ContainerSpec(_Thing, self.SIG, features=[],
                          constructors=[ctor])
        ok = Feature("make", clauses=_defines("value"))
        ContainerSpec(_Thing, self.SIG, features=[], constructors=[ok])

    @pytest.mark.parametrize("kind", ["command", "query", "constructor"])
    def test_target_less_model_clause_needs_a_container_argument(self, kind):
        # Such a clause constrains an argument's poststate; without a
        # container argument it is a forgotten target, which completeness
        # would silently leave out.
        def spec(clause, *arg_domains):
            feature = Feature("f", clauses=(clause,), arg_domains=arg_domains,
                              result_domain=("int",) if kind == "query" else None)
            if kind == "constructor":
                return ContainerSpec(_Thing, self.SIG, features=[],
                                     constructors=[feature])
            return ContainerSpec(_Thing, self.SIG, features=[feature])

        loose = Clause("f/x", "model", lambda c: True)
        with pytest.raises(ConfigurationError, match="f/x names no target"):
            spec(loose)
        spec(loose, ("container", "S"))
        spec(Clause("f/c", "classic", lambda c: True))


class TestCheckedCalls:
    def test_precondition_filters(self):
        obj = make_list()
        with pytest.raises(PreconditionRejected):
            checked_query(obj, "item")

    def test_query_result_checked(self):
        obj = make_list("x", "y")
        assert checked_query(obj, "count") == 2
        assert checked_query(obj, "has", [Ref("y")]) is True

    def test_frame_violation_detected(self):
        # A command body that silently changes an unmentioned query.
        obj = make_list("x")
        feature = SPEC.features["start"]
        original = feature.body
        feature.body = lambda o: (original(o), o.first.__setattr__("item", Ref("z")))
        try:
            with pytest.raises(ContractViolation) as e:
                checked_command(obj, "start")
            assert e.value.clause == "start/frame:sequence"
        finally:
            feature.body = original

    def test_purity_violation_detected(self):
        obj = make_list("x")
        feature = SPEC.features["count"]
        original = feature.body
        feature.body = lambda o: (o.items if False else o).__setattr__("index", 1) or 0
        try:
            with pytest.raises(ContractViolation) as e:
                checked_query(obj, "count")
            assert e.value.kind == "abstract-purity"
        finally:
            feature.body = original

    def test_invariant_violation_detected(self):
        obj = make_list("x")
        obj.count = 7  # concrete field out of sync with the chain
        with pytest.raises(ContractViolation) as e:
            checked_command(obj, "start")
        assert e.value.kind == "class-invariant"

    def test_returned_container_invariant_checked(self, monkeypatch):
        # The copy's count field stays 0.  duplicate's clauses read the
        # copy's cell chain and hold; only the copy's invariant sees it.
        feature = SPEC.features["duplicate"]
        original = feature.body

        def forgetful(o, n):
            copy = original(o, n)
            copy.count = 0
            return copy

        monkeypatch.setattr(feature, "body", forgetful)
        obj = make_list("x")
        checked_command(obj, "start")
        with pytest.raises(ContractViolation) as e:
            checked_query(obj, "duplicate", [1])
        v = e.value
        assert (v.clause, v.kind) == ("LinkedList/invariant:count_consistent",
                                      "class-invariant")
        assert (v.old_state, v.new_state) == ("(⟨x⟩, 1)", "(⟨x⟩, 0)")

    def test_container_in_a_value_result_domain_is_a_value(self,
                                                           monkeypatch):
        # Only a query of a container result domain returns an object.
        # Declared with a value domain, duplicate's copy is returned as it
        # is: the clauses see the copy itself, not its state, and its
        # invariant, broken here, is not checked.
        seen = []
        duplicate = SPEC.features["duplicate"]

        def forgetful(o, n):
            copy = duplicate.body(o, n)
            copy.count = 0
            return copy

        plain = dataclasses.replace(
            duplicate, result_domain=("element",), clauses=(
                Clause("duplicate/seen", "classic",
                       lambda c: seen.append(c.result) or True),))
        plain.body = forgetful
        monkeypatch.setitem(SPEC.features, "duplicate", plain)
        monkeypatch.setitem(SPEC.named, "duplicate", plain)
        obj = make_list("x")
        checked_command(obj, "start")
        states = []
        real = contracts.abstract_state
        monkeypatch.setattr(contracts, "abstract_state",
                            lambda o: states.append(o) or real(o))
        out = checked_query(obj, "duplicate", [1])
        assert isinstance(out, type(obj)) and out.count == 0
        assert len(seen) == 1 and seen[0] is out
        assert states == [obj, obj]

    def test_violation_json_fields(self):
        obj = make_list("x")
        obj.count = 7
        with pytest.raises(ContractViolation) as e:
            checked_command(obj, "start")
        d = e.value.to_dict()
        assert set(d) == {"feature", "clause", "kind", "old_state",
                          "new_state", "args"}
        assert json.loads(json.dumps(d)) == d

    def test_classic_mode_skips_model_clauses(self):
        faults = FaultSwitch(merge_right_missing_link=True)
        a = checked_constructor(SPEC, "make_empty", [], faults=faults)
        a.do_put_right(Ref("x"))
        b = checked_constructor(SPEC, "make_empty", [], faults=faults)
        b.do_put_right(Ref("y"))
        with pytest.raises(ContractViolation):
            checked_command(a, "merge_right", [b])
        a2 = checked_constructor(SPEC, "make_empty", [], faults=faults)
        a2.do_put_right(Ref("x"))
        b2 = checked_constructor(SPEC, "make_empty", [], faults=faults)
        b2.do_put_right(Ref("y"))
        checked_command(a2, "merge_right", [b2], mode="classic")  # passes

    def test_constructor_postcondition(self):
        obj = checked_constructor(SPEC, "make_empty", [])
        assert abstract_state(obj).sequence.is_empty

    def test_command_returns_its_poststate(self):
        obj = make_list("x")
        new = checked_command(obj, "put_right", [Ref("y")])
        assert new == abstract_state(obj)
        assert type(new) is type(abstract_state(obj))
        assert checked_command(obj, "forth") == abstract_state(obj)

    def test_argument_views_carry_old_and_new(self):
        a, b = make_list("x"), make_list("y")
        checked_command(a, "merge_right", [b])
        assert abstract_state(a).sequence == MSeq([Ref("y"), Ref("x")])
        assert abstract_state(b).sequence.is_empty

    def test_feature_of_another_kind_is_a_usage_error(self, monkeypatch):
        # Nothing runs: no body, no snapshot, no precondition.
        obj = make_list("x", "y")
        checked_command(obj, "start")
        before = abstract_state(obj)
        ran = []
        for f in (SPEC.features["forth"], SPEC.features["count"],
                  SPEC.feature("make_empty")):
            monkeypatch.setattr(f, "body",
                                lambda *a, _f=f, **k: ran.append(_f.name))
            monkeypatch.setattr(f, "pre",
                                lambda *a, _f=f: ran.append(_f.name))
        monkeypatch.setattr(contracts, "abstract_state",
                            lambda o: ran.append("abstract_state"))
        with pytest.raises(UsageError, match="forth is a command"):
            checked_query(obj, "forth")
        with pytest.raises(UsageError, match="count is a query"):
            checked_command(obj, "count")
        with pytest.raises(UsageError, match="forth is a command"):
            checked_constructor(SPEC, "forth")
        with pytest.raises(UsageError, match="make_empty is a constructor"):
            checked_command(obj, "make_empty")
        assert ran == []
        monkeypatch.undo()
        assert abstract_state(obj) == before

    @pytest.mark.parametrize("target, feature, args, message", [
        ("Stack", "put", [], r"Stack\.put: 0 arguments given, 1 declared"),
        (None, "make_empty", [Ref("x")],
         r"Stack\.make_empty: 1 arguments given, 0 declared"),
        ("LinkedList", "merge_right", ["Stack"],
         r"LinkedList\.merge_right: a Stack argument, not a LinkedList"),
    ])
    def test_call_not_matching_its_declaration_is_a_usage_error(
            self, monkeypatch, target, feature, args, message):
        # The caller's mistake, raised before any state is taken; the body
        # would raise and blame the implementation.
        objects = {n: checked_constructor(REGISTRY[n], "make_empty")
                   for n in ("Stack", "LinkedList")}
        args = [objects.get(a, a) for a in args]
        taken = []
        monkeypatch.setattr(contracts, "abstract_state", taken.append)
        with pytest.raises(UsageError, match=message):
            if target is None:
                checked_constructor(REGISTRY["Stack"], feature, args)
            else:
                checked_command(objects[target], feature, args)
        assert taken == []


def test_model_invariants_that_read_the_object():
    # Every invariant tagged "model" can be evaluated on an abstract state
    # alone; the two that read the concrete object are tagged
    # "representation".
    cfg = EnumerationConfig()
    unreadable = set()
    for name in CONTAINER_NAMES:
        for e in state_space(name, cfg):
            for c in REGISTRY[name].invariants:
                if c.tag != "model":
                    continue
                try:
                    c.fn(Ctx(new=e.state))
                except AttributeError:
                    unreadable.add(f"{name}/{c.cid}")
    assert unreadable == set()
    assert {f"{name}/{c.cid}" for name in CONTAINER_NAMES
            for c in REGISTRY[name].invariants
            if c.tag == "representation"} == {
                "LinkedList/count_consistent", "ArrayT/domain_contiguous"}


class TestViolationText:
    def test_clean_calls_write_no_text(self, monkeypatch):
        # State and argument text is written only when a violation is raised.
        calls = []
        for name in ("serialize_state", "to_text"):
            real = getattr(contracts, name)
            monkeypatch.setattr(contracts, name,
                                lambda v, _real=real: calls.append(v) or _real(v))
        a, b = make_list("x", "y"), make_list("z")
        checked_command(a, "start")
        checked_command(a, "merge_right", [b])
        assert checked_query(a, "item") == Ref("x")
        assert checked_query(a, "has", [Ref("z")]) is True
        assert checked_query(a, "count") == 3
        assert calls == []

    def test_message_is_the_clause_and_kind(self, monkeypatch):
        # For a call with arguments and one without; ``args`` keeps the
        # argument texts.
        obj = make_list("x")
        monkeypatch.setattr(SPEC.features["put_right"], "body",
                            lambda o, v: None)
        with pytest.raises(ContractViolation) as e:
            checked_command(obj, "put_right", [Ref("b")])
        assert str(e.value) == "put_right/sequence [postcondition]"
        assert e.value.args == ("b",)
        checked_command(obj, "start")
        monkeypatch.setattr(SPEC.features["item"], "body", lambda o: Ref("z"))
        with pytest.raises(ContractViolation) as e:
            checked_query(obj, "item")
        assert str(e.value) == "item/result [postcondition]"
        # An int and a bool argument read as ``to_text`` writes them.
        array = REGISTRY["ArrayT"]
        obj = checked_constructor(array, "make", [1, 3, Ref("a")])
        monkeypatch.setattr(array.features["put"], "body",
                            lambda o, v, k: None)
        with pytest.raises(ContractViolation) as e:
            checked_command(obj, "put", [True, 3])
        assert str(e.value) == "put/map [postcondition]"
        assert e.value.args == ("True", "3")

    def test_copies_and_pickles_keep_every_field(self, monkeypatch):
        obj = make_list("x")
        monkeypatch.setattr(SPEC.features["put_right"], "body",
                            lambda o, v: None)
        with pytest.raises(ContractViolation) as e:
            checked_command(obj, "put_right", [Ref("b")])
        v = e.value
        assert repr(v).startswith(
            "ContractViolation(feature='put_right', "
            "clause='put_right/sequence', kind='postcondition', ")
        assert str(v) == "put_right/sequence [postcondition]"
        assert v.to_dict() == {
            "feature": "put_right", "clause": "put_right/sequence",
            "kind": "postcondition", "old_state": "(⟨x⟩, 0)",
            "new_state": "(⟨x⟩, 0)", "args": ["b"]}
        for w in (copy.copy(v), copy.deepcopy(v),
                  pickle.loads(pickle.dumps(v))):
            assert type(w) is ContractViolation and w is not v
            assert (str(w), repr(w), w.to_dict(), w.args) == (
                str(v), repr(v), v.to_dict(), ("b",))

    def test_argument_text_shows_the_state_before_the_call(self):
        faults = FaultSwitch(merge_right_missing_link=True)
        a = checked_constructor(SPEC, "make_empty", [], faults=faults)
        checked_command(a, "put_right", [Ref("x")])
        b = checked_constructor(SPEC, "make_empty", [], faults=faults)
        checked_command(b, "put_right", [Ref("y")])
        with pytest.raises(ContractViolation) as e:
            checked_command(a, "merge_right", [b])
        assert e.value.clause == "merge_right/sequence"
        assert abstract_state(b).sequence.is_empty  # the body emptied it
        assert e.value.args == (f"{b.ref.token}:(⟨y⟩, 0)",)
        assert e.value.old_state == "(⟨x⟩, 0)"


class TestContainerArguments:
    """Only an argument of a container domain is an object: it is seen
    with its prestate and poststate, a query checks it for purity and a
    command checks its invariant (``TestSnapshots``).  An argument of any
    other domain is a value, even a container."""

    def _count_with_list(self, monkeypatch, body):
        # LinkedList's count, taking a list it may not change.
        count = dataclasses.replace(SPEC.features["count"],
                                    arg_domains=(("container", "LinkedList"),))
        count.body = body
        monkeypatch.setitem(SPEC.features, "count", count)
        monkeypatch.setitem(SPEC.named, "count", count)

    def test_query_checks_argument_purity(self, monkeypatch):
        def count_and_grow(o, other):
            other.do_put_right(Ref("z"))
            return o.count

        self._count_with_list(monkeypatch, count_and_grow)
        a, b = make_list("x"), make_list("y")
        before = serialize_state(abstract_state(b))
        with pytest.raises(ContractViolation) as e:
            checked_query(a, "count", [b])
        v = e.value
        assert (v.clause, v.kind) == ("count/purity:argument",
                                      "abstract-purity")
        assert v.args == (f"{b.ref.token}:{before}",)  # its prestate
        assert v.new_state == serialize_state(abstract_state(b))

    def test_query_sees_argument_old_and_new(self, monkeypatch):
        views = []

        def count(o, other):
            return o.count

        self._count_with_list(monkeypatch, count)
        feature = SPEC.features["count"]
        monkeypatch.setattr(feature, "clauses", feature.clauses + (
            Clause("count/seen", "classic",
                   lambda c: views.append(c.args[0]) or True),))
        a, b = make_list("x"), make_list("y", "z")
        assert checked_query(a, "count", [b]) == 1
        [view] = views
        assert view.obj is b and view.ref is b.ref
        assert view.old == view.new == abstract_state(b)
        assert view.cold == {"count": 2, "index": 0}

    def test_container_in_a_value_domain_is_a_value(self, monkeypatch):
        a, b = make_list("x"), make_list("y")
        states = []
        real = contracts.abstract_state
        monkeypatch.setattr(contracts, "abstract_state",
                            lambda obj: states.append(obj) or real(obj))
        assert checked_query(a, "has", [b]) is False
        assert states == [a, a]


class TestDomains:
    def test_declared_domains_have_values_and_draws_fall_inside(self):
        domains = sorted({d for spec in ALL_SPECS
                          for f in spec.named.values()
                          for d in f.arg_domains if d[0] != "container"})
        assert {d[0] for d in domains} == {"element", "int", "bool", "path",
                                           "relation"}
        rng = random.Random(0)
        for d in domains:
            values = domain_values(d, ELEMENT_POOL)
            assert values, d
            typed = [(type(v), v) for v in values]
            feature = Feature("f", arg_domains=(d,))
            for _ in range(200):
                [x] = generate_arguments(feature, rng, {})
                assert (type(x), x) in typed, (d, x)
