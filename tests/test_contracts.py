"""Contract engine: frame expansion, checked calls, purity, violations."""

import json
import random

import pytest

from mbc import contracts
from mbc.autotest import ELEMENT_POOL
from mbc.containers import ALL_SPECS, Ref, FaultSwitch
from mbc.contracts import (
    Clause, ConfigurationError, ContainerSpec, ContractViolation, Feature,
    ModelSignature, PreconditionRejected, REGISTRY, UsageError, AbstractState,
    abstract_equal, abstract_state, checked_command, checked_constructor,
    checked_query, domain_values, draw_value, expand_frame, serialize_state,
)
from mbc.model_math import MSeq

SPEC = REGISTRY["LinkedList"]


def make_list(*items):
    obj = checked_constructor(SPEC, "make_empty", [])
    for x in reversed(items):
        checked_command(obj, "put_right", [Ref(x)])
    return obj


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
        assert abstract_equal(abstract_state(a), abstract_state(b))
        assert serialize_state(abstract_state(a)) == "(⟨x⟩, 0)"

    def test_arity_mismatch(self):
        with pytest.raises(UsageError):
            AbstractState(SPEC.signature, [MSeq()])


class TestFrameExpansion:
    def test_unmentioned_queries_get_frame_clauses(self):
        start = SPEC.features["start"]
        cids = [c.cid for c in expand_frame(start, SPEC.signature)]
        assert "start/frame:sequence" in cids
        assert not any("frame:index" in c for c in cids)

    def test_mentioned_and_relevant_are_skipped(self):
        put = REGISTRY["Dispenser"].features["put"]
        cids = [c.cid for c in expand_frame(put, REGISTRY["Dispenser"].signature)]
        # bag is mentioned, sequence is relevant: no frame clause for either.
        assert not any("frame:" in c for c in cids)

    def test_only_commands(self):
        with pytest.raises(UsageError):
            expand_frame(SPEC.features["count"], SPEC.signature)

    def test_signature_validation(self):
        sig = ModelSignature([("value", "int")])
        bad = Feature("f", "command", mentioned=frozenset({"nope"}))
        with pytest.raises(ConfigurationError):
            ContainerSpec("Bad", sig, features=[bad])


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

    def test_violation_json_fields(self):
        obj = make_list("x")
        obj.count = 7
        with pytest.raises(ContractViolation) as e:
            checked_command(obj, "start")
        d = json.loads(e.value.to_json())
        assert set(d) == {"feature", "clause", "kind", "old_state",
                          "new_state", "args", "seed"}

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

    def test_argument_views_carry_old_and_new(self):
        a, b = make_list("x"), make_list("y")
        checked_command(a, "merge_right", [b])
        assert abstract_state(a).sequence == MSeq([Ref("y"), Ref("x")])
        assert abstract_state(b).sequence.is_empty


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


class TestDomains:
    def test_declared_domains_have_values_and_draws_fall_inside(self):
        domains = sorted({d for spec in ALL_SPECS
                          for f in list(spec.features.values()) + list(spec.constructors)
                          for d in f.arg_domains if d[0] != "container"})
        assert {d[0] for d in domains} == {"element", "int", "bool", "path",
                                           "relation"}
        rng = random.Random(0)
        for d in domains:
            values = domain_values(d, ELEMENT_POOL)
            assert values, d
            typed = [(type(v), v) for v in values]
            for _ in range(200):
                x = draw_value(d, rng, ELEMENT_POOL)
                assert (type(x), x) in typed, (d, x)
