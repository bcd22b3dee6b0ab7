"""Brute-force soundness/completeness and observational adequacy."""

import gc
import weakref

import pytest

from mbc import checkers
from mbc.checkers import (
    EnumerationConfig, EnumerationRefused, check_command_completeness,
    check_observational_adequacy, check_precondition_soundness,
    check_query_completeness, classify_feature, classify_library,
    distinct_states, enumerate_states, state_space,
)
from mbc.containers import CONTAINER_NAMES
from mbc.contracts import (
    Clause, ContainerSpec, Feature, ModelSignature, REGISTRY, abstract_state,
    register,
)

CFG = EnumerationConfig()


class TestEnumeration:
    def test_reaches_all_small_collections(self):
        states = distinct_states(enumerate_states("Collection", CFG))
        # Bags over {a, b} with total multiplicity <= 3: 1+2+3+4 states.
        assert len(states) == 10

    def test_traces_replay(self):
        from mbc.checkers import _build
        for e in distinct_states(enumerate_states("Stack", CFG)):
            rebuilt = _build(REGISTRY["Stack"], e.trace)
            assert abstract_state(rebuilt) == e.state

    def test_refusal_over_budget(self):
        big = EnumerationConfig(universe=30, max_size=30)
        with pytest.raises(EnumerationRefused):
            enumerate_states("Collection", big)


class TestStateSpace:
    def test_one_enumeration_per_container(self, monkeypatch):
        enumerated = []
        real = checkers.enumerate_states

        def counting(name, cfg, features=None):
            enumerated.append(name)
            return real(name, cfg, features=features)

        monkeypatch.setattr(checkers, "enumerate_states", counting)
        classify_library(EnumerationConfig(max_size=2))
        assert sorted(enumerated) == sorted(CONTAINER_NAMES)

    def test_shared_objects_are_not_mutated(self):
        cfg = EnumerationConfig(max_size=2)
        classify_library(cfg)
        for name in CONTAINER_NAMES:
            check_observational_adequacy(name, cfg)
        for name in CONTAINER_NAMES:
            produced, reps = state_space(name, cfg)
            assert all(abstract_state(e.obj) == e.state for e in produced)
            assert {e.state for e in reps} == {e.state for e in produced}

    def test_config_freed_without_cyclic_gc(self):
        # The memo lives on the config, so nothing a check leaves behind
        # may keep the config alive until a cyclic collection.
        cfg = EnumerationConfig(max_size=2)
        alive = weakref.ref(cfg)
        gc.collect()
        gc.disable()
        try:
            classify_library(cfg, names=["LinkedList", "Queue"])
            for name in ("LinkedList", "Queue"):
                check_observational_adequacy(name, cfg)
            del cfg
            assert alive() is None
        finally:
            gc.enable()


class TestCompleteness:
    def test_collection_features_sound_and_complete(self):
        for fname in ("is_empty", "wipe_out", "put"):
            v = classify_feature("Collection", fname, CFG)
            assert v.pre_sound and v.post_sound and v.post_complete, fname

    def test_dispenser_put_incomplete_by_position(self):
        v = check_command_completeness("Dispenser", "put", CFG)
        assert not v.post_complete
        assert v.tag == "inheritance"
        # The witness pair differs only in where the element was inserted.
        assert any("⟨a,b,b⟩" in w and "⟨b,a,b⟩" in w for w in v.witnesses)

    def test_dispenser_item_and_remove_incomplete(self):
        assert not check_query_completeness("Dispenser", "item", CFG).post_complete
        assert not check_command_completeness("Dispenser", "remove", CFG).post_complete

    def test_array_fill_complete(self):
        v = check_command_completeness("ArrayT", "fill", CFG)
        assert v.post_complete

    def test_table_put_complete(self):
        v = check_command_completeness("Table", "put", CFG)
        assert v.post_complete

    def test_reserve_incomplete_information_hiding(self):
        v = check_command_completeness("ArrayT", "reserve", CFG)
        assert not v.post_complete and v.tag == "information-hiding"

    def test_clause_error_is_not_a_rejection(self):
        # Only DomainError (a partial clause) rejects a candidate; a
        # misspelt model query must fail loudly, not read as complete.
        feature = REGISTRY["Collection"].features["wipe_out"]
        saved = feature.clauses
        feature.clauses = (Clause("wipe_out/bag", "model",
                                  lambda c: c.new.bgg.is_empty),)
        try:
            with pytest.raises(AttributeError):
                check_command_completeness("Collection", "wipe_out", CFG)
        finally:
            feature.clauses = saved

    def test_merge_right_complete_with_pinned_arguments(self):
        v = check_command_completeness("LinkedList", "merge_right", CFG)
        assert v.post_complete

    def test_unsound_precondition_detected(self):
        # A precondition that is not a function of the abstract state: two
        # objects with equal model tuples can disagree on it.
        import itertools
        sig = ModelSignature([("bag", "MBag")])
        from mbc.containers import Collection

        class Leaky(Collection):
            spec_name = "LeakyCollection"

        flipping = lambda s, a, r, _it=itertools.count(): next(_it) % 2 == 0
        spec = ContainerSpec(
            "LeakyCollection", sig,
            features=[
                Feature("put", "command",
                        body=Leaky.do_put,
                        clauses=(Clause("put/bag", "model",
                                        lambda c: c.new.bag == c.old.bag.extended(c.args[0])),),
                        mentioned=frozenset({"bag"}),
                        arg_domains=(("element",),)),
                Feature("leaky", "command",
                        pre=flipping,
                        body=lambda o: None,
                        clauses=(),
                        mentioned=frozenset({"bag"})),
            ],
            constructors=[Feature("make_empty", "constructor",
                                  body=lambda faults=None: Leaky(faults=faults),
                                  clauses=())])
        register(spec)
        try:
            v = check_precondition_soundness("LeakyCollection", "leaky", CFG)
            assert not v.pre_sound
        finally:
            del REGISTRY["LeakyCollection"]


class TestAdequacy:
    FULL = ["put", "item", "remove", "is_empty", "count", "wipe_out"]
    NO_REMOVE = ["put", "item", "is_empty", "count", "wipe_out"]

    def test_queue_full_interface_adequate(self):
        v = check_observational_adequacy("Queue", CFG, features=self.FULL)
        assert v.adequate, v.failures

    def test_queue_without_remove_reduced_model_adequate(self):
        def reduced(obj):
            s = abstract_state(obj)
            n = s.sequence.count
            return (n, s.sequence.item(1) if n else None)
        v = check_observational_adequacy("Queue", CFG, model_fn=reduced,
                                         features=self.NO_REMOVE)
        assert v.adequate, v.failures

    def test_queue_without_remove_full_model_not_minimal(self):
        v = check_observational_adequacy("Queue", CFG,
                                         features=self.NO_REMOVE)
        assert not v.adequate
        assert any(f.startswith("minimality") for f in v.failures)
        assert not any(f.startswith("soundness") for f in v.failures)

    def test_witness_pair_concrete(self):
        v = check_observational_adequacy("Queue", CFG,
                                         features=self.NO_REMOVE)
        assert any("⟨a,b⟩" in f and "⟨a,a⟩" in f for f in v.failures)


class TestLibraryReport:
    def test_summary_shape(self):
        rep = classify_library(CFG, names=["Collection", "Table"])
        assert rep["summary"]["features"] > 0
        assert rep["summary"]["errors"] == []
        assert "Collection" in rep["containers"]

    def test_untagged_incompleteness_is_error(self):
        feature = REGISTRY["Dispenser"].features["put"]
        saved = feature.incompleteness_tag
        feature.incompleteness_tag = None
        try:
            rep = classify_library(CFG, names=["Dispenser"])
            assert any("without benign tag" in e
                       for e in rep["summary"]["errors"])
        finally:
            feature.incompleteness_tag = saved
