"""Random-testing harness: determinism, fault discovery, replay."""

import json
import random

import pytest

from mbc.autotest import (
    CampaignResult, FaultReport, ReplayError, _decode_args,
    _decode_trace, _encode_arg, _encode_trace, generate_arguments, replay,
    run_campaign,
)
from mbc import autotest, containers, contracts
from mbc.checkers import (
    Built, EnumerationConfig, _build, _state_size, state_space,
)
from mbc.containers import CONTAINER_NAMES, EqSet, FaultSwitch, Stack
from mbc.contracts import (
    Clause, ContractViolation, PreconditionRejected, REGISTRY, abstract_state,
    domain_values, serialize_state,
)
from mbc.model_math import MSeq, Ref


LL = ["new", "LinkedList", "make_empty", []]


def faulty():
    return FaultSwitch(merge_right_missing_link=True)


def _stack_put_bag(fn):
    def patch(monkeypatch):
        put = REGISTRY["Stack"].features["put"]
        monkeypatch.setattr(put, "clauses",
                            (Clause("put/bag", "model", fn, target="bag"),)
                            + put.clauses[1:])
    return patch


def _stack_invariant(fn):
    def patch(monkeypatch):
        monkeypatch.setattr(REGISTRY["Stack"], "invariants",
                            (Clause("pair", "model", fn),))
    return patch


# A clause that raises: DomainError makes it false, anything else is an
# exception violation.  Each raises only on some states the campaign reaches
# (no constructor builds a stack of two).
RAISING_CLAUSES = {
    "post-domain-error": (
        _stack_put_bag(lambda c: c.old.bag.count != 1
                       or c.old.bag.removed(Ref("zz")) is None),
        "put/bag", "postcondition"),
    "invariant-domain-error": (
        _stack_invariant(lambda c: c.new.sequence.count != 2
                         or c.new.sequence.item(3) is not None),
        "Stack/invariant:pair", "class-invariant"),
    "post-zero-division": (
        _stack_put_bag(lambda c: 1 // (c.old.bag.count - 1) is not None),
        "put/bag/exception:ZeroDivisionError", "exception"),
}


def _eqset_make_raises(monkeypatch):
    def make(rel, faults=None):
        if rel.count > 4:
            raise RuntimeError("boom")
        return EqSet(rel, faults=faults)

    monkeypatch.setattr(REGISTRY["EqSet"].feature("make"), "body", make)


def _queue_make_empty_false(monkeypatch):
    ctor = REGISTRY["Queue"].feature("make_empty")
    monkeypatch.setattr(ctor, "clauses", tuple(
        Clause(k.cid, k.tag, lambda c: False, k.target)
        if k.cid == "make_empty/sequence"
        else k for k in ctor.clauses))


# A constructor that fails.  EqSet.make raises on the total relation over
# the element pool (16 pairs), not on the identity (4), so EqSet campaigns
# go on; Queue.make_empty's sequence clause is always false, so every Queue
# construction is a report while the Stack calls go on.
FAILING_CONSTRUCTORS = {
    "body-raises": (_eqset_make_raises, ["EqSet"],
                    "make/exception:RuntimeError", "exception"),
    "post-false": (_queue_make_empty_false, ["Queue", "Stack"],
                   "make_empty/sequence", "postcondition"),
}


def _stack_sequence_raises(monkeypatch):
    def model_sequence(self):
        if len(self.items) >= 3:
            raise IndexError("walk off the end")
        return MSeq(self.items)

    monkeypatch.setattr(Stack, "model_sequence", model_sequence)


def _stack_remove_pre(pre):
    def patch(monkeypatch):
        monkeypatch.setattr(REGISTRY["Stack"].features["remove"], "pre", pre)
    return patch


# A precondition or model query that raises.  A precondition raising
# DomainError is false, so the call is a rejection; one raising anything
# else, and a raising model query, is an exception violation.  No
# constructor builds a stack of one or three, so only calls raise.
RAISING_HOOKS = {
    "model-query": (_stack_sequence_raises,
                    {"put/model/exception:IndexError"}),
    "pre-domain-error": (
        _stack_remove_pre(lambda s, a, r: s.sequence.item(5) is not None),
        set()),
    "pre-zero-division": (
        _stack_remove_pre(lambda s, a, r: not s.sequence.is_empty
                          and 1 // (s.sequence.count - 1) is not None),
        {"remove/precondition/exception:ZeroDivisionError"}),
}


class TestCampaigns:
    def test_clean_library_small_run(self):
        r = run_campaign(CONTAINER_NAMES, 3000, 1)
        assert r.violations == 0
        assert r.stats["calls"] == 3000
        assert r.stats["passed"] + r.stats["rejected"] <= r.stats["calls"]

    def test_fault_found_and_localized(self):
        r = run_campaign(["LinkedList"], 10_000, 0, faults=faulty())
        assert r.violations >= 1
        assert {rep.violation["clause"] for rep in r.reports} == {"merge_right/sequence"}

    def test_deterministic_for_fixed_seed(self):
        a = run_campaign(["LinkedList"], 5000, 9, faults=faulty())
        b = run_campaign(["LinkedList"], 5000, 9, faults=faulty())
        assert a.to_json_lines() == b.to_json_lines()

    def test_different_seeds_differ(self):
        a = run_campaign(CONTAINER_NAMES, 2000, 1)
        b = run_campaign(CONTAINER_NAMES, 2000, 2)
        assert a.stats != b.stats

    def test_unknown_target_rejected(self):
        with pytest.raises(KeyError):
            run_campaign(["Nope"], 10, 0)

    def test_raising_body_is_a_replayable_report(self, monkeypatch):
        def remove(stack):
            if len(stack.items) >= 2:
                raise IndexError("remove from a stack of two")
            stack.items.pop()

        monkeypatch.setattr(REGISTRY["Stack"].features["remove"], "body",
                            remove)
        r = run_campaign(["Stack"], 500, 1)
        assert r.reports
        assert {rep.violation["clause"] for rep in r.reports} == {
            "remove/exception:IndexError"}
        for rep in r.reports:
            assert rep.violation["kind"] == "exception"
            assert rep.violation["seed"] == 1
            assert replay(rep).clause == "remove/exception:IndexError"

    @pytest.mark.parametrize("case", sorted(RAISING_CLAUSES))
    def test_raising_clause_is_a_replayable_report(self, monkeypatch, case):
        patch, clause, kind = RAISING_CLAUSES[case]
        patch(monkeypatch)
        r = run_campaign(["Stack"], 300, 1)
        assert r.reports
        for rep in r.reports:
            assert (rep.violation["clause"], rep.violation["kind"]) == (clause, kind)
            assert replay(rep).clause == clause

    @pytest.mark.parametrize("case", sorted(FAILING_CONSTRUCTORS))
    def test_failing_constructor_is_a_replayable_report(self, monkeypatch,
                                                        case):
        patch, targets, clause, kind = FAILING_CONSTRUCTORS[case]
        patch(monkeypatch)
        r = run_campaign(targets, 300, 4)
        assert r.stats["calls"] == 300
        assert r.reports and r.stats["passed"] > 0
        assert r.violations == len(r.reports)
        for rep in r.reports:
            assert (rep.violation["clause"], rep.violation["kind"]) == (clause, kind)
            assert rep.violation["old_state"] == "()"
            assert rep.violation["seed"] == 4
            [(new, type_name, _, _)] = rep.trace
            assert (new, type_name) == ("new", targets[0])
            assert replay(rep).clause == clause


    @pytest.mark.parametrize("case", sorted(RAISING_HOOKS))
    def test_raising_hook_is_a_replayable_report(self, monkeypatch, case):
        patch, clauses = RAISING_HOOKS[case]
        patch(monkeypatch)
        r = run_campaign(["Stack"], 300, 1)
        assert r.stats["calls"] == 300
        assert {rep.violation["clause"] for rep in r.reports} == clauses
        for rep in r.reports:
            assert rep.violation["kind"] == "exception"
            assert replay(rep).clause == rep.violation["clause"]
        if not clauses:
            assert r.stats["rejected"] > 0

    def test_clean_campaign_encodes_no_argument(self, monkeypatch):
        # JSON exists only in fault reports.
        def encode(*args):
            raise AssertionError("an argument was encoded")

        monkeypatch.setattr(autotest, "_encode_arg", encode)
        r = run_campaign(CONTAINER_NAMES, 3000, 1)
        assert r.violations == 0 and r.stats["passed"] > 0

    def test_state_taken_once_per_passed_constructor(self, monkeypatch):
        # A command returns its poststate and a query leaves the state as
        # it was, so the size cap takes no state of its own.
        counts = {"states": 0, "constructed": 0}
        state, constructor = autotest.abstract_state, autotest.checked_constructor

        def counting_state(obj):
            counts["states"] += 1
            return state(obj)

        def counting_constructor(*args, **kwargs):
            obj = constructor(*args, **kwargs)
            counts["constructed"] += 1
            return obj

        monkeypatch.setattr(autotest, "abstract_state", counting_state)
        monkeypatch.setattr(autotest, "checked_constructor",
                            counting_constructor)
        r = run_campaign(CONTAINER_NAMES, 3000, 1)
        assert r.stats["passed"] > counts["constructed"] > 0
        assert counts["states"] == counts["constructed"]

    def test_object_changed_outside_its_calls_fails_self_validation(
            self, monkeypatch):
        # Every Stack shares one list, so a call on one changes the others.
        # A query on another sees its held state differ from its poststate,
        # and replay of its own trace cannot reproduce that.
        shared = []

        def make_empty(faults=None):
            s = Stack(faults=faults)
            s.items = shared
            return s

        monkeypatch.setattr(REGISTRY["Stack"].feature("make_empty"),
                            "body", make_empty)
        with pytest.raises(RuntimeError) as e:
            run_campaign(["Stack"], 2000, 0)
        assert str(e.value) == (
            "fault report failed self-validation: is_empty/purity:target: "
            "the Stack target's own trace of 2 steps does not reproduce the "
            "violation (replay gives make_empty/sequence); either the object "
            "changed outside its own checked calls, or its implementation "
            "is not deterministic")


@pytest.mark.bytegate
class TestHeldPrestates:
    """A campaign passes each pool object's held state as the prestate of
    its next checked call, and on this library that state is exact.  CI
    runs these under several hash seeds: held and fresh states must agree
    whatever the hash order."""

    def _watch(self, monkeypatch):
        """Compare every given prestate with a fresh one; count the checked
        calls made with a held and with a fresh prestate."""
        counts = {"held": 0, "fresh": 0}
        call = contracts._checked_call

        def checking(spec, obj, name, kind, args, mode, faults=None,
                     old=None):
            if old is None:
                counts["fresh"] += 1
            else:
                counts["held"] += 1
                fresh = abstract_state(obj)
                assert old == fresh, (spec.name, name)
                assert serialize_state(old) == serialize_state(fresh)
            return call(spec, obj, name, kind, args, mode, faults, old)

        monkeypatch.setattr(contracts, "_checked_call", checking)
        return counts

    @pytest.mark.parametrize("mode", ["model", "classic"])
    @pytest.mark.parametrize("name", CONTAINER_NAMES)
    def test_held_state_is_the_fresh_state(self, monkeypatch, name, mode):
        counts = self._watch(monkeypatch)
        for seed in (1, 2, 3):
            r = run_campaign([name], 2000, seed, mode=mode)
            assert r.violations == 0
        assert counts["held"] > counts["fresh"] > 0

    @pytest.mark.parametrize("mode", ["model", "classic"])
    def test_held_state_is_the_fresh_state_under_the_fault(self, monkeypatch,
                                                           mode):
        counts = self._watch(monkeypatch)
        reports = 0
        for seed in (0, 1, 2):
            r = run_campaign(["LinkedList"], 2000, seed, faults=faulty(),
                             mode=mode)
            reports += len(r.reports)
        assert counts["held"] > counts["fresh"] > 0
        assert (reports > 0) == (mode == "model")

    def test_replay_takes_fresh_prestates(self, monkeypatch):
        r = run_campaign(["LinkedList"], 10_000, 0, faults=faulty())
        assert r.reports
        counts = self._watch(monkeypatch)
        for rep in r.reports:
            assert (replay(rep, faults=faulty()).clause
                    == rep.violation["clause"])
        assert counts["held"] == 0 and counts["fresh"] > 0


def reference_arguments(feature, rng, pools, target=None):
    """The draws of ``generate_arguments`` with no table: a value that is
    not a path is a choice over its domain's values, built each time."""
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
            args.append(rng.choice(domain_values(d, autotest.ELEMENT_POOL)))
    return args


def reference_campaign(targets, calls, seed, faults=None, mode="model"):
    """The campaign driver as it was before its per-call work was cut: it
    counts the pool on every iteration, copies every argument list twice
    and takes the size of the held state after every passed call.  Kept to
    pin ``run_campaign``'s bytes to it."""
    faults = faults or FaultSwitch()
    containers.reset_ref_counter()
    rng = random.Random(seed)
    pools = {t: [] for t in targets}
    features = {t: list(REGISTRY[t].features.values()) for t in targets}
    stats = {"calls": 0, "rejected": 0, "passed": 0, "violations": 0}
    reports = []

    def retire(a):
        for of_type in pools.values():
            if a in of_type:
                of_type.remove(a)

    while stats["calls"] < calls:
        target_name = rng.choice(targets)
        spec = REGISTRY[target_name]
        live_of_type = pools[target_name]
        if not live_of_type or (sum(map(len, pools.values()))
                                < autotest.MAX_OBJECTS
                                and rng.random() < 0.15):
            live = Built([], None, None)
            feature = rng.choice(spec.constructors)
        else:
            live = rng.choice(live_of_type)
            feature = rng.choice(features[target_name])
        args = reference_arguments(feature, rng, pools, target=live.obj)
        if args is None:
            continue
        raw_args = [a.obj if isinstance(a, Built) else a for a in args]
        step = (feature, [tuple(a.trace) if isinstance(a, Built) else a
                          for a in args])
        stats["calls"] += 1
        try:
            out = autotest._call(spec, live.obj, feature, raw_args, faults,
                                 mode, live.state)
        except PreconditionRejected:
            stats["rejected"] += 1
            continue
        except ContractViolation as v:
            stats["violations"] += 1
            report = FaultReport(violation={**v.to_dict(), "seed": seed},
                                 trace=_encode_trace(spec, [*live.trace, step]))
            confirmed = replay(report, faults=faults, mode=mode)
            assert confirmed is not None and confirmed.clause == v.clause
            reports.append(report)
            for a in [live, *args]:
                if isinstance(a, Built):
                    retire(a)
            continue
        stats["passed"] += 1
        live.trace.append(step)
        if feature.kind == "constructor":
            live.obj = out
            live.state = abstract_state(out)
            live_of_type.append(live)
            continue
        if feature.kind == "command":
            live.state = out
            for a in args:
                if isinstance(a, Built):
                    retire(a)
        if _state_size(live.state) > autotest.MAX_OBJECT_SIZE:
            retire(live)
    return CampaignResult(stats=stats, reports=reports)


@pytest.mark.bytegate
class TestDriverEquivalence:
    """``run_campaign`` draws the same values and writes the same bytes as
    the reference driver, while doing each piece of per-call work once.
    CI runs these under several hash seeds: the shared draw tables hold
    relations whose lookup memos are keyed by ``order_key``."""

    @pytest.mark.parametrize("mode", ["model", "classic"])
    @pytest.mark.parametrize("targets", [[n] for n in CONTAINER_NAMES]
                             + [list(CONTAINER_NAMES)],
                             ids=list(CONTAINER_NAMES) + ["all"])
    def test_same_bytes_as_the_reference(self, targets, mode):
        for seed in (0, 1, 2):
            got = run_campaign(targets, 1500, seed, mode=mode)
            want = reference_campaign(targets, 1500, seed, mode=mode)
            assert got.to_json_lines() == want.to_json_lines(), seed

    @pytest.mark.parametrize("mode", ["model", "classic"])
    def test_same_bytes_as_the_reference_under_the_fault(self, mode):
        reports = 0
        for seed in (0, 1, 2):
            got = run_campaign(["LinkedList"], 3000, seed, faults=faulty(),
                               mode=mode)
            want = reference_campaign(["LinkedList"], 3000, seed,
                                      faults=faulty(), mode=mode)
            assert got.to_json_lines() == want.to_json_lines(), seed
            reports += len(got.reports)
        assert (reports > 0) == (mode == "model")

    def test_state_size_once_per_passed_constructor_or_command(
            self, monkeypatch):
        counts = {"sizes": 0, "set": 0}
        call = autotest._call

        def sizing(state):
            counts["sizes"] += 1
            return _state_size(state)

        def calling(spec, obj, feature, *rest):
            out = call(spec, obj, feature, *rest)
            counts["set"] += feature.kind != "query"
            return out

        monkeypatch.setattr(autotest, "_state_size", sizing)
        monkeypatch.setattr(autotest, "_call", calling)
        r = run_campaign(CONTAINER_NAMES, 3000, 1)
        assert r.violations == 0
        assert 0 < counts["sizes"] <= counts["set"] < r.stats["passed"]

    def test_domain_values_once_per_domain(self, monkeypatch):
        built, build = [], autotest.domain_values

        def values(domain, elements):
            built.append(domain)
            return build(domain, elements)

        monkeypatch.setattr(autotest, "_TABLES", {})
        monkeypatch.setattr(autotest, "domain_values", values)
        for seed in (0, 1):
            assert run_campaign(CONTAINER_NAMES, 2000, seed).violations == 0
        assert built and len(built) == len(set(built))
        assert {d[0] for d in built} == {"element", "int", "bool",
                                         "relation"}


class TestReplay:
    def _one_report(self):
        r = run_campaign(["LinkedList"], 10_000, 0, faults=faulty())
        assert r.reports
        return r.reports[0]

    def test_report_reproduces_same_clause(self):
        rep = self._one_report()
        v = replay(rep, faults=faulty())
        assert v is not None
        assert v.clause == rep.violation["clause"]

    def test_trace_clean_without_fault(self):
        rep = self._one_report()
        assert replay(rep, faults=FaultSwitch()) is None

    def test_classic_clauses_miss_the_fault(self):
        rep = self._one_report()
        assert replay(rep, faults=faulty(), mode="classic") is None

    def test_report_json_round_trip(self):
        rep = self._one_report()
        d = json.loads(rep.to_json())
        rebuilt = FaultReport(violation=d["violation"], trace=d["trace"])
        v = replay(rebuilt, faults=faulty())
        assert v is not None and v.clause == rep.violation["clause"]

    def test_malformed_trace_rejected(self):
        with pytest.raises(ReplayError):
            replay(FaultReport(violation={}, trace=[]))
        with pytest.raises(ReplayError):
            replay(FaultReport(violation={},
                               trace=[["call", "start", []]]))
        with pytest.raises(ReplayError):
            replay(FaultReport(violation={},
                               trace=[["new", "NoSuch", "make_empty", []]]))

    def test_unknown_constructor_rejected(self):
        with pytest.raises(ReplayError, match="unknown constructor"):
            replay(FaultReport(violation={},
                               trace=[["new", "Stack", "nope", []]]))

    def test_command_is_no_constructor(self):
        with pytest.raises(ReplayError, match="unknown constructor Stack.put"):
            replay(FaultReport(violation={}, trace=[
                ["new", "Stack", "put", [["elem", "a"]]]]))

    def test_constructor_is_no_feature(self):
        with pytest.raises(ReplayError,
                           match="unknown feature Stack.make_empty"):
            replay(FaultReport(violation={}, trace=[
                ["new", "Stack", "make_empty", []],
                ["call", "make_empty", []]]))

    def test_constructor_arity_rejected(self):
        with pytest.raises(ReplayError, match="takes 0 arguments"):
            replay(FaultReport(violation={}, trace=[
                ["new", "Stack", "make_empty", [["elem", "a"]]]]))

    def test_feature_arity_rejected(self):
        with pytest.raises(ReplayError, match="takes 1 arguments"):
            replay(FaultReport(violation={}, trace=[
                ["new", "Stack", "make_empty", []], ["call", "put", []]]))

    def test_argument_kind_mismatch_rejected(self):
        # Stack.put takes an element; an integer in its place used to
        # replay clean.
        with pytest.raises(ReplayError, match="not tagged 'elem'"):
            replay(FaultReport(violation={}, trace=[
                ["new", "Stack", "make_empty", []],
                ["call", "put", [["int", 3]]]]))

    def test_argument_not_an_encoding_rejected(self):
        with pytest.raises(ReplayError, match=r"not a \[tag, value\] pair"):
            replay(FaultReport(violation={}, trace=[
                ["new", "Stack", "make_empty", []], ["call", "put", [5]]]))

    def test_argument_bad_value_rejected(self):
        with pytest.raises(ReplayError, match="bad argument value"):
            replay(FaultReport(violation={}, trace=[
                ["new", "ArrayT", "make",
                 [["int", "x"], ["int", 3], ["elem", "a"]]]]))

    @pytest.mark.parametrize("trace", [
        # ArrayT.make's upper bound is ("int", 0, 3).
        [["new", "ArrayT", "make", [["int", 1], ["int", 50], ["elem", "a"]]]],
        # An element token is a string from the element pool.
        [["new", "Stack", "make_empty", []], ["call", "put", [["elem", 7]]]],
        # LinkedList.duplicate's count is ("int", 0, 4).
        [["new", "LinkedList", "make_empty", []],
         ["call", "duplicate", [["int", 9]]]],
        # JSON true is not the integer 1, nor 1 the boolean true.
        [["new", "LinkedList", "make_empty", []],
         ["call", "duplicate", [["int", True]]]],
        [["new", "BinaryTree", "make_empty", []],
         ["call", "add_root", [["elem", "a"]]],
         ["call", "put_child", [["path", []], ["bool", 1], ["elem", "b"]]]],
        # A relation is the identity or total one over a whole universe.
        [["new", "EqSet", "make", [["rel", [["a", "a"], ["c", "c"]]]]]],
        # Element tokens run from a to z; "{" would be the 27th.
        [["new", "Stack", "make_empty", []], ["call", "put", [["elem", "{"]]]],
    ])
    def test_argument_outside_domain_rejected(self, trace):
        with pytest.raises(ReplayError, match="not in the domain"):
            replay(FaultReport(violation={}, trace=trace))

    @pytest.mark.parametrize("trace", [
        [5],
        [LL, 7],
        [["new", "LinkedList", "make_empty", 5]],
        [["new", ["x"], "make_empty", []]],
        [LL, ["call", ["x"], []]],
        [LL, ["call", "put_right", 5]],
        [LL, ["call", "merge_right", [["obj", 5]]]],
        # A container argument of the wrong type.
        [LL, ["call", "merge_right",
              [["obj", [["new", "Stack", "make_empty", []]]]]]],
    ])
    def test_malformed_shape_rejected(self, trace):
        with pytest.raises(ReplayError):
            replay(FaultReport(violation={}, trace=trace))

    def test_drawn_encodings_decode_to_the_drawn_arguments(self):
        # One pool object per type, built by a drawn constructor call, so
        # container arguments are drawn too; one is recorded as its trace.
        rng = random.Random(0)
        pools = {}
        for name in CONTAINER_NAMES:
            ctor = REGISTRY[name].constructors[0]
            step = (ctor, generate_arguments(ctor, rng, {}))
            pools[name] = [Built([step], object(), None)]
        tags = {"element": "elem", "relation": "rel", "container": "obj"}
        for name in CONTAINER_NAMES:
            spec = REGISTRY[name]
            for f in list(spec.features.values()) + list(spec.constructors):
                for _ in range(5):
                    args = generate_arguments(f, rng, pools)
                    recorded = [list(a.trace) if isinstance(a, Built) else a
                                for a in args]
                    encoded = [_encode_arg(d, a)
                               for d, a in zip(f.arg_domains, recorded)]
                    assert _decode_args(f, encoded) == recorded
                    assert [e[0] for e in encoded] == [
                        tags.get(d[0], d[0]) for d in f.arg_domains]

    def test_whole_trace_checked_before_anything_runs(self):
        # The merge_right step violates with the fault on; the step after
        # it names no feature, so the trace is rejected, not run.
        other = [LL, ["call", "put_right", [["elem", "b"]]]]
        trace = [LL, ["call", "put_right", [["elem", "a"]]],
                 ["call", "merge_right", [["obj", other]]]]
        v = replay(FaultReport(violation={}, trace=trace), faults=faulty())
        assert v.clause == "merge_right/sequence"
        with pytest.raises(ReplayError, match="unknown feature"):
            replay(FaultReport(violation={}, trace=trace + [
                ["call", "no_such_feature", []]]), faults=faulty())

    @pytest.mark.parametrize("cfg", [
        EnumerationConfig(max_size=2),
        # Element tokens past the campaign's pool.
        EnumerationConfig(universe=5, max_size=1)],
        ids=["max-size-2", "universe-5"])
    def test_enumerated_traces_encode_and_replay(self, cfg):
        # The checkers' traces are the campaign's: each representative's,
        # encoded for a report, replays clean and builds its state again.
        for name in CONTAINER_NAMES:
            spec = REGISTRY[name]
            for e in state_space(name, cfg):
                encoded = _encode_trace(spec, e.trace)
                report = FaultReport(violation={}, trace=encoded)
                assert replay(report) is None, (name, encoded)
                decoded_spec, trace = _decode_trace(encoded)
                assert decoded_spec is spec
                assert abstract_state(_build(spec, trace)) == e.state


def test_result_json_lines_shape():
    r = run_campaign(["Stack"], 500, 4)
    lines = r.to_json_lines().strip().splitlines()
    head = json.loads(lines[0])
    assert set(head["stats"]) == {"calls", "rejected", "passed", "violations"}
    assert isinstance(r, CampaignResult)
