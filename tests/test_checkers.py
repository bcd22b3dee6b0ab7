"""Brute-force soundness/completeness and observational adequacy."""

import dataclasses
import gc
import pickle
import weakref

import pytest

from mbc import checkers, contracts
from mbc.checkers import (
    CheckVerdict, EnumerationConfig, EnumerationRefused, check_command_completeness,
    check_observational_adequacy, check_query_completeness, classify_feature,
    classify_library, enumerate_states, state_space,
)
from mbc.containers import CONTAINER_NAMES, fresh_ref, reset_ref_counter
from mbc.contracts import (
    Clause, ContainerSpec, Feature, ModelSignature, REGISTRY, abstract_state,
    register, serialize_state,
)
from mbc.model_math import MMap, MSeq, int_interval

CFG = EnumerationConfig()


class TestEnumeration:
    def test_reaches_all_small_collections(self):
        states = enumerate_states("Collection", CFG)
        # Bags over {a, b} with total multiplicity <= 3: 1+2+3+4 states.
        assert len(states) == 10

    def test_traces_replay(self):
        from mbc.checkers import _build
        for e in enumerate_states("Stack", CFG):
            rebuilt = _build(REGISTRY["Stack"], e.trace)
            assert abstract_state(rebuilt) == e.state

    def test_representatives_are_distinct_and_in_text_order(self):
        for name in CONTAINER_NAMES:
            reps = state_space(name, CFG)
            texts = [serialize_state(e.state) for e in reps]
            assert texts == sorted(set(texts)), name

    def test_refusal_over_budget(self):
        big = EnumerationConfig(universe=30, max_size=30)
        with pytest.raises(EnumerationRefused):
            enumerate_states("Collection", big)


    def test_estimate_weighs_each_state_by_its_trace(self):
        # k elements are rebuilt from a trace of k + 1 steps, and each
        # sequence is counted once per cursor slot (max_size + 2).
        assert EnumerationConfig(universe=1, max_size=2).estimate() == (
            (1 + 2 + 3) * 4)
        assert CFG.estimate() == (1 + 2 * 2 + 4 * 3 + 8 * 4) * 5

    def test_long_traces_refused(self):
        # 3001 states only, but rebuilding them replays billions of steps.
        cfg = EnumerationConfig(universe=1, max_size=3000)
        with pytest.raises(EnumerationRefused, match="trace steps"):
            enumerate_states("Stack", cfg)

    @pytest.mark.parametrize("bounds", [
        {}, dict(max_size=2), dict(universe=3, max_size=2), dict(universe=1),
        dict(max_size=0)])
    def test_bounds_in_use_accepted(self, bounds):
        assert EnumerationConfig(**bounds).estimate() <= checkers.STATE_LIMIT

    def test_replayed_steps_refused_past_the_limit(self, monkeypatch):
        # The estimate is a guess (2,754 steps here), so the search counts
        # the steps it replays (11,663) and stops at the limit.
        monkeypatch.setattr(checkers, "STATE_LIMIT", 5000)
        cfg = EnumerationConfig(universe=1, max_size=16)
        assert cfg.estimate() <= checkers.STATE_LIMIT
        with pytest.raises(EnumerationRefused, match="trace steps replayed"):
            enumerate_states("LinkedList", cfg)

    def test_universe_past_z_refused(self):
        # Token 27 would be "{", which reads as a brace in a state text.
        assert checkers.element_tokens(0) == []
        assert checkers.element_tokens(checkers.MAX_UNIVERSE)[-1].token == "z"
        for n in (-1, checkers.MAX_UNIVERSE + 1):
            with pytest.raises(ValueError, match="not in 0..26"):
                checkers.element_tokens(n)
        with pytest.raises(ValueError):
            state_space("Collection", EnumerationConfig(universe=27, max_size=1))

    def test_traces_are_shortest(self):
        # Breadth first, k elements take a constructor, k insertions and
        # at most k + 2 cursor moves.
        for e in enumerate_states("LinkedList",
                                  EnumerationConfig(universe=1, max_size=8)):
            assert len(e.trace) <= 2 * e.state.sequence.count + 3, e.trace


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
        # Neither the abstract state nor the concrete layout of a stored
        # object changes, though adequacy runs queries on it.
        cfg = EnumerationConfig(max_size=2)
        layouts = {name: [pickle.dumps(e.obj) for e in state_space(name, cfg)]
                   for name in CONTAINER_NAMES}
        classify_library(cfg)
        for name in CONTAINER_NAMES:
            check_observational_adequacy(name, cfg)
        for name in CONTAINER_NAMES:
            reps = state_space(name, cfg)
            assert all(abstract_state(e.obj) == e.state for e in reps)
            assert [pickle.dumps(e.obj) for e in reps] == layouts[name], name

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


class TestPreconditionSoundness:
    def test_one_pass_per_state_group(self, monkeypatch):
        # Soundness and completeness share one loop over (group,
        # arguments), and the verdict builds its argument combinations
        # once for all the groups.
        cfg = EnumerationConfig()
        groups = state_space("Stack", cfg)
        calls = []
        real = checkers._arg_combos
        monkeypatch.setattr(checkers, "_arg_combos",
                            lambda *a: calls.append(1) or real(*a))
        v = classify_feature("Stack", "remove", cfg)
        assert v.pre_sound and v.post_complete
        assert len(groups) == 15
        assert len(calls) == 1

    @staticmethod
    def token_witnesses(cfg):
        """The pre disagreement witnesses, and how many there must be: the
        nonempty representatives whose own token ends in "0", for the
        second token does not."""
        v = classify_feature("Stack", "item", cfg)
        assert not v.pre_sound
        witnesses = [w for w in v.witnesses if w.startswith("pre disagreement")]
        want = sum(not e.state.sequence.is_empty and e.obj.ref.token.endswith("0")
                   for e in state_space("Stack", cfg))
        assert want >= 1
        return witnesses, want

    def test_identity_dependent_precondition_unsound(self, monkeypatch):
        # Objects with equal model tuples have different identity tokens,
        # so a precondition that reads the target's token is unsound.
        monkeypatch.setattr(
            REGISTRY["Stack"].features["item"], "pre",
            lambda s, a, r: not s.sequence.is_empty and r.token.endswith("0"))
        reset_ref_counter()
        witnesses, want = self.token_witnesses(EnumerationConfig())
        assert len(witnesses) == want

    @pytest.mark.parametrize("prior", [3, 7])
    def test_verdict_independent_of_earlier_tokens(self, monkeypatch, prior):
        # The test above with tokens drawn before the check: the
        # enumeration draws its own from #0 whatever the process built.
        monkeypatch.setattr(
            REGISTRY["Stack"].features["item"], "pre",
            lambda s, a, r: not s.sequence.is_empty and r.token.endswith("0"))
        reset_ref_counter()
        for _ in range(prior):
            fresh_ref()
        witnesses, want = self.token_witnesses(EnumerationConfig())
        assert len(witnesses) == want

    def test_two_evaluations_per_pair(self, monkeypatch):
        # Under the representative's token and under a second one: ArrayT
        # has 41 states and fill 50 argument combinations.
        cfg = EnumerationConfig()
        state_space("ArrayT", cfg)
        calls = []
        real = checkers.pre_holds
        monkeypatch.setattr(checkers, "pre_holds",
                            lambda *a: calls.append(1) or real(*a))
        classify_feature("ArrayT", "fill", cfg)
        assert len(calls) == 2 * 41 * 50

    def test_domain_error_in_precondition_is_false(self, monkeypatch):
        # As at run time: a precondition outside its domain rejects the
        # call, in enumeration, completeness and adequacy alike.
        monkeypatch.setattr(REGISTRY["Stack"].features["remove"], "pre",
                            lambda s, a, r: s.sequence.item(2) is not None)
        cfg = EnumerationConfig()
        v = classify_feature("Stack", "remove", cfg)
        assert v.pre_sound and v.post_complete
        assert v.states_checked == 180
        assert check_observational_adequacy("Stack", cfg).adequate


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
                                  lambda c: c.new.bgg.is_empty, target="bag"),)
        try:
            with pytest.raises(AttributeError):
                check_command_completeness("Collection", "wipe_out", CFG)
        finally:
            feature.clauses = saved

    def test_misspelt_expr_is_not_a_rejection(self, monkeypatch):
        feature = REGISTRY["Collection"].features["put"]
        monkeypatch.setattr(feature, "clauses", (Clause.defines(
            "put/bag", "bag", lambda c: c.old.bgg.extended(c.args[0])),))
        with pytest.raises(AttributeError):
            check_command_completeness("Collection", "put", CFG)

    def test_merge_right_complete(self):
        v = check_command_completeness("LinkedList", "merge_right", CFG)
        assert v.post_complete

    @pytest.mark.parametrize("body", [
        None, lambda self, other: setattr(other, "index", 1),
        lambda self, other: 1 // 0], ids=["real", "moves-cursor", "raises"])
    def test_verdict_read_from_the_contract(self, monkeypatch, body):
        # The sequence clause weakened to a count: many poststates satisfy
        # it, whatever the body does to its argument, and no body runs.
        feature = REGISTRY["LinkedList"].features["merge_right"]
        monkeypatch.setattr(feature, "clauses", (Clause(
            "merge_right/sequence", "model",
            lambda c: c.new.sequence.count
            == c.old.sequence.count + c.args[0].old.sequence.count,
            target="sequence"),) + feature.clauses[1:])
        if body is not None:
            monkeypatch.setattr(feature, "body", body)
        v = check_command_completeness("LinkedList", "merge_right",
                                       EnumerationConfig(max_size=2))
        assert not v.post_complete
        assert len(v.witnesses) == 78

    def test_no_body_runs(self, monkeypatch):
        cfg = EnumerationConfig(max_size=2)
        for name in CONTAINER_NAMES:
            state_space(name, cfg)
        calls = []
        for name in CONTAINER_NAMES:
            spec = REGISTRY[name]
            for f in [*spec.features.values(), *spec.constructors]:
                monkeypatch.setattr(f, "body", lambda *a, _real=f.body, **k:
                                    calls.append("body") or _real(*a, **k))
        real = checkers._build
        monkeypatch.setattr(checkers, "_build", lambda *a:
                            calls.append("_build") or real(*a))
        assert classify_library(cfg)["summary"]["features"] == 58
        assert calls == []

    def test_unsound_precondition_detected(self):
        # A precondition that is not a function of the abstract state: two
        # objects with equal model tuples can disagree on it.
        import itertools
        sig = ModelSignature([("bag", "MBag")])
        from mbc.containers import Collection

        class LeakyCollection(Collection):
            def do_leaky(self):
                pass

        flipping = lambda s, a, r, _it=itertools.count(): next(_it) % 2 == 0
        spec = ContainerSpec(
            LeakyCollection, sig,
            features=[
                Feature("put", "command",
                        clauses=(Clause("put/bag", "model",
                                        lambda c: c.new.bag == c.old.bag.extended(c.args[0]),
                                        target="bag"),),
                        arg_domains=(("element",),)),
                Feature("leaky", "command",
                        pre=flipping,
                        clauses=()),
            ],
            constructors=[Feature("make_empty", "constructor", clauses=())])
        register(spec)
        try:
            v = classify_feature("LeakyCollection", "leaky", CFG)
            assert not v.pre_sound
        finally:
            del REGISTRY["LeakyCollection"]
            del contracts._BY_CLASS[LeakyCollection]


def state_groups(spec, cfg, reps):
    """Each representative with every one-command successor of a
    representative that lands in its state: concrete objects that a
    precondition sees only by their distinct identity tokens."""
    groups = {e.state: [e] for e in reps}
    for e in reps:
        for feat, args in checkers._calls(spec.commands(), cfg):
            if contracts.pre_holds(feat, e.state, args, e.obj.ref):
                nxt = checkers._successor(spec, e, feat, args)
                groups.get(nxt.state, []).append(nxt)
    return list(groups.values())


def reference_completeness(name, feature, cfg):
    """Generate and test: every model clause on every candidate; and
    precondition soundness as a set of values over each whole group of
    ``state_groups``.  The prestates, the candidates and what a candidate
    stands for follow from the feature's kind."""
    spec = REGISTRY[name]
    on_result = feature.kind == "query"
    reps = ([None] if feature.kind == "constructor"
            else state_space(name, cfg))
    candidates = (checkers._result_candidates(feature, cfg) if on_result
                  else [e.state for e in state_space(name, cfg)])
    verdict = CheckVerdict(f"{name}.{feature.name}", tag=feature.incompleteness_tag)
    if feature.pre is not None and reps != [None]:
        for group in state_groups(spec, cfg, reps):
            for args in checkers._arg_combos(feature, cfg):
                vals = {feature.pre(m.state, args, m.obj.ref) for m in group}
                if len(vals) > 1:
                    verdict.pre_sound = False
                    verdict.witnesses.append(
                        f"pre disagreement at {serialize_state(group[0].state)}")
    clauses = checkers._model_clauses(feature, spec.signature)
    show = repr if on_result else serialize_state
    for pre_e in reps:
        old, ref = (pre_e.state, pre_e.obj.ref) if pre_e else (None, None)
        for args in checkers._arg_combos(feature, cfg):
            if not contracts.pre_holds(feature, old, args, ref):
                continue
            satisfying = [c for c in candidates
                          if checkers._post_holds(
                              clauses, old, old if on_result else c, args,
                              c if on_result else None)]
            verdict.states_checked += len(candidates)
            if len(satisfying) > 1:
                verdict.post_complete = False
                where = f"from {serialize_state(old)}" if pre_e else "constructor"
                verdict.witnesses.append(
                    f"{where}: {show(satisfying[0])} vs {show(satisfying[1])}")
    return verdict


def all_features():
    for name in CONTAINER_NAMES:
        spec = REGISTRY[name]
        for fname in list(spec.features) + [c.name for c in spec.constructors]:
            yield name, fname


# The model clauses that pin no query by definition, with the query each
# constrains.
RELATIONAL = {
    "reserve/grows": "capacity", "reserve/enough": "capacity",
    "item/member": "result", "remove/count": "sequence",
}


def _emptiness(name, models):
    """The relational clauses that said each query in ``models`` is empty
    after the feature ``name``."""
    return tuple(Clause(f"{name}/{m}", "model",
                        lambda c, _m=m: getattr(c.new, _m).is_empty,
                        target=m)
                 for m in models)


# The model clauses of 15 features as they were written before defining
# clauses replaced their relational ones: the reference, whose accepted
# candidates each feature's clauses must accept exactly.
REPLACED = {
    ("Table", "make_empty"): _emptiness("make_empty", ["map"]),
    ("Collection", "make_empty"): _emptiness("make_empty", ["bag"]),
    ("Collection", "wipe_out"): _emptiness("wipe_out", ["bag"]),
    **{(name, fname): _emptiness(fname, ["bag", "sequence"])
       for name in ("Dispenser", "Stack", "Queue")
       for fname in ("make_empty", "wipe_out")},
    ("BinaryTree", "make_empty"): _emptiness("make_empty", ["map"]),
    ("LinkedList", "make_empty"): (
        Clause("make_empty/sequence", "model",
               lambda c: c.new.sequence.is_empty, target="sequence"),
        Clause.defines("make_empty/index", "index", lambda c: 0),
    ),
    ("ArrayT", "make"): (
        Clause("make/map", "model",
               lambda c: c.new.map.domain == int_interval(c.args[0], c.args[1])
               and c.new.map.is_constant(c.args[2]), target="map"),
        Clause.defines("make/capacity", "capacity",
                       lambda c: c.args[1] - c.args[0] + 1),
    ),
    ("ArrayT", "fill"): (
        Clause("fill/domain", "model",
               lambda c: c.new.map.domain == c.old.map.domain, target="map"),
        Clause("fill/inside", "model",
               lambda c: (c.new.map | int_interval(c.args[1], c.args[2]))
               .is_constant(c.args[0]), target="map"),
        Clause("fill/outside", "model",
               lambda c: (c.new.map | (c.new.map.domain - int_interval(c.args[1], c.args[2])))
               == (c.old.map | (c.old.map.domain - int_interval(c.args[1], c.args[2]))),
               target="map"),
    ),
    ("EqSet", "make"): (
        Clause("make/set", "model", lambda c: c.new.set.is_empty,
               target="set"),
        Clause.defines("make/relation", "relation", lambda c: c.args[0]),
    ),
    ("BinaryTree", "add_root"): (
        Clause("add_root/count", "model", lambda c: c.new.map.count == 1,
               target="map"),
        Clause("add_root/root", "model",
               lambda c: c.new.map.item(MSeq()) == c.args[0], target="map"),
    ),
}


def disagreements(name, fname, cfg):
    """Compare the model clauses of feature ``fname`` of container ``name``
    with its reference in REPLACED, both frame-expanded, on every
    (prestate, arguments, candidate state) triple where the precondition
    holds.  Return the triples they judge differently, the number
    compared and the number the feature's clauses accept."""
    spec = REGISTRY[name]
    feature = spec.feature(fname)
    reference = dataclasses.replace(feature, clauses=REPLACED[name, fname])
    clauses = checkers._model_clauses(feature, spec.signature)
    want = checkers._model_clauses(reference, spec.signature)
    space = state_space(name, cfg)
    differ, compared, accepted = [], 0, 0
    for pre_e in [None] if feature.kind == "constructor" else space:
        old, ref = (pre_e.state, pre_e.obj.ref) if pre_e else (None, None)
        for args in checkers._arg_combos(feature, cfg):
            if not contracts.pre_holds(feature, old, args, ref):
                continue
            for e in space:
                holds = checkers._post_holds(clauses, old, e.state, args, None)
                compared += 1
                accepted += holds
                if holds != checkers._post_holds(want, old, e.state, args,
                                                 None):
                    differ.append((old, args, e.state))
    return differ, compared, accepted


CFG_U3 = EnumerationConfig(universe=3, max_size=2)


class TestRestatedDefinitions:
    @pytest.mark.parametrize("cfg", [CFG, CFG_U3], ids=["default", "u3s2"])
    @pytest.mark.parametrize("name, fname", sorted(REPLACED))
    def test_definition_equals_the_relational_clauses(self, name, fname,
                                                       cfg):
        differ, compared, accepted = disagreements(name, fname, cfg)
        assert differ == [] and accepted > 0

    def test_fill_compares_every_triple(self):
        # 400 (prestate, arguments) pairs of ArrayT's 41 states at default
        # bounds, each against every candidate.
        assert disagreements("ArrayT", "fill", CFG)[1] == 400 * 41

    @pytest.mark.parametrize("name, fname, wrong", [
        # fill that leaves the interval's last key as it was
        ("ArrayT", "fill", Clause.defines(
            "fill/map", "map", lambda c: c.old.map.replaced_at(
                c.args[1], c.args[0]))),
        # wipe_out that keeps the sequence, and so the bag it defines
        ("Stack", "wipe_out", Clause.defines(
            "wipe_out/sequence", "sequence", lambda c: c.old.sequence)),
        # add_root that puts its element under the left child's path
        ("BinaryTree", "add_root", Clause.defines(
            "add_root/map", "map",
            lambda c: MMap([(MSeq([False]), c.args[0])]))),
    ], ids=["fill", "wipe_out", "add_root"])
    def test_a_wrong_definition_disagrees(self, monkeypatch, name, fname,
                                          wrong):
        spec = REGISTRY[name]
        feature = spec.features[fname]
        monkeypatch.setattr(feature, "clauses", tuple(
            wrong if c.cid == wrong.cid else c for c in feature.clauses))
        assert disagreements(name, fname, CFG)[0]

    def test_untagged_features_define_their_poststate(self):
        # A feature without an incompleteness tag defines every model query
        # of its poststate that the signature does not define, after frame
        # expansion, or its result.
        undefined = []
        for name, fname in all_features():
            spec = REGISTRY[name]
            feature = spec.feature(fname)
            defined = {c.target for c in checkers._model_clauses(
                feature, spec.signature) if c.expr is not None}
            needed = ({"result"} if feature.kind == "query"
                      else set(spec.signature.names) - spec.signature.defined)
            if not needed <= defined:
                undefined.append(f"{name}.{fname}")
            assert (needed <= defined) == (feature.incompleteness_tag is None)
        assert len(list(all_features())) == 58
        assert sorted(undefined) == ["ArrayT.reserve", "Dispenser.item",
                                     "Dispenser.put", "Dispenser.remove"]


@pytest.mark.bytegate
class TestDefiningClauses:
    @pytest.mark.parametrize("bounds", [dict(max_size=2),
                                        dict(universe=3, max_size=2)])
    def test_verdicts_equal_generate_and_test(self, monkeypatch, bounds):
        cfg = EnumerationConfig(**bounds)
        got = {f: classify_feature(*f, cfg).to_dict() for f in all_features()}
        monkeypatch.setattr(checkers, "_completeness", reference_completeness)
        want = {f: classify_feature(*f, cfg).to_dict() for f in all_features()}
        assert got == want

    def test_merge_right_counts(self, monkeypatch):
        feature = REGISTRY["LinkedList"].features["merge_right"]
        evals = {}

        def counting(clause):
            def expr(ctx):
                evals[clause.cid] += 1
                return clause.expr(ctx)
            evals[clause.cid] = 0
            return dataclasses.replace(clause, expr=expr)

        monkeypatch.setattr(feature, "clauses", tuple(
            counting(c) if c.expr else c for c in feature.clauses))
        calls = []
        real = checkers._post_holds
        monkeypatch.setattr(checkers, "_post_holds",
                            lambda *a: calls.append(1) or real(*a))
        cfg = EnumerationConfig(max_size=2)
        v = check_command_completeness("LinkedList", "merge_right", cfg)
        pairs = 408
        assert v.post_complete
        assert v.states_checked == pairs * len(state_space("LinkedList", cfg))
        assert evals == {"merge_right/sequence": pairs, "merge_right/index": pairs}
        assert len(calls) <= pairs

    def test_duplicate_result_defined(self, monkeypatch):
        # duplicate defines its result, so each (state, argument) pair looks
        # its one expected result state up instead of testing every
        # LinkedList state as a candidate.
        cfg = EnumerationConfig(max_size=2)
        reps = state_space("LinkedList", cfg)
        calls = []
        real = checkers._post_holds
        monkeypatch.setattr(checkers, "_post_holds",
                            lambda *a: calls.append(1) or real(*a))
        v = check_query_completeness("LinkedList", "duplicate", cfg)
        pairs = v.states_checked // len(reps)
        assert v.post_complete and pairs == 120
        assert len(calls) <= pairs

    def test_candidates_looked_up_not_scanned(self, monkeypatch):
        # Counts, not times: each (state, argument) pair looks its expected
        # sequence up in the verdict's index of candidates, so it compares
        # at most one sequence with ==, where a scan compared all 64.
        cfg = EnumerationConfig()
        reps = state_space("LinkedList", cfg)
        calls = []
        real = MSeq.__eq__
        monkeypatch.setattr(MSeq, "__eq__",
                            lambda a, b: calls.append(1) or real(a, b))
        v = check_command_completeness("LinkedList", "put_right", cfg)
        pairs = v.states_checked // len(reps)  # those whose pre holds
        assert pairs <= len(reps) * cfg.universe == 128
        assert len(calls) <= pairs

    def test_container_views_shared_but_unchanged(self, monkeypatch):
        # The verdict builds its argument views once for every group; a
        # view is a Ctx that holds the argument's token and prestate only,
        # so a clause that reads an argument's poststate fails loudly.
        views = []
        real = checkers._arg_combos

        def capturing(feature, cfg):
            combos = list(real(feature, cfg))
            views.extend(a for args in combos for a in args
                         if hasattr(a, "old"))
            return iter(combos)

        monkeypatch.setattr(checkers, "_arg_combos", capturing)
        cfg = EnumerationConfig(max_size=2)
        first = classify_feature("LinkedList", "merge_right", cfg).to_dict()
        second = classify_feature("LinkedList", "merge_right", cfg).to_dict()
        assert first == second
        assert views and all(a == contracts.Ctx(old=a.old, ref=a.ref)
                             for a in views)

    def test_every_model_clause_defines_or_is_listed(self):
        seen = set()
        loose = []  # the clauses on a container argument's poststate
        for name, fname in all_features():
            spec = REGISTRY[name]
            feature = spec.feature(fname)
            loose += [c.cid for c in feature.clauses
                      if c.tag == "model" and c.target is None]
            # A clause on a defined query may constrain every query the
            # definition reads: the frame leaves them all to it.
            pinned = set()
            if feature.kind == "command" and any(
                    c.target in spec.signature.defined for c in feature.clauses):
                pinned = set(spec.signature.names)
            for c in checkers._model_clauses(feature, spec.signature):
                if c.expr is None:
                    assert c.cid in RELATIONAL, f"{name}.{c.cid}"
                    assert c.target == RELATIONAL[c.cid], f"{name}.{c.cid}"
                    seen.add(c.cid)
                pinned.add(c.target)
                if "/frame:" in c.cid:
                    assert c.target == c.cid.split(":")[1]
            if feature.kind != "query":
                assert pinned >= (set(spec.signature.names)
                                  - spec.signature.defined), f"{name}.{fname}"
        assert seen == set(RELATIONAL)
        assert loose == ["merge_right/other_sequence", "merge_right/other_index"]


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

    def _count_calls(self, monkeypatch, *fns):
        counts = dict.fromkeys(fns, 0)
        for fn in fns:
            def counting(*a, _fn=fn, _real=getattr(checkers, fn)):
                counts[_fn] += 1
                return _real(*a)
            monkeypatch.setattr(checkers, fn, counting)
        return counts

    def test_one_snapshot_per_built_object(self, monkeypatch):
        # A top-level pair reads its stored objects and the recorded
        # default model; only a command's successor is built, and its
        # state is taken once.  Each pair is searched at depth 0, then 1:
        # 19 of the 21 are told apart at depth 0.
        cfg = EnumerationConfig(max_size=2)
        reps = len(state_space("Stack", cfg))
        counts = self._count_calls(monkeypatch, "abstract_state", "_build",
                                   "_successor", "_distinguishable")
        v = check_observational_adequacy("Stack", cfg)
        assert v.adequate
        assert (reps, v.pairs_checked) == (7, 21)
        assert counts == {"abstract_state": 12, "_build": 12,
                          "_successor": 12, "_distinguishable": 29}

    def test_builds_only_successors(self, monkeypatch):
        cfg = EnumerationConfig()
        for name in CONTAINER_NAMES:
            state_space(name, cfg)
        counts = self._count_calls(monkeypatch, "_build")
        for name in CONTAINER_NAMES:
            assert check_observational_adequacy(name, cfg).adequate, name
        assert counts["_build"] == 694

    def test_successors_do_not_grow_with_depth(self, monkeypatch):
        # Every pair at the default bounds is told apart within two calls,
        # and each pair's search deepens one level at a time, so a deeper
        # bound builds no more successors.
        counts = self._count_calls(monkeypatch, "_successor")
        built = []
        for depth in (2, 3, 8):
            cfg = EnumerationConfig(depth=depth)
            for name in CONTAINER_NAMES:
                state_space(name, cfg)
            counts["_successor"] = 0
            for name in CONTAINER_NAMES:
                assert check_observational_adequacy(name, cfg).adequate, name
            built.append(counts["_successor"])
        assert built == [694, 694, 694]

    def test_unknown_feature_name_is_an_error(self):
        # A misspelt name must not silently narrow the interface.
        misspelt = ["put", "itme", "is_empty", "count", "wipe_out"]
        for check in (check_observational_adequacy, state_space,
                      enumerate_states):
            with pytest.raises(KeyError, match="itme"):
                check("Queue", EnumerationConfig(), features=misspelt)

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
