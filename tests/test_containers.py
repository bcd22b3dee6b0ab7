"""Container library behaviour against hand-derived transitions."""

import gc
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from mbc.autotest import run_campaign
from mbc.checkers import EnumerationConfig, state_space
from mbc.containers import (
    ALL_SPECS, CONTAINER_NAMES, ArrayT, BinaryTree, FaultSwitch, LinkedList,
    Queue, Stack, Table,
)
from mbc.contracts import (
    AbstractState, ContractViolation, Ctx, PreconditionRejected, REGISTRY,
    abstract_state, checked_command, checked_constructor, checked_query,
)
from mbc.model_math import MBag, MMap, MRel, MSeq, MSet, Ref, total_relation

A, B, C = Ref("a"), Ref("b"), Ref("c")


def build(name, ctor="make_empty", args=()):
    return checked_constructor(REGISTRY[name], ctor, list(args))


class TestLinkedList:
    def test_put_right_at_cursor(self):
        lst = build("LinkedList")
        checked_command(lst, "put_right", [A])
        checked_command(lst, "start")
        checked_command(lst, "put_right", [B])
        assert abstract_state(lst).sequence == MSeq([A, B])
        assert abstract_state(lst).index == 1

    def test_cursor_moves(self):
        lst = build("LinkedList")
        checked_command(lst, "put_right", [A])
        checked_command(lst, "start")
        checked_command(lst, "forth")
        assert abstract_state(lst).index == 2
        checked_command(lst, "go_before")
        assert abstract_state(lst).index == 0

    def test_queries(self):
        lst = build("LinkedList")
        for x in (B, A):
            checked_command(lst, "put_right", [x])
        assert checked_query(lst, "count") == 2
        assert checked_query(lst, "is_empty") is False
        assert checked_query(lst, "has", [B]) is True
        checked_command(lst, "start")
        assert checked_query(lst, "item") == A

    def test_duplicate(self):
        lst = build("LinkedList")
        for x in (C, B, A):
            checked_command(lst, "put_right", [x])
        checked_command(lst, "start")
        copy = checked_query(lst, "duplicate", [2])
        assert abstract_state(copy).sequence == MSeq([A, B])
        assert abstract_state(copy).index == 0

    def test_merge_right_mid_list(self):
        lst = build("LinkedList")
        for x in (C, A):
            checked_command(lst, "put_right", [x])
        checked_command(lst, "start")  # cursor on a
        other = build("LinkedList")
        checked_command(other, "put_right", [B])
        checked_command(lst, "merge_right", [other])
        assert abstract_state(lst).sequence == MSeq([A, B, C])
        assert abstract_state(other).sequence.is_empty

    def test_merge_right_rejects_self(self):
        lst = build("LinkedList")
        with pytest.raises(PreconditionRejected):
            checked_command(lst, "merge_right", [lst])

    def test_seeded_fault_caught_by_model_clause(self):
        faults = FaultSwitch(merge_right_missing_link=True)
        lst = LinkedList(faults=faults)
        lst.do_put_right(A)
        other = LinkedList(faults=faults)
        other.do_put_right(B)
        with pytest.raises(ContractViolation) as e:
            checked_command(lst, "merge_right", [other])
        assert e.value.clause == "merge_right/sequence"
        # The concrete count field is still updated, which is exactly what
        # the classic clauses observe.
        assert lst.count == 2
        assert abstract_state(lst).sequence == MSeq([B])


class TestArrayT:
    def test_make_and_put(self):
        arr = build("ArrayT", "make", [1, 3, A])
        assert abstract_state(arr).map == MMap([(1, A), (2, A), (3, A)])
        checked_command(arr, "put", [B, 2])
        assert checked_query(arr, "item", [2]) == B

    def test_fill_subrange(self):
        arr = build("ArrayT", "make", [1, 3, A])
        checked_command(arr, "fill", [B, 2, 3])
        assert abstract_state(arr).map == MMap([(1, A), (2, B), (3, B)])

    def test_reserve_only_grows(self):
        arr = build("ArrayT", "make", [1, 2, A])
        checked_command(arr, "reserve", [4])
        assert abstract_state(arr).capacity == 4
        checked_command(arr, "reserve", [1])
        assert abstract_state(arr).capacity == 4

    def test_out_of_range_rejected(self):
        arr = build("ArrayT", "make", [1, 2, A])
        with pytest.raises(PreconditionRejected):
            checked_command(arr, "put", [B, 3])


class TestTable:
    def test_put_requires_key(self):
        t = build("Table")
        with pytest.raises(PreconditionRejected):
            checked_command(t, "put", [A, B])
        checked_command(t, "force", [A, B])
        checked_command(t, "put", [C, B])
        assert checked_query(t, "item", [B]) == C
        assert checked_query(t, "count") == 1

    # Keys and values mix Refs with True and 1, False and 0: a dict holds
    # one key of each ``==`` class, the first one put.
    ATOMS = st.sampled_from([A, B, C, Ref("a"), 0, 1, False, True])

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(st.lists(st.tuples(st.sampled_from(["do_put", "do_force"]),
                              ATOMS, ATOMS), max_size=12))
    def test_map_is_the_sorted_map_of_its_items(self, steps):
        # model_map sorts the dict's items itself and skips MMap's
        # duplicate-key scan; it must build the very map MMap builds.
        t = Table()
        for routine, v, k in steps:
            getattr(t, routine)(v, k)
            got, want = t.model_map(), MMap(t.data.items())
            assert got == want
            assert [(type(k), type(v)) for k, v in got.pairs] == [
                (type(k), type(v)) for k, v in want.pairs]
            assert all(k is y and v is w for (k, v), (y, w)
                       in zip(got.pairs, want.pairs))
            got.has_key(A)  # fills the domain memo
            assert pickle.dumps(got) == pickle.dumps(want)
            assert pickle.loads(pickle.dumps(got))._domain is None


class TestCollectionFamily:
    def test_collection_bag_semantics(self):
        c = build("Collection")
        checked_command(c, "put", [A])
        checked_command(c, "put", [A])
        assert abstract_state(c).bag == MBag([A, A])
        checked_command(c, "wipe_out")
        assert checked_query(c, "is_empty") is True

    def test_stack_is_lifo(self):
        s = build("Stack")
        for x in (A, B):
            checked_command(s, "put", [x])
        assert checked_query(s, "item") == B
        checked_command(s, "remove")
        assert checked_query(s, "item") == A

    def test_queue_is_fifo(self):
        q = build("Queue")
        for x in (A, B):
            checked_command(q, "put", [x])
        assert checked_query(q, "item") == A
        checked_command(q, "remove")
        assert checked_query(q, "item") == B

    def test_dispenser_weak_contract_still_checked(self):
        d = build("Dispenser")
        checked_command(d, "put", [A])
        checked_command(d, "put", [B])
        assert checked_query(d, "count") == 2
        item = checked_query(d, "item")
        assert item in (A, B)
        checked_command(d, "remove")
        assert checked_query(d, "count") == 1

    def test_put_bag_checks_the_defined_bag(self, monkeypatch):
        # A put that drops its element leaves the sequence, and so the
        # bag it defines, as it was: Dispenser's put/bag, checked before
        # Stack's put/sequence, reports it.
        s = build("Stack")
        checked_command(s, "put", [A])
        monkeypatch.setattr(REGISTRY["Stack"].features["put"], "body",
                            lambda obj, v: None)
        with pytest.raises(ContractViolation) as e:
            checked_command(s, "put", [B])
        assert (e.value.clause, e.value.kind) == ("put/bag", "postcondition")
        assert e.value.new_state == "({a:1}, ⟨a⟩)"


@pytest.mark.parametrize("name", ["Stack", "Queue"])
def test_checked_dispenser_calls_count_no_bag(monkeypatch, name):
    # Counts, not times: a dispenser's bags are compared with bags of the
    # same items and asked for their counts, so no checked call keys the
    # 16 elements of its bags one by one.
    counted = []
    real = MBag._counted

    def counting(bag):
        if bag._counts is None:
            counted.append(bag)
        return real(bag)

    monkeypatch.setattr(MBag, "_counted", counting)
    d = build(name)
    for i in range(16):
        checked_command(d, "put", [Ref(f"e{i:02d}")])
    assert checked_query(d, "count") == 16
    assert checked_query(d, "is_empty") is False
    assert checked_query(d, "item") == Ref("e15" if name == "Stack" else "e00")
    checked_command(d, "remove")
    assert not counted


class TestDispenserHeirs:
    # The clauses each heir adds to Dispenser's, in order.
    OWN = {"put": ["put/sequence"], "item": ["item/result"],
           "remove": ["remove/sequence"]}

    @pytest.mark.parametrize("name, cls", [("Stack", Stack), ("Queue", Queue)])
    def test_heir_conjoins_dispenser_contracts(self, name, cls):
        parent, heir = REGISTRY["Dispenser"], REGISTRY[name]
        assert heir.signature is parent.signature
        assert heir.invariants == parent.invariants
        assert list(heir.features) == list(parent.features)
        for fname, f in heir.features.items():
            p, own = parent.features[fname], self.OWN.get(fname, [])
            assert f is not p
            assert f.clauses[:len(p.clauses)] == p.clauses
            assert [c.cid for c in f.clauses[len(p.clauses):]] == own
            assert f.incompleteness_tag == (None if own else p.incompleteness_tag)
            assert f.body is getattr(cls, "do_" + fname)
        for fname in self.OWN:
            assert parent.features[fname].incompleteness_tag == "inheritance"
        for c, p in zip(heir.constructors, parent.constructors, strict=True):
            assert c is not p and c.clauses == p.clauses and c.body is cls

    def test_inherited_clause_checked_first(self, monkeypatch):
        # A wrong item is not in the sequence: Dispenser's item/member
        # blames it before Stack's own item/result is reached.
        stack = build("Stack")
        checked_command(stack, "put", [A])
        monkeypatch.setattr(REGISTRY["Stack"].features["item"], "body",
                            lambda o: Ref("z"))
        with pytest.raises(ContractViolation) as e:
            checked_query(stack, "item")
        assert e.value.clause == "item/member"
        dispenser = build("Dispenser")
        checked_command(dispenser, "put", [A])
        assert checked_query(dispenser, "item") == A


class TestEqSet:
    def test_equivalence_classes_collapse(self):
        e = build("EqSet", "make", [total_relation([A, B])])
        checked_command(e, "add", [A])
        checked_command(e, "add", [B])  # equivalent to a: not added
        assert checked_query(e, "count") == 1
        assert checked_query(e, "has", [B]) is True

    def test_equivalence_decided_once_per_relation(self):
        # make's precondition and the relation_equivalence invariant after
        # every call ask about one relation value.
        from mbc.containers import _relation_is_equivalence
        _relation_is_equivalence.cache_clear()
        e = build("EqSet", "make", [total_relation([A, B])])
        checked_command(e, "add", [A])
        checked_command(e, "add", [B])
        assert checked_query(e, "has", [B]) is True
        build("EqSet", "make", [total_relation([Ref("a"), Ref("b")])])
        info = _relation_is_equivalence.cache_info()
        assert (info.misses, info.hits) == (1, 5)

    def test_non_equivalence_rejected(self):
        with pytest.raises(PreconditionRejected):
            build("EqSet", "make", [MRel([(A, B)])])

    TOKENS = st.sampled_from([Ref(t) for t in "abcd"])

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(st.lists(TOKENS, max_size=4),
           st.lists(st.tuples(TOKENS, TOKENS), max_size=16))
    def test_no_equivalent_pair_is_the_pairwise_definition(self, xs, pairs):
        # The invariant reads each stored element's image; the definition
        # asks the relation about every pair of distinct stored elements.
        spec = REGISTRY["EqSet"]
        [clause] = [c for c in spec.invariants
                    if c.cid == "no_equivalent_pair"]
        s, rel = MSet(xs), MRel(pairs)
        state = AbstractState(spec.signature, [s, rel])
        assert clause.fn(Ctx(new=state)) == all(
            not rel.has(x, y) for x in s for y in s if x != y)


class TestBinaryTree:
    def test_paths(self):
        t = build("BinaryTree")
        checked_command(t, "add_root", [A])
        checked_command(t, "put_child", [MSeq(), True, B])
        checked_command(t, "put_child", [MSeq([True]), False, C])
        m = abstract_state(t).map
        assert m == MMap([(MSeq(), A), (MSeq([True]), B),
                          (MSeq([True, False]), C)])
        assert checked_query(t, "item_at", [MSeq([True])]) == B
        assert checked_query(t, "count") == 3

    @pytest.mark.parametrize("query", ["model_map", "do_count"])
    def test_walks_leave_no_cycles(self, query):
        # Each call must free all it allocates by reference counting alone.
        t = build("BinaryTree")
        checked_command(t, "add_root", [A])
        checked_command(t, "put_child", [MSeq(), False, B])
        checked_command(t, "put_child", [MSeq(), True, C])
        gc.collect()
        gc.disable()
        try:
            for _ in range(10):
                getattr(t, query)()
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_detached_child_rejected(self):
        t = build("BinaryTree")
        checked_command(t, "add_root", [A])
        with pytest.raises(PreconditionRejected):
            checked_command(t, "put_child", [MSeq([True]), False, B])


def canonical(m):
    """Whether ``m`` holds the very pairs, in the very order, that the
    sorting constructor builds from them."""
    want = MMap(m.pairs).pairs
    return len(m.pairs) == len(want) and all(
        k is y and v is w for (k, v), (y, w) in zip(m.pairs, want))


class TestCanonicalWalks:
    """``ArrayT.model_map`` and ``BinaryTree.model_map`` skip the sort, so
    their walks must yield the keys in ascending ``order_key`` order."""

    @pytest.mark.parametrize("cfg", [EnumerationConfig(),
                                     EnumerationConfig(universe=3, max_size=4)],
                             ids=["default", "universe3-size4"])
    @pytest.mark.parametrize("name", ["ArrayT", "BinaryTree"])
    def test_every_representative(self, name, cfg):
        reps = state_space(name, cfg)
        maps = [e.obj.model_map() for e in reps]
        assert all(canonical(m) for m in maps)
        assert max(m.count for m in maps) >= 3

    def test_every_campaign_object(self, monkeypatch):
        maps = []
        for cls in (ArrayT, BinaryTree):
            def recorded(self, real=cls.model_map):
                maps.append(real(self))
                return maps[-1]
            monkeypatch.setattr(cls, "model_map", recorded)
        r = run_campaign(["ArrayT", "BinaryTree"], 2000, 23)
        assert r.violations == 0
        assert all(canonical(m) for m in maps)
        assert max(m.count for m in maps) >= 6


def test_every_spec_registered():
    assert len(ALL_SPECS) == 9
    assert set(CONTAINER_NAMES) == set(REGISTRY)
