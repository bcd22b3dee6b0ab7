"""Model-value algebra: operation examples, exhaustive small-space laws,
property tests of the canonical constructors against a quadratic
reference, and of the one identity rule (``order_key``) for ``==``,
``hash`` and membership."""

import copy
import itertools
import pickle
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from mbc import model_math
from mbc.contracts import (
    REGISTRY, AbstractState, ContractViolation, ModelSignature,
    checked_constructor, checked_query,
)
from mbc.model_math import (
    DomainError, MBag, MMap, MRel, MSeq, MSet, OverflowReported, Ref,
    check_int, identity_relation, int_interval, order_key, to_text,
    total_relation,
)

A, B = Ref("a"), Ref("b")
UNIVERSE = [A, B]


def bag_of(pairs):
    """The bag of ``pairs``: each element repeated in place by its
    multiplicity."""
    return MBag([x for x, n in pairs for _ in range(n)])


def all_seqs(max_len=3, universe=UNIVERSE):
    for n in range(max_len + 1):
        for items in itertools.product(universe, repeat=n):
            yield MSeq(items)


class TestSequence:
    def test_basic(self):
        s = MSeq([A, B, A])
        assert s.count == 3
        assert not s.is_empty
        assert s.item(1) == A and s.item(3) == A
        assert s[2] == B
        assert s.has(B) and not s.has(Ref("z"))
        assert s.occurrences(A) == 2

    def test_extended_appends(self):
        assert MSeq([A]).extended(B) == MSeq([A, B])
        assert MSeq().extended(A).count == 1

    def test_front_tail(self):
        s = MSeq([A, B, A])
        assert s.front(0) == MSeq()
        assert s.front(2) == MSeq([A, B])
        assert s.tail(1) == s
        assert s.tail(4) == MSeq()
        with pytest.raises(DomainError):
            s.front(4)
        with pytest.raises(DomainError):
            s.tail(0)

    def test_interval_clips(self):
        s = MSeq([A, B, A])
        assert s.interval(2, 3) == MSeq([B, A])
        assert s.interval(0, 10) == s
        assert s.interval(3, 2) == MSeq()

    def test_domain_range(self):
        s = MSeq([A, B, A])
        assert s.domain == MSet([1, 2, 3])
        assert s.range == MSet([A, B])

    def test_to_bag(self):
        assert MSeq([A, B, A]).to_bag() == bag_of([(A, 2), (B, 1)])

    def test_concat_operator(self):
        assert MSeq([A]) + MSeq([B]) == MSeq([A, B])

    def test_exhaustive_front_tail_recomposition(self):
        # s = front(s, n) + tail(s, n+1) for every split point.
        for s in all_seqs():
            for n in range(s.count + 1):
                assert s.front(n) + s.tail(n + 1) == s

    def test_exhaustive_extended_count(self):
        for s in all_seqs():
            for x in UNIVERSE:
                assert s.extended(x).count == s.count + 1
                assert s.extended(x).item(s.count + 1) == x

    def test_exhaustive_occurrences_match_bag(self):
        for s in all_seqs():
            for x in UNIVERSE:
                assert s.occurrences(x) == s.to_bag()[x]
            assert s.range == s.to_bag().domain


class TestSet:
    def test_dedup_and_order(self):
        assert MSet([B, A, B]) == MSet([A, B])
        assert MSet([B, A]).elements == MSet([A, B]).elements

    def test_operators(self):
        s, t = MSet([A]), MSet([A, B])
        assert s | t == t
        assert s * t == s
        assert t - s == MSet([B])
        assert s.has(A) and not s.has(B)

    def test_quantifiers(self):
        t = MSet([A, B])
        assert t.for_all(lambda x: isinstance(x, Ref))
        assert t.exists(lambda x: x == B)
        assert MSet().for_all(lambda x: False)
        assert not MSet().exists(lambda x: True)

    def test_exhaustive_boolean_algebra(self):
        subsets = [MSet(c) for n in range(3)
                   for c in itertools.combinations(UNIVERSE, n)]
        for s, t in itertools.product(subsets, repeat=2):
            assert (s | t) - t == s - t
            assert s * t == t * s
            assert (s | t).count == s.count + t.count - (s * t).count

    def test_int_interval(self):
        assert int_interval(1, 3) == MSet([1, 2, 3])
        assert int_interval(5, 4) == MSet()
        with pytest.raises(OverflowReported):
            int_interval(0, 10**7)


class TestBag:
    def test_normalization(self):
        assert bag_of([(A, 1), (A, 1)]) == bag_of([(A, 2)])
        assert bag_of([(A, 0)]) == MBag()

    def test_extended_removed(self):
        b = bag_of([(A, 1)]).extended(A).extended(B)
        assert b[A] == 2 and b[B] == 1
        assert b.count == 3
        assert b.removed(A) == bag_of([(A, 1), (B, 1)])
        with pytest.raises(DomainError):
            MBag().removed(A)

    def test_domain(self):
        assert bag_of([(A, 2)]).domain == MSet([A])


class TestMap:
    def test_item_and_domain(self):
        m = MMap([(1, A), (2, B)])
        assert m[1] == A
        assert m.domain == MSet([1, 2])
        assert m.range == MSet([A, B])
        with pytest.raises(DomainError):
            m.item(3)
        with pytest.raises(DomainError):
            MMap([(1, A), (1, B)])

    def test_replaced_at_keeps_domain(self):
        m = MMap([(1, A), (2, B)])
        r = m.replaced_at(2, A)
        assert r.domain == m.domain and r[2] == A
        with pytest.raises(DomainError):
            m.replaced_at(9, A)

    def test_updated_extends(self):
        m = MMap([(1, A)]).updated(2, B).updated(1, B)
        assert m == MMap([(1, B), (2, B)])

    def test_restriction_operator(self):
        m = MMap([(1, A), (2, B), (3, A)])
        assert m | MSet([1, 3]) == MMap([(1, A), (3, A)])

    def test_is_constant(self):
        assert MMap([(1, A), (2, A)]).is_constant(A)
        assert not MMap([(1, A), (2, B)]).is_constant(A)
        assert MMap().is_constant(A)


class TestRelation:
    def test_image(self):
        r = MRel([(A, A), (A, B)])
        assert r.image_of(A) == MSet([A, B])
        assert r.image_of(B) == MSet()
        assert r.has(A, B) and not r.has(B, A)
        assert r.domain == MSet([A])
        assert r.domain is r.domain

    def test_builders(self):
        ident = identity_relation(UNIVERSE)
        total = total_relation(UNIVERSE)
        assert ident.count == 2 and total.count == 4
        assert total.image_of(A) == MSet(UNIVERSE)


class TestCanonicalForm:
    def test_order_key_total(self):
        values = [True, 3, A, MSeq([A]), MSet([A]), bag_of([(A, 1)]),
                  MMap([(A, B)]), MRel([(A, B)])]
        ranked = sorted(values, key=order_key)
        assert [order_key(v)[0] for v in ranked] == list(range(8))

    def test_to_text_deterministic(self):
        assert to_text(MSeq([A, B])) == "⟨a,b⟩"
        assert to_text(MSet([B, A])) == "{a,b}"
        assert to_text(bag_of([(A, 2)])) == "{a:2}"
        assert to_text(MMap([(1, A)])) == "{1→a}"
        assert to_text(MRel([(A, B)])) == "{(a,b)}"
        assert to_text(MSet([B, A])) == to_text(MSet([A, B]))

    def test_hash_consistent_with_eq(self):
        assert hash(MSet([A, B])) == hash(MSet([B, A]))
        assert hash(MSeq([A])) != hash(MSeq([B]))

    def test_int_bounds(self):
        assert check_int(2**63 - 1) == 2**63 - 1
        with pytest.raises(OverflowReported):
            check_int(2**63)


# -- canonical constructors against a quadratic reference -----------------
#
# The reference dedups by order_key equality with a scan over what it has
# kept, then sorts.  Results are compared by identity, so "the first
# occurrence is kept" is checked too: each drawn Ref and MSeq is a fresh
# object.

PROPERTY = settings(max_examples=80, deadline=None, derandomize=True,
                    database=None)


def same_key(x, y):
    return order_key(x) == order_key(y)


def reference_set(xs):
    kept = []
    for x in xs:
        if not any(same_key(x, y) for y in kept):
            kept.append(x)
    return sorted(kept, key=order_key)


def reference_bag(pairs):
    acc = []
    for x, n in pairs:
        if n == 0:
            continue
        for i, (y, m) in enumerate(acc):
            if same_key(x, y):
                acc[i] = (y, m + n)
                break
        else:
            acc.append((x, n))
    return sorted(acc, key=lambda p: order_key(p[0]))


def reference_rel(pairs):
    kept = []
    for x, y in pairs:
        if not any(same_key(x, a) and same_key(y, b) for a, b in kept):
            kept.append((x, y))
    return sorted(kept, key=lambda p: (order_key(p[0]), order_key(p[1])))


def identical(got, want):
    return len(got) == len(want) and all(a is b for a, b in zip(got, want))


def identical_pairs(got, want):
    return (len(got) == len(want)
            and all(a[0] is b[0] and a[1] == b[1] for a, b in zip(got, want)))


# Booleans, integers and Refs, mixed at every depth: True and 1 (False
# and 0) are distinct values, so a constructor must keep both.
ATOMS = st.one_of(st.booleans(), st.integers(-3, 3),
                  st.builds(Ref, st.sampled_from("abcd")))
MODEL_VALUES = st.recursive(
    ATOMS, lambda inner: st.builds(MSeq, st.lists(inner, max_size=3)),
    max_leaves=4)
MULTIPLICITIES = st.integers(0, 3)


def value_lists(**kw):
    return st.lists(MODEL_VALUES, **kw)


def pair_lists(seconds, **kw):
    return st.lists(st.tuples(MODEL_VALUES, seconds), **kw)


class TestCanonicalConstructors:
    @PROPERTY
    @given(value_lists(max_size=12))
    def test_set_matches_reference(self, xs):
        assert identical(MSet(xs).elements, reference_set(xs))

    @PROPERTY
    @given(pair_lists(MULTIPLICITIES, max_size=12))
    def test_bag_matches_reference(self, pairs):
        assert identical_pairs(bag_of(pairs).pairs, reference_bag(pairs))

    @PROPERTY
    @given(value_lists(max_size=12))
    def test_to_bag_matches_reference(self, xs):
        want = reference_bag([(x, 1) for x in xs])
        bag = MSeq(xs).to_bag()
        assert identical_pairs(bag.pairs, want)
        built = bag_of([(x, 1) for x in xs])
        assert bag == built and hash(bag) == hash(built)

    @PROPERTY
    @given(pair_lists(MODEL_VALUES, max_size=10))
    def test_rel_matches_reference(self, pairs):
        got = MRel(pairs).pairs
        want = reference_rel(pairs)
        assert len(got) == len(want)
        assert all(a[0] is b[0] and a[1] is b[1] for a, b in zip(got, want))

    @PROPERTY
    @given(st.lists(st.integers(-5, 5), min_size=1, unique=True), st.data())
    def test_map_duplicate_key_rejected(self, keys, data):
        dup = data.draw(st.sampled_from(keys))
        pairs = [(k, A) for k in keys]
        pairs.insert(data.draw(st.integers(0, len(pairs))), (dup, B))
        with pytest.raises(DomainError, match=re.escape(f"duplicate key {dup!r}")):
            MMap(pairs)

    def test_bool_and_int_are_distinct_whatever_the_order(self):
        # order_key is the identity: True and 1 are two elements, stored
        # True first, whichever is inserted first.
        for xs in ([1, True], [True, 1]):
            assert [order_key(x) for x in MSet(xs).elements] == [(0, True), (1, 1)]
            bag = bag_of([(x, 1) for x in xs])
            assert [(order_key(x), n) for x, n in bag.pairs] == [
                ((0, True), 1), ((1, 1), 1)]

    def test_constructors_are_linear(self, monkeypatch):
        # Counts, not times: one bag for a whole sequence, and one order_key
        # call per element once it is counted.  ``MBag.__init__`` is the one
        # way a bag is built.
        calls = {"order_key": 0, "bags": 0}
        real_key, real_init = model_math.order_key, MBag.__init__

        def counting_key(v):
            calls["order_key"] += 1
            return real_key(v)

        def counting_init(self, *args, **kwargs):
            calls["bags"] += 1
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(model_math, "order_key", counting_key)
        monkeypatch.setattr(MBag, "__init__", counting_init)
        refs = [Ref(f"r{i:02d}") for i in range(64)]
        random.Random(0).shuffle(refs)
        bag = MSeq(refs).to_bag()
        assert bag.count == 64
        assert len(bag.pairs) == 64
        assert calls["bags"] == 1
        assert calls["order_key"] <= 64
        calls["order_key"] = 0
        assert MSet(refs).count == 64
        assert calls["order_key"] <= 64


def reference_removed(pairs, v):
    """``reference_bag(pairs)`` with one occurrence of ``v`` taken out."""
    acc = reference_bag(pairs)
    for i, (y, m) in enumerate(acc):
        if same_key(v, y):
            return acc[:i] + ([(y, m - 1)] if m > 1 else []) + acc[i + 1:]
    raise DomainError("removing absent element")


def keyed(pairs):
    return [(order_key(x), n) for x, n in pairs]


@pytest.mark.bytegate
class TestBagAlgebra:
    """Every bag operation against the quadratic reference.  Bags and
    probes may mix booleans and integers: a bag keys its elements by
    ``order_key``, so ``True`` and ``1`` are distinct elements."""

    @PROPERTY
    @given(pair_lists(MULTIPLICITIES, max_size=12), MODEL_VALUES)
    def test_extended(self, pairs, v):
        want = reference_bag(pairs + [(v, 1)])
        got = bag_of(pairs).extended(v)
        assert identical_pairs(got.pairs, want)
        assert got == bag_of(pairs + [(v, 1)])

    @PROPERTY
    @given(pair_lists(MULTIPLICITIES, max_size=12), st.data())
    def test_removed(self, pairs, data):
        present = [x for x, n in pairs if n]
        v = data.draw(st.sampled_from(present) if present and data.draw(
            st.booleans()) else MODEL_VALUES)
        try:
            want = reference_removed(pairs, v)
        except DomainError:
            with pytest.raises(DomainError, match="removing absent element"):
                bag_of(pairs).removed(v)
            return
        got = bag_of(pairs).removed(v)
        assert identical_pairs(got.pairs, want)
        assert got == bag_of(want)

    @PROPERTY
    @given(pair_lists(MULTIPLICITIES, max_size=6), st.data())
    def test_chains(self, pairs, data):
        # extended and removed in turn, read before and after counting.
        bag, want = bag_of(pairs), reference_bag(pairs)
        for _ in range(data.draw(st.integers(0, 8))):
            held = [x for x, _ in want]
            v = data.draw(st.sampled_from(held) if held and data.draw(
                st.booleans()) else MODEL_VALUES)
            if data.draw(st.booleans()):
                bag, want = bag.extended(v), reference_bag(want + [(v, 1)])
            else:
                try:
                    want = reference_removed(want, v)
                except DomainError:
                    with pytest.raises(DomainError,
                                       match="removing absent element"):
                        bag.removed(v)
                    continue
                bag = bag.removed(v)
            assert bag.count == sum(n for _, n in want)
            assert bag.is_empty == (not want)
            if data.draw(st.booleans()):
                assert identical_pairs(bag.pairs, want)
        assert identical_pairs(bag.pairs, want)
        assert bag == bag_of(want) and hash(bag) == hash(bag_of(want))

    @PROPERTY
    @given(pair_lists(MULTIPLICITIES, max_size=12), MODEL_VALUES)
    def test_multiplicity_count_domain(self, pairs, v):
        want = reference_bag(pairs)
        bag = bag_of(pairs)
        for _ in range(2):  # before the first multiplicity counts the bag
            assert bag.count == sum(n for _, n in want)
            assert bag.is_empty == (not want)
            assert bag.multiplicity(v) == bag[v] == sum(
                n for x, n in want if same_key(x, v))
        assert identical(bag.domain.elements, [x for x, _ in want])

    @PROPERTY
    @given(pair_lists(MULTIPLICITIES, max_size=8),
           pair_lists(MULTIPLICITIES, max_size=8), st.randoms())
    def test_eq_and_hash(self, pairs, others, rnd):
        # Bags of the same pairs in two orders, and of other pairs:
        # compared fresh, after hashing, and after counting.
        shuffled = list(pairs)
        rnd.shuffle(shuffled)
        same = keyed(reference_bag(pairs)) == keyed(reference_bag(others))
        for first in (lambda b: None, hash, lambda b: b.pairs):
            bags = bag_of(pairs), bag_of(shuffled), bag_of(others)
            for b in bags:
                first(b)
            bag, again, other = bags
            assert bag == again and again == bag
            assert (bag == other) == (other == bag) == same
            assert (bag != other) == (not same)
            assert hash(bag) == hash(again)
            if same:
                assert hash(bag) == hash(other)

    def test_bool_and_int_are_distinct_elements(self):
        # ROADMAP 1(a) for bags: equality and membership agree with
        # order_key, so equal bags hash alike.
        assert MSeq([1]).to_bag() != MSeq([True]).to_bag()
        one, true = bag_of([(1, 1)]), bag_of([(True, 1)])
        assert one != true
        assert true.multiplicity(1) == 0 and true[True] == 1
        with pytest.raises(DomainError):
            true.removed(1)
        both = bag_of([(1, 1), (True, 2)])
        assert both.removed(1) == bag_of([(True, 2)])
        bags = [one, true, both, bag_of([(True, 2), (1, 1)]), bag_of([])]
        for b, c in itertools.product(bags, repeat=2):
            assert (b == c) == (keyed(b.pairs) == keyed(c.pairs))
            if b == c:
                assert hash(b) == hash(c)

    def test_repr_prints_items_in_canonical_order(self):
        # Each element as often as its multiplicity, in ascending key
        # order, whatever the order of the items; ``pairs`` reads alike.
        for bag in (MBag([B, A, A]), MBag([A, B, A]), MSeq([A, A, B]).to_bag()):
            for _ in range(2):
                assert repr(bag) == "MBag([Ref('a'), Ref('a'), Ref('b')])"
                assert bag.pairs == ((A, 2), (B, 1))
        assert repr(MBag([1, True, B])) == "MBag([True, 1, Ref('b')])"
        assert repr(MBag()) == "MBag([])"


def same_ints(got, want):
    return (list(got) == list(want)
            and [type(x) for x in got] == [type(x) for x in want])


def map_of(pairs):
    """A map of ``pairs``, keeping the values of the first keys that are
    distinct by ``order_key``."""
    return MMap(zip(MSet([k for k, _ in pairs]).elements, [v for _, v in pairs]))


def maps(**kw):
    return st.lists(st.tuples(MODEL_VALUES, MODEL_VALUES), **kw).map(map_of)


class TestDerivedValues:
    """Values derived from a canonical value skip the sort; each must hold
    the tuple the sorting constructor builds from the same entries."""

    @PROPERTY
    @given(value_lists(max_size=12))
    def test_sequence_domain(self, xs):
        assert same_ints(MSeq(xs).domain.elements,
                         MSet(list(range(1, len(xs) + 1))).elements)

    @PROPERTY
    @given(st.integers(-20, 20), st.integers(-20, 20))
    def test_int_interval(self, l, u):
        assert same_ints(int_interval(l, u).elements,
                         MSet(list(range(l, u + 1))).elements)

    @PROPERTY
    @given(pair_lists(MULTIPLICITIES, max_size=12))
    def test_bag_domain(self, pairs):
        bag = bag_of(pairs)
        assert identical(bag.domain.elements, MSet([x for x, _ in bag.pairs]).elements)

    @PROPERTY
    @given(maps(max_size=10))
    def test_map_domain_built_once(self, m):
        assert identical(m.domain.elements, MSet([k for k, _ in m.pairs]).elements)
        assert m.domain is m.domain

    @PROPERTY
    @given(value_lists(max_size=10), value_lists(max_size=10))
    def test_intersection_and_difference(self, xs, ys):
        s, t = MSet(xs), MSet(ys)
        assert identical(s.intersection(t).elements,
                         MSet([x for x in s.elements if t.has(x)]).elements)
        assert identical(s.difference(t).elements,
                         MSet([x for x in s.elements if not t.has(x)]).elements)

    @PROPERTY
    @given(maps(max_size=10), value_lists(max_size=10))
    def test_restricted(self, m, ks):
        keys = MSet(ks) | MSet(m.domain.elements[::2])
        got = m.restricted(keys)
        want = MMap([(y, w) for y, w in m.pairs if keys.has(y)])
        assert len(got.pairs) == len(want.pairs)
        assert all(a[0] is b[0] and a[1] is b[1] for a, b in zip(got.pairs, want.pairs))
        assert identical(got.domain.elements, want.domain.elements)

    @PROPERTY
    @given(maps(min_size=1, max_size=10), st.data())
    def test_replaced_at(self, m, data):
        k = data.draw(st.sampled_from(m.domain.elements))
        got = m.replaced_at(k, A)
        want = MMap([(y, A if same_key(y, k) else w) for y, w in m.pairs])
        assert len(got.pairs) == len(want.pairs)
        assert all(a[0] is b[0] and a[1] is b[1] for a, b in zip(got.pairs, want.pairs))
        assert identical(got.domain.elements, want.domain.elements)


# -- membership by order_key ------------------------------------------------

REFS = st.builds(Ref, st.sampled_from("abcde"))


def scan_has(rel, x, y):
    """``MRel.has`` as a quadratic scan with ``==``."""
    return any(x == a and y == b for a, b in rel.pairs)


def count_ref_eq(monkeypatch):
    calls = []
    real = Ref.__eq__
    monkeypatch.setattr(Ref, "__eq__",
                        lambda self, other: calls.append(1) or real(self, other))
    return calls


class TestKeyedMembership:
    """``MMap``'s duplicate-key check, the lookups of sets, maps and
    relations, and the bag operations key by ``order_key``, without a scan
    over ``==``."""

    def test_map_keeps_one_and_true_apart(self):
        m = MMap([(1, "a"), (True, "b")])
        assert m.count == 2
        assert [(order_key(k), v) for k, v in m.pairs] == [
            ((0, True), "b"), ((1, 1), "a")]

    def test_map_duplicate_names_the_first_repeat(self):
        with pytest.raises(DomainError, match="duplicate key 2$"):
            MMap([(1, A), (2, A), (2, B), (1, B)])

    def test_map_build_makes_no_ref_eq(self, monkeypatch):
        keys = [Ref(t) for t in "hgfedcba"]
        calls = count_ref_eq(monkeypatch)
        m = MMap([(k, A) for k in keys])
        assert m.count == 8 and not calls

    def test_rel_has_makes_no_ref_eq(self, monkeypatch):
        universe = [Ref(t) for t in "abcd"]
        total = total_relation(universe)
        calls = count_ref_eq(monkeypatch)
        assert all(total.has(x, y) for x in universe for y in universe)
        assert not total.has(A, Ref("e"))
        assert not calls

    @pytest.mark.parametrize("op", ["multiplicity"])
    def test_bag_lookup_makes_one_order_key_and_no_ref_eq(self, monkeypatch, op):
        # Counts, not times: a counted bag looks its argument up by key,
        # without re-keying its 16 elements or scanning them with ==.
        refs = [Ref(f"r{i:02d}") for i in range(16)]
        random.Random(1).shuffle(refs)
        bag = MSeq(refs).to_bag()
        assert len(bag.pairs) == 16
        keys = []
        real_key = model_math.order_key
        monkeypatch.setattr(model_math, "order_key",
                            lambda v: keys.append(1) or real_key(v))
        calls = count_ref_eq(monkeypatch)
        for probe in (Ref("r07"), Ref("zz")):
            keys.clear()
            getattr(bag, op)(probe)
            assert len(keys) == 1 and not calls

    def test_uncounted_extended_makes_no_order_key_and_no_ref_eq(
            self, monkeypatch):
        # Extending appends to the items, whether or not the bag was
        # counted already (its ``pairs`` read), and counts nothing.
        refs = [Ref(f"r{i:02d}") for i in range(16)]
        fresh, counted = MSeq(refs).to_bag(), MSeq(refs).to_bag()
        assert len(counted.pairs) == 16
        keys = []
        real_key = model_math.order_key
        monkeypatch.setattr(model_math, "order_key",
                            lambda v: keys.append(1) or real_key(v))
        calls = count_ref_eq(monkeypatch)
        for bag in (fresh, counted):
            for probe in (Ref("r07"), Ref("zz")):
                assert bag.extended(probe).count == 17
        assert not keys and not calls

    @pytest.mark.parametrize("lookup", [
        "set has", "map has_key", "map item", "map replaced_at",
        "map updated", "relation image_of"])
    def test_indexed_lookup_makes_one_order_key_and_no_ref_eq(
            self, monkeypatch, lookup):
        # Counts, not times: once its index is built, a value looks a probe
        # up with the probe's one key, without a scan over ==.
        refs = [Ref(f"r{i:02d}") for i in range(16)]
        random.Random(1).shuffle(refs)
        kind, op = lookup.split()
        value = {"set": MSet(refs), "map": MMap([(r, A) for r in refs]),
                 "relation": MRel([(r, s) for r in refs for s in (A, B)])}[kind]
        args = {"replaced_at": (B,), "updated": (B,)}.get(op, ())
        getattr(value, op)(refs[0], *args)
        keys = []
        real_key = model_math.order_key
        monkeypatch.setattr(model_math, "order_key",
                            lambda v: keys.append(1) or real_key(v))
        calls = count_ref_eq(monkeypatch)
        for probe in (Ref("r07"), Ref("zz")):
            keys.clear()
            try:
                getattr(value, op)(probe, *args)
            except DomainError:
                assert op in ("item", "replaced_at") and probe.token == "zz"
            assert len(keys) == 1 and not calls

    def test_scans_find_a_stored_probe_by_identity(self, monkeypatch):
        # The scans of sequences, a bag's removal and a map's values test
        # identity first: a probe that is the stored object costs no
        # Ref.__eq__, and the answers stay.
        r = Ref("r")
        seq, bag, m = MSeq([r, r]), MBag([A, r]), MMap([(A, r), (B, r)])
        calls = count_ref_eq(monkeypatch)
        got = (seq.has(r), seq.occurrences(r), bag.removed(r).items,
               m.is_constant(r))
        assert not calls
        assert got == (True, 2, (A,), True)

    def test_probe_that_is_not_a_model_value(self):
        # As the scans gave: found nowhere, and ``item`` raises
        # DomainError, though ``order_key`` raises TypeError on the probe.
        s, m, r = MSet([A, 1, MSeq([B])]), MMap([(A, B), (1, B)]), MRel([(A, B)])
        interval, bag = int_interval(0, 3), MBag([A, 1, MSeq([B]), A])
        for probe in (object(), None, 1.0, "a", (A,), MSeq([object()])):
            assert not s.has(probe) and not m.has_key(probe)
            assert not interval.has(probe) and not MSeq([A]).domain.has(probe)
            with pytest.raises(DomainError):
                m.item(probe)
            assert r.image_of(probe) == MSet()
            assert bag.multiplicity(probe) == bag[probe] == 0
            assert not r.has(probe, B) and not r.has(A, probe)

    def test_integer_range_index(self):
        # int_interval and a sequence's domain index their integers
        # without a dict: only those integers are in them.
        for s, lo, hi in [(int_interval(-2, 3), -2, 3),
                          (MSeq([A, B, A]).domain, 1, 3),
                          (MSeq().domain, 1, 0), (int_interval(2, 1), 2, 1)]:
            for v in range(-4, 6):
                assert s.has(v) == (lo <= v <= hi)
            assert not s.has(True) and not s.has(False)
            assert not s.has(MSeq([1])) and not s.has(A)

    def test_rel_has_agrees_with_image_and_domain_on_bool_int(self):
        # ROADMAP 1(a): ``has``, ``image_of`` and ``domain`` all key by
        # ``order_key``, so 1 is neither related nor in the domain.
        r = MRel([(True, True)])
        assert r.has(True, True) and not r.has(1, 1)
        assert r.image_of(True).has(True) and r.domain.has(True)
        assert not r.image_of(1).has(1) and not r.domain.has(1)
        assert not r.has(object(), True)

    @PROPERTY
    @given(st.lists(st.tuples(REFS, REFS), max_size=12), REFS, REFS)
    def test_rel_has_matches_scan(self, pairs, x, y):
        rel = MRel(pairs)
        assert rel.has(x, y) == scan_has(rel, x, y)
        for a, b in pairs:
            assert rel.has(a, b)


# -- one identity: ==, hash and membership follow order_key -----------------


def _values_of(inner):
    """Each model-value class, with entries drawn from ``inner``."""
    items = st.lists(inner, max_size=3)
    pairs = st.lists(st.tuples(inner, inner), max_size=3)
    return st.one_of(
        st.builds(MSeq, items), st.builds(MSet, items),
        st.lists(st.tuples(inner, st.integers(0, 2)), max_size=3).map(bag_of),
        items.map(lambda xs: MSeq(xs).to_bag()),
        pairs.map(map_of), st.builds(MRel, pairs))


VALUES = _values_of(st.recursive(ATOMS, _values_of, max_leaves=6))


def twin(v, flip):
    """``v`` rebuilt from fresh objects, each boolean, 0 and 1 turned into
    its counterpart (``True`` and 1, ``False`` and 0) where ``flip()``."""
    if type(v) is bool:
        return int(v) if flip() else v
    if type(v) is int:
        return bool(v) if v in (0, 1) and flip() else v
    if isinstance(v, Ref):
        return Ref(v.token)
    if isinstance(v, (MSeq, MSet)):
        return type(v)([twin(x, flip) for x in v])
    if isinstance(v, MBag):
        return bag_of([(twin(x, flip), n) for x, n in v.pairs])
    pairs = [(twin(x, flip), twin(y, flip)) for x, y in v.pairs]
    return map_of(pairs) if isinstance(v, MMap) else MRel(pairs)


def entries(v):
    """What ``v`` holds: its elements, or its keys and values."""
    if isinstance(v, (MSeq, MSet)):
        return list(v)
    if isinstance(v, MBag):
        return [x for x, _ in v.pairs]
    return [x for pair in v.pairs for x in pair]


def probes(v, other):
    """Values to look up in ``v``: its entries, each also as a fresh twin
    with every boolean, 0 and 1 turned, and ``other``."""
    held = entries(v)
    return held + [twin(x, lambda: True) for x in held] + [other]


# ``==`` reads the entries' types only where two equal tuples hold
# distinct objects.  Each maker builds one value from a list of entries,
# with the key that identity must follow; the entries of each variant are
# the same objects as SHARED's, equal but distinct ones, or turn 1 into
# True at one position, at the top or nested.
BIG = int("70000")  # built at run time: int("70000") again is another
SHARED = [A, B, 1, BIG, MSeq([A, 0])]
KEYS = [Ref(f"k{i}") for i in range(len(SHARED))]
PAIR_SIG = ModelSignature([("s", "MSeq"), ("b", "MBag")])
MAKERS = {
    "MSeq": (MSeq, order_key),
    "MSet": (MSet, order_key),
    "MBag": (MBag, order_key),
    "MMap by keys": (lambda xs: MMap([(x, A) for x in xs]), order_key),
    "MMap by values": (lambda xs: MMap(zip(KEYS, xs)), order_key),
    "MSeq of MSeqs": (lambda xs: MSeq([MSeq(xs), MSeq(xs[:3])]), order_key),
    "abstract state": (
        lambda xs: AbstractState(PAIR_SIG, [MSeq(xs), MBag(xs)]),
        lambda state: [order_key(v) for v in state]),
}
VARIANTS = {
    "same objects": (lambda: list(SHARED), True),
    "equal objects": (lambda: [Ref("a"), Ref("b"), 1, int("70000"),
                               MSeq([Ref("a"), 0])], True),
    "True for 1": (lambda: [A, B, True, BIG, SHARED[4]], False),
    "nested False for 0": (lambda: [A, B, 1, BIG, MSeq([A, False])], False),
}


@pytest.mark.bytegate
class TestOneIdentity:
    """For nested mixes of booleans, integers and Refs in every model-value
    class, ``==`` holds exactly when the ``order_key``s are equal, equal
    values hash alike, and each membership test agrees with a scan that
    compares ``order_key``s."""

    @PROPERTY
    @given(VALUES, VALUES, st.randoms())
    def test_eq_and_hash_follow_order_key(self, a, b, rnd):
        def flip():
            return rnd.random() < 0.5

        for x, y in [(a, b), (a, twin(a, flip)), (a, twin(a, lambda: False)),
                     (b, twin(b, lambda: True))]:
            same = order_key(x) == order_key(y)
            assert (x == y) == same and (x != y) == (not same)
            if same:
                assert hash(x) == hash(y)

    @PROPERTY
    @given(VALUES, VALUES, st.randoms())
    def test_order_key_is_total(self, a, b, rnd):
        for x, y in [(a, b), (a, twin(a, lambda: rnd.random() < 0.5))]:
            kx, ky = order_key(x), order_key(y)
            assert [kx < ky, kx == ky, kx > ky].count(True) == 1

    @PROPERTY
    @given(st.lists(VALUES, max_size=4))
    def test_front_and_tail_recompose(self, xs):
        s = MSeq(xs)
        for n in range(s.count + 1):
            assert s.front(n) + s.tail(n + 1) == s

    def test_bool_and_int_values_differ(self):
        for one, true in [(MSeq([1]), MSeq([True])), (MSet([0]), MSet([False])),
                          (MMap([(1, A)]), MMap([(True, A)])),
                          (MMap([(A, 1)]), MMap([(A, True)])),
                          (MRel([(1, A)]), MRel([(True, A)])),
                          (MSeq([MSet([1])]), MSeq([MSet([True])]))]:
            assert one != true and not one == true

    @pytest.mark.parametrize("variant", list(VARIANTS))
    @pytest.mark.parametrize("maker", list(MAKERS))
    def test_eq_reads_types_where_objects_differ(self, maker, variant):
        make, key = MAKERS[maker]
        entries, equal = VARIANTS[variant]
        x, y = make(SHARED), make(entries())
        same = key(x) == key(y)
        assert same == equal
        assert (x == y) == same and (y == x) == same
        assert (x != y) == (not same)
        if same:
            assert hash(x) == hash(y)

    @pytest.mark.parametrize("swap, pure", [
        (lambda x: Ref(x.token) if isinstance(x, Ref) else x, True),
        (lambda x: True if x == 1 and type(x) is int else x, False)])
    def test_purity_compares_by_order_key(self, monkeypatch, swap, pure):
        # A query whose body swaps each entry for an equal but distinct
        # object is pure; one that turns 1 into True is not.
        spec = REGISTRY["Collection"]
        c = checked_constructor(spec, "make_empty")
        c.items[:] = [A, 1, B]
        feature = spec.features["count"]
        body = feature.body

        def swapping(obj):
            obj.items[:] = [swap(x) for x in obj.items]
            return body(obj)

        monkeypatch.setattr(feature, "body", swapping)
        if pure:
            assert checked_query(c, "count") == 3
        else:
            with pytest.raises(ContractViolation) as e:
                checked_query(c, "count")
            assert e.value.kind == "abstract-purity"

    @PROPERTY
    @given(st.lists(MODEL_VALUES, max_size=6), MODEL_VALUES)
    def test_sequence_and_set_membership(self, xs, other):
        s, t = MSeq(xs), MSet(xs)
        for v in probes(s, other):
            n = sum(same_key(x, v) for x in xs)
            assert s.has(v) == t.has(v) == (n > 0)
            assert s.occurrences(v) == s.to_bag().multiplicity(v) == n

    @PROPERTY
    @given(maps(max_size=6), MODEL_VALUES)
    def test_map_membership(self, m, other):
        for k in probes(m, other):
            hits = [w for y, w in m.pairs if same_key(y, k)]
            assert m.has_key(k) == bool(hits)
            if hits:
                assert m.item(k) is hits[0]
                got = m.replaced_at(k, A)
                assert [order_key(w) for _, w in got.pairs] == [
                    order_key(A if same_key(y, k) else w) for y, w in m.pairs]
            else:
                with pytest.raises(DomainError):
                    m.item(k)
            assert m.is_constant(k) == all(same_key(w, k) for _, w in m.pairs)
            got = m.updated(k, B)
            want = [(y, w) for y, w in m.pairs if not same_key(y, k)] + [(k, B)]
            assert order_key(got) == order_key(MMap(want))

    @PROPERTY
    @given(st.lists(st.tuples(MODEL_VALUES, MODEL_VALUES), max_size=6),
           MODEL_VALUES)
    def test_relation_membership(self, pairs, other):
        r = MRel(pairs)
        for x in probes(r, other):
            image = [b for a, b in pairs if same_key(a, x)]
            assert order_key(r.image_of(x)) == order_key(MSet(image))
            assert r.domain.has(x) == bool(image)
            for y in probes(r, other):
                assert r.has(x, y) == any(same_key(b, y) for b in image)


# -- keyed lookups agree with the scans they replaced ------------------------

NESTED = st.recursive(ATOMS, _values_of, max_leaves=6)


def scan_hits(held, v):
    """The positions at which the scan that the keyed lookups replaced
    finds ``v`` among ``held``: ``==``, then the type."""
    return [i for i, x in enumerate(held) if x == v and type(x) is type(v)]


@pytest.mark.bytegate
class TestKeyedLookups:
    """``has``, ``has_key``, ``item``, ``image_of``, ``replaced_at`` and
    ``updated`` give what the scan with ``==`` and the type gave, for
    nested values of every class that mix ``True`` with 1 and ``False``
    with 0.  CI runs these under several hash seeds: the indexes hash
    keys, and no hash order may reach an answer."""

    @PROPERTY
    @given(st.lists(NESTED, max_size=6), NESTED)
    def test_set_has(self, xs, other):
        s = MSet(xs)
        for v in probes(s, other):
            assert s.has(v) == bool(scan_hits(s.elements, v))

    @PROPERTY
    @given(st.lists(st.tuples(NESTED, NESTED), max_size=6), NESTED)
    def test_map_has_key_and_item(self, pairs, other):
        m = map_of(pairs)
        keys = [k for k, _ in m.pairs]
        for k in probes(m, other):
            hits = scan_hits(keys, k)
            assert m.has_key(k) == bool(hits)
            if hits:
                assert m.item(k) is m.pairs[hits[0]][1]
            else:
                with pytest.raises(DomainError):
                    m.item(k)

    @PROPERTY
    @given(st.lists(st.tuples(NESTED, NESTED), max_size=6), NESTED)
    def test_map_replaced_at_and_updated(self, pairs, other):
        m = map_of(pairs)
        for k in probes(m, other):
            want = MMap([(y, w) for y, w in m.pairs
                         if not (y == k and type(y) is type(k))] + [(k, B)])
            assert identical_entries(m.updated(k, B).pairs, want.pairs)
            if m.has_key(k):
                want = MMap([(y, B if y == k and type(y) is type(k) else w)
                             for y, w in m.pairs])
                assert identical_entries(m.replaced_at(k, B).pairs, want.pairs)

    @PROPERTY
    @given(st.lists(st.tuples(NESTED, NESTED), max_size=6), NESTED)
    def test_relation_image_of(self, pairs, other):
        r = MRel(pairs)
        for x in probes(r, other):
            want = MSet([b for a, b in r.pairs if a == x and type(a) is type(x)])
            assert identical(r.image_of(x).elements, want.elements)


def identical_entries(got, want):
    return len(got) == len(want) and all(
        a[0] is b[0] and a[1] is b[1] for a, b in zip(got, want))


# -- memos are not state -----------------------------------------------------


def memos(v):
    """The memo slots of ``v``: every slot but the value's own."""
    return [getattr(v, n) for n in type(v).__slots__ if n not in v._STATE]


def use(v):
    """Read ``v`` so that it fills its memos; return what it answered."""
    if isinstance(v, MSet):
        return [v.has(A), v.has(2), v.has(True)]
    if isinstance(v, MMap):
        return [v.domain, v.has_key(A), v.item(A), v.updated(B, 1),
                v.replaced_at(A, B)]
    if isinstance(v, MRel):
        return [v.domain, v.image_of(A), v.image_of(1), v.has(A, B)]
    return [v.pairs, v.multiplicity(A)]


KEEPING_MEMOS = {
    "set": lambda: MSet([B, A, True, 1]),
    "interval": lambda: int_interval(1, 4),
    "sequence domain": lambda: MSeq([A, B]).domain,
    "map": lambda: MMap([(B, True), (A, 1)]),
    "relation": lambda: total_relation([A, B, 1]),
    "bag": lambda: bag_of([(B, 1), (A, 2)]),
    "bag of items": lambda: MSeq([A, B, A]).to_bag(),
}


class TestMemosAreNotState:
    """An index, a domain, the images and a bag's counts are memos: ``copy``, ``deepcopy`` and ``pickle`` carry the value alone, so
    a value pickles to the same bytes before and after it is read, and a
    copy starts with every memo unset and answers alike."""

    @pytest.mark.parametrize("kind", list(KEEPING_MEMOS))
    def test_round_trip_after_memos_filled(self, kind):
        v = KEEPING_MEMOS[kind]()
        before = pickle.dumps(v)
        answers = use(v)
        assert any(m is not None for m in memos(v))
        assert pickle.dumps(v) == before
        for c in (copy.copy(v), copy.deepcopy(v), pickle.loads(before)):
            assert type(c) is type(v) and c is not v
            assert all(m is None for m in memos(c))
            assert c == v and hash(c) == hash(v) and to_text(c) == to_text(v)
            assert order_key(c) == order_key(v)
            assert use(c) == answers

    def test_bag_pickles_its_items(self):
        # A bag is its items, however it was built.
        assert (pickle.dumps(bag_of([(A, 2), (B, 1)]))
                == pickle.dumps(MSeq([A, A, B]).to_bag()))

    def test_nested_memos_do_not_reach_the_pickle(self):
        def make():
            return MSeq([MSet([MMap([(A, B)]), total_relation([A, B])])])
        used, fresh = make(), make()
        inner = used.items[0]
        m, r = inner.elements
        use(m), use(r), use(inner)
        assert pickle.dumps(used) == pickle.dumps(fresh)
        assert copy.deepcopy(used) == used
