"""Immutable finite mathematical values used in specifications.

Every structure is finite, immutable, and carries a canonical total order,
so iteration and serialization are deterministic.  Booleans and integers are
represented by the native ``bool`` and ``int`` types; elements of generic
containers are opaque :class:`Ref` tokens compared by identity token.

Identity is :func:`order_key`: two model values are equal exactly when their
keys are, ``hash`` follows the key, and every membership test (``has``,
``occurrences``, ``has_key``, ``item``, ``image_of``, ``multiplicity``)
matches by it, so ``True`` and ``1`` are distinct everywhere.  ``__eq__`` and
the scans (``MSeq.has`` and ``occurrences``, ``MMap.is_constant``) test
``==``, then the type: nested values follow this rule, and only a ``bool``
and an ``int`` are ``==`` under different keys.  The ``__eq__`` of
``MSeq``, ``MSet`` and ``MBag`` reads the types only where two equal
entries are distinct objects (``_same_types``): identical objects have
identical types.  The constructors of
``MSet`` and ``MRel`` compute the key once per entry, sort once, and merge
neighbours with equal keys, keeping an element's first occurrence (``MRel``
keeps the keys, for ``==``, ``hash`` and ``has``); ``MMap`` sorts its keys
so and rejects equal neighbours.

Lookups are keyed, not scanned: one ``order_key`` call for the probe, then
a dict lookup.  ``MSet.has`` reads the set's index, from each element's key
to its position, built on the first lookup; an ``int_interval`` and a
sequence's domain get an index that computes the position from the key.
``MMap.has_key``, ``item``, ``replaced_at`` and ``updated`` read the index
of the map's domain, whose elements are the keys in the same order;
``updated`` bisects the index's ascending keys for a new key's place, so
no map is sorted again.  ``MRel.image_of`` reads a map from each first
component's key to its image, built on the first call from the stored
pairs, which ascend by key already.  ``MRel.has`` reads the stored keys.
Every lookup keys its probe with ``_probe_key``.  A probe that is not a
model value has no key and is found nowhere: ``has`` and ``has_key`` give
False, ``multiplicity`` gives 0, ``item`` raises ``DomainError`` and
``image_of`` gives the empty set.

Memos are not state.  An index, a domain (``MMap``, ``MRel``), the images
(``MRel``), and a bag's counts are computed on first need and kept, so a
value shared between states pays for them once.
``copy``, ``deepcopy`` and ``pickle`` carry the value alone (``_Value``)
and leave every memo unset: a value pickles to the same bytes before and
after it is read.
An ``MBag`` is the items it holds, each element repeated by its
multiplicity, and ``MBag(items)`` is the one way to build one
(``MSeq.to_bag`` passes the sequence's items).  It is counted only on first
need (``multiplicity``, ``hash``, ``order_key``, ``pairs``), one
``order_key`` call per item, into a map from key to multiplicity with the
first element of each key, because most bags a contract builds are only
compared with a bag of the same items or asked for ``count`` or
``is_empty``.  ``count`` and ``is_empty`` read the items, ``extended``
appends to them, ``removed`` drops the last equal occurrence (so each key
keeps its first element), and ``==`` holds without counting when the items
are equal one by one, with the same types.  The canonical ``pairs`` tuple
is sorted from the map on each read (``to_text``, ``domain``, ``repr``),
and ``order_key`` sorts the map's (key, multiplicity) items.
Stored tuples are built from lists, never from generators:
``tuple(<generator>)`` over-allocates and then shrinks, which on CPython
fills the per-length tuple free lists and raises peak memory.

Values derived from an already canonical value skip the sort: the domains
of ``MSeq``, ``MBag`` and ``MMap``, ``int_interval``, ``MSet.intersection``
and ``difference``, the images of ``MRel.image_of``, and
``MMap.restricted``, ``replaced_at`` and ``updated`` go through
``_canonical_set`` or ``_canonical_map``.  Their input is an ascending
``range``, or the stored entries in order, or a subsequence of them, or
(``updated``) the stored entries with one key put in its bisected place:
keys already distinct and ascending by ``order_key``, which is the tuple
the sorting constructor would build.  The model queries of ``containers``
that walk their keys in ascending order call ``_canonical_map`` too, and
so does Table's, which sorts its distinct dict keys by ``order_key``.
"""

from __future__ import annotations

import bisect
import operator
from typing import Callable, Iterable, Iterator, Tuple

INT_MIN = -(2**63)
INT_MAX = 2**63 - 1


class DomainError(ValueError):
    """An operation was applied outside its defined domain."""


class OverflowReported(ArithmeticError):
    """An integer escaped the 64-bit signed range."""


def check_int(n: int) -> int:
    if not (INT_MIN <= n <= INT_MAX):
        raise OverflowReported(f"integer out of 64-bit range: {n}")
    return n


class Ref:
    """Opaque identity token; equality is token equality.  ``_key`` is its
    ``order_key``, computed once."""

    __slots__ = ("token", "_key")

    def __init__(self, token: str):
        self.token = token
        self._key = (2, token)

    def __eq__(self, other):
        return isinstance(other, Ref) and self.token == other.token

    def __hash__(self):
        return hash(("Ref", self.token))

    def __repr__(self):
        return f"Ref({self.token!r})"


# A ModelValue is one of: bool, int, Ref, MSeq, MSet, MBag, MMap, MRel.
ModelValue = object


def order_key(v: ModelValue):
    """Canonical total-order key over all model values."""
    if isinstance(v, Ref):
        return v._key
    # bool must be tested before int: bool is a subtype of int in Python.
    if isinstance(v, bool):
        return (0, v)
    if isinstance(v, int):
        return (1, v)
    if isinstance(v, MSeq):
        return (3, tuple([order_key(x) for x in v.items]))
    if isinstance(v, MSet):
        return (4, tuple([order_key(x) for x in v.elements]))
    if isinstance(v, MBag):
        return (5, tuple(sorted(v._counted().items())))
    if isinstance(v, MMap):
        return (6, tuple((order_key(k), order_key(w)) for k, w in v.pairs))
    if isinstance(v, MRel):
        return (7, tuple((order_key(x), order_key(y)) for x, y in v.pairs))
    raise TypeError(f"not a model value: {v!r}")


def _probe_key(v):
    """``order_key(v)``, or None when ``v`` is not a model value.  No index
    holds None, so such a probe is found nowhere, as the scan with ``==``
    and the type found it nowhere."""
    try:
        return order_key(v)
    except TypeError:
        return None


class _Value:
    """Base of ``MSet``, ``MBag``, ``MMap`` and ``MRel``.  ``_STATE`` names
    the slots that hold the value; every other slot is a memo, derived
    from them on first need.  Copies and pickles carry the ``_STATE``
    slots alone and leave every memo unset, so filling a memo changes
    neither."""

    __slots__ = ()
    _STATE: Tuple[str, ...] = ()

    def __getstate__(self):
        return tuple([getattr(self, name) for name in self._STATE])

    def __setstate__(self, state):
        for name in self.__slots__:
            setattr(self, name, None)
        for name, value in zip(self._STATE, state):
            setattr(self, name, value)


def to_text(v: ModelValue) -> str:
    """Canonical textual form; deterministic for equal values."""
    if isinstance(v, bool):
        return "True" if v else "False"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, Ref):
        return v.token
    if isinstance(v, MSeq):
        return "⟨" + ",".join(to_text(x) for x in v.items) + "⟩"
    if isinstance(v, MSet):
        return "{" + ",".join(to_text(x) for x in v.elements) + "}"
    if isinstance(v, MBag):
        return "{" + ",".join(f"{to_text(x)}:{n}" for x, n in v.pairs) + "}"
    if isinstance(v, MMap):
        return "{" + ",".join(f"{to_text(k)}→{to_text(w)}" for k, w in v.pairs) + "}"
    if isinstance(v, MRel):
        return "{" + ",".join(f"({to_text(x)},{to_text(y)})" for x, y in v.pairs) + "}"
    raise TypeError(f"not a model value: {v!r}")


def _same_types(xs, ys):
    """Whether the equal tuples ``xs`` and ``ys`` hold values of the same
    type at every position, so that equality by ``==`` is equality by
    ``order_key``.  Identical objects have identical types, so the
    per-position type lists are built only when some position holds two
    distinct objects; element tokens are shared ``Ref``s and small
    integers are cached, so most equal tuples skip them."""
    return (all(map(operator.is_, xs, ys))
            or list(map(type, xs)) == list(map(type, ys)))


class MSeq:
    """Finite sequence; positions are 1-based."""

    __slots__ = ("items",)

    def __init__(self, items: Iterable[ModelValue] = ()):
        self.items = tuple(items)

    def __eq__(self, other):
        return (isinstance(other, MSeq) and self.items == other.items
                and _same_types(self.items, other.items))

    def __hash__(self):
        return hash(("MSeq", tuple(order_key(x) for x in self.items)))

    def __repr__(self):
        return f"MSeq({list(self.items)!r})"

    def __iter__(self) -> Iterator[ModelValue]:
        return iter(self.items)

    @property
    def count(self) -> int:
        return len(self.items)

    @property
    def is_empty(self) -> bool:
        return not self.items

    def extended(self, x: ModelValue) -> "MSeq":
        return MSeq(self.items + (x,))

    def front(self, n: int) -> "MSeq":
        if not 0 <= n <= self.count:
            raise DomainError(f"front({n}) on sequence of length {self.count}")
        return MSeq(self.items[:n])

    def tail(self, n: int) -> "MSeq":
        if not 1 <= n <= self.count + 1:
            raise DomainError(f"tail({n}) on sequence of length {self.count}")
        return MSeq(self.items[n - 1:])

    def concat(self, other: "MSeq") -> "MSeq":
        return MSeq(self.items + other.items)

    def __add__(self, other: "MSeq") -> "MSeq":
        return self.concat(other)

    def interval(self, l: int, u: int) -> "MSeq":
        # Bounds are clipped to valid positions; an empty range yields <>.
        lo = max(1, l)
        hi = min(self.count, u)
        if hi < lo:
            return MSeq()
        return MSeq(self.items[lo - 1:hi])

    def item(self, i: int) -> ModelValue:
        if not 1 <= i <= self.count:
            raise DomainError(f"item({i}) on sequence of length {self.count}")
        return self.items[i - 1]

    def __getitem__(self, i: int) -> ModelValue:
        return self.item(i)

    @property
    def domain(self) -> "MSet":
        return _int_range(1, self.count)

    @property
    def range(self) -> "MSet":
        return MSet(self.items)

    def has(self, v: ModelValue) -> bool:
        return any(x is v or (x == v and type(x) is type(v)) for x in self.items)

    def occurrences(self, v: ModelValue) -> int:
        return sum(x is v or (x == v and type(x) is type(v)) for x in self.items)

    def to_bag(self) -> "MBag":
        return MBag(self.items)


def _key_order(keys):
    """Positions of ``keys`` in ascending key order; equal keys keep their
    input order."""
    return sorted(range(len(keys)), key=keys.__getitem__)


def _first_per_key(items, keys):
    """``items`` in ascending order of their ``keys``, keeping the first
    item of each run of equal keys."""
    kept, last = [], None
    for i in _key_order(keys):
        if keys[i] != last:
            kept.append(items[i])
            last = keys[i]
    return kept


class MSet(_Value):
    """Finite set of distinct model values, stored in canonical order.
    ``_index`` gives the position of each element's ``order_key``: a dict
    built on the first lookup and kept, or an ``_IntRange``."""

    __slots__ = ("elements", "_index")
    _STATE = ("elements",)

    def __init__(self, elements: Iterable[ModelValue] = ()):
        xs = list(elements)
        if len(xs) > 1:
            xs = _first_per_key(xs, [order_key(x) for x in xs])
        self.elements = tuple(xs)
        self._index = None

    def __eq__(self, other):
        return (isinstance(other, MSet) and self.elements == other.elements
                and _same_types(self.elements, other.elements))

    def __hash__(self):
        return hash(("MSet", tuple(order_key(x) for x in self.elements)))

    def __repr__(self):
        return f"MSet({list(self.elements)!r})"

    def __iter__(self) -> Iterator[ModelValue]:
        return iter(self.elements)

    @property
    def count(self) -> int:
        return len(self.elements)

    @property
    def is_empty(self) -> bool:
        return not self.elements

    def _positions(self) -> dict:
        if self._index is None:
            self._index = {order_key(x): i for i, x in enumerate(self.elements)}
        return self._index

    def has(self, v: ModelValue) -> bool:
        return _probe_key(v) in self._positions()

    def union(self, other: "MSet") -> "MSet":
        return MSet(self.elements + other.elements)

    def intersection(self, other: "MSet") -> "MSet":
        return _canonical_set([x for x in self.elements if other.has(x)])

    def difference(self, other: "MSet") -> "MSet":
        return _canonical_set([x for x in self.elements if not other.has(x)])

    def __or__(self, other):
        return self.union(other)

    def __mul__(self, other):
        return self.intersection(other)

    def __sub__(self, other):
        return self.difference(other)

    def for_all(self, p: Callable[[ModelValue], bool]) -> bool:
        return all(p(x) for x in self.elements)

    def exists(self, p: Callable[[ModelValue], bool]) -> bool:
        return any(p(x) for x in self.elements)


def _canonical_set(xs: list) -> MSet:
    """The set of ``xs``, which are distinct and in ascending
    ``order_key`` order already."""
    s = MSet.__new__(MSet)
    s.elements = tuple(xs)
    s._index = None
    return s


class _IntRange:
    """The index of the set {lo, ..., hi} of integers, without a dict: the
    key ``(1, i)`` is at position ``i - lo``.  It answers ``in`` and
    ``get``, which are all that lookups in a set ask of its index."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: int, hi: int):
        self.lo = lo
        self.hi = hi

    def get(self, key):
        if key is not None and key[0] == 1 and self.lo <= key[1] <= self.hi:
            return key[1] - self.lo
        return None

    def __contains__(self, key) -> bool:
        return self.get(key) is not None


def _int_range(lo: int, hi: int) -> MSet:
    """The set {lo, ..., hi}, with its index."""
    s = _canonical_set(list(range(lo, hi + 1)))
    s._index = _IntRange(lo, hi)
    return s


def int_interval(l: int, u: int) -> MSet:
    """The set {l, l+1, ..., u}; empty when u < l."""
    check_int(l)
    check_int(u)
    if u < l:
        return MSet()
    if u - l >= 10**6:
        raise OverflowReported(f"interval [{l},{u}] too large to expand")
    return _int_range(l, u)


class MBag(_Value):
    """Finite multiset: ``items`` holds each element as often as its
    multiplicity.  ``_counts`` maps the ``order_key`` of each element to
    its multiplicity (>= 1), and ``_firsts`` maps it to the first element
    of ``items`` with that key; ``_counted`` fills both on first need,
    and both are memos.  ``pairs``, the (element, multiplicity) tuple in
    ascending key order, is sorted from them on each read."""

    __slots__ = ("items", "_counts", "_firsts")
    _STATE = ("items",)

    def __init__(self, items: Iterable[ModelValue] = ()):
        self.items = tuple(items)
        self._counts = None
        self._firsts = None

    def _counted(self) -> dict:
        """``_counts``, counted from ``items`` if not yet."""
        if self._counts is None:
            counts, firsts = {}, {}
            for x in self.items:
                k = order_key(x)
                if k in counts:
                    counts[k] += 1
                else:
                    counts[k] = 1
                    firsts[k] = x
            self._firsts = firsts
            self._counts = counts
        return self._counts

    def __eq__(self, other):
        if not isinstance(other, MBag):
            return False
        mine, theirs = self.items, other.items
        if mine == theirs and _same_types(mine, theirs):
            return True
        return self._counted() == other._counted()

    def __hash__(self):
        return hash(("MBag", frozenset(self._counted().items())))

    def __repr__(self):
        return f"MBag({[x for x, n in self.pairs for _ in range(n)]!r})"

    @property
    def pairs(self) -> tuple:
        counts = self._counted()
        firsts = self._firsts
        return tuple([(firsts[k], n) for k, n in sorted(counts.items())])

    @property
    def domain(self) -> MSet:
        return _canonical_set([x for x, _ in self.pairs])

    @property
    def count(self) -> int:
        return len(self.items)

    @property
    def is_empty(self) -> bool:
        return not self.items

    def multiplicity(self, v: ModelValue) -> int:
        return self._counted().get(_probe_key(v), 0)

    def __getitem__(self, v: ModelValue) -> int:
        return self.multiplicity(v)

    def extended(self, v: ModelValue) -> "MBag":
        return MBag(self.items + (v,))

    def removed(self, v: ModelValue) -> "MBag":
        items = self.items
        for i in range(len(items) - 1, -1, -1):
            x = items[i]
            if x is v or (x == v and type(x) is type(v)):
                return MBag(items[:i] + items[i + 1:])
        raise DomainError("removing absent element")


class MMap(_Value):
    """Finite partial function from model values to model values.  Its
    domain is computed once, on first read, and the domain's index serves
    the key lookups: the domain's elements are the keys, in the same
    order."""

    __slots__ = ("pairs", "_domain")
    _STATE = ("pairs",)

    def __init__(self, pairs: Iterable[Tuple[ModelValue, ModelValue]] = ()):
        acc = [(k, v) for k, v in pairs]
        keys = [order_key(k) for k, _ in acc]
        order = _key_order(keys)
        # The sort is stable, so of two neighbours with equal keys the
        # second is the later in ``pairs``; name the first such key.
        later = [j for i, j in zip(order, order[1:]) if keys[i] == keys[j]]
        if later:
            raise DomainError(f"duplicate key {acc[min(later)][0]!r}")
        self.pairs = tuple([acc[i] for i in order])
        self._domain = None

    def __eq__(self, other):
        return (isinstance(other, MMap) and self.pairs == other.pairs
                and [(type(k), type(v)) for k, v in self.pairs]
                == [(type(k), type(v)) for k, v in other.pairs])

    def __hash__(self):
        return hash(("MMap", tuple((order_key(k), order_key(v)) for k, v in self.pairs)))

    def __repr__(self):
        return f"MMap({list(self.pairs)!r})"

    @property
    def domain(self) -> MSet:
        if self._domain is None:
            self._domain = _canonical_set([k for k, _ in self.pairs])
        return self._domain

    @property
    def range(self) -> MSet:
        return MSet(v for _, v in self.pairs)

    @property
    def count(self) -> int:
        return len(self.pairs)

    @property
    def is_empty(self) -> bool:
        return not self.pairs

    def has_key(self, k: ModelValue) -> bool:
        return self.domain.has(k)

    def _position(self, k: ModelValue):
        """The position of key ``k`` in ``pairs``, or None."""
        return self.domain._positions().get(_probe_key(k))

    def item(self, k: ModelValue) -> ModelValue:
        i = self._position(k)
        if i is None:
            raise DomainError(f"absent key {k!r}")
        return self.pairs[i][1]

    def __getitem__(self, k: ModelValue) -> ModelValue:
        return self.item(k)

    def replaced_at(self, k: ModelValue, v: ModelValue) -> "MMap":
        i = self._position(k)
        if i is None:
            raise DomainError(f"replaced_at on absent key {k!r}")
        pairs = list(self.pairs)
        pairs[i] = (pairs[i][0], v)
        return _canonical_map(pairs)

    def updated(self, k: ModelValue, v: ModelValue) -> "MMap":
        # A map's domain index is a dict whose keys ascend, so the
        # bisection finds where a new ``k`` goes.
        positions = self.domain._positions()
        key = order_key(k)
        pairs = list(self.pairs)
        i = positions.get(key)
        if i is None:
            pairs.insert(bisect.bisect_left(list(positions), key), (k, v))
        else:
            pairs[i] = (k, v)
        return _canonical_map(pairs)

    def restricted(self, keys: MSet) -> "MMap":
        return _canonical_map([(y, w) for y, w in self.pairs if keys.has(y)])

    def __or__(self, keys: MSet) -> "MMap":
        return self.restricted(keys)

    def is_constant(self, v: ModelValue) -> bool:
        return all(w is v or (w == v and type(w) is type(v)) for _, w in self.pairs)


def _canonical_map(pairs: list) -> MMap:
    """The map of ``pairs``, whose keys are distinct and in ascending
    ``order_key`` order already."""
    m = MMap.__new__(MMap)
    m.pairs = tuple(pairs)
    m._domain = None
    return m


class MRel(_Value):
    """Finite set of ordered pairs; ``_keys`` holds the ``order_key`` pair
    of each, for ``==``, ``hash`` and ``has``.  The domain is computed
    once, on first read, and so is ``_images``, which maps the
    ``order_key`` of each first component to its image."""

    __slots__ = ("pairs", "_keys", "_domain", "_images")
    _STATE = ("pairs", "_keys")

    def __init__(self, pairs: Iterable[Tuple[ModelValue, ModelValue]] = ()):
        acc = [(x, y) for x, y in pairs]
        keys = [(order_key(x), order_key(y)) for x, y in acc]
        if len(acc) > 1:
            acc = _first_per_key(acc, keys)
        self.pairs = tuple(acc)
        self._keys = frozenset(keys)
        self._domain = None
        self._images = None

    def __eq__(self, other):
        return isinstance(other, MRel) and self._keys == other._keys

    def __hash__(self):
        return hash(("MRel", self._keys))

    def __repr__(self):
        return f"MRel({list(self.pairs)!r})"

    @property
    def domain(self) -> MSet:
        if self._domain is None:
            self._domain = MSet([x for x, _ in self.pairs])
        return self._domain

    @property
    def count(self) -> int:
        return len(self.pairs)

    def has(self, x: ModelValue, y: ModelValue) -> bool:
        return (_probe_key(x), _probe_key(y)) in self._keys

    def image_of(self, x: ModelValue) -> MSet:
        if self._images is None:
            # The pairs ascend by the first component's key, then by the
            # second's, so each image is distinct and ascending already.
            images = {}
            for a, b in self.pairs:
                images.setdefault(order_key(a), []).append(b)
            self._images = {k: _canonical_set(bs) for k, bs in images.items()}
        image = self._images.get(_probe_key(x))
        return _canonical_set([]) if image is None else image


def identity_relation(universe: Iterable[ModelValue]) -> MRel:
    return MRel((x, x) for x in universe)


def total_relation(universe: Iterable[ModelValue]) -> MRel:
    xs = list(universe)
    return MRel((x, y) for x in xs for y in xs)
