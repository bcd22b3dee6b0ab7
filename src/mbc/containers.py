"""Contracted container library.

Each container type registers a :class:`ContainerSpec` describing its model
queries, contracted features, invariants (including linking invariants), and
constructors, so the checkers, the random-testing harness, and the CLI can
discover targets uniformly.

Model queries read the *concrete* structure (e.g. ``LinkedList.sequence``
walks the cell chain), which is what lets model clauses catch faults that
cached fields hide.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .contracts import (
    Clause, ContainerSpec, Feature, InvariantClause, ModelSignature, register,
)
from .model_math import MBag, MMap, MRel, MSeq, MSet, Ref, int_interval

_ref_counter = itertools.count()


def fresh_ref() -> Ref:
    return Ref(f"#{next(_ref_counter)}")


def reset_ref_counter():
    # Identity tokens restart from #0 so reports are reproducible run to run.
    global _ref_counter
    _ref_counter = itertools.count()


@dataclass
class FaultSwitch:
    """Named flags enabling seeded bugs; all off by default."""
    merge_right_missing_link: bool = False


def _count_query(cls, model):
    """``count``: the size of the model query ``model``."""
    return Feature(
        "count", "query",
        body=cls.do_count,
        clauses=(Clause.defines("count/result", "result",
                                lambda c: getattr(c.old, model).count),),
        result_domain=("int",))


def _map_item(name, body, key_domain):
    """A query returning the value that the ``map`` model holds at its key
    argument, which must be in the domain."""
    return Feature(
        name, "query",
        pre=lambda s, a, r: s.map.domain.has(a[0]),
        body=body,
        clauses=(Clause.defines(f"{name}/result", "result",
                                lambda c: c.old.map.item(c.args[0])),),
        arg_domains=(key_domain,), result_domain=("element",))


def _map_put(cls, key_domain):
    """``put(v, k)``: replace the value at key ``k``, which must be in the
    domain of the ``map`` model."""
    return Feature(
        "put", "command",
        pre=lambda s, a, r: s.map.domain.has(a[1]),
        body=cls.do_put,
        clauses=(Clause.defines(
            "put/map", "map",
            lambda c: c.old.map.replaced_at(c.args[1], c.args[0])),),
        arg_domains=(("element",), key_domain))


def _is_empty_query(cls, model):
    """``is_empty``: whether the model query ``model`` is empty."""
    return Feature(
        "is_empty", "query",
        body=cls.do_is_empty,
        clauses=(Clause.defines("is_empty/result", "result",
                                lambda c: getattr(c.old, model).is_empty),),
        result_domain=("bool",))


def _make_empty(cls, models):
    """``make_empty``: every model query in ``models`` starts empty."""
    return Feature(
        "make_empty", "constructor",
        body=lambda faults=None: cls(faults=faults),
        clauses=tuple(Clause(f"make_empty/{m}", "model",
                             lambda c, _m=m: getattr(c.new, _m).is_empty,
                             target=m)
                      for m in models))


def _wipe_out(cls, models):
    """``wipe_out``: every model query in ``models`` ends empty."""
    return Feature(
        "wipe_out", "command",
        body=cls.do_wipe_out,
        clauses=tuple(Clause(f"wipe_out/{m}", "model",
                             lambda c, _m=m: getattr(c.new, _m).is_empty,
                             target=m)
                      for m in models))


# ---------------------------------------------------------------------------
# LinkedList: singly linked chain with internal cursor.
# Model: (sequence, index); index 0 means "before", count+1 means "after".

class _Cell:
    __slots__ = ("item", "right")

    def __init__(self, item, right=None):
        self.item = item
        self.right = right


class LinkedList:
    spec_name = "LinkedList"

    def __init__(self, faults=None):
        self.ref = fresh_ref()
        self.first = None
        self.count = 0
        self.index = 0
        self.faults = faults or FaultSwitch()

    def model_sequence(self) -> MSeq:
        items = []
        cell = self.first
        while cell is not None:
            items.append(cell.item)
            cell = cell.right
        return MSeq(items)

    def model_index(self) -> int:
        return self.index

    def _cell_at(self, i):
        cell = self.first
        for _ in range(i - 1):
            cell = cell.right
        return cell

    def do_put_right(self, v):
        if self.index == 0:
            self.first = _Cell(v, self.first)
        else:
            cell = self._cell_at(self.index)
            cell.right = _Cell(v, cell.right)
        self.count += 1

    def do_item(self):
        return self._cell_at(self.index).item

    def do_has(self, v):
        cell = self.first
        while cell is not None:
            if cell.item == v:
                return True
            cell = cell.right
        return False

    def do_count(self):
        return self.count

    def do_is_empty(self):
        return self.first is None

    def do_duplicate(self, n):
        copy = LinkedList(faults=self.faults)
        for x in reversed(self.model_sequence().interval(self.index, self.index + n - 1).items):
            copy.first = _Cell(x, copy.first)
            copy.count += 1
        return copy

    def do_start(self):
        self.index = 1

    def do_forth(self):
        self.index += 1

    def do_go_before(self):
        self.index = 0

    def do_merge_right(self, other):
        other_first = other.first
        other_count = other.count
        other.first = None
        other.count = 0
        other.index = 0
        if other_count > 0:
            last = other_first
            while last.right is not None:
                last = last.right
            if self.index == 0:
                old_first = self.first
                self.first = other_first
                if not self.faults.merge_right_missing_link:
                    last.right = old_first
            else:
                cell = self._cell_at(self.index)
                last.right = cell.right
                cell.right = other_first
        self.count += other_count


def _linked_list_spec():
    sig = ModelSignature([("sequence", "MSeq"), ("index", "int")])
    make_empty = Feature(
        "make_empty", "constructor",
        body=lambda faults=None: LinkedList(faults=faults),
        clauses=(
            Clause("make_empty/sequence", "model",
                   lambda c: c.new.sequence.is_empty, target="sequence"),
            Clause.defines("make_empty/index", "index", lambda c: 0),
        ))
    put_right = Feature(
        "put_right", "command",
        pre=lambda s, a, r: 0 <= s.index <= s.sequence.count,
        body=LinkedList.do_put_right,
        clauses=(
            Clause.defines("put_right/sequence", "sequence",
                           lambda c: c.old.sequence.front(c.old.index)
                           .extended(c.args[0]) + c.old.sequence.tail(c.old.index + 1)),
            Clause.defines("put_right/index", "index", lambda c: c.old.index),
            Clause("put_right/count_classic", "classic",
                   lambda c: c.obj.count == c.cold["count"] + 1),
            Clause("put_right/index_classic", "classic",
                   lambda c: c.obj.index == c.cold["index"]),
        ),
        arg_domains=(("element",),))
    item = Feature(
        "item", "query",
        pre=lambda s, a, r: s.sequence.domain.has(s.index),
        body=LinkedList.do_item,
        clauses=(
            Clause.defines("item/result", "result",
                           lambda c: c.old.sequence.item(c.old.index)),
        ),
        result_domain=("element",))
    has = Feature(
        "has", "query",
        body=LinkedList.do_has,
        clauses=(
            Clause.defines("has/result", "result",
                           lambda c: c.old.sequence.has(c.args[0])),
        ),
        arg_domains=(("element",),), result_domain=("bool",))
    count = _count_query(LinkedList, "sequence")
    is_empty = _is_empty_query(LinkedList, "sequence")
    duplicate = Feature(
        "duplicate", "query",
        pre=lambda s, a, r: a[0] >= 0,
        body=LinkedList.do_duplicate,
        clauses=(
            Clause("duplicate/sequence", "model",
                   lambda c: c.result.sequence == c.old.sequence.interval(
                       c.old.index, c.old.index + c.args[0] - 1),
                   target="result"),
            Clause("duplicate/index", "model", lambda c: c.result.index == 0,
                   target="result"),
        ),
        arg_domains=(("int", 0, 4),),
        result_domain=("container", "LinkedList"))
    start = Feature(
        "start", "command",
        body=LinkedList.do_start,
        clauses=(Clause.defines("start/index", "index", lambda c: 1),))
    forth = Feature(
        "forth", "command",
        pre=lambda s, a, r: s.index <= s.sequence.count,
        body=LinkedList.do_forth,
        clauses=(Clause.defines("forth/index", "index",
                                lambda c: c.old.index + 1),))
    go_before = Feature(
        "go_before", "command",
        body=LinkedList.do_go_before,
        clauses=(Clause.defines("go_before/index", "index", lambda c: 0),))
    merge_right = Feature(
        "merge_right", "command",
        pre=lambda s, a, r: a[0].ref != r and 0 <= s.index <= s.sequence.count,
        body=LinkedList.do_merge_right,
        clauses=(
            Clause.defines("merge_right/sequence", "sequence",
                           lambda c: c.old.sequence.front(c.old.index)
                           + c.args[0].old.sequence + c.old.sequence.tail(c.old.index + 1)),
            Clause.defines("merge_right/index", "index", lambda c: c.old.index),
            Clause("merge_right/other_sequence", "model",
                   lambda c: c.args[0].new.sequence.is_empty),
            Clause("merge_right/other_index", "model",
                   lambda c: c.args[0].new.index == 0),
            Clause("merge_right/count_classic", "classic",
                   lambda c: c.obj.count == c.cold["count"] + c.args[0].cold["count"]),
            Clause("merge_right/index_classic", "classic",
                   lambda c: c.obj.index == c.cold["index"]),
            Clause("merge_right/other_is_empty_classic", "classic",
                   lambda c: c.args[0].obj.count == 0),
        ),
        arg_domains=(("container", "LinkedList"),))
    invariants = (
        InvariantClause("index_bounds", "model",
                        lambda o, s: 0 <= s.index <= s.sequence.count + 1),
        InvariantClause("count_consistent", "model",
                        lambda o, s: o.count == s.sequence.count),
        InvariantClause("index_bounds_classic", "classic",
                        lambda o, s: 0 <= o.index <= o.count + 1),
    )
    return ContainerSpec(
        "LinkedList", sig,
        features=[put_right, item, has, count, is_empty, duplicate,
                  start, forth, go_before, merge_right],
        invariants=invariants,
        constructors=[make_empty],
        snapshot=lambda o: {"count": o.count, "index": o.index})


# ---------------------------------------------------------------------------
# ArrayT: fixed-bound array. Model: (map from positions, capacity).
# `reserve` only grows capacity without pinning it (deliberate
# information-hiding incompleteness).

class ArrayT:
    spec_name = "ArrayT"

    def __init__(self, lower, upper, default, faults=None):
        self.ref = fresh_ref()
        self.lower = lower
        self.upper = upper
        self.store = [default] * (upper - lower + 1)
        self.capacity = upper - lower + 1

    def model_map(self) -> MMap:
        return MMap((self.lower + i, v) for i, v in enumerate(self.store))

    def model_capacity(self) -> int:
        return self.capacity

    def do_put(self, v, k):
        self.store[k - self.lower] = v

    def do_item(self, k):
        return self.store[k - self.lower]

    def do_fill(self, v, l, u):
        for k in range(l, u + 1):
            self.store[k - self.lower] = v

    def do_reserve(self, n):
        self.capacity = max(self.capacity, n)

    def do_capacity(self):
        return self.capacity


def _array_spec():
    sig = ModelSignature([("map", "MMap"), ("capacity", "int")])
    make = Feature(
        "make", "constructor",
        pre=lambda s, a, r: a[1] >= a[0] - 1,
        body=lambda l, u, v, faults=None: ArrayT(l, u, v, faults=faults),
        clauses=(
            Clause("make/map", "model",
                   lambda c: c.new.map.domain == int_interval(c.args[0], c.args[1])
                   and c.new.map.is_constant(c.args[2]), target="map"),
            Clause.defines("make/capacity", "capacity",
                           lambda c: c.args[1] - c.args[0] + 1),
        ),
        arg_domains=(("int", 1, 1), ("int", 0, 3), ("element",)))
    fill = Feature(
        "fill", "command",
        pre=lambda s, a, r: s.map.domain.has(a[1]) and s.map.domain.has(a[2]),
        body=ArrayT.do_fill,
        clauses=(
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
        arg_domains=(("element",), ("int", 0, 4), ("int", 0, 4)))
    reserve = Feature(
        "reserve", "command",
        pre=lambda s, a, r: a[0] >= 0,
        body=ArrayT.do_reserve,
        clauses=(
            Clause("reserve/grows", "model",
                   lambda c: c.new.capacity >= c.old.capacity, target="capacity"),
            Clause("reserve/enough", "model",
                   lambda c: c.new.capacity >= c.args[0], target="capacity"),
        ),
        incompleteness_tag="information-hiding",
        arg_domains=(("int", 0, 4),))
    capacity = Feature(
        "capacity", "query",
        body=ArrayT.do_capacity,
        clauses=(Clause.defines("capacity/result", "result",
                                lambda c: c.old.capacity),),
        result_domain=("int",))
    invariants = (
        InvariantClause("domain_contiguous", "model",
                        lambda o, s: s.map.domain == int_interval(o.lower, o.upper)),
        InvariantClause("capacity_fits", "model",
                        lambda o, s: s.capacity >= s.map.count),
    )
    return ContainerSpec(
        "ArrayT", sig,
        features=[_map_put(ArrayT, ("int", 0, 4)),
                  _map_item("item", ArrayT.do_item, ("int", 0, 4)),
                  fill, reserve, capacity],
        invariants=invariants,
        constructors=[make])


# ---------------------------------------------------------------------------
# Table: key/value store with replacement semantics for put on existing keys
# and a precondition-free force for fresh keys.

class Table:
    spec_name = "Table"

    def __init__(self, faults=None):
        self.ref = fresh_ref()
        self.data = {}

    def model_map(self) -> MMap:
        return MMap(self.data.items())

    def do_put(self, v, k):
        self.data[k] = v

    def do_force(self, v, k):
        self.data[k] = v

    def do_item(self, k):
        return self.data[k]

    def do_count(self):
        return len(self.data)


def _table_spec():
    sig = ModelSignature([("map", "MMap")])
    force = Feature(
        "force", "command",
        body=Table.do_force,
        clauses=(
            Clause.defines("force/map", "map",
                           lambda c: c.old.map.updated(c.args[1], c.args[0])),
        ),
        arg_domains=(("element",), ("element",)))
    return ContainerSpec(
        "Table", sig,
        features=[_map_put(Table, ("element",)), force,
                  _map_item("item", Table.do_item, ("element",)),
                  _count_query(Table, "map")],
        constructors=[_make_empty(Table, ["map"])])


# ---------------------------------------------------------------------------
# Collection / Dispenser / Stack / Queue hierarchy.
# Collection's model is a bag; Dispenser refines it with a sequence tied to
# the bag by a linking invariant; Stack and Queue pin the insertion and
# removal positions.

class _SeqBacked:
    """Shared concrete representation: a Python list of element tokens."""

    def __init__(self, faults=None):
        self.ref = fresh_ref()
        self.items = []

    def model_bag(self) -> MBag:
        return MSeq(self.items).to_bag()

    def model_sequence(self) -> MSeq:
        return MSeq(self.items)

    def do_put(self, v):
        self.items.append(v)

    def do_is_empty(self):
        return not self.items

    def do_count(self):
        return len(self.items)

    def do_wipe_out(self):
        self.items.clear()


class Collection(_SeqBacked):
    spec_name = "Collection"

    def do_occurrences(self, v):
        return self.items.count(v)


class Stack(_SeqBacked):
    spec_name = "Stack"

    def do_item(self):
        return self.items[-1]

    def do_remove(self):
        self.items.pop()


class Dispenser(Stack):
    # Concrete stand-in used to enumerate the abstract class: Stack's
    # append-only puts reach every sequence, removal/item operate at the end.
    spec_name = "Dispenser"


class Queue(_SeqBacked):
    spec_name = "Queue"

    def do_item(self):
        return self.items[0]

    def do_remove(self):
        self.items.pop(0)


def _linking_invariant(o, s):
    return s.bag == s.sequence.to_bag()


def _put_bag():
    return Clause.defines("put/bag", "bag",
                          lambda c: c.old.bag.extended(c.args[0]))


def _collection_spec():
    sig = ModelSignature([("bag", "MBag")])
    put = Feature(
        "put", "command",
        body=Collection.do_put,
        clauses=(_put_bag(),),
        arg_domains=(("element",),))
    occurrences = Feature(
        "occurrences", "query",
        body=Collection.do_occurrences,
        clauses=(Clause.defines("occurrences/result", "result",
                                lambda c: c.old.bag[c.args[0]]),),
        arg_domains=(("element",),), result_domain=("int",))
    return ContainerSpec(
        "Collection", sig,
        features=[put, _is_empty_query(Collection, "bag"),
                  _count_query(Collection, "bag"), occurrences,
                  _wipe_out(Collection, ["bag"])],
        constructors=[_make_empty(Collection, ["bag"])])


def _dispenser_family_spec(name, cls, put_sequence, item_clause,
                           remove_clauses, tag=None):
    """Dispenser, Stack and Queue: a bag tied to a sequence by the linking
    invariant.  ``put_sequence`` holds put's sequence clause; Dispenser
    passes none, which leaves the sequence relevant but unspecified.
    ``tag`` is the incompleteness tag of put, item and remove."""
    sig = ModelSignature([("bag", "MBag"), ("sequence", "MSeq")])
    put = Feature(
        "put", "command",
        body=cls.do_put,
        clauses=(_put_bag(),) + put_sequence,
        relevant=frozenset() if put_sequence else frozenset({"sequence"}),
        incompleteness_tag=tag,
        arg_domains=(("element",),))
    item = Feature(
        "item", "query",
        pre=lambda s, a, r: not s.sequence.is_empty,
        body=cls.do_item,
        clauses=(item_clause,),
        incompleteness_tag=tag,
        result_domain=("element",))
    remove = Feature(
        "remove", "command",
        pre=lambda s, a, r: not s.sequence.is_empty,
        body=cls.do_remove,
        clauses=remove_clauses,
        incompleteness_tag=tag)
    return ContainerSpec(
        name, sig,
        features=[put, item, remove, _is_empty_query(cls, "bag"),
                  _count_query(cls, "bag"), _wipe_out(cls, ["bag", "sequence"])],
        invariants=(InvariantClause("linking", "model", _linking_invariant),),
        constructors=[_make_empty(cls, ["bag", "sequence"])])


def _dispenser_spec():
    # put inherits only the bag clause from Collection; item and remove say
    # no more than membership and counts.
    return _dispenser_family_spec(
        "Dispenser", Dispenser,
        put_sequence=(),
        item_clause=Clause("item/member", "model",
                           lambda c: c.old.sequence.range.has(c.result),
                           target="result"),
        remove_clauses=(
            Clause("remove/count", "model",
                   lambda c: c.new.sequence.count == c.old.sequence.count - 1,
                   target="sequence"),
            Clause("remove/bag_count", "model",
                   lambda c: c.new.bag.count == c.old.bag.count - 1,
                   target="bag"),
        ),
        tag="inheritance")


def _stack_queue_spec(name, cls, item_pos, remove_sequence):
    # Both put at the sequence end; item_pos(state) is the position that
    # item reads and remove takes away.
    return _dispenser_family_spec(
        name, cls,
        put_sequence=(Clause.defines(
            "put/sequence", "sequence",
            lambda c: c.old.sequence.extended(c.args[0])),),
        item_clause=Clause.defines(
            "item/result", "result",
            lambda c: c.old.sequence.item(item_pos(c.old))),
        remove_clauses=(
            Clause.defines("remove/sequence", "sequence", remove_sequence),
            Clause.defines("remove/bag", "bag", lambda c: c.old.bag.removed(
                c.old.sequence.item(item_pos(c.old)))),
        ))


def _stack_spec():
    # Top of the stack is the sequence end.
    return _stack_queue_spec(
        "Stack", Stack,
        item_pos=lambda s: s.sequence.count,
        remove_sequence=lambda c: c.old.sequence.front(c.old.sequence.count - 1))


def _queue_spec():
    # Front of the queue is position 1; put appends at the end.
    return _stack_queue_spec(
        "Queue", Queue,
        item_pos=lambda s: 1,
        remove_sequence=lambda c: c.old.sequence.tail(2))


# ---------------------------------------------------------------------------
# EqSet: set parameterized by an equivalence relation over the element
# universe; no two stored elements are equivalent.

class EqSet:
    spec_name = "EqSet"

    def __init__(self, relation: MRel, faults=None):
        self.ref = fresh_ref()
        self.relation = relation
        self.items = []

    def model_set(self) -> MSet:
        return MSet(self.items)

    def model_relation(self) -> MRel:
        return self.relation

    def do_has(self, v):
        return any(self.relation.has(v, x) for x in self.items)

    def do_add(self, v):
        if not self.do_has(v):
            self.items.append(v)

    def do_count(self):
        return len(self.items)


def _relation_is_equivalence(rel: MRel) -> bool:
    dom = rel.domain
    return (dom.for_all(lambda x: rel.has(x, x))
            and all(rel.has(y, x) for x, y in rel.pairs)
            and all(rel.has(x, z) for x, y in rel.pairs
                    for y2, z in rel.pairs if y == y2))


def _eqset_spec():
    sig = ModelSignature([("set", "MSet"), ("relation", "MRel")])
    make = Feature(
        "make", "constructor",
        pre=lambda s, a, r: _relation_is_equivalence(a[0]),
        body=lambda rel, faults=None: EqSet(rel, faults=faults),
        clauses=(
            Clause("make/set", "model", lambda c: c.new.set.is_empty,
                   target="set"),
            Clause.defines("make/relation", "relation", lambda c: c.args[0]),
        ),
        arg_domains=(("relation",),))
    has = Feature(
        "has", "query",
        pre=lambda s, a, r: s.relation.domain.has(a[0]),
        body=EqSet.do_has,
        clauses=(
            Clause.defines("has/result", "result",
                           lambda c: not (c.old.set
                           * c.old.relation.image_of(c.args[0])).is_empty),
        ),
        arg_domains=(("element",),), result_domain=("bool",))
    add = Feature(
        "add", "command",
        pre=lambda s, a, r: s.relation.domain.has(a[0]),
        body=EqSet.do_add,
        clauses=(
            Clause.defines("add/set", "set", lambda c: (
                c.old.set
                if not (c.old.set * c.old.relation.image_of(c.args[0])).is_empty
                else c.old.set | MSet([c.args[0]]))),
        ),
        arg_domains=(("element",),))
    count = _count_query(EqSet, "set")
    invariants = (
        InvariantClause("no_equivalent_pair", "model",
                        lambda o, s: all(
                            not s.relation.has(x, y)
                            for x in s.set for y in s.set if x != y)),
        InvariantClause("relation_equivalence", "model",
                        lambda o, s: _relation_is_equivalence(s.relation)),
    )
    return ContainerSpec(
        "EqSet", sig,
        features=[has, add, count],
        invariants=invariants,
        constructors=[make])


# ---------------------------------------------------------------------------
# BinaryTree: linked nodes; model is a map of boolean paths to elements
# (False = left child, True = right child).

class _TreeNode:
    __slots__ = ("item", "left", "right")

    def __init__(self, item):
        self.item = item
        self.left = None
        self.right = None


class BinaryTree:
    spec_name = "BinaryTree"

    def __init__(self, faults=None):
        self.ref = fresh_ref()
        self.root = None

    # The walks use an explicit stack: a recursive nested function is a
    # reference cycle, left for the cyclic collector on every call.
    def model_map(self) -> MMap:
        pairs = []
        todo = [(self.root, [])]
        while todo:
            node, path = todo.pop()
            if node is not None:
                pairs.append((MSeq(path), node.item))
                todo += [(node.right, path + [True]),
                         (node.left, path + [False])]
        return MMap(pairs)

    def _node_at(self, path: MSeq):
        node = self.root
        for b in path.items:
            node = node.right if b else node.left
        return node

    def do_add_root(self, v):
        self.root = _TreeNode(v)

    def do_put_child(self, path, side, v):
        node = self._node_at(path)
        if side:
            node.right = _TreeNode(v)
        else:
            node.left = _TreeNode(v)

    def do_item_at(self, path):
        return self._node_at(path).item

    def do_count(self):
        n = 0
        todo = [self.root]
        while todo:
            node = todo.pop()
            if node is not None:
                n += 1
                todo += [node.left, node.right]
        return n


def _tree_spec():
    sig = ModelSignature([("map", "MMap")])
    add_root = Feature(
        "add_root", "command",
        pre=lambda s, a, r: s.map.is_empty,
        body=BinaryTree.do_add_root,
        clauses=(
            Clause("add_root/count", "model", lambda c: c.new.map.count == 1,
                   target="map"),
            Clause("add_root/root", "model",
                   lambda c: c.new.map.item(MSeq()) == c.args[0], target="map"),
        ),
        arg_domains=(("element",),))
    put_child = Feature(
        "put_child", "command",
        pre=lambda s, a, r: (s.map.domain.has(a[0])
                             and not s.map.domain.has(a[0].extended(a[1]))),
        body=BinaryTree.do_put_child,
        clauses=(
            Clause.defines("put_child/map", "map", lambda c: c.old.map.updated(
                c.args[0].extended(c.args[1]), c.args[2])),
        ),
        arg_domains=(("path", 2), ("bool",), ("element",)))

    def prefix_closed(o, s):
        return s.map.domain.for_all(
            lambda p: p.is_empty or s.map.domain.has(p.front(p.count - 1)))

    return ContainerSpec(
        "BinaryTree", sig,
        features=[add_root, put_child,
                  _map_item("item_at", BinaryTree.do_item_at, ("path", 2)),
                  _count_query(BinaryTree, "map")],
        invariants=(InvariantClause("prefix_closed", "model", prefix_closed),),
        constructors=[_make_empty(BinaryTree, ["map"])])


ALL_SPECS = [
    _linked_list_spec(), _array_spec(), _table_spec(), _collection_spec(),
    _dispenser_spec(), _stack_spec(), _queue_spec(), _eqset_spec(),
    _tree_spec(),
]
for _s in ALL_SPECS:
    register(_s)

CONTAINER_NAMES = [s.name for s in ALL_SPECS]
