"""Contracted container library.

Each container type registers a :class:`ContainerSpec` describing its model
queries (some defined by others), contracted features, invariants and
constructors, so the checkers, the random-testing harness, and the CLI can
discover targets uniformly.  A spec is named by its concrete class, whose
routine ``do_<name>`` runs the feature ``name``.  ``_query`` and ``_command``
write a feature whose clauses begin with defining ones, each named
``<feature>/<target>``: a query's result, a command's or a constructor's
model queries.  Every feature without an incompleteness tag defines its
result, or, once the frame is added, every model query of its poststate
that the signature does not define (Dispenser's ``bag``, defined by its
``sequence``); only the four tagged ones (ArrayT ``reserve``, Dispenser
``put``, ``item`` and ``remove``) are written out with relational clauses.

Stack and Queue inherit Dispenser's contracts and strengthen them
(:func:`refine`), and their concrete classes are heirs of ``Dispenser``,
whose item and remove act at the end, as Stack's do.

Model queries read the *concrete* structure (e.g. ``LinkedList.sequence``
walks the cell chain), which is what lets model clauses catch faults that
cached fields hide.

Two model queries build their map without a sort, through
``model_math._canonical_map``, because their walk yields the keys distinct
and ascending by ``order_key`` already.  ``ArrayT.model_map``'s keys are
``lower + i`` for ascending ``i``.  ``BinaryTree.model_map`` walks the tree
in preorder, left before right, and each path is a sequence of booleans
(``False`` < ``True``): a node's path comes before its subtrees' longer
paths, and the left subtree's paths before the right's, which is ascending
order.  Each key is one position or one node, so no key repeats, and the
duplicate-key check of ``MMap`` could never fire on them.  A walk of any
other order would build a map that is not canonical, so the tests compare
both maps with the sorted ``MMap`` of the same pairs.  ``Table.model_map``
sorts its dict's items by the key's ``order_key`` and builds the map
through ``_canonical_map`` too: a dict's keys are distinct by ``==``,
and model values with equal keys are ``==``, so they are distinct by
``order_key`` and it skips only ``MMap``'s duplicate-key scan.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .contracts import (
    AbstractState, Clause, ContainerSpec, Feature, ModelSignature, refine,
    register,
)
from .model_math import (
    MBag, MMap, MRel, MSeq, MSet, Ref, _canonical_map, int_interval,
    order_key,
)

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


def _query(name, expr, result_domain, pre=None, arg_domains=()):
    """The query ``name`` whose one clause, ``<name>/result``, defines its
    result as ``expr(ctx)``."""
    return Feature(name, "query", pre=pre,
                   clauses=(Clause.defines(f"{name}/result", "result", expr),),
                   arg_domains=arg_domains, result_domain=result_domain)


def _command(name, defines, pre=None, arg_domains=(), clauses=(),
             kind="command"):
    """The command, or the constructor if ``kind`` says so, ``name`` whose
    clauses are one defining clause ``<name>/<q>``, ``new.q ==
    expr(ctx)``, for each entry ``q: expr`` of ``defines``, in order, then
    ``clauses``."""
    return Feature(name, kind, pre=pre,
                   clauses=tuple(Clause.defines(f"{name}/{q}", q, expr)
                                 for q, expr in defines.items()) + clauses,
                   arg_domains=arg_domains)


def _count_query(model):
    """``count``: the size of the model query ``model``."""
    return _query("count", lambda c: getattr(c.old, model).count, ("int",))


def _map_item(name, key_domain):
    """A query returning the value that the ``map`` model holds at its key
    argument, which must be in the domain."""
    return _query(name, lambda c: c.old.map.item(c.args[0]), ("element",),
                  pre=lambda s, a, r: s.map.domain.has(a[0]),
                  arg_domains=(key_domain,))


def _map_put(key_domain):
    """``put(v, k)``: replace the value at key ``k``, which must be in the
    domain of the ``map`` model."""
    return _command(
        "put", {"map": lambda c: c.old.map.replaced_at(c.args[1], c.args[0])},
        pre=lambda s, a, r: s.map.domain.has(a[1]),
        arg_domains=(("element",), key_domain))


def _is_empty_query(model):
    """``is_empty``: whether the model query ``model`` is empty."""
    return _query("is_empty", lambda c: getattr(c.old, model).is_empty,
                  ("bool",))


def _emptying(name, kind, empties):
    """The constructor or command ``name`` that defines each model query
    ``q`` of ``empties`` as its empty value ``empties[q]``.  Model values
    are immutable, so that one value serves every call."""
    return _command(name, {q: lambda c, _e=e: _e for q, e in empties.items()},
                    kind=kind)


# ---------------------------------------------------------------------------
# LinkedList: singly linked chain with internal cursor.
# Model: (sequence, index); index 0 means "before", count+1 means "after".

class _Cell:
    __slots__ = ("item", "right")

    def __init__(self, item, right=None):
        self.item = item
        self.right = right


class LinkedList:
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
    make_empty = _command("make_empty", {"sequence": lambda c: MSeq(),
                                         "index": lambda c: 0},
                          kind="constructor")
    put_right = _command(
        "put_right", {
            "sequence": lambda c: c.old.sequence.front(c.old.index)
            .extended(c.args[0]) + c.old.sequence.tail(c.old.index + 1),
            "index": lambda c: c.old.index},
        pre=lambda s, a, r: 0 <= s.index <= s.sequence.count,
        arg_domains=(("element",),),
        clauses=(
            Clause("put_right/count_classic", "classic",
                   lambda c: c.obj.count == c.cold["count"] + 1),
            Clause("put_right/index_classic", "classic",
                   lambda c: c.obj.index == c.cold["index"]),
        ))
    item = _query("item", lambda c: c.old.sequence.item(c.old.index),
                  ("element",),
                  pre=lambda s, a, r: s.sequence.domain.has(s.index))
    has = _query("has", lambda c: c.old.sequence.has(c.args[0]), ("bool",),
                 arg_domains=(("element",),))
    count = _count_query("sequence")
    is_empty = _is_empty_query("sequence")
    duplicate = _query(
        "duplicate", lambda c: AbstractState(sig, [c.old.sequence.interval(
            c.old.index, c.old.index + c.args[0] - 1), 0]),
        ("container", "LinkedList"),
        pre=lambda s, a, r: a[0] >= 0, arg_domains=(("int", 0, 4),))
    start = _command("start", {"index": lambda c: 1})
    forth = _command("forth", {"index": lambda c: c.old.index + 1},
                     pre=lambda s, a, r: s.index <= s.sequence.count)
    go_before = _command("go_before", {"index": lambda c: 0})
    merge_right = _command(
        "merge_right", {
            "sequence": lambda c: c.old.sequence.front(c.old.index)
            + c.args[0].old.sequence + c.old.sequence.tail(c.old.index + 1),
            "index": lambda c: c.old.index},
        pre=lambda s, a, r: a[0].ref != r and 0 <= s.index <= s.sequence.count,
        arg_domains=(("container", "LinkedList"),),
        clauses=(
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
        ))
    invariants = (
        Clause("index_bounds", "model",
               lambda c: 0 <= c.new.index <= c.new.sequence.count + 1),
        Clause("count_consistent", "representation",
               lambda c: c.obj.count == c.new.sequence.count),
        Clause("index_bounds_classic", "classic",
               lambda c: 0 <= c.obj.index <= c.obj.count + 1),
    )
    return ContainerSpec(
        LinkedList, sig,
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
    def __init__(self, lower, upper, default, faults=None):
        self.ref = fresh_ref()
        self.lower = lower
        self.upper = upper
        self.store = [default] * (upper - lower + 1)
        self.capacity = upper - lower + 1

    def model_map(self) -> MMap:
        return _canonical_map([(self.lower + i, v)
                               for i, v in enumerate(self.store)])

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
    # make(l, u, v) puts v at each key l..u of an empty map; fill(v, l, u)
    # replaces the value at each, and an absent key is a DomainError.
    make = _command(
        "make", {
            "map": lambda c: functools.reduce(
                lambda m, k: m.updated(k, c.args[2]),
                int_interval(c.args[0], c.args[1]), MMap()),
            "capacity": lambda c: c.args[1] - c.args[0] + 1},
        pre=lambda s, a, r: a[1] >= a[0] - 1,
        arg_domains=(("int", 1, 1), ("int", 0, 3), ("element",)),
        kind="constructor")
    fill = _command(
        "fill", {"map": lambda c: functools.reduce(
            lambda m, k: m.replaced_at(k, c.args[0]),
            int_interval(c.args[1], c.args[2]), c.old.map)},
        pre=lambda s, a, r: s.map.domain.has(a[1]) and s.map.domain.has(a[2]),
        arg_domains=(("element",), ("int", 0, 4), ("int", 0, 4)))
    reserve = Feature(
        "reserve", "command",
        pre=lambda s, a, r: a[0] >= 0,
        clauses=(
            Clause("reserve/grows", "model",
                   lambda c: c.new.capacity >= c.old.capacity, target="capacity"),
            Clause("reserve/enough", "model",
                   lambda c: c.new.capacity >= c.args[0], target="capacity"),
        ),
        incompleteness_tag="information-hiding",
        arg_domains=(("int", 0, 4),))
    capacity = _query("capacity", lambda c: c.old.capacity, ("int",))
    invariants = (
        Clause("domain_contiguous", "representation",
               lambda c: c.new.map.domain == int_interval(c.obj.lower, c.obj.upper)),
        Clause("capacity_fits", "model",
               lambda c: c.new.capacity >= c.new.map.count),
    )
    return ContainerSpec(
        ArrayT, sig,
        features=[_map_put(("int", 0, 4)), _map_item("item", ("int", 0, 4)),
                  fill, reserve, capacity],
        invariants=invariants,
        constructors=[make])


# ---------------------------------------------------------------------------
# Table: key/value store with replacement semantics for put on existing keys
# and a precondition-free force for fresh keys.

class Table:
    def __init__(self, faults=None):
        self.ref = fresh_ref()
        self.data = {}

    def model_map(self) -> MMap:
        return _canonical_map(sorted(self.data.items(),
                                     key=lambda kv: order_key(kv[0])))

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
    force = _command(
        "force", {"map": lambda c: c.old.map.updated(c.args[1], c.args[0])},
        arg_domains=(("element",), ("element",)))
    return ContainerSpec(
        Table, sig,
        features=[_map_put(("element",)), force,
                  _map_item("item", ("element",)), _count_query("map")],
        constructors=[_emptying("make_empty", "constructor", {"map": MMap()})])


# ---------------------------------------------------------------------------
# Collection / Dispenser / Stack / Queue hierarchy.
# Collection's model is a bag; Dispenser's a sequence and the bag it defines.
# Stack and Queue refine Dispenser's spec and pin where put and remove act;
# their classes are heirs of Dispenser's, which holds the sequence.

class _SeqBacked:
    """Shared concrete representation: a Python list of element tokens."""

    def __init__(self, faults=None):
        self.ref = fresh_ref()
        self.items = []

    def do_put(self, v):
        self.items.append(v)

    def do_is_empty(self):
        return not self.items

    def do_count(self):
        return len(self.items)

    def do_wipe_out(self):
        self.items.clear()


class Collection(_SeqBacked):
    def model_bag(self) -> MBag:
        return MBag(self.items)

    def do_occurrences(self, v):
        return self.items.count(v)


class Dispenser(_SeqBacked):
    # Concrete class used to enumerate the abstract one: appending puts
    # reach every sequence; item and remove act at the end, as Stack's do.
    def model_sequence(self) -> MSeq:
        return MSeq(self.items)

    def do_item(self):
        return self.items[-1]

    def do_remove(self):
        self.items.pop()


class Stack(Dispenser):
    """Dispenser's class unchanged: item and remove act at the end."""


class Queue(Dispenser):
    def do_item(self):
        return self.items[0]

    def do_remove(self):
        self.items.pop(0)


def _put_bag(c):
    return c.old.bag.extended(c.args[0])


def _collection_spec():
    sig = ModelSignature([("bag", "MBag")])
    empty = {"bag": MBag()}
    put = _command("put", {"bag": _put_bag}, arg_domains=(("element",),))
    occurrences = _query("occurrences", lambda c: c.old.bag[c.args[0]],
                         ("int",), arg_domains=(("element",),))
    return ContainerSpec(
        Collection, sig,
        features=[put, _is_empty_query("bag"), _count_query("bag"),
                  occurrences, _emptying("wipe_out", "command", empty)],
        constructors=[_emptying("make_empty", "constructor", empty)])


def _dispenser_spec():
    """A sequence and the bag it defines.  put says only what it adds to the
    bag; item and remove say no more than membership and count."""
    sig = ModelSignature([("bag", "MBag", lambda s: s.sequence.to_bag()),
                          ("sequence", "MSeq")])
    empty = {"sequence": MSeq()}
    put = Feature(
        "put", "command",
        clauses=(Clause.defines("put/bag", "bag", _put_bag),),
        incompleteness_tag="inheritance",
        arg_domains=(("element",),))
    item = Feature(
        "item", "query",
        pre=lambda s, a, r: not s.sequence.is_empty,
        clauses=(Clause("item/member", "model",
                        lambda c: c.old.sequence.has(c.result),
                        target="result"),),
        incompleteness_tag="inheritance",
        result_domain=("element",))
    remove = Feature(
        "remove", "command",
        pre=lambda s, a, r: not s.sequence.is_empty,
        clauses=(
            Clause("remove/count", "model",
                   lambda c: c.new.sequence.count == c.old.sequence.count - 1,
                   target="sequence"),
        ),
        incompleteness_tag="inheritance")
    return ContainerSpec(
        Dispenser, sig,
        features=[put, item, remove, _is_empty_query("bag"), _count_query("bag"),
                  _emptying("wipe_out", "command", empty)],
        constructors=[_emptying("make_empty", "constructor", empty)])


def _stack_queue_specs(dispenser):
    """Stack and Queue refine Dispenser.  Both put at the sequence end;
    ``pos(state)`` is the position that item reads and remove takes away
    (the end for Stack, the front for Queue), and ``rest(sequence)`` is
    what remove leaves."""
    def heir(cls, pos, rest):
        return refine(dispenser, cls, {
            "put": (Clause.defines(
                "put/sequence", "sequence",
                lambda c: c.old.sequence.extended(c.args[0])),),
            "item": (Clause.defines("item/result", "result",
                                    lambda c: c.old.sequence.item(pos(c.old))),),
            "remove": (Clause.defines("remove/sequence", "sequence",
                                      lambda c: rest(c.old.sequence)),),
        })

    return [heir(Stack, lambda s: s.sequence.count,
                 lambda q: q.front(q.count - 1)),
            heir(Queue, lambda s: 1, lambda q: q.tail(2))]


# ---------------------------------------------------------------------------
# EqSet: set parameterized by an equivalence relation over the element
# universe; no two stored elements are equivalent.

class EqSet:
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


@functools.lru_cache(maxsize=64)
def _relation_is_equivalence(rel: MRel) -> bool:
    """Whether ``rel`` is reflexive on its domain, symmetric and
    transitive.  Kept per relation value: an EqSet's relation never
    changes, yet its invariant asks after every call."""
    dom = rel.domain
    return (dom.for_all(lambda x: rel.has(x, x))
            and all(rel.has(y, x) for x, y in rel.pairs)
            and all(rel.has(x, z) for x, y in rel.pairs
                    for y2, z in rel.pairs if y == y2))


def _eqset_spec():
    sig = ModelSignature([("set", "MSet"), ("relation", "MRel")])
    make = _command("make", {"set": lambda c: MSet(),
                             "relation": lambda c: c.args[0]},
                    pre=lambda s, a, r: _relation_is_equivalence(a[0]),
                    arg_domains=(("relation",),), kind="constructor")
    def held(c):  # whether the set holds an element equivalent to args[0]
        return not (c.old.set * c.old.relation.image_of(c.args[0])).is_empty

    has = _query("has", held, ("bool",), arg_domains=(("element",),),
                 pre=lambda s, a, r: s.relation.domain.has(a[0]))
    add = _command("add", {"set": lambda c: (
        c.old.set if held(c) else c.old.set | MSet([c.args[0]]))},
        pre=lambda s, a, r: s.relation.domain.has(a[0]),
        arg_domains=(("element",),))
    count = _count_query("set")
    invariants = (
        # Each stored element's image under the relation holds no other
        # stored element: linear in the pairs the stored elements relate.
        Clause("no_equivalent_pair", "model",
               lambda c: all(y == x or not c.new.set.has(y)
                             for x in c.new.set
                             for y in c.new.relation.image_of(x))),
        Clause("relation_equivalence", "model",
               lambda c: _relation_is_equivalence(c.new.relation)),
    )
    return ContainerSpec(
        EqSet, sig,
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
        return _canonical_map(pairs)

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
    add_root = _command(
        "add_root", {"map": lambda c: MMap([(MSeq(), c.args[0])])},
        pre=lambda s, a, r: s.map.is_empty, arg_domains=(("element",),))
    put_child = _command(
        "put_child", {"map": lambda c: c.old.map.updated(
            c.args[0].extended(c.args[1]), c.args[2])},
        pre=lambda s, a, r: (s.map.domain.has(a[0])
                             and not s.map.domain.has(a[0].extended(a[1]))),
        arg_domains=(("path", 2), ("bool",), ("element",)))

    def prefix_closed(c):
        domain = c.new.map.domain
        return domain.for_all(
            lambda p: p.is_empty or domain.has(p.front(p.count - 1)))

    return ContainerSpec(
        BinaryTree, sig,
        features=[add_root, put_child, _map_item("item_at", ("path", 2)),
                  _count_query("map")],
        invariants=(Clause("prefix_closed", "model", prefix_closed),),
        constructors=[_emptying("make_empty", "constructor", {"map": MMap()})])


_dispenser = _dispenser_spec()
ALL_SPECS = [
    _linked_list_spec(), _array_spec(), _table_spec(), _collection_spec(),
    _dispenser, *_stack_queue_specs(_dispenser), _eqset_spec(), _tree_spec(),
]
for _s in ALL_SPECS:
    register(_s)

CONTAINER_NAMES = [s.name for s in ALL_SPECS]
