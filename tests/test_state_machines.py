"""Stateful tests of the checked-call path.

Hypothesis drives ``checked_constructor``, ``checked_command`` and
``checked_query`` on all nine containers, only with calls whose
precondition holds, and compares every query result with plain Python
data: a list for Collection, Dispenser, Stack and Queue, a list and a
cursor for LinkedList, a list with its lower bound and capacity for
ArrayT, a dict for Table, a dict from path to item for BinaryTree, and a
list of class representatives for EqSet.  After every step the object's
abstract state must equal the model values built from that data.  Every
call also checks its postcondition and the invariants, so a run that ends
without a ContractViolation agrees with the contract as well."""

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, initialize, invariant, precondition, rule,
    run_state_machine_as_test,
)

from mbc.containers import ALL_SPECS
from mbc.contracts import (
    abstract_state, checked_command, checked_constructor, checked_query,
)
from mbc.model_math import MBag, MMap, MRel, MSeq, MSet, Ref

TOKENS = [Ref(t) for t in "abc"]
ELEMENTS = st.sampled_from(TOKENS)
SPECS = {spec.name: spec for spec in ALL_SPECS}
SETTINGS = settings(max_examples=25, stateful_step_count=30,
                    derandomize=True, deadline=None)


def _new(name):
    return checked_constructor(SPECS[name], "make_empty")


class Checked(RuleBasedStateMachine):
    """An object ``obj`` of type ``NAME`` and the Python data it should
    hold; ``model()`` maps each model query's name to the value that data
    gives."""
    NAME = None

    def command(self, feature, *args):
        checked_command(self.obj, feature, list(args))

    def query(self, feature, *args):
        return checked_query(self.obj, feature, list(args))

    @invariant()
    def abstract_state_agrees(self):
        model = self.model()
        names = SPECS[self.NAME].signature.names
        assert abstract_state(self.obj) == tuple(model[q] for q in names)


class Container(Checked):
    """An object of type ``NAME`` and the list ``items`` it should hold."""

    @initialize()
    def make(self):
        self.obj = _new(self.NAME)
        self.items = []

    def model(self):
        return {"bag": MBag(self.items),
                "sequence": MSeq(self.items)}

    @rule()
    def count(self):
        assert self.query("count") == len(self.items)

    @rule()
    def is_empty(self):
        assert self.query("is_empty") == (not self.items)


class Bag(Container):
    @rule(x=ELEMENTS)
    def put(self, x):
        self.command("put", x)
        self.items.append(x)

    @rule()
    def wipe_out(self):
        self.command("wipe_out")
        self.items.clear()


class CollectionMachine(Bag):
    NAME = "Collection"

    @rule(x=ELEMENTS)
    def occurrences(self, x):
        assert self.query("occurrences", x) == self.items.count(x)


class Dispenser(Bag):
    """Stack and Queue: ``POS`` is the list index that item and remove
    read."""
    POS = None

    @precondition(lambda self: self.items)
    @rule()
    def item(self):
        assert self.query("item") == self.items[self.POS]

    @precondition(lambda self: self.items)
    @rule()
    def remove(self):
        self.command("remove")
        self.items.pop(self.POS)


class StackMachine(Dispenser):
    NAME, POS = "Stack", -1


class QueueMachine(Dispenser):
    NAME, POS = "Queue", 0


class DispenserMachine(Dispenser):
    # Dispenser's concrete class is a Stack.
    NAME, POS = "Dispenser", -1


class LinkedListMachine(Container):
    """The cursor ``index`` is 0 before the first item and
    ``len(items) + 1`` after the last."""
    NAME = "LinkedList"

    @initialize()
    def make(self):
        super().make()
        self.index = 0

    def model(self):
        return {"sequence": MSeq(self.items), "index": self.index}

    def _before_end(self):
        return self.index <= len(self.items)

    @precondition(_before_end)
    @rule(x=ELEMENTS)
    def put_right(self, x):
        self.command("put_right", x)
        self.items.insert(self.index, x)

    @precondition(lambda self: 1 <= self.index <= len(self.items))
    @rule()
    def item(self):
        assert self.query("item") == self.items[self.index - 1]

    @rule(x=ELEMENTS)
    def has(self, x):
        assert self.query("has", x) == (x in self.items)

    @rule()
    def start(self):
        self.command("start")
        self.index = 1

    @precondition(_before_end)
    @rule()
    def forth(self):
        self.command("forth")
        self.index += 1

    @rule()
    def go_before(self):
        self.command("go_before")
        self.index = 0

    @rule(n=st.integers(0, 4))
    def duplicate(self, n):
        copy = self.query("duplicate", n)
        expected = [x for i, x in enumerate(self.items, 1)
                    if self.index <= i < self.index + n]
        # A container result is observed by its abstract state.
        assert abstract_state(copy) == (MSeq(expected), 0)
        assert checked_query(copy, "count") == len(expected)

    @precondition(_before_end)
    @rule(xs=st.lists(ELEMENTS, max_size=3))
    def merge_right(self, xs):
        other = _new("LinkedList")
        for x in reversed(xs):  # each put_right at index 0 goes first
            checked_command(other, "put_right", [x])
        self.command("merge_right", other)
        self.items[self.index:self.index] = xs
        assert checked_query(other, "is_empty")


class ArrayTMachine(Checked):
    """The list ``store`` holds positions ``lower`` onwards."""
    NAME = "ArrayT"

    @initialize(lower=st.integers(-2, 3), size=st.integers(0, 4), x=ELEMENTS)
    def make(self, lower, size, x):
        self.obj = checked_constructor(SPECS["ArrayT"], "make",
                                       [lower, lower + size - 1, x])
        self.lower, self.store, self.capacity = lower, [x] * size, size

    def model(self):
        return {"map": MMap(enumerate(self.store, self.lower)),
                "capacity": self.capacity}

    def position(self, data):
        return data.draw(st.integers(self.lower,
                                     self.lower + len(self.store) - 1))

    @precondition(lambda self: self.store)
    @rule(x=ELEMENTS, data=st.data())
    def put(self, x, data):
        k = self.position(data)
        self.command("put", x, k)
        self.store[k - self.lower] = x

    @precondition(lambda self: self.store)
    @rule(data=st.data())
    def item(self, data):
        k = self.position(data)
        assert self.query("item", k) == self.store[k - self.lower]

    @precondition(lambda self: self.store)
    @rule(x=ELEMENTS, data=st.data())
    def fill(self, x, data):
        l, u = self.position(data), self.position(data)
        self.command("fill", x, l, u)
        for k in range(l, u + 1):
            self.store[k - self.lower] = x

    @rule(n=st.integers(0, 8))
    def reserve(self, n):
        self.command("reserve", n)
        self.capacity = max(self.capacity, n)

    @rule()
    def capacity_query(self):
        assert self.query("capacity") == self.capacity


class TableMachine(Checked):
    """The dict ``data`` from key to value."""
    NAME = "Table"

    @initialize()
    def make(self):
        self.obj = _new(self.NAME)
        self.data = {}

    def model(self):
        return {"map": MMap(self.data.items())}

    def key(self, data):
        return data.draw(st.sampled_from(sorted(self.data, key=str)))

    @precondition(lambda self: self.data)
    @rule(x=ELEMENTS, data=st.data())
    def put(self, x, data):
        k = self.key(data)
        self.command("put", x, k)
        self.data[k] = x

    @rule(x=ELEMENTS, k=ELEMENTS)
    def force(self, x, k):
        self.command("force", x, k)
        self.data[k] = x

    @precondition(lambda self: self.data)
    @rule(data=st.data())
    def item(self, data):
        k = self.key(data)
        assert self.query("item", k) == self.data[k]

    @rule()
    def count(self):
        assert self.query("count") == len(self.data)


class BinaryTreeMachine(Checked):
    """The dict ``nodes`` from path, a tuple of bools (True is right), to
    the item at that node."""
    NAME = "BinaryTree"

    @initialize()
    def make(self):
        self.obj = _new(self.NAME)
        self.nodes = {}

    def model(self):
        return {"map": MMap((MSeq(p), x) for p, x in self.nodes.items())}

    @precondition(lambda self: not self.nodes)
    @rule(x=ELEMENTS)
    def add_root(self, x):
        self.command("add_root", x)
        self.nodes[()] = x

    @precondition(lambda self: self.nodes)
    @rule(x=ELEMENTS, data=st.data())
    def put_child(self, x, data):
        # A finite tree always has a free child slot.
        path, side = data.draw(st.sampled_from(sorted(
            (p, side) for p in self.nodes for side in (False, True)
            if p + (side,) not in self.nodes)))
        self.command("put_child", MSeq(path), side, x)
        self.nodes[path + (side,)] = x

    @precondition(lambda self: self.nodes)
    @rule(data=st.data())
    def item_at(self, data):
        path = data.draw(st.sampled_from(sorted(self.nodes)))
        assert self.query("item_at", MSeq(path)) == self.nodes[path]

    @rule()
    def count(self):
        assert self.query("count") == len(self.nodes)


class EqSetMachine(Checked):
    """Each element's class ``label`` (None: outside the relation's
    domain), and the list ``reps`` of the elements stored, one per class."""
    NAME = "EqSet"

    @initialize(labels=st.lists(st.sampled_from([None, 0, 1, 2]),
                                min_size=len(TOKENS), max_size=len(TOKENS)))
    def make(self, labels):
        self.label = {x: n for x, n in zip(TOKENS, labels) if n is not None}
        self.relation = MRel([(x, y) for x in self.label for y in self.label
                              if self.label[x] == self.label[y]])
        self.obj = checked_constructor(SPECS["EqSet"], "make", [self.relation])
        self.reps = []

    def model(self):
        return {"set": MSet(self.reps), "relation": self.relation}

    def member(self, data):
        return data.draw(st.sampled_from(sorted(self.label, key=str)))

    def holds(self, x):
        return any(self.label[r] == self.label[x] for r in self.reps)

    @precondition(lambda self: self.label)
    @rule(data=st.data())
    def add(self, data):
        x = self.member(data)
        self.command("add", x)
        if not self.holds(x):
            self.reps.append(x)

    @precondition(lambda self: self.label)
    @rule(data=st.data())
    def has(self, data):
        x = self.member(data)
        assert self.query("has", x) == self.holds(x)

    @rule()
    def count(self):
        assert self.query("count") == len(self.reps)


@pytest.mark.parametrize("machine", [
    StackMachine, QueueMachine, DispenserMachine, CollectionMachine,
    LinkedListMachine, ArrayTMachine, TableMachine, BinaryTreeMachine,
    EqSetMachine,
], ids=lambda m: m.NAME)
def test_checked_calls_agree_with_list_model(machine):
    run_state_machine_as_test(machine, settings=SETTINGS)
