"""Stateful tests of the checked-call path.

Hypothesis drives ``checked_constructor``, ``checked_command`` and
``checked_query`` on Stack, Queue, Collection and LinkedList, only with
calls whose precondition holds, and compares every query result with a
plain Python list model (for LinkedList, a list and a cursor).  Every call
also checks its postcondition and the invariants, so a run that ends
without a ContractViolation agrees with the contract as well."""

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, initialize, precondition, rule,
    run_state_machine_as_test,
)

from mbc.containers import ALL_SPECS
from mbc.contracts import (
    abstract_state, checked_command, checked_constructor, checked_query,
)
from mbc.model_math import MSeq, Ref

ELEMENTS = st.sampled_from([Ref(t) for t in "abc"])
SPECS = {spec.name: spec for spec in ALL_SPECS}
SETTINGS = settings(max_examples=25, stateful_step_count=30,
                    derandomize=True, deadline=None)


def _new(name):
    return checked_constructor(SPECS[name], "make_empty")


class Container(RuleBasedStateMachine):
    """An object of type ``NAME`` and the list ``items`` it should hold."""
    NAME = None

    @initialize()
    def make(self):
        self.obj = _new(self.NAME)
        self.items = []

    def command(self, feature, *args):
        checked_command(self.obj, feature, list(args))

    def query(self, feature, *args):
        return checked_query(self.obj, feature, list(args))

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


class LinkedListMachine(Container):
    """The cursor ``index`` is 0 before the first item and
    ``len(items) + 1`` after the last."""
    NAME = "LinkedList"

    @initialize()
    def make(self):
        super().make()
        self.index = 0

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


@pytest.mark.parametrize("machine", [
    StackMachine, QueueMachine, CollectionMachine, LinkedListMachine,
], ids=lambda m: m.NAME)
def test_checked_calls_agree_with_list_model(machine):
    run_state_machine_as_test(machine, settings=SETTINGS)
