"""The monitored client: a seeded script that uses four containers the way
client code would, with every call checked at run time.

The script fills a Stack, a Queue, a Collection and a LinkedList to a
given size from a 64-token universe, then keeps them near that
size while interleaving commands with queries.  While the script is
generated, a plain Python list model of each container records the answer
every query must give; running the script compares each result with that
answer.  The script only makes calls whose
preconditions hold, so a precondition rejection is a failure too.

Calls go through the ``mbc.contracts`` module attributes, so the traced
run sees them.
"""

from __future__ import annotations

import itertools
import random
import time

from mbc import contracts
from mbc.contracts import REGISTRY
from mbc.model_math import Ref, to_text

CONTAINERS = ("Stack", "Queue", "Collection", "LinkedList")
UNIVERSE = tuple(Ref(f"e{i}") for i in range(64))
SHAPE_SEED = 0  # fixes which feature each step calls


def _text(value):
    return to_text(value) if isinstance(value, Ref) else repr(value)


class _ListModel:
    """What a client expects of a container, kept as a Python list."""

    def __init__(self, name):
        self.name = name
        self.items = []
        self.index = 0  # LinkedList cursor: 0 before, count + 1 after

    def commands(self, draw, shape, size):
        """Commands whose preconditions hold now, as (feature, args), with
        elements from ``draw()`` and other choices from ``shape``; none
        when a Collection has reached ``size``."""
        n = len(self.items)
        grow = n < size
        if self.name == "LinkedList":
            options = []
            if grow and self.index <= n:
                options += [("put_right", (draw(),))] * 3
            options.append(("forth", ()) if self.index <= n
                           else (shape.choice(["start", "go_before"]), ()))
            return options
        options = [("put", (draw(),))] * 3 if grow else []
        if n and self.name != "Collection":
            options.append(("remove", ()))
        return options

    def queries(self, values):
        """Queries whose preconditions hold now, as (feature, args)."""
        x = values.choice(UNIVERSE)
        options = [("count", ()), ("is_empty", ())]
        if self.name == "Collection":
            options.append(("occurrences", (x,)))
        elif self.name == "LinkedList":
            options.append(("has", (x,)))
            if 1 <= self.index <= len(self.items):
                options.append(("item", ()))
        elif self.items:
            options.append(("item", ()))
        return options

    def apply(self, feature, args):
        """Perform a command on the list model."""
        if feature in ("put", "put_right") and self.name != "LinkedList":
            self.items.append(args[0])
        elif feature == "put_right":
            self.items.insert(self.index, args[0])
        elif feature == "remove":
            self.items.pop(-1 if self.name == "Stack" else 0)
        elif feature == "start":
            self.index = 1
        elif feature == "forth":
            self.index += 1
        elif feature == "go_before":
            self.index = 0

    def answer(self, feature, args):
        """The result a query must return."""
        if feature == "count":
            return len(self.items)
        if feature == "is_empty":
            return not self.items
        if feature == "occurrences":
            return self.items.count(args[0])
        if feature == "has":
            return args[0] in self.items
        if self.name == "Stack":
            return self.items[-1]
        if self.name == "Queue":
            return self.items[0]
        return self.items[self.index - 1]


def make_script(seed, size, steps):
    """The client script for ``seed``: per container, a list of steps
    ``(feature, kind, args, expected)``; ``expected`` is None for commands.

    Each container is first filled to ``size`` elements, then used for
    ``steps`` mixed calls that keep it near that size.  The seed draws the
    elements only: the sequence of features is the same for every seed,
    because the share of each feature sets most of a script's cost.  A
    container's elements are a seeded permutation of the universe taken in
    turn, so how many distinct ones it holds, which sets the cost of its
    bag models, does not depend on the seed either."""
    values, shape = random.Random(seed), random.Random(SHAPE_SEED)
    script = []
    for name in CONTAINERS:
        draw = itertools.cycle(values.sample(UNIVERSE, len(UNIVERSE))).__next__
        model = _ListModel(name)
        plan = []
        fill = "put_right" if name == "LinkedList" else "put"
        for _ in range(size):
            args = (draw(),)
            model.apply(fill, args)
            plan.append((fill, "command", args, None))
        for _ in range(steps):
            commands = model.commands(draw, shape, size)
            if commands and shape.random() < 0.55:
                feature, args = shape.choice(commands)
                model.apply(feature, args)
                plan.append((feature, "command", args, None))
            else:
                feature, args = shape.choice(model.queries(values))
                plan.append((feature, "query", args, model.answer(feature, args)))
        script.append((name, plan))
    return script


def run_checked(script, marks, results):
    """Run the script under contract checking.

    Marks the entry and exit of each call on ``marks`` (a
    ``workloads.Marks``) and appends each query result's text to
    ``results``.  Returns the mismatches found and the checked time per
    container in nanoseconds.
    """
    problems = []
    per_container = {}
    for name, plan in script:
        spec = REGISTRY[name]
        first = len(marks.calls)
        marks.enter()
        obj = contracts.checked_constructor(spec, "make_empty")
        marks.leave()
        for feature, kind, args, expected in plan:
            marks.enter()
            if kind == "command":
                contracts.checked_command(obj, feature, args)
                marks.leave()
            else:
                result = contracts.checked_query(obj, feature, args)
                marks.leave()
                results.append(_text(result))
                if result != expected:
                    problems.append(f"{name}.{feature}{args}: got {_text(result)},"
                                    f" list model says {_text(expected)}")
        idx = marks.calls[first:]
        per_container[name] = sum(marks.ns[idx[i + 1]] - marks.ns[idx[i]]
                                  for i in range(0, len(idx), 2))
    return problems, per_container


def run_raw(script):
    """Run the same script on the raw feature bodies, without contracts;
    returns the time per container in nanoseconds."""
    clock = time.perf_counter_ns
    per_container = {}
    for name, plan in script:
        spec = REGISTRY[name]
        make = spec.constructors[0].body
        calls = [(spec.features[feature].body, args)
                 for feature, _, args, _ in plan]
        start = clock()
        obj = make()
        for body, args in calls:
            body(obj, *args)
        per_container[name] = clock() - start
    return per_container
