"""Span tracer for the traced benchmark run.

The tracer wraps the public functions of each ``mbc`` module at the module
boundary, the constructors of the ``model_math`` value classes, the
``model_*`` queries of the containers and the registered feature bodies.
It also counts contract clause evaluations.  Nothing in ``mbc`` is edited:
every wrapper is installed by rebinding names from this file, and
``uninstall`` puts the original objects back.

Per span the tracer keeps a name, a start, an end and the span that caused
it.  Self time is a span's duration minus the time its direct child spans
cover.  Aggregates (calls, self time, outermost inclusive time per name,
self time per phase) are updated as spans close; the first ``SPAN_CAP``
spans are also kept in memory and written out by ``write_spans``.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import sys
import time
from collections import Counter

# Modules whose public functions are wrapped.  ``boogie_export`` is left
# out: its one call per export takes under a millisecond.
MODULES = ("model_math", "contracts", "containers", "checkers", "autotest",
           "cli")
# Private functions wrapped anyway, because a metric needs them.
EXTRA = {"cli._emit"}
VALUE_CLASSES = ("MSeq", "MSet", "MBag", "MMap", "MRel")
SPAN_CAP = 100_000  # spans kept for write_spans; aggregates count them all

# Phase of a span name.  A phase's self time is the duration of its spans
# minus the spans of other phases nested inside them.
PHASES = {
    "checkers.enumerate_states": "checkers.enumerate",
    "checkers.check_precondition_soundness": "checkers.soundness",
    "checkers.check_command_completeness": "checkers.completeness",
    "checkers.check_query_completeness": "checkers.completeness",
    "checkers.check_constructor_completeness": "checkers.completeness",
    "checkers.check_observational_adequacy": "checkers.adequacy",
    "contracts.serialize_state": "contracts.serialize",
    "model_math.to_text": "contracts.serialize",
    "cli._emit": "cli.emit",
    "checkers.report_to_json": "cli.emit",
    "autotest.CampaignResult.to_json_lines": "cli.emit",
}


class Tracer:
    def __init__(self):
        self.spans = []             # (id, parent id, name, start ns, end ns)
        self.calls = Counter()
        self.self_ns = Counter()
        self.incl_ns = Counter()    # outermost calls of each name only
        self.phase_ns = Counter()
        self.clause_evals = 0
        self._stack = []            # [span id, child ns]
        self._phase_stack = []      # [phase, child ns]
        self._active = Counter()
        self._next_id = 0
        self._patches = []          # (owner, attribute, original)

    # -- wrappers -------------------------------------------------------

    def span(self, name, fn):
        """Wrap ``fn`` so each call is recorded as a span called ``name``."""
        phase = PHASES.get(name)
        clock = time.perf_counter_ns
        stack = self._stack
        phase_stack = self._phase_stack
        active = self._active

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            frame = [span_id, 0]
            stack.append(frame)
            active[name] += 1
            if phase is not None:
                phase_frame = [phase, 0]
                phase_stack.append(phase_frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                duration = end - start
                stack.pop()
                active[name] -= 1
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += duration
                self.calls[name] += 1
                self.self_ns[name] += duration - frame[1]
                if not active[name]:
                    self.incl_ns[name] += duration
                if phase is not None:
                    phase_stack.pop()
                    self.phase_ns[phase] += duration - phase_frame[1]
                    if phase_stack:
                        phase_stack[-1][1] += duration
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((span_id, parent[0] if parent else None,
                                       name, start, end))

        return traced

    def counting(self, fn):
        """Wrap a contract clause function so each evaluation is counted."""
        if getattr(fn, "__counted_by_tracer__", False):
            return fn

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.clause_evals += 1
            return fn(*args, **kwargs)

        counted.__counted_by_tracer__ = True
        return counted

    def _count_clauses(self, clauses):
        return tuple(dataclasses.replace(c, fn=self.counting(c.fn))
                     for c in clauses)

    # -- installation ---------------------------------------------------

    def _set(self, owner, attribute, value):
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def install(self):
        """Wrap the ``mbc`` layers.  ``mbc`` must already be imported."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        package = sys.modules["mbc"]
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if (n == "mbc" or n.startswith("mbc.")) and m is not None]
        originals = {}
        for short in MODULES:
            module = sys.modules[f"mbc.{short}"]
            for attr, obj in vars(module).items():
                qual = f"{short}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and (not attr.startswith("_") or qual in EXTRA)):
                    originals[id(obj)] = (obj, self._wrap_function(qual, obj))
        # Rebind every module-level reference, so calls across modules
        # (``from .contracts import abstract_state``) are traced too.
        for module in namespaces:
            for attr, obj in list(vars(module).items()):
                if id(obj) in originals and originals[id(obj)][0] is obj:
                    self._set(module, attr, originals[id(obj)][1])

        model_math = package.model_math
        for cls_name in VALUE_CLASSES:
            cls = getattr(model_math, cls_name)
            self._set(cls, "__init__",
                      self.span(f"model_math.{cls_name}.__init__",
                                cls.__dict__["__init__"]))
        result_cls = package.autotest.CampaignResult
        self._set(result_cls, "to_json_lines",
                  self.span("autotest.CampaignResult.to_json_lines",
                            result_cls.__dict__["to_json_lines"]))

        containers = package.containers
        for cls in vars(containers).values():
            if isinstance(cls, type) and cls.__module__ == containers.__name__:
                for attr, fn in list(vars(cls).items()):
                    if attr.startswith("model_") and inspect.isfunction(fn):
                        self._set(cls, attr, self.span(
                            f"containers.{cls.__name__}.{attr}", fn))

        contracts = package.contracts
        for spec in contracts.REGISTRY.values():
            self._set(spec, "invariants", self._count_clauses(spec.invariants))
            for feature in list(spec.features.values()) + list(spec.constructors):
                self._set(feature, "body", self.span(
                    f"containers.body:{spec.name}.{feature.name}", feature.body))
                self._set(feature, "clauses",
                          self._count_clauses(feature.clauses))
        return self

    def _wrap_function(self, qual, fn):
        if qual == "contracts.expand_frame":
            # Frame clauses are built afresh by every expand_frame call.
            expand = fn

            @functools.wraps(expand)
            def fn(feature, signature):
                return list(self._count_clauses(expand(feature, signature)))
        return self.span(qual, fn)

    def uninstall(self):
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- results --------------------------------------------------------

    def total(self, table, predicate):
        return sum(v for k, v in table.items() if predicate(k))

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
