"""Per-module spans around gentangent's public functions, from outside.

The tracer wraps every public function of each gentangent module, plus
``BlockOperator.assemble``, ``BlockOperator.compose`` and
``SplitMix64.matrix``, and rebinds the wrapper under every name a gentangent
module imported it as (``registry.build_family`` and ``cli.build_family`` as
well as ``ae_zoo.build_family``).  ``restore`` puts the originals back.

A span is (name, start, end, parent index).  Spans stay in memory while an
operation runs; ``summarize`` turns them into calls and self time per name,
where self time is a span's duration minus the durations of its children.
Time spent in constructors and in methods that are not wrapped counts as
self time of the calling function.  Self times over a span tree sum to the
root span's duration by construction; what can go wrong is a function
wrapped twice, which ``self_nested`` finds.
"""

import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager

LAYERS = ("generators", "core", "canonical", "gen_metrics", "ae_zoo",
          "triples", "registry", "cli")

# Methods traced on their class: (module, class, method).
METHODS = (("core", "BlockOperator", "assemble"),
           ("core", "BlockOperator", "compose"),
           ("generators", "SplitMix64", "matrix"))

# Name of the span around a whole operation; its self time is the part of
# the operation that no gentangent function covers.
OUTSIDE = "outside"

# Spans whose arguments and return value are kept, to label registry checks.
RUN_CHECK = "registry.run_check"


def _targets():
    """(original function, owner, attribute, span name) for each wrap."""
    found = []
    for layer in LAYERS:
        module = importlib.import_module(f"gentangent.{layer}")
        for attr, value in vars(module).items():
            if (inspect.isfunction(value) and not attr.startswith("_")
                    and value.__module__ == module.__name__):
                found.append((value, module, attr, f"{layer}.{attr}"))
    for layer, cls_name, attr in METHODS:
        cls = getattr(importlib.import_module(f"gentangent.{layer}"), cls_name)
        found.append((vars(cls)[attr], cls, attr, f"{layer}.{attr}"))
    return found


class Tracer:
    """Wraps gentangent's public functions and records a span per call."""

    def __init__(self):
        self.spans = []
        self.checks = []  # (span index, check id, VerifyReport)
        self._stack = [-1]
        self._saved = []  # (owner, attribute, original)

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        checks = self.checks if name == RUN_CHECK else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if checks is not None:
                prop_id = kwargs["prop_id"] if "prop_id" in kwargs else args[0]
                checks.append((index, prop_id, result))
            return result

        return traced

    def install(self):
        """Wrap every target and rebind it wherever gentangent refers to it."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for fn, owner, attr, name in _targets():
            wrappers[id(fn)] = (fn, self._wrap(fn, name))
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, wrappers[id(fn)][1])
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "gentangent" and not mod_name.startswith("gentangent."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def restore(self):
        """Put every original function back where install found it."""
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def clear(self):
        self.spans.clear()
        self.checks.clear()

    @contextmanager
    def operation(self):
        """Span covering one whole operation, parent of the top-level calls."""
        if self._stack != [-1]:
            raise RuntimeError("operation spans do not nest")
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (OUTSIDE, start, end, -1)


def summarize(spans):
    """{span name: [calls, self seconds]} for a list of finished spans."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    table = {}
    for index, (name, start, end, _) in enumerate(spans):
        entry = table.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += (end - start) - child[index]
    return table


def self_nested(spans):
    """Names of spans whose parent span has the same name.

    gentangent's public functions do not call themselves, so such a span
    means a function was wrapped twice and its calls are counted twice.
    """
    return sorted({name for name, _, _, parent in spans
                   if parent >= 0 and spans[parent][0] == name})


def draws_under(spans, child_name, parent_name):
    """How many spans named child_name have a parent named parent_name."""
    return sum(1 for name, _, _, parent in spans
               if name == child_name and parent >= 0
               and spans[parent][0] == parent_name)
