"""Outside-in host tracing: wrap program functions without editing them.

A :class:`Rebinder` replaces a module function in its own module and in
every ``repro`` module that imported it by name, or a method on the
class that defines it, and puts every original back on :meth:`undo`.
The :class:`Tracer` uses it to record one span per call; the
sensitivity self-test uses it to add a fixed delay to one function.

Spans live in memory as tuples ``(name, layer, start, end, parent,
call_id)``: ``call_id`` is the span's index in :attr:`Tracer.spans` and
``parent`` the ``call_id`` of the span that was open when the call
began (``-1`` for a top-level call).  Calls nest strictly (the
benchmark is single-threaded), so a span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from typing import (Any, Callable, Dict, Iterable, List, Optional, Sequence,
                    Set, Tuple)

Span = Tuple[str, str, float, float, int, int]

NAME, LAYER, START, END, PARENT, CALL_ID = range(6)


def resolve(target: str) -> Tuple[Any, str, Any]:
    """``"pkg.mod:Class.attr"`` or ``"pkg.mod:func"`` -> (owner, attr, obj).

    A method must be defined on the named class itself (not inherited),
    so the rebinding lands where the code lives.
    """
    module_name, _, qualname = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        if attr not in owner.__dict__:
            raise LookupError(f"{target}: {attr!r} is not defined on "
                              f"{owner.__name__} itself")
        return owner, attr, owner.__dict__[attr]
    return owner, attr, getattr(owner, attr)


class Rebinder:
    """Swap program functions for wrappers, and swap them back."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []
        #: id(wrapper) -> (wrapper, original)
        self._wrappers: Dict[int, Tuple[Callable, Callable]] = {}

    def wrap(self, target: str, make: Callable[[Callable], Callable]) -> None:
        owner, attr, original = resolve(target)
        if not callable(original):
            raise TypeError(f"{target} is not a plain function")
        wrapper = make(original)
        self._wrappers[id(wrapper)] = (wrapper, original)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            self._undo.append((owner, attr, original))
            return
        for module, key, value in _repro_bindings():
            if value is original:
                setattr(module, key, wrapper)
                self._undo.append((module, key, original))

    def undo(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        # A module first imported while a wrapper was installed bound the
        # wrapper by name; put the original there too.
        for module, key, value in _repro_bindings():
            pair = self._wrappers.get(id(value))
            if pair is not None and pair[0] is value:
                setattr(module, key, pair[1])
        self._wrappers.clear()


def _repro_bindings():
    """(module, name, value) for every global of every loaded repro module."""
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if name == "repro" or name.startswith("repro."):
            for key, value in list(vars(module).items()):
                yield module, key, value


def delay_wrapper(seconds: float) -> Callable[[Callable], Callable]:
    """A wrapper factory that sleeps ``seconds`` before each call."""
    def make(original: Callable) -> Callable:
        @functools.wraps(original)
        def delayed(*args, **kwargs):
            time.sleep(seconds)
            return original(*args, **kwargs)
        return delayed
    return make


class Tracer:
    """Records a span per call of every installed target."""

    def __init__(self, targets: Dict[str, str]) -> None:
        #: target ("module:qualname") -> layer name.
        self.targets = dict(targets)
        self.spans: List[Optional[Span]] = []
        self._stack: List[int] = []
        self._rebinder = Rebinder()

    def _make(self, name: str, layer: str) -> Callable[[Callable], Callable]:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def make(original: Callable) -> Callable:
            @functools.wraps(original)
            def traced(*args, **kwargs):
                call_id = len(spans)
                parent = stack[-1] if stack else -1
                spans.append(None)
                stack.append(call_id)
                start = clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    spans[call_id] = (name, layer, start, end, parent,
                                      call_id)
            return traced
        return make

    def install(self) -> None:
        for target, layer in self.targets.items():
            name = target.partition(":")[2]
            self._rebinder.wrap(target, self._make(name, layer))

    def uninstall(self) -> None:
        self._rebinder.undo()

    def take(self) -> List[Span]:
        """Hand over the finished spans and start a fresh list."""
        if self._stack:
            raise RuntimeError("take() called inside a traced call")
        done = [span for span in self.spans if span is not None]
        self.spans.clear()
        return done


def self_times(spans: Sequence[Span]) -> List[float]:
    """Per-span self time: duration minus its direct children's."""
    child = [0.0] * len(spans)
    index = {span[CALL_ID]: i for i, span in enumerate(spans)}
    for span in spans:
        parent = index.get(span[PARENT])
        if parent is not None:
            child[parent] += span[END] - span[START]
    return [span[END] - span[START] - child[i]
            for i, span in enumerate(spans)]


class SpanTable:
    """Aggregates over one batch of spans, by span name and layer."""

    def __init__(self, spans: Sequence[Span]) -> None:
        self.spans = list(spans)
        self.self_s = self_times(self.spans)
        self._by_id = {span[CALL_ID]: span for span in self.spans}

    def _nested_in(self, span: Span, names: Set[str]) -> bool:
        parent = self._by_id.get(span[PARENT])
        while parent is not None:
            if parent[NAME] in names:
                return True
            parent = self._by_id.get(parent[PARENT])
        return False

    def inclusive(self, names: Iterable[str]) -> float:
        """Wall time inside any of ``names``, nested calls counted once."""
        names = set(names)
        return sum(span[END] - span[START] for span in self.spans
                   if span[NAME] in names
                   and not self._nested_in(span, names))

    def self_time(self, names: Iterable[str]) -> float:
        names = set(names)
        return sum(s for span, s in zip(self.spans, self.self_s)
                   if span[NAME] in names)

    def layer_self(self, layers: Iterable[str]) -> float:
        layers = set(layers)
        return sum(s for span, s in zip(self.spans, self.self_s)
                   if span[LAYER] in layers)

    def calls(self, names: Iterable[str]) -> int:
        names = set(names)
        return sum(1 for span in self.spans if span[NAME] in names)

    def by_layer(self) -> Dict[str, float]:
        out: Dict[str, float] = defaultdict(float)
        for span, s in zip(self.spans, self.self_s):
            out[span[LAYER]] += s
        return dict(out)


def write_chrome_trace(path: str, spans: Sequence[Span]) -> None:
    """Write spans as Chrome-trace complete events (open in Perfetto)."""
    t0 = min((span[START] for span in spans), default=0.0)
    events = [
        {"ph": "X", "name": span[NAME], "cat": span[LAYER], "pid": 1,
         "tid": 1, "ts": (span[START] - t0) * 1e6,
         "dur": (span[END] - span[START]) * 1e6,
         "args": {"call_id": span[CALL_ID], "parent": span[PARENT]}}
        for span in spans]
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
