"""Outside-in call patching: a span recorder and a per-batch timer.

Both work the same way: resolve a public function of the program by its
dotted path, replace it with a timing wrapper for the duration of a
``with`` block, and put the original back on exit. Nothing under
``src/`` knows it is being measured.

A target is written ``"module:attr"`` or ``"module:Class.method"``.
Functions imported by name into the module that calls them are patched
at that call site (``repro.core.pipeline:find_unvisited``), and the
patch first checks that the call site still holds the same object as
the defining module, so a rename or a re-import on either side fails
the benchmark instead of silently measuring nothing.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple


class DriftError(RuntimeError):
    """A wrapped name no longer resolves, or a layer stopped being called."""


def resolve(target: str) -> Tuple[object, str, Callable]:
    """``"module:Owner.attr"`` -> (owner object, attribute name, function)."""
    module_name, _, qualname = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise DriftError(f"{target}: module does not import ({exc})") from None
    *parents, attr = qualname.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            raise DriftError(f"{target}: {name!r} not found")
    if inspect.isclass(owner):
        fn = owner.__dict__.get(attr)
    else:
        fn = getattr(owner, attr, None)
    if not inspect.isfunction(fn):
        raise DriftError(f"{target}: not a plain function (got {type(fn).__name__})")
    return owner, attr, fn


def check_same(target: str, origin: str) -> None:
    """The call-site binding ``target`` must be the function ``origin``."""
    if resolve(target)[2] is not resolve(origin)[2]:
        raise DriftError(f"{target} is no longer {origin}")


class Patches:
    """Install wrappers on enter, restore every original on exit."""

    def __init__(self):
        self._installed: List[Tuple[object, str, Callable]] = []

    def install(self, target: str, make_wrapper: Callable[[Callable], Callable]) -> None:
        owner, attr, fn = resolve(target)
        wrapper = functools.wraps(fn)(make_wrapper(fn))
        self._installed.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        while self._installed:
            owner, attr, fn = self._installed.pop()
            setattr(owner, attr, fn)


# A tally receives (counts, args, result, pre) after a wrapped call returns;
# ``pre`` is whatever the optional ``before(args)`` hook returned.
Tally = Callable[[Counter, tuple, object, object], None]


class SpanRecorder:
    """In-memory spans around wrapped calls, reduced to per-name self time.

    A span is ``(name, start, end, parent, run)``: ``parent`` is the index
    of the enclosing wrapped call (``-1`` at the root) and ``run`` tags the
    phase the call belongs to (``"setup"`` or ``"run"``).
    """

    def __init__(self):
        self.spans: List[Optional[tuple]] = []
        self.counts: Counter = Counter()
        self.run = "setup"
        self._stack: List[int] = []

    def span_wrapper(
        self, name: str, tally: Optional[Tally] = None, before=None
    ) -> Callable[[Callable], Callable]:
        spans, stack, counts = self.spans, self._stack, self.counts

        def make(fn):
            def wrapper(*args, **kwargs):
                pre = before(args) if before is not None else None
                idx = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(idx)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                    spans[idx] = (name, start, end, parent, self.run)
                if tally is not None:
                    tally(counts, args, result, pre)
                return result

            return wrapper

        return make

    def yield_counter(self, name: str) -> Callable[[Callable], Callable]:
        """For generators: count the items yielded (their work is spanned
        by whatever the generator calls, e.g. ``take_photo``)."""
        counts = self.counts

        def make(fn):
            def wrapper(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    counts[name] += 1
                    yield item

            return wrapper

        return make

    def reduce(self, run: str) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``total_s`` and ``self_s`` for one run.

        Self time is the span's duration minus the durations of the
        wrapped calls nested directly inside it.
        """
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _run in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for i, (name, start, end, _parent, span_run) in enumerate(self.spans):
            if span_run != run:
                continue
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += (end - start) - child_s[i]
        return out

    def write(self, path, meta: dict) -> None:
        """Write every span (one JSON array per line) after the run ends."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"meta": meta, "fields": ["name", "start", "end", "parent", "run"]}))
            out.write("\n")
            for span in self.spans:
                out.write(json.dumps(span))
                out.write("\n")


def timed_into(samples: List[float]) -> Callable[[Callable], Callable]:
    """A wrapper factory appending each call's host time to ``samples``."""

    def make(fn):
        def wrapper(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            samples.append(perf_counter() - start)
            return result

        return wrapper

    return make


class StepTimer:
    """Host time of each event-loop step whose event ran ``marker``.

    Used where a batch commit is one simulator event: the step also holds
    the WAL append and any checkpoint that follows the commit, so the
    durability stall a participant waits through is part of the sample.
    """

    def __init__(self, step_target: str, marker: str):
        self.step_target = step_target
        self.marker = marker
        self.samples: List[float] = []
        self._hit = False

    def install(self, patches: Patches) -> None:
        def mark(fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                self._hit = True
                return result

            return wrapper

        def step(fn):
            def wrapper(*args, **kwargs):
                self._hit = False
                start = perf_counter()
                result = fn(*args, **kwargs)
                if self._hit:
                    self.samples.append(perf_counter() - start)
                return result

            return wrapper

        patches.install(self.marker, mark)
        patches.install(self.step_target, step)


def tail_percentile(samples: Sequence[float]) -> Tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(percentile, value)``: the (n-10)-th smallest of n samples
    sits at percentile 100 * (n - 10) / n. Needs at least eleven samples.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        raise ValueError(f"a tail needs at least 11 samples, got {n}")
    return 100.0 * (n - 10) / n, ordered[n - 11]
