"""Times calls into cardcohort's layers from outside the package.

A :class:`Tracer` replaces each target function, in every loaded
``cardcohort`` module that binds it, with a wrapper, so the pipeline's
own lookups (``pipeline.parse_transactions`` as well as
``chain.build_legs``) reach the wrapper whichever way a caller imports
it.  Two kinds of wrapper:

* a *span* records name, start, end, thread and the enclosing span, and
  is kept in memory until :meth:`Tracer.dump`;
* a *per-call* wrapper, for functions called once per card, only adds
  to a call count and a summed time per function and thread.

A count hook reads the wrapped call's return value into per-thread
counters.  A target that no longer exists is listed in ``missing`` and
its metrics are reported as not observed; the run goes on.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

SPAN = "span"
PER_CALL = "per_call"


@dataclass(frozen=True)
class Target:
    module: str  # module that defines the function
    attr: str
    name: str  # span name; time metrics are "<name>_s"
    kind: str = SPAN
    count: Callable | None = None  # (return value, Counter) -> None
    # Span name to use instead when the enclosing span has this name.
    under: tuple[str, str] | None = None


class _ThreadState:
    """What one thread recorded; only that thread writes to it."""

    def __init__(self):
        self.stack: list[int] = []
        self.calls: dict[str, list] = {}
        self.counts: Counter = Counter()


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, parent, thread, start, end)
        self.missing: list[str] = []
        self.count_errors: list[str] = []
        self._ids = itertools.count(1)
        self._names: dict[int, str] = {}
        self._local = threading.local()
        self._states: list[tuple[str, _ThreadState]] = []

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = _ThreadState()
            self._states.append((threading.current_thread().name, st))
        return st

    def _count(self, target: Target, ret, st: _ThreadState) -> None:
        if target.count is None:
            return
        try:
            target.count(ret, st.counts)
        except (AttributeError, TypeError, ValueError, IndexError) as exc:
            self.count_errors.append(f"{target.name}: {exc!r}")

    def _span(self, target: Target, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = self._state()
            parent = st.stack[-1] if st.stack else None
            name = target.name
            if target.under and parent is not None and self._names[parent] == target.under[0]:
                name = target.under[1]
            span_id = next(self._ids)
            self._names[span_id] = name
            st.stack.append(span_id)
            start = time.perf_counter()
            try:
                ret = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                st.stack.pop()
                self.spans.append((span_id, name, parent, threading.current_thread().name, start, end))
            self._count(target, ret, st)
            return ret

        return wrapper

    def _per_call(self, target: Target, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = self._state()
            start = time.perf_counter()
            ret = fn(*args, **kwargs)
            elapsed = time.perf_counter() - start
            slot = st.calls.get(target.name)
            if slot is None:
                slot = st.calls[target.name] = [0, 0.0]
            slot[0] += 1
            slot[1] += elapsed
            self._count(target, ret, st)
            return ret

        return wrapper

    def install(self, targets) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "cardcohort" or n.startswith("cardcohort.")]
        for target in targets:
            original = getattr(sys.modules.get(target.module), target.attr, None)
            if original is None:
                self.missing.append(target.name)
                continue
            make = self._span if target.kind == SPAN else self._per_call
            wrapper = make(target, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def times(self) -> dict[str, float]:
        """Summed seconds per span or per-call name, over all threads."""
        out: Counter = Counter()
        for _id, name, _parent, _thread, start, end in self.spans:
            out[name] += end - start
        for _thread, st in self._states:
            for name, (_n, total) in st.calls.items():
                out[name] += total
        return dict(out)

    def called(self) -> set[str]:
        names = {s[1] for s in self.spans}
        for _thread, st in self._states:
            names.update(st.calls)
        return names

    def counts(self) -> Counter:
        out: Counter = Counter()
        for _thread, st in self._states:
            out.update(st.counts)
        return out

    def dump(self, path: str) -> None:
        """Write spans (with self time) and per-call aggregates as JSON."""
        child_time: Counter = Counter()
        for _id, _name, parent, _thread, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        t0 = min((s[4] for s in self.spans), default=0.0)
        spans = [
            {
                "id": i, "name": name, "parent": parent, "thread": thread,
                "start_s": round(start - t0, 6), "end_s": round(end - t0, 6),
                "self_s": round(end - start - child_time[i], 6),
            }
            for i, name, parent, thread, start, end in sorted(self.spans)
        ]
        calls = [
            {"name": name, "thread": thread, "calls": n, "total_s": round(total, 6)}
            for thread, st in self._states
            for name, (n, total) in sorted(st.calls.items())
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": spans, "per_call": calls, "missing": self.missing}, fh, indent=1)
