"""In-memory span tracer for the benchmark.

Layers are timed from outside: the tracer replaces a function in the
module where its caller looks the name up, records one span (name, start,
end, parent) per call, and puts every original back when the traced
block ends, also when it ends with an exception.  Hot kernels that run
tens of thousands of times per operation are counted instead of spanned.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager

# span record fields
NAME, START, END, PARENT, INFO = range(5)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def call(self, name: str, fn, *args, info=None, on_result=None, **kwargs):
        """Run fn inside a span; info(tracer, span, args, kwargs) fills the
        span's info dict before the call, on_result(span, result) after
        it."""
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, {}]
        idx = len(self.spans)
        self.spans.append(span)
        self._stack.append(idx)
        if info is not None:
            info(self, span, args, kwargs)
        span[START] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span[INFO]["raised"] = type(exc).__name__
            raise
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()
        if on_result is not None:
            on_result(span, result)
        return result

    def spanned(self, name: str, fn, info=None, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, info=info, on_result=on_result,
                             **kwargs)
        return wrapper

    def counted(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installing wrappers ------------------------------------------------

    def patch(self, sites, make_wrapper) -> None:
        """Replace the function found at every (owner, attribute) site by
        one wrapper; all sites must hold the same original."""
        originals = {id(getattr(owner, attr)) for owner, attr in sites}
        if len(originals) != 1:
            raise RuntimeError(f"sites {sites} hold different functions")
        original = getattr(*sites[0])
        wrapper = make_wrapper(original)
        for owner, attr in sites:
            self._patched.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, plan):
        """plan(tracer) patches sites; every patch is undone on exit."""
        try:
            plan(self)
            yield self
        finally:
            self.restore()

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> list[float]:
        out = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                out[s[PARENT]] -= s[END] - s[START]
        return out

    def ancestors(self, idx: int):
        p = self.spans[idx][PARENT]
        while p >= 0:
            yield self.spans[p]
            p = self.spans[p][PARENT]

    def to_json(self) -> dict:
        return {"fields": ["name", "start", "end", "parent", "info"],
                "spans": self.spans, "counts": dict(self.counts)}
