"""Spans recorded by the benchmark around its calls into ``erl``.

A span is (name, start, end, parent, round).  Spans are kept in memory and
written out when the run ends.  Untraced rounds use :data:`NO_TRACE`, whose
``span`` does nothing, so traced and untraced rounds run the same code.
"""

from __future__ import annotations

import contextlib
from collections import defaultdict
from time import perf_counter

_NULL = contextlib.nullcontext()


class NullTracer:
    enabled = False

    def span(self, name: str):
        return _NULL


NO_TRACE = NullTracer()


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, round]
        self.round: int | None = None  # None while setting up
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, perf_counter(), None,
               self._stack[-1] if self._stack else None, self.round]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            self._stack.pop()
            rec[2] = perf_counter()

    def busy(self, round_index: int | None) -> dict[str, float]:
        """Summed span durations by name for one round (None: set-up)."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _, r in self.spans:
            if r == round_index:
                out[name] += end - start
        return dict(out)

    def to_json(self) -> list[dict]:
        return [{"name": name, "start": start, "end": end, "parent": parent,
                 "round": r}
                for name, start, end, parent, r in self.spans]


class PolicyProbe:
    """Delegating policy wrapper that times ``allocate``.

    Every other attribute (``name`` included) is forwarded to the wrapped
    policy, so the simulator sees the same policy.  Only traced rounds use
    it; a per-call span would cost more than the call, so the probe keeps a
    busy-time total and a call count instead.
    """

    def __init__(self, inner):
        self._inner = inner
        self.busy = 0.0
        self.calls = 0

    def __getattr__(self, attr):
        return getattr(self._inner, attr)

    def allocate(self, *args, **kwargs):
        start = perf_counter()
        try:
            return self._inner.allocate(*args, **kwargs)
        finally:
            self.busy += perf_counter() - start
            self.calls += 1
