"""Spans recorded around the benchmark's calls into burnkit.

Every library call the benchmark times goes through a ``call(name, fn,
*args, **kwargs)`` function. The untraced run uses :func:`direct`, which
only forwards the call; the traced run uses :meth:`Tracer.call`, which
also records a span. Both runs therefore execute the same benchmark code,
and the difference between them is the cost of recording spans.
"""

from __future__ import annotations

import json
from time import perf_counter
from typing import Callable


def direct(name: str, fn: Callable, *args, **kwargs):
    """Untraced call: forward to ``fn``."""
    return fn(*args, **kwargs)


class Tracer:
    """In-memory span recorder.

    A span is ``[name, item, parent, start, end]``; its id is its index
    in ``spans``. ``parent`` is the id of the span that was open when it
    started (None at top level) and ``item`` the id of the workload item
    the benchmark was working on (None during set-up).
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.item: int | None = None
        self._open: int | None = None

    def call(self, name: str, fn: Callable, *args, **kwargs):
        span = [name, self.item, self._open, perf_counter(), 0.0]
        parent = self._open
        self._open = len(self.spans)
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[4] = perf_counter()
            self._open = parent

    def self_times(self) -> list[tuple[str, int | None, float]]:
        """``(name, item, self seconds)`` per span: its duration minus the
        time its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for name, item, parent, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        return [
            (name, item, end - start - child_time[i])
            for i, (name, item, parent, start, end) in enumerate(self.spans)
        ]

    def write(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        keys = ("name", "item", "parent", "start", "end")
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, span in enumerate(self.spans):
                record = dict(zip(keys, span), id=span_id)
                fh.write(json.dumps(record) + "\n")
