"""In-memory spans recorded from outside the library.

A span is opened around each public library call the traced run makes, and
each call of a wrapped evaluator callable records one more span, parented
to the public call that is open on the driving thread.  Evaluator calls may
come from several worker threads at once: each call times itself in its own
frame, so busy time is the sum of the calls' durations, and a parent's self
time subtracts the union of its children's intervals, never their sum.
"""

import itertools
import json
import threading
import time
from contextlib import contextmanager


class Tracer:
    """Collects spans: id, name, start, end, parent id, pass id, attributes."""

    def __init__(self):
        self.spans = []
        self.pass_id = None
        self._stack = []  # open span ids; pushed and popped by one thread
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def _record(self, sid, name, start, end, parent, attrs):
        span = {"id": sid, "name": name, "start": start, "end": end,
                "parent": parent, "pass": self.pass_id}
        span.update(attrs)
        with self._lock:
            self.spans.append(span)

    @contextmanager
    def span(self, name, **attrs):
        """Time the enclosed public call; attrs may be filled in inside."""
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._record(sid, name, start, end, parent, attrs)

    def wrap(self, evaluator, name, **attrs):
        """The evaluator, recording one span (with its point count) per call."""

        def traced(s):
            parent = self._stack[-1] if self._stack else None
            start = time.perf_counter()
            try:
                return evaluator(s)
            finally:
                end = time.perf_counter()
                self._record(next(self._ids), name, start, end, parent,
                             dict(attrs, points=int(getattr(s, "size", 1))))

        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time(span, spans):
    """The span's duration minus the part its direct children cover."""
    kids = [(c["start"], c["end"]) for c in spans if c["parent"] == span["id"]]
    return (span["end"] - span["start"]) - covered(kids, span["start"], span["end"])
