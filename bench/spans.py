"""In-memory span recording around the benchmark's calls into beliefcheck.

A span is (name, start, end, parent, op): `parent` is the index of the
enclosing span or None, `op` the index of the timed op it belongs to, or
None during set-up. Spans are kept in a list and written out once, when
the run ends.
"""

import time
from contextlib import contextmanager

NAME, START, END, PARENT, OP, FAILED = range(6)


def span_name(fn):
    """`<module>.<function>` of a beliefcheck callable, e.g.
    `rationalize.verify_model` or `dist.Dist`."""
    return "%s.%s" % (fn.__module__.rpartition(".")[2], fn.__name__)


class NullTracer:
    """Calls straight through; used for the untraced, timed runs."""

    op = None

    def call(self, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @contextmanager
    def span(self, name):
        yield


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = [name, time.perf_counter(), None, parent, self.op, False]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span[END] = time.perf_counter()
        self._stack.pop()

    def call(self, fn, *args, **kwargs):
        span = self._open(span_name(fn))
        try:
            return fn(*args, **kwargs)
        except Exception:
            span[FAILED] = True
            raise
        finally:
            self._close(span)

    @contextmanager
    def span(self, name):
        span = self._open(name)
        try:
            yield
        except Exception:
            span[FAILED] = True
            raise
        finally:
            self._close(span)

    def self_times(self):
        """Each span's duration minus the time its direct children cover.
        The benchmark is single-threaded, so children never overlap."""
        out = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] is not None:
                out[s[PARENT]] -= s[END] - s[START]
        return out
