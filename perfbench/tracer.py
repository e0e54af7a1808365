"""In-memory span tracer that wraps functions where their callers look them up.

A wrapped call records one span: name, start, end, parent span and whether it
raised. Spans opened on a thread-pool worker, whose own stack is empty, take
as parent the innermost span open on the main thread, which is the call that
submitted the work and waits for it. Self time is computed from the span
tree: a span's duration minus the part of it that its children cover.
"""

import threading
import time
from collections import defaultdict

__all__ = ["Tracer"]


class Tracer:
    """Patch functions with span-recording wrappers and undo the patches."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent span or None, raised]
        self.counters = defaultdict(float)
        self._local = threading.local()
        self._main_stack = None
        self._patches = []  # (owner, attribute, original)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            if threading.current_thread() is threading.main_thread():
                self._main_stack = stack
        return stack

    def wrap(self, owner, attr, name, observe=None):
        """Replace ``owner.attr`` by a wrapper that records a span ``name``.

        ``owner`` is a module or a class; the attribute must be defined on it
        directly, so a renamed or moved target raises here instead of leaving
        its layer silently untraced. ``observe(tracer, result, exc)`` runs
        after each call to update counters.
        """
        if attr not in vars(owner):
            raise LookupError(
                f"trace target {getattr(owner, '__name__', owner)}.{attr} "
                f"does not exist; layer '{name}' would go unmeasured"
            )
        original = vars(owner)[attr]
        if not callable(original):
            raise TypeError(f"trace target {attr} on {owner!r} is not callable")
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main and main is not stack else None
            span = [name, 0.0, 0.0, parent, False]
            tracer.spans.append(span)
            stack.append(span)
            result = exc = None
            span[1] = clock()
            try:
                result = original(*args, **kwargs)
                return result
            except BaseException as err:
                span[4] = True
                exc = err
                raise
            finally:
                span[2] = clock()
                stack.pop()
                if observe is not None:
                    observe(tracer, result, exc)

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self):
        """Put every original back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summary(self):
        """Per span name: calls, inclusive seconds, self seconds, raised."""
        children = defaultdict(list)
        for span in self.spans:
            if span[3] is not None:
                children[id(span[3])].append((span[1], span[2]))
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "failed": 0})
        for span in self.spans:
            name, start, end, _, raised = span
            rec = out[name]
            rec["calls"] += 1
            rec["s"] += end - start
            rec["self_s"] += (end - start) - _covered(start, end, children.get(id(span), ()))
            rec["failed"] += int(raised)
        return dict(out)

    def ancestor_named(self, span, name):
        """True when some ancestor of ``span`` has the given name."""
        parent = span[3]
        while parent is not None:
            if parent[0] == name:
                return True
            parent = parent[3]
        return False


def _covered(start, end, intervals):
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total
