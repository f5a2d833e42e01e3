"""In-memory spans recorded around calls into the program's layers.

A span is [name, start_ns, end_ns, parent_index, trace_id, note].  The name is
"<layer>.<function>"; the trace id is the sweep trial or certify job the call
belongs to; the note is a small value taken from the call's arguments or
result (search verdict and nodes, a count) so that per-layer counts are
measured where the work happens.  Spans stay in memory until the run writes
them out.

Spans come only from this directory: `Tracer.wrap` returns a wrapper around a
public function, and `rebind` swaps such wrappers into a module's namespace
for the duration of a traced pass, so calls the program makes through that
name are seen as their caller sees them.  No program file is edited.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.trace_id = None

    def wrap(self, name: str, fn, note=None, before=None):
        """Record a span per call of `fn`.

        `note(result, args, kwargs)` stores a value in the span; `before(args,
        kwargs)` runs first, outside the timed interval (used to set the
        trace id from a call's arguments).
        """
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            span = [name, 0, 0, stack[-1] if stack else -1, self.trace_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[5] = note(result, args, kwargs)
            return result

        return traced

    def write(self, path, meta: dict) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s[0]], s[1], s[2], s[3], s[4], s[5]] for s in self.spans]
        with open(path, "w", encoding="utf-8") as f:
            json.dump({**meta, "names": names,
                       "columns": ["name", "start_ns", "end_ns", "parent", "trace_id", "note"],
                       "spans": rows}, f, separators=(",", ":"))
            f.write("\n")


@contextlib.contextmanager
def rebind(bindings):
    """Temporarily set module attributes: bindings is [(module, attr, value)]."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in bindings]
    try:
        for mod, attr, value in bindings:
            setattr(mod, attr, value)
        yield
    finally:
        for mod, attr, value in saved:
            setattr(mod, attr, value)


def summarize(spans, first: int = 0, last: int | None = None) -> dict:
    """Per-name call counts, inclusive and self time (s), and notes, for
    spans[first:last].  Self time is a span's duration minus the time its
    direct children cover."""
    last = len(spans) if last is None else last
    child_ns = [0] * (last - first)
    for s in spans[first:last]:
        if s[3] >= first:
            child_ns[s[3] - first] += s[2] - s[1]
    out: dict[str, dict] = {}
    for i, s in enumerate(spans[first:last]):
        d = out.setdefault(s[0], {"calls": 0, "incl_ns": 0, "self_ns": 0, "durations_ns": [], "notes": []})
        dur = s[2] - s[1]
        d["calls"] += 1
        d["incl_ns"] += dur
        d["self_ns"] += dur - child_ns[i]
        d["durations_ns"].append(dur)
        if s[5] is not None:
            d["notes"].append(s[5])
    return out
