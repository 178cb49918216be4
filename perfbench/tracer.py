"""Span tracing from outside the program: wrap public functions, keep spans.

The benchmark measures end-to-end numbers with nothing patched.  For the
per-layer split it runs again with :class:`Tracer` installed: every public
function listed in :data:`perfbench.layers.SITES` is replaced by a wrapper
that records one span (name, start, end, parent, program id) and charges
the span's *self* time (its duration minus the time its child spans
cover) to a metric key such as ``core.on_batch``.  The first dot-separated
part of a key is its layer, named after the package module it wraps.

Spans stay in memory (compact typed arrays) and are written once, when
the run ends.  :meth:`Tracer.uninstall` puts every original back, so the
untraced measurements before and after a traced window run pristine code.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

#: Spans kept for the written trace.  Past this many, spans are still timed
#: and aggregated but no longer stored (the count is in the file header).
MAX_STORED_SPANS = 300_000


class _SpannedContext:
    """A context manager whose enter and exit each run inside a span."""

    def __init__(self, inner, enter, exit_):
        self._inner = inner
        self._enter = enter
        self._exit = exit_

    def __enter__(self):
        return self._enter(self._inner)

    def __exit__(self, *exc):
        return self._exit(self._inner, *exc)


class Tracer:
    """In-memory span recorder that patches functions for one window."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: Free-form counters the site hooks bump (bytes, batch sizes, ...).
        self.counters: dict[str, float] = defaultdict(float)
        #: Objects the site hooks collect (e.g. every detector instance).
        self.instances: list = []
        #: Id of the program or session every new span belongs to.
        self.program = -1
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._stack: list[list] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object, bool]] = []
        self.stored = 0
        self.dropped = 0
        self._ids = array("q")
        self._parents = array("q")
        self._name_col = array("i")
        self._programs = array("q")
        self._starts = array("d")
        self._ends = array("d")

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        had = attr in vars(owner)
        self._patched.append((owner, attr, getattr(owner, attr), had))
        setattr(owner, attr, value)

    def wrap_method(self, cls, attr: str, key: str, *, span=True, before=None, after=None, context=False) -> None:
        """Wrap ``cls.attr`` (looked up through the MRO) for this window."""
        original = getattr(cls, attr)
        if context:
            wrapper = self._context_wrapper(original, key)
        else:
            wrapper = self._wrapper(original, attr, key, span, before, after)
        self._set(cls, attr, wrapper)

    def wrap_function(self, module, attr: str, key: str, *, before=None) -> None:
        """Wrap a module-level function wherever a ``repro`` module bound it."""
        original = getattr(module, attr)
        wrapper = self._wrapper(original, attr, key, True, before, None)
        for name, loaded in list(sys.modules.items()):
            if name.split(".")[0] == "repro" and getattr(loaded, attr, None) is original:
                self._set(loaded, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patched:
            owner, attr, original, had = self._patched.pop()
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- spans -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return nid

    def _wrapper(self, fn, attr, key, span, before, after):
        calls = self.calls
        if not span:
            # Count-only site: a span per call here would cost more than the
            # call itself (the columnar bus's append-only publish_access).
            def counted(*args, **kwargs):
                calls[key] += 1
                if before is not None:
                    before(args)
                return fn(*args, **kwargs)

            return counted

        nid = self._name_id(f"{key}:{attr}")
        self_s = self.self_s
        stack = self._stack
        clock = self.clock
        record = self._record

        def spanned(*args, **kwargs):
            if before is not None:
                before(args)
            sid = self._next_id
            self._next_id = sid + 1
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s[key] += duration - frame[1]
                calls[key] += 1
                if stack:
                    parent = stack[-1]
                    parent[1] += duration
                    record(sid, parent[0], nid, start, end)
                else:
                    record(sid, -1, nid, start, end)
            if after is not None:
                after(args, result)
            return result

        return spanned

    def _context_wrapper(self, fn, key):
        enter = self._wrapper(lambda cm: cm.__enter__(), "__enter__", key, True, None, None)
        exit_ = self._wrapper(lambda cm, *exc: cm.__exit__(*exc), "__exit__", key, True, None, None)
        make = self._wrapper(fn, "__call__", key, True, None, None)

        def contextual(*args, **kwargs):
            return _SpannedContext(make(*args, **kwargs), enter, exit_)

        return contextual

    def _record(self, sid, parent, nid, start, end) -> None:
        if self.stored >= MAX_STORED_SPANS:
            self.dropped += 1
            return
        self.stored += 1
        self._ids.append(sid)
        self._parents.append(parent)
        self._name_col.append(nid)
        self._programs.append(self.program)
        self._starts.append(start)
        self._ends.append(end)

    # -- results -----------------------------------------------------------

    def write(self, path: Path, header: dict) -> None:
        """Write the kept spans as gzipped JSON lines: a header, then one per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as sink:
            sink.write(
                json.dumps({**header, "spans": self.stored, "dropped": self.dropped}) + "\n"
            )
            names = self._names
            for i in range(self.stored):
                sink.write(
                    '{"id":%d,"parent":%d,"name":"%s","program":%d,"start":%.9f,"end":%.9f}\n'
                    % (
                        self._ids[i],
                        self._parents[i],
                        names[self._name_col[i]],
                        self._programs[i],
                        self._starts[i],
                        self._ends[i],
                    )
                )
