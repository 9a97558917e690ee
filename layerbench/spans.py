"""In-memory spans around layer boundaries, and the ledger built from them.

A span records its name, start, end, CPU-busy time and parent.  Spans are
appended to flat arrays while the run is traced and only turned into a
per-name ledger (calls, inclusive time, self time) afterwards, so tracing
costs a few appends per call and nothing else.

Two kinds of span exist:

* ``cpu`` spans time work that runs without yielding: every synchronous
  boundary, and ``read_frame``, whose wrapper adds up only the time spent
  inside the coroutine's steps (not the time it is parked waiting for
  bytes).  A cpu span's self time is its busy time minus that of its cpu
  children.
* ``wall`` spans time an awaited call from start to end (client calls,
  owner writes, INVAL/REPL pushes): latency, waiting included.  Their
  children are not subtracted from them.

Parents come from a plain stack for synchronous calls (they cannot
interleave) and from a context variable across awaits (each asyncio task
has its own context, so concurrent requests do not adopt each other's
spans).

Boundaries are wrapped by patching class or module attributes through a
:class:`Patcher`, which restores every original on :meth:`Patcher.undo`.
The program's source is never edited.
"""

from __future__ import annotations

import contextvars
from array import array

import numpy as np

from .common import clock

CPU, WALL = 0, 1


class SpanLog:
    """Flat, append-only span store plus named event counters."""

    def __init__(self):
        self.names = []  # name id -> name
        self.kinds = []  # name id -> CPU | WALL
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.busy = array("d")
        #: event counts from count-only boundaries, plus ``<span>#weight``
        #: totals (e.g. candidates offered to a replacement victim call)
        self.counts = {}
        self._stack = []
        self._current = contextvars.ContextVar("layerbench_span", default=-1)

    def name_id(self, name: str, kind: int) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.kinds.append(kind)
        return nid

    def __len__(self) -> int:
        return len(self.name)

    def mark(self) -> tuple:
        """A position to diff against later: (span count, counter copy)."""
        return len(self.name), dict(self.counts)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    # -- wrappers --------------------------------------------------------------

    def wrap_sync(self, name: str, fn, weigh=None):
        """Wrap a synchronous callable in a cpu span named ``name``.

        ``weigh(*args)`` (optional) returns a number added to the counter
        ``<name>#weight`` on every call.
        """
        nid = self.name_id(name, CPU)
        names, parents = self.name, self.parent
        starts, ends, busy = self.start, self.end, self.busy
        stack, current, counts = self._stack, self._current, self.counts
        weight_key = name + "#weight"

        def span(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else current.get())
            starts.append(0.0)
            ends.append(0.0)
            busy.append(0.0)
            if weigh is not None:
                counts[weight_key] = counts.get(weight_key, 0) + weigh(*args)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
                busy[idx] = t1 - t0

        span.__wrapped__ = fn
        return span

    def wrap_async(self, name: str, fn, kind: int = WALL):
        """Wrap a coroutine function; the span covers the whole await."""
        nid = self.name_id(name, kind)

        def span(*args, **kwargs):
            return _TimedAwait(self, nid, fn(*args, **kwargs))

        span.__wrapped__ = fn
        return span

    def wrap_count(self, name: str, fn):
        """Count calls of ``fn`` under ``name`` without timing them."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- ledger ------------------------------------------------------------------

    def ledger(self, lo: int = 0, hi: int | None = None) -> dict:
        """Per-name ``calls``, ``incl_s``, ``self_s``, ``kind`` of spans ``lo:hi``.

        ``incl_s`` is busy time for cpu spans and end - start for wall
        spans.  ``self_s`` subtracts, from cpu spans only, the busy time of
        their cpu children.  Spans whose parent lies before ``lo`` keep
        their full time.
        """
        hi = len(self.name) if hi is None else hi
        n = hi - lo
        if n <= 0:
            return {}
        name = np.frombuffer(self.name, dtype=np.int32)[lo:hi]
        parent = np.frombuffer(self.parent, dtype=np.int32)[lo:hi]
        busy = np.frombuffer(self.busy, dtype=np.float64)[lo:hi]
        wall = (np.frombuffer(self.end, dtype=np.float64)[lo:hi]
                - np.frombuffer(self.start, dtype=np.float64)[lo:hi])
        kinds = np.asarray(self.kinds, dtype=np.int32)
        is_cpu = kinds[name] == CPU
        local = parent - lo
        inside = (local >= 0) & (local < n)
        # a cpu child is subtracted from a cpu parent only
        sub = inside & is_cpu
        sub[sub] = is_cpu[local[sub]]
        child_busy = np.bincount(local[sub], weights=busy[sub], minlength=n)
        incl = np.where(is_cpu, busy, wall)
        self_t = np.where(is_cpu, busy - child_busy, wall)
        nn = len(self.names)
        calls = np.bincount(name, minlength=nn)
        incl_by = np.bincount(name, weights=incl, minlength=nn)
        self_by = np.bincount(name, weights=self_t, minlength=nn)
        return {
            self.names[i]: {"calls": int(calls[i]), "incl_s": float(incl_by[i]),
                            "self_s": float(self_by[i]),
                            "kind": "cpu" if self.kinds[i] == CPU else "wall"}
            for i in range(nn) if calls[i]
        }

    def save(self, path) -> None:
        """Write the raw spans (``.npz``) for offline inspection."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.asarray(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            busy=np.frombuffer(self.busy, dtype=np.float64),
        )


class _TimedAwait:
    """Awaitable driving a coroutine step by step, timing each step.

    Busy time is the sum of the steps; the span's parent is the context's
    current span, and the span becomes current for everything the
    coroutine runs (or the tasks it creates, which copy the context).
    """

    __slots__ = ("log", "nid", "coro")

    def __init__(self, log: SpanLog, nid: int, coro):
        self.log = log
        self.nid = nid
        self.coro = coro

    def __await__(self):
        log, coro = self.log, self.coro
        idx = len(log.name)
        log.name.append(self.nid)
        log.parent.append(log._stack[-1] if log._stack else log._current.get())
        log.start.append(0.0)
        log.end.append(0.0)
        log.busy.append(0.0)
        token = log._current.set(idx)
        busy = 0.0
        value, err = None, None
        start = clock()
        try:
            while True:
                t0 = clock()
                try:
                    if err is None:
                        yielded = coro.send(value)
                    else:
                        yielded = coro.throw(err)
                except StopIteration as stop:
                    busy += clock() - t0
                    return stop.value
                busy += clock() - t0
                value, err = None, None
                try:
                    value = yield yielded
                except GeneratorExit:
                    coro.close()
                    raise
                except BaseException as exc:  # re-raised inside the coroutine
                    err = exc
        finally:
            log.start[idx] = start
            log.end[idx] = clock()
            log.busy[idx] = busy
            try:
                log._current.reset(token)
            except ValueError:  # closed from another context (collection)
                pass


class Patcher:
    """Attribute patches that can be undone in reverse order."""

    def __init__(self):
        self._undo = []

    def patch(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` with ``make(original)``."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original))

    def undo(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
