"""One shared client transport for the service and cluster protocols.

Every client in the tree — :class:`~repro.service.client.CacheClient`,
the cluster's ``PeerClient`` and ``ClusterClient`` — talks through
:class:`Transport`: binary frames (:mod:`repro.service.protocol`),
request pipelining over multiplexed connections, batch verbs, and retry
with exponential backoff.

There is one framing and no negotiation: the transport dials and sends
frames straight away.  A server that will not serve a connection — at
its connection cap, shutting down, or handed bytes it cannot frame —
answers one ``ERR`` frame with sequence 0 and closes.  Request sequences
start at 1 and never wrap to 0, so the transport turns that frame into a
:class:`ConnectionError` carrying the server's reason, retried like any
other transport failure.
"""

from __future__ import annotations

import asyncio

from ..obs.dist import wire_token
from .protocol import (
    FrameEncoder,
    FrameError,
    PayloadReader,
    STATUS_NAMES,
    encode_request,
    read_frame,
)


class ServerError(Exception):
    """The server answered a request with an ``ERR`` frame (not retried)."""


class Reply:
    """One decoded response.

    ``status`` is the status name (``"VALUE"``, ``"STORED"``, ...);
    ``body`` carries blob payloads (VALUE, STATS, METRICS, TRACE,
    CSTATUS); ``values`` carries batch payloads — a list of
    ``bytes | None`` for VALUES, a list of ``bool`` for STATUSES.
    """

    __slots__ = ("status", "body", "values")

    def __init__(self, status, body=None, values=None):
        self.status = status
        self.body = body
        self.values = values

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Reply({self.status}, body={self.body!r:.40}, values={self.values!r:.40})"


class _MuxConn:
    """One multiplexed connection: many in-flight frames, one reader.

    Requests are tagged with a per-connection sequence id; a background
    read loop matches response frames back to caller futures, so any
    number of tasks can pipeline through one socket.  A caller that
    times out or is cancelled just abandons its sequence id — the late
    response is dropped on arrival and the connection stays healthy.
    """

    __slots__ = ("transport", "reader", "writer", "enc", "pending",
                 "next_seq", "dead", "task")

    def __init__(self, transport, reader, writer):
        self.transport = transport
        self.reader = reader
        self.writer = writer
        self.enc = FrameEncoder()
        self.pending = {}  # seq -> Future[Frame]
        self.next_seq = 1
        self.dead = False
        self.task = asyncio.ensure_future(self._read_loop())

    async def _read_loop(self):
        try:
            while True:
                frame = await read_frame(self.reader)
                if frame is None:
                    raise ConnectionError("server closed connection")
                if frame.seq == 0:
                    # the server refused the connection (cap reached,
                    # shutting down, or our stream was unframeable)
                    raise ConnectionError(
                        "server refused connection: "
                        + frame.payload.decode("utf-8", "replace")
                    )
                fut = self.pending.pop(frame.seq, None)
                if fut is not None and not fut.done():
                    fut.set_result(frame)
        except asyncio.CancelledError:
            raise
        except (FrameError, ConnectionError, OSError,
                asyncio.IncompleteReadError) as exc:
            self._fail(exc)

    def _fail(self, exc) -> None:
        """Mark the connection dead and fail every in-flight caller."""
        self.dead = True
        pending, self.pending = self.pending, {}
        for fut in pending.values():
            if not fut.done():
                fut.set_exception(ConnectionError(str(exc)))
        self.writer.close()
        self.transport._drop_mux(self)

    async def call(self, verb: str, fields, token, timeout: float):
        """Send one frame and await its matching response frame."""
        seq = self.next_seq
        self.next_seq = (self.next_seq % 0xFFFFFFFF) + 1
        payload = encode_request(self.enc, verb, fields, seq, token)
        fut = asyncio.get_event_loop().create_future()
        self.pending[seq] = fut
        try:
            self.writer.write(payload)
            await self.writer.drain()
            return await asyncio.wait_for(fut, timeout)
        finally:
            self.pending.pop(seq, None)

    async def aclose(self):
        self.dead = True
        self.task.cancel()
        try:
            await self.task
        except (asyncio.CancelledError, Exception):
            pass
        pending, self.pending = self.pending, {}
        for fut in pending.values():
            if not fut.done():
                fut.set_exception(ConnectionError("transport closed"))
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class Transport:
    """Pipelining, retrying request transport.

    One instance per (host, port) client; shared by many concurrent
    coroutines, which pipeline through up to ``mux_conns`` multiplexed
    connections.  Transient transport failures are retried with
    exponential backoff up to ``max_retries`` attempts; ``ERR`` answers
    raise :class:`ServerError` immediately and are never retried.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 9876,
        max_retries: int = 3,
        backoff: float = 0.05,
        timeout: float = 5.0,
        mux_conns: int = 1,
    ):
        self.host = host
        self.port = port
        self.max_retries = max_retries
        self.backoff = backoff
        self.timeout = timeout
        self.mux_conns = max(1, mux_conns)
        self._mux = []  # live _MuxConn instances
        self._next_mux = 0
        self._closed = False

    async def call(self, verb: str, *fields, trace=None) -> Reply:
        """Send ``verb`` with positional ``fields``; returns a :class:`Reply`.

        Retries transient transport failures and raises
        :class:`ServerError` on an ``ERR`` answer.  ``trace`` is a
        :class:`~repro.obs.dist.TraceContext` carried as the typed trace
        frame field.
        """
        if self._closed:
            raise RuntimeError("client is closed")
        token = wire_token(trace) if trace is not None else None
        attempt = 0
        while True:
            try:
                conn = await self._pick_mux()
                frame = await conn.call(verb, fields, token, self.timeout)
                return self._reply(frame)
            except asyncio.CancelledError:
                raise
            except (ConnectionError, asyncio.IncompleteReadError,
                    asyncio.TimeoutError, OSError) as exc:
                attempt += 1
                if attempt > self.max_retries:
                    raise ConnectionError(
                        f"request failed after {attempt} attempts: {exc}"
                    ) from exc
                await asyncio.sleep(self.backoff * (2 ** (attempt - 1)))

    def _reply(self, frame) -> Reply:
        status = STATUS_NAMES.get(frame.verb_id)
        if status is None:
            raise ConnectionError(f"unknown status id {frame.verb_id}")
        if status == "ERR":
            raise ServerError(frame.payload.decode("utf-8", "replace"))
        if status == "VALUES":
            rd = PayloadReader(frame.payload)
            values = [rd.value() if rd.u8() else None
                      for _ in range(rd.u32())]
            return Reply(status, values=values)
        if status == "STATUSES":
            rd = PayloadReader(frame.payload)
            values = [bool(rd.u8()) for _ in range(rd.u32())]
            return Reply(status, values=values)
        return Reply(status, body=frame.payload if frame.payload else None)

    # -- connection management ------------------------------------------------

    async def _pick_mux(self) -> _MuxConn:
        """Round-robin over live mux connections, dialing up to the cap."""
        self._mux = [c for c in self._mux if not c.dead]
        if len(self._mux) < self.mux_conns:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(self.host, self.port), self.timeout
            )
            conn = _MuxConn(self, reader, writer)
            # repro: atomic=concurrent dialers may briefly overshoot mux_conns; every conn is registered, so close() still reaps all of them
            self._mux.append(conn)
            return conn
        self._next_mux = (self._next_mux + 1) % len(self._mux)
        return self._mux[self._next_mux]

    def _drop_mux(self, conn) -> None:
        if conn in self._mux:
            self._mux.remove(conn)

    async def close(self) -> None:
        """Close every connection, failing any request still in flight."""
        self._closed = True
        for conn in list(self._mux):
            await conn.aclose()
            # repro: atomic=iterating a snapshot; _drop_mux is a no-op for conns a concurrent _read_loop failure already removed
            self._drop_mux(conn)
