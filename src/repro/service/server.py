"""Asyncio TCP front end for a :class:`~repro.service.sharding.ShardedStore`.

The server speaks the binary frame protocol of :mod:`repro.service.protocol`
(magic byte ``0xA8``; pipelined requests, batch verbs, typed trace field —
see ``docs/protocol.md``).  Every verb has one dispatch arm, in
:meth:`CacheServer._serve_frame`:

======================  ==============================================
request                 response status
======================  ==============================================
``GET key``             ``VALUE`` (value blob) or ``MISS``
``SET key value``       ``STORED`` or ``TAGGED``
``DEL key``             ``DELETED`` or ``NOTFOUND``
``MGET keys``           ``VALUES`` (one optional value per key)
``MSET items``          ``STATUSES`` (one stored-flag per item)
``MDEL keys``           ``STATUSES`` (one removed-flag per key)
``STATS``               ``STATS`` (JSON blob)
``METRICS``             ``METRICS`` (Prometheus text blob)
``TRACE``               ``TRACE`` (JSONL blob; drains the trace ring)
``PING``                ``PONG``
``QUIT``                ``BYE`` and the connection closes
======================  ==============================================

A request may carry a trace token (see :mod:`repro.obs.dist`): the server
opens its request span as a *child* of the caller's span, so a cluster
write and the INVAL fan-out it triggers on peer nodes merge into one
causal tree.  The token is ignored when tracing is off.

``TAGGED`` is the protocol-visible face of selective allocation: the server
*declined* to store the value but recorded the key in the tag directory, so
a client re-offering after the next miss will see ``STORED``.  A malformed
payload or a request that exceeds ``request_timeout`` gets an ``ERR`` frame
echoing its sequence and the connection stays usable.  A stream the server
cannot frame (bad magic, truncation, oversize) gets one ``ERR`` frame with
sequence 0 and a reason, and the connection closes.

Operational guards:

* ``max_connections`` — further clients get a sequence-0 ``ERR busy``
  frame and are closed;
* per-request timeouts via :func:`asyncio.wait_for`;
* graceful shutdown — :meth:`CacheServer.stop` stops accepting, waits for
  in-flight requests to drain (bounded by ``drain_timeout``), then closes
  idle connections.

Request latency is recorded into the owning shard's stats, so STATS reports
per-shard p50/p99 and accumulated busy seconds alongside hit and admission
counters, plus a ``"process"`` block (pid, cumulative CPU seconds, peak
RSS) for the serving process as a whole.

Observability (:mod:`repro.obs`) is opt-in via the ``obs`` constructor
argument: with an enabled registry the server labels request counters and
latency histograms by command, samples its own event-loop lag, exposes
connection-pool gauges, serves the whole registry over the ``METRICS`` verb
and embeds a registry snapshot under the ``"obs"`` key of STATS.  With an
enabled tracer every request becomes a Chrome-trace span on the owning
shard's process lane, with the connection id as the thread lane.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os

from ..obs import Observability
from ..obs.dist import (
    DECISION_EVENTS,
    CAT_AUDIT,
    SpanIds,
    current_context,
    leaf_args,
    parse_token,
    span_args,
    use_context,
)
from ..obs.logging import get_logger
from ..obs.prof import clock, process_resources
from ..obs.tracing import CAT_REQUEST
from .protocol import (
    MAX_FRAME_PAYLOAD,
    STATUS_IDS,
    VERB_NAMES,
    FieldError,
    FrameEncoder,
    FrameError,
    decode_request_fields,
    decode_trace,
    read_frame,
)
from .sharding import ShardedStore

log = get_logger(__name__)

#: verbs whose first key records per-shard request latency
_KEYED_VERBS = ("GET", "SET", "DEL", "MGET", "MSET", "MDEL")

#: default span-id prefixes for servers not given one (cluster nodes pass
#: their node name); a plain counter keeps ids deterministic per process
_SERVER_SEQ = itertools.count(1)


class ProtocolError(Exception):
    """Client sent a malformed request; answered with an ``ERR`` frame."""


class _Quit(Exception):
    """Internal: client sent QUIT; close the connection cleanly."""


class CacheServer:
    """Serve a :class:`ShardedStore` over TCP with asyncio."""

    def __init__(
        self,
        store: ShardedStore,
        host: str = "127.0.0.1",
        port: int = 0,
        max_connections: int = 256,
        request_timeout: float = 5.0,
        obs: Observability | None = None,
        trace_ids: SpanIds | None = None,
    ):
        self.store = store
        self.host = host
        self.port = port  # rewritten with the bound port after start()
        self.max_connections = max_connections
        self.request_timeout = request_timeout
        self.obs = obs if obs is not None else Observability.disabled()
        self._trace_ids = (trace_ids if trace_ids is not None
                           else SpanIds(f"srv{next(_SERVER_SEQ)}"))
        #: most recent event-loop lag sample (0.0 until measured); CSTATUS
        #: surfaces it so ``repro top --cluster`` can show saturation
        self.eventloop_lag = 0.0
        #: clock() at bind time (None before start()); STATS reports uptime
        self.started_at = None
        #: connections accepted (past the cap) since start; STATS, CSTATUS,
        #: ``/metrics`` and ``repro top`` all read this one count
        self.connections_accepted = 0
        if (self.obs.tracer.enabled
                and hasattr(store, "set_decision_listener")):
            store.set_decision_listener(self._on_store_decision)
        self._server = None
        self._writers = set()
        self._inflight = 0
        self._stopping = False
        self._next_conn_id = 0
        self._lag_task = None
        registry = self.obs.registry
        if registry.enabled:
            registry.gauge_callback(
                "repro_service_connections",
                lambda: float(len(self._writers)),
                help="currently open client connections",
            )
            registry.gauge_callback(
                "repro_service_inflight",
                lambda: float(self._inflight),
                help="requests currently being processed",
            )
            registry.gauge_callback(
                "repro_service_connections_accepted",
                lambda: float(self.connections_accepted),
                help="connections accepted since start",
            )
            registry.gauge(
                "repro_service_max_connections",
                help="connection cap (further clients get ERR busy)",
            ).set(float(max_connections))

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting; ``self.port`` holds the real port."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.started_at = clock()
        if self.obs.registry.enabled:
            self._lag_task = asyncio.ensure_future(self._measure_eventloop_lag())
        log.info("serving on %s:%d (%d shards, admission=%s)",
                 self.host, self.port, self.store.num_shards, self.store.admission)

    async def serve_forever(self) -> None:
        """Block serving requests until cancelled or :meth:`stop` is called."""
        if self._server is None:
            # repro: atomic=lifecycle is driven by one owner task; a racing second start() raises rather than double-binding
            await self.start()
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    async def stop(self, drain_timeout: float = 5.0) -> None:
        """Graceful shutdown: stop accepting, drain in-flight, close idle.

        Requests already being processed (a fully received frame whose
        handler has not answered yet) are given ``drain_timeout`` seconds
        to complete and be answered; connections sitting idle between
        requests — including one holding a partly received frame, which is
        not in flight — are then closed.
        """
        self._stopping = True
        log.info("stopping: draining %d in-flight request(s)", self._inflight)
        if self._lag_task is not None:
            self._lag_task.cancel()
            self._lag_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + drain_timeout
        while self._inflight and loop.time() < deadline:
            await asyncio.sleep(0.005)
        for writer in list(self._writers):
            writer.close()
        while self._writers and loop.time() < deadline:
            await asyncio.sleep(0.005)
        log.info("stopped")

    async def _measure_eventloop_lag(self, interval: float = 0.25) -> None:
        """Sample how late ``asyncio.sleep`` wakes: a saturation signal.

        A healthy loop wakes within a millisecond or two of the deadline;
        lag grows when request handlers monopolise the loop.
        """
        gauge = self.obs.registry.gauge(
            "repro_service_eventloop_lag_seconds",
            help="how late the event loop wakes from a timed sleep",
        )
        loop = asyncio.get_running_loop()
        try:
            while True:
                before = loop.time()
                await asyncio.sleep(interval)
                self.eventloop_lag = max(0.0, loop.time() - before - interval)
                gauge.set(self.eventloop_lag)
        except asyncio.CancelledError:
            pass

    @property
    def connections(self) -> int:
        """Number of currently open client connections."""
        return len(self._writers)

    @property
    def draining(self) -> bool:
        """True once :meth:`stop` began: rejecting new work, draining old.

        ``/healthz`` and ``/readyz`` (:mod:`repro.obs.http`) read this so
        a load balancer stops routing to a node the moment it drains.
        """
        return self._stopping

    @property
    def uptime_s(self) -> float:
        """Seconds since the listener bound (0.0 before :meth:`start`)."""
        if self.started_at is None:
            return 0.0
        return max(0.0, clock() - self.started_at)

    @property
    def inflight(self) -> int:
        """Number of requests currently being processed."""
        return self._inflight

    # -- connection handling --------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        enc = FrameEncoder()
        if self._stopping or len(self._writers) >= self.max_connections:
            reason = "shutting down" if self._stopping else "busy"
            log.warning("rejecting connection: %s", reason)
            writer.write(enc.simple(STATUS_IDS["ERR"], 0, reason.encode()))
            try:
                await writer.drain()
            except (ConnectionError, asyncio.CancelledError):
                pass
            writer.close()
            return
        self.connections_accepted += 1
        self._next_conn_id += 1
        conn_id = self._next_conn_id
        log.debug("connection %d opened", conn_id)
        self._writers.add(writer)
        try:
            await self._serve_connection(reader, writer, conn_id, enc)
        except FrameError as exc:
            log.warning("connection %d: unframeable stream (%s), dropping",
                        conn_id, exc)
            writer.write(enc.simple(STATUS_IDS["ERR"], 0,
                                    str(exc).encode("utf-8")))
            try:
                await writer.drain()
            except ConnectionError:
                pass
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client vanished mid-request
        finally:
            self._writers.discard(writer)
            log.debug("connection %d closed", conn_id)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve_connection(self, reader, writer, conn_id: int,
                                enc) -> None:
        """The frame loop: frames are handled as fast as they arrive.

        Pipelining falls out of the framing: every request is fully read
        before dispatch, so the loop never waits on the client mid-request
        and many frames can be in flight per connection.  A malformed
        payload or a timed-out handler answers with an ERR frame and the
        connection stays usable (the stream framing is still trusted);
        only an unframeable byte stream (:class:`FrameError`) drops it.
        The first byte is read on its own so a stream that does not open
        with the magic byte is refused at once, not after a full header.
        """
        first = await reader.read(1)
        if not first:
            return
        frame = await read_frame(reader, MAX_FRAME_PAYLOAD, first)
        while frame is not None and not self._stopping:
            self._inflight += 1
            try:
                await asyncio.wait_for(
                    self._handle_frame(frame, enc, writer, conn_id),
                    self.request_timeout,
                )
            except asyncio.TimeoutError:
                log.warning("connection %d: request timed out", conn_id)
                writer.write(enc.simple(STATUS_IDS["ERR"], frame.seq,
                                        b"timeout"))
                await writer.drain()
            except (ProtocolError, FieldError) as exc:
                writer.write(enc.simple(STATUS_IDS["ERR"], frame.seq,
                                        str(exc).encode("utf-8")))
                await writer.drain()
            except _Quit:
                break
            finally:
                self._inflight -= 1
            frame = await read_frame(reader)

    async def _handle_frame(self, frame, enc, writer, conn_id: int = 0) -> None:
        """Handle one request frame: decode, dispatch, record.

        The trace token is split off before the fields are decoded; with
        tracing enabled the dispatch runs under the request's span context
        (:func:`use_context`), which is how fan-outs deep inside the
        cluster layer find their parent.
        """
        verb = VERB_NAMES.get(frame.verb_id)
        if verb is None:
            raise ProtocolError(f"unknown verb id {frame.verb_id}")
        token, rd = decode_trace(frame)
        fields = decode_request_fields(verb, rd)
        wire_ctx = parse_token(token) if token is not None else None
        start = clock()
        tr = self.obs.tracer
        if tr.enabled:
            ctx = self._trace_ids.begin(wire_ctx)
            with use_context(ctx):
                outcome = await self._serve_frame(
                    verb, fields, frame.seq, enc, writer, conn_id
                )
        else:
            ctx = None
            outcome = await self._serve_frame(
                verb, fields, frame.seq, enc, writer, conn_id
            )
        await writer.drain()
        parts = [verb]
        first_key = _first_key(fields)
        if first_key is not None:
            parts.append(first_key)
        self._record_request(
            verb, parts, start, clock() - start, conn_id, ctx, outcome
        )

    async def _serve_frame(self, cmd: str, fields: list, seq: int, enc,
                           writer, conn_id: int = 0):
        """Dispatch one decoded frame; returns the outcome label (or None).

        ``cmd`` is the verb name resolved from the frame's verb id and
        ``fields`` its typed payload fields (``REQUEST_FIELDS`` order).
        Responses are written but not yet drained (the caller drains
        once).  FLOW003 extracts the served verbs from the ``cmd``
        comparisons in this method — a new verb needs its arm here, a
        spec entry, a ``VERB_IDS`` id and a client sender.
        """
        if cmd == "GET":
            value = self.store.get(fields[0])
            if value is None:
                writer.write(enc.simple(STATUS_IDS["MISS"], seq))
                return "miss"
            writer.write(enc.simple(STATUS_IDS["VALUE"], seq, value))
            return "hit"
        elif cmd == "SET":
            stored = await self._apply_set(fields[0], fields[1])
            writer.write(enc.simple(
                STATUS_IDS["STORED" if stored else "TAGGED"], seq
            ))
            return "stored" if stored else "tagged"
        elif cmd == "DEL":
            removed = await self._apply_delete(fields[0])
            writer.write(enc.simple(
                STATUS_IDS["DELETED" if removed else "NOTFOUND"], seq
            ))
            return "deleted" if removed else "notfound"
        elif cmd == "MGET":
            keys = fields[0]
            enc.begin(STATUS_IDS["VALUES"], seq)
            enc.put_u32(len(keys))
            for key in keys:
                value = self.store.get(key)
                if value is None:
                    enc.put_u8(0)
                else:
                    enc.put_u8(1)
                    enc.put_bytes(value)
            writer.write(enc.finish())
        elif cmd == "MSET":
            items = fields[0]
            flags = []
            for key, value in items:
                flags.append(await self._apply_set(key, value))
            enc.begin(STATUS_IDS["STATUSES"], seq)
            enc.put_u32(len(flags))
            for flag in flags:
                enc.put_u8(1 if flag else 0)
            writer.write(enc.finish())
        elif cmd == "MDEL":
            keys = fields[0]
            flags = []
            for key in keys:
                flags.append(await self._apply_delete(key))
            enc.begin(STATUS_IDS["STATUSES"], seq)
            enc.put_u32(len(flags))
            for flag in flags:
                enc.put_u8(1 if flag else 0)
            writer.write(enc.finish())
        elif cmd == "STATS":
            writer.write(enc.simple(STATUS_IDS["STATS"], seq,
                                    self._stats_payload()))
        elif cmd == "METRICS":
            writer.write(enc.simple(
                STATUS_IDS["METRICS"], seq,
                self.obs.registry.to_prometheus().encode("utf-8"),
            ))
        elif cmd == "TRACE":
            writer.write(enc.simple(STATUS_IDS["TRACE"], seq,
                                    self.obs.tracer.drain().encode("utf-8")))
        elif cmd == "PING":
            writer.write(enc.simple(STATUS_IDS["PONG"], seq))
        elif cmd == "QUIT":
            writer.write(enc.simple(STATUS_IDS["BYE"], seq))
            await writer.drain()
            raise _Quit
        else:
            raise ProtocolError(f"unknown command {cmd!r}")
        return None

    # -- write hooks (the cluster layer overrides these for coherence) --------

    async def _apply_set(self, key: str, value: bytes) -> bool:
        """Apply one SET; subclasses add cross-node invalidation."""
        return self.store.set(key, value)

    async def _apply_delete(self, key: str) -> bool:
        """Apply one DEL; subclasses add cross-node invalidation."""
        return self.store.delete(key)

    def server_info(self) -> dict:
        """The ``"server"`` block of STATS: uptime and connection mix."""
        return {
            "uptime_s": self.uptime_s,
            "connections_open": len(self._writers),
            "connections_accepted": self.connections_accepted,
            "draining": self._stopping,
            "eventloop_lag_s": self.eventloop_lag,
        }

    def _stats_payload(self) -> bytes:
        """The STATS JSON document."""
        snapshot = self.store.stats_snapshot()
        snapshot["process"] = {"pid": os.getpid(), **process_resources()}
        snapshot["server"] = self.server_info()
        if self.obs.registry.enabled:
            snapshot["obs"] = self.obs.registry.snapshot()
        return json.dumps(snapshot).encode("utf-8")

    def _record_request(self, cmd: str, parts: list, start: float,
                        elapsed: float, conn_id: int, ctx, outcome) -> None:
        """Latency, counters and the request span for one answered request."""
        shard_idx = 0
        key = None
        if cmd in _KEYED_VERBS and len(parts) > 1:
            key = parts[1]
            shard_idx = self.store.shard_of(key)
            self.store.shards[shard_idx].stats.record_latency(elapsed)
        registry = self.obs.registry
        if registry.enabled:
            registry.counter(
                "repro_service_requests_total",
                help="requests answered, by command",
                cmd=cmd,
            ).inc()
            registry.histogram(
                "repro_service_request_latency_seconds",
                help="request service time, by command",
                cmd=cmd,
            ).observe(elapsed)
        tr = self.obs.tracer
        # the TRACE verb's own span would pollute the batch after a drain
        if tr.enabled and cmd != "TRACE":
            extra = {}
            if key is not None:
                extra["key"] = key
            if outcome is not None:
                extra["outcome"] = outcome
            tr.emit(
                cmd, cat=CAT_REQUEST, ts=start, pid=shard_idx, tid=conn_id,
                dur=elapsed, args=span_args(ctx, **extra),
            )

    def _on_store_decision(self, key: str, decision: str) -> None:
        """Store decision hook -> audit instant on the active request span.

        Installed only when tracing is on (the obs-off store keeps a bare
        ``None`` listener); runs under the store lock, so it only appends
        to the ring.
        """
        name = DECISION_EVENTS.get(decision)
        if name is None:
            return
        self.obs.tracer.emit(
            name, cat=CAT_AUDIT, ts=clock(), pid=self.store.shard_of(key),
            tid=0, args=leaf_args(current_context(), key=key),
        )


def _first_key(fields: list):
    """The first key named by a frame's fields, for latency attribution.

    Batch payloads attribute the whole frame to their first key's shard —
    the same approximation STATS already makes for per-shard latency.
    """
    if not fields:
        return None
    first = fields[0]
    if isinstance(first, str):
        return first
    if isinstance(first, list) and first:
        item = first[0]
        if isinstance(item, tuple):
            return item[0]
        if isinstance(item, str):
            return item
    return None


async def run_server(server: CacheServer) -> None:
    """Start ``server`` and serve until cancelled, then stop gracefully."""
    await server.start()
    try:
        await server.serve_forever()
    finally:
        await server.stop()
