"""Tests for the v2 wire protocol: codec, framing fuzz cases, dialing,
pipelining, batch verbs, and the unified transport."""

import asyncio
import struct

import pytest

from repro.service import CacheClient, CacheServer, ServerError, ShardedStore
from repro.service.protocol import (
    FLAG_TRACE,
    HEADER_SIZE,
    MAGIC,
    MAX_BATCH_ITEMS,
    MAX_FRAME_PAYLOAD,
    REQUEST_FIELDS,
    STATUS_IDS,
    STATUS_NAMES,
    VERB_IDS,
    VERSION,
    FieldError,
    FrameEncoder,
    FrameError,
    PayloadReader,
    decode_request_fields,
    decode_trace,
    encode_request,
    read_frame,
)
from repro.service.transport import Transport


def run(coro):
    """Drive one async test body (no pytest-asyncio in the toolchain)."""
    return asyncio.run(asyncio.wait_for(coro, 60))


def feed(*chunks, eof=True):
    """A StreamReader pre-loaded with ``chunks``."""
    reader = asyncio.StreamReader()
    for chunk in chunks:
        reader.feed_data(chunk)
    if eof:
        reader.feed_eof()
    return reader


async def _started_server(**kwargs):
    kwargs.setdefault("num_shards", 2)
    kwargs.setdefault("data_capacity", 64)
    store = ShardedStore(**kwargs)
    server = CacheServer(store, port=0)
    await server.start()
    return server


# ---------------------------------------------------------------------------
# codec round-trips
# ---------------------------------------------------------------------------


SAMPLE_FIELDS = {
    "key": "line:deadbeef",
    "peer": "127.0.0.1:7070",
    "value": b"\x00\x01payload",
    "version": 2 ** 40 + 7,
    "keys": ["a", "b", "c"],
    "items": [("a", b"1"), ("b", b"")],
    "blob": b"raw tail bytes",
}


class TestCodecRoundtrip:
    def test_every_verb_roundtrips(self):
        async def body():
            enc = FrameEncoder()
            for verb, kinds in REQUEST_FIELDS.items():
                fields = [SAMPLE_FIELDS[k] for k in kinds]
                raw = encode_request(enc, verb, fields, seq=17)
                frame = await read_frame(feed(raw))
                assert frame.verb_id == VERB_IDS[verb]
                assert frame.seq == 17
                token, rd = decode_trace(frame)
                assert token is None
                assert decode_request_fields(verb, rd) == fields
        run(body())

    def test_status_names_cover_ids(self):
        assert set(STATUS_NAMES) == set(STATUS_IDS.values())

    def test_trace_token_roundtrips(self):
        async def body():
            enc = FrameEncoder()
            raw = encode_request(
                enc, "GET", ["k"], seq=1, trace="T=abc123/0007"
            )
            frame = await read_frame(feed(raw))
            assert frame.flags & FLAG_TRACE
            token, rd = decode_trace(frame)
            assert token == "T=abc123/0007"
            assert decode_request_fields("GET", rd) == ["k"]
        run(body())

    def test_encoder_buffer_reuse_is_clean(self):
        # a short frame after a long one must not leak stale bytes
        async def body():
            enc = FrameEncoder()
            encode_request(enc, "SET", ["k", b"x" * 4096], seq=1)
            raw = encode_request(enc, "GET", ["k"], seq=2)
            frame = await read_frame(feed(raw))
            _, rd = decode_trace(frame)
            assert decode_request_fields("GET", rd) == ["k"]
            assert rd.exhausted
        run(body())

    def test_clean_eof_returns_none(self):
        async def body():
            assert await read_frame(feed(b"")) is None
        run(body())

    def test_sniffed_first_byte_is_prepended(self):
        async def body():
            raw = FrameEncoder().simple(VERB_IDS["PING"], 9)
            frame = await read_frame(feed(raw[1:]), first_byte=raw[:1])
            assert frame.verb_id == VERB_IDS["PING"]
            assert frame.seq == 9
        run(body())


# ---------------------------------------------------------------------------
# framing fuzz: truncation, corruption, oversize
# ---------------------------------------------------------------------------


class TestFramingErrors:
    def _whole(self):
        return FrameEncoder().simple(
            VERB_IDS["SET"], 3, b"\x00\x01k\x00\x00\x00\x01v"
        )

    def test_every_truncation_point_raises(self):
        async def body():
            raw = self._whole()
            for cut in range(1, len(raw)):
                with pytest.raises(FrameError):
                    await read_frame(feed(raw[:cut]))
        run(body())

    def test_bad_magic_raises(self):
        async def body():
            raw = bytearray(self._whole())
            raw[0] = 0x41  # 'A' — looks like a text line
            with pytest.raises(FrameError, match="bad magic"):
                await read_frame(feed(bytes(raw)))
        run(body())

    def test_bad_version_raises(self):
        async def body():
            raw = bytearray(self._whole())
            raw[1] = VERSION + 1
            with pytest.raises(FrameError, match="version"):
                await read_frame(feed(bytes(raw)))
        run(body())

    def test_oversized_payload_is_rejected_without_reading_it(self):
        async def body():
            header = struct.pack(
                ">BBBBII", MAGIC, VERSION, VERB_IDS["SET"], 0, 1,
                MAX_FRAME_PAYLOAD + 1,
            )
            with pytest.raises(FrameError, match="too large"):
                await read_frame(feed(header, eof=False))
        run(body())

    def test_payload_truncated_mid_field_is_field_error(self):
        async def body():
            enc = FrameEncoder()
            raw = encode_request(enc, "SET", ["k", b"vvvv"], seq=1)
            # keep the frame boundary intact but lie about a field length
            body_bytes = bytearray(raw)
            # key u16 length claims more bytes than the payload holds
            struct.pack_into(">H", body_bytes, HEADER_SIZE, 0x4000)
            frame = await read_frame(feed(bytes(body_bytes)))
            _, rd = decode_trace(frame)
            with pytest.raises(FieldError):
                decode_request_fields("SET", rd)
        run(body())

    def test_batch_over_cap_is_field_error(self):
        enc = FrameEncoder()
        with pytest.raises(FieldError, match="batch too large"):
            encode_request(
                enc, "MGET", [["k"] * (MAX_BATCH_ITEMS + 1)], seq=1
            )

    def test_pipelined_frames_split_across_reads(self):
        async def body():
            enc = FrameEncoder()
            raws = [
                encode_request(enc, "GET", [f"k{i}"], seq=i)
                for i in range(4)
            ]
            stream = b"".join(raws)
            # split at awkward boundaries: mid-header and mid-payload
            cuts = [3, HEADER_SIZE + 1, len(raws[0]) + 5, len(stream) - 2]
            chunks, prev = [], 0
            for cut in cuts:
                chunks.append(stream[prev:cut])
                prev = cut
            chunks.append(stream[prev:])
            reader = feed(*chunks)
            for i in range(4):
                frame = await read_frame(reader)
                assert frame.seq == i
                _, rd = decode_trace(frame)
                assert decode_request_fields("GET", rd) == [f"k{i}"]
            assert await read_frame(reader) is None
        run(body())


class TestPayloadReader:
    def test_reads_are_sequential_and_bounded(self):
        rd = PayloadReader(struct.pack(">HIQ", 7, 8, 9))
        assert rd.u16() == 7
        assert rd.u32() == 8
        assert rd.u64() == 9
        assert rd.exhausted
        with pytest.raises(FieldError):
            rd.u8()

    def test_non_utf8_string_is_field_error(self):
        rd = PayloadReader(struct.pack(">H", 2) + b"\xff\xfe")
        with pytest.raises(FieldError, match="utf-8"):
            rd.string()


# ---------------------------------------------------------------------------
# dialing: frames from the first byte, no negotiation
# ---------------------------------------------------------------------------


async def _line_server():
    """A peer that does not speak frames: it answers whatever arrives
    with a text ``ERR`` line."""

    async def handle(reader, writer):
        while await reader.read(64):
            writer.write(b"ERR unknown command\n")
            await writer.drain()
        writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1]


class TestNegotiation:
    def test_auto_picks_v2_against_new_server(self):
        async def body():
            server = await _started_server()
            try:
                async with CacheClient("127.0.0.1", server.port) as c:
                    assert await c.ping()
                    assert len(c.transport._mux) == 1
                with pytest.raises(ValueError, match="v2"):
                    CacheClient("127.0.0.1", server.port, protocol="v1")
            finally:
                await server.stop()
        run(body())

    def test_forced_v2_against_old_server_errors(self):
        async def body():
            server, port = await _line_server()
            try:
                transport = Transport("127.0.0.1", port, max_retries=0)
                with pytest.raises(ConnectionError, match="magic"):
                    await transport.call("PING")
                await transport.close()
            finally:
                server.close()
                await server.wait_closed()
        run(body())

    def test_probe_failure_leaves_no_connections(self):
        async def body():
            transport = Transport("127.0.0.1", 1, max_retries=0)
            with pytest.raises((ConnectionError, OSError)):
                await transport.call("PING")
            assert transport._mux == []
            await transport.close()
        run(body())


# ---------------------------------------------------------------------------
# pipelining and the mux connection
# ---------------------------------------------------------------------------


class TestPipelining:
    def test_interleaved_responses_match_seq(self):
        async def body():
            server = await _started_server(num_shards=2, data_capacity=1024,
                                           admission="always")
            try:
                async with CacheClient("127.0.0.1", server.port) as c:
                    keys = [f"k{i}" for i in range(32)]
                    await c.mset([(k, k.encode()) for k in keys])
                    # 32 concurrent GETs share one framed connection;
                    # every response must come back to its own caller
                    values = await asyncio.gather(
                        *[c.get(k) for k in keys]
                    )
                    assert values == [k.encode() for k in keys]
                    assert len(c.transport._mux) == 1
            finally:
                await server.stop()
        run(body())

    def test_cancelled_call_does_not_poison_the_connection(self):
        async def body():
            server = await _started_server(admission="always")
            try:
                async with CacheClient("127.0.0.1", server.port) as c:
                    await c.ping()
                    task = asyncio.ensure_future(c.get("k"))
                    task.cancel()
                    try:
                        await task
                    except asyncio.CancelledError:
                        pass
                    # the mux must survive an abandoned sequence id
                    await c.set("k2", b"v")
                    assert await c.ping()
            finally:
                await server.stop()
        run(body())

    def test_server_error_frame_keeps_connection(self):
        async def body():
            server = await _started_server()
            try:
                async with CacheClient("127.0.0.1", server.port) as c:
                    with pytest.raises(ServerError):
                        await c.transport.call("RGET", "k")  # wrong layer
                    assert await c.ping()  # same transport still live
            finally:
                await server.stop()
        run(body())


# ---------------------------------------------------------------------------
# batch verbs
# ---------------------------------------------------------------------------


class TestBatchVerbs:
    def test_mset_mget_mdel_roundtrip(self):
        async def body():
            server = await _started_server(num_shards=2, data_capacity=1024,
                                           admission="always")
            try:
                async with CacheClient("127.0.0.1", server.port) as c:
                    flags = await c.mset([("a", b"1"), ("b", b"2")])
                    assert flags == [True, True]
                    assert await c.mget(["a", "missing", "b"]) == \
                        [b"1", None, b"2"]
                    assert await c.mdel(["a", "missing"]) == [True, False]
                    assert await c.mget(["a", "b"]) == [None, b"2"]
            finally:
                await server.stop()
        run(body())

    def test_empty_batches_short_circuit(self):
        async def body():
            server = await _started_server()
            try:
                async with CacheClient("127.0.0.1", server.port) as c:
                    assert await c.mget([]) == []
                    assert await c.mset([]) == []
                    assert await c.mdel([]) == []
            finally:
                await server.stop()
        run(body())

    def test_batch_admission_matches_singles(self):
        # batch verbs must see the same admission decisions as singles:
        # first touch tags, second touch admits
        async def body():
            server = await _started_server()
            try:
                async with CacheClient("127.0.0.1", server.port) as c:
                    assert await c.mget(["x"]) == [None]         # tag
                    assert await c.mset([("x", b"v")]) == [False]  # declined
                    assert await c.mget(["x"]) == [None]         # reuse
                    assert await c.mset([("x", b"v")]) == [True]   # stored
                    assert await c.mget(["x"]) == [b"v"]
            finally:
                await server.stop()
        run(body())

    def test_empty_value_roundtrips(self):
        async def body():
            server = await _started_server(admission="always")
            try:
                async with CacheClient("127.0.0.1", server.port) as c:
                    assert await c.set("k", b"") is True
                    assert await c.get("k") == b""
                    assert await c.mget(["k"]) == [b""]
            finally:
                await server.stop()
        run(body())

