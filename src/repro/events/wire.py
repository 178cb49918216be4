"""The serve wire format: length-prefixed, sequence-numbered event frames.

This module formalizes what the lenient trace loader (:mod:`.trace_io`)
only implies: events that cross a process or machine boundary need *frames*
— explicit boundaries, explicit sizes, explicit identity — because the
transport can and will truncate, duplicate, reorder, and corrupt them.  One
frame carries one protocol message:

========  =====  ======================================================
kind      dir    payload
========  =====  ======================================================
HELLO     c->s   session metadata (JSON: benchmark name, ...)
EVENT     c->s   up to :data:`EVENTS_PER_FRAME` events as a binary row
                 table: accesses as packed little-endian columns, the
                 other kinds and the frame's stack table in a JSON tail
                 (:mod:`.codec`); ``seq`` numbers the first, so the rows
                 are events ``seq .. seq+n-1``.  A single
                 :func:`.trace_io.event_to_json` object (a one-event
                 frame) or a JSON array of them is still accepted
FIN       c->s   end of stream; ask the server to drain and report
ACK       s->c   cumulative acknowledgement of every event through ``seq``
NACK      s->c   retransmit request: ``seq`` is the next expected event
FINDING   s->c   one delivered finding (JSON, fingerprint-keyed)
DEGRADED  s->c   backpressure marker: the stream was shed, not dropped
RESULT    s->c   end-of-session summary (JSON)
ERROR     s->c   protocol error report (JSON)
========  =====  ======================================================

Frame layout (network byte order)::

    offset  size  field
    0       2     magic  0xF7 0x52  ("\\xf7R")
    2       1     wire version (1 = bare, 2 = trace context follows)
    3       1     frame kind
    4       4     client id (u32)
    8       8     sequence number (u64)
    16      4     payload length (u32, <= MAX_PAYLOAD)
    20      4     CRC32 of the payload
    [24     8     trace id (u64)        — version 2 only]
    [32     4     span id (u32)         — version 2 only]
    24/36   len   payload (an EVENT row table, else UTF-8 JSON unless empty)

Version 2 frames carry a :class:`TraceContext` — the distributed-tracing
propagation field — between the header and the payload.  A frame without
a context encodes as version 1, byte-identical to the pre-trace wire, so
old captures decode unchanged and new decoders accept both; the payload
length and CRC never cover the context, keeping the two versions'
payload handling one code path.

The decoder is *tolerant but never inventive*: a frame whose declared
payload length disagrees with the bytes actually present is **rejected** —
a short payload is a truncated frame, and zero-padding it would fabricate
a bogus event (exactly the failure mode the lenient trace loader now also
rejects).  Corrupt bytes cause a scan to the next magic (resync); every
rejection is recorded as a :class:`WireError` with its byte offset so
transport damage is diagnosable, not silent.
"""

from __future__ import annotations

import enum
import json
import struct
import zlib
from dataclasses import dataclass, field

__all__ = [
    "MAGIC",
    "WIRE_VERSION",
    "WIRE_VERSION_TRACE",
    "SUPPORTED_VERSIONS",
    "HEADER",
    "HEADER_SIZE",
    "TRACE_EXT",
    "TRACE_EXT_SIZE",
    "MAX_PAYLOAD",
    "EVENTS_PER_FRAME",
    "FrameKind",
    "Frame",
    "TraceContext",
    "WireError",
    "FrameDecoder",
    "encode_frame",
    "event_frame",
    "json_payload",
]

#: Two magic bytes opening every frame; the resync scan looks for these.
MAGIC = b"\xf7R"

#: Base wire format version: no trace context, the pre-observability wire.
WIRE_VERSION = 1

#: Wire version whose header is followed by a :class:`TraceContext`.
WIRE_VERSION_TRACE = 2

#: Every version this decoder accepts.
SUPPORTED_VERSIONS = frozenset({WIRE_VERSION, WIRE_VERSION_TRACE})

#: Frame header: magic, version, kind, client, seq, payload length, CRC32.
HEADER = struct.Struct("!2sBBIQII")
HEADER_SIZE = HEADER.size  # 24 bytes

#: Version-2 trace-context extension: trace id (u64), span id (u32).
TRACE_EXT = struct.Struct("!QI")
TRACE_EXT_SIZE = TRACE_EXT.size  # 12 bytes

#: Upper bound on a frame payload.  A declared length beyond this is treated
#: as header corruption (resync), not as an instruction to buffer a gigabyte.
MAX_PAYLOAD = 1 << 20

#: Event records per EVENT frame.  Clients cut a stream at multiples of
#: this, so a retransmitted frame is byte-identical to its first send; one
#: frame then costs one CRC, one payload decode and one ACK for 64 events.
EVENTS_PER_FRAME = 64


class FrameKind(enum.IntEnum):
    """Protocol message kinds (see module docstring)."""

    HELLO = 1
    EVENT = 2
    FIN = 3
    ACK = 4
    NACK = 5
    FINDING = 6
    DEGRADED = 7
    RESULT = 8
    ERROR = 9


@dataclass(frozen=True)
class TraceContext:
    """The cross-process tracing context a version-2 frame propagates.

    ``trace_id`` identifies the originating session (the client id, by
    convention — one distributed trace per client session) and
    ``span_id`` the sender-side span that emitted the frame (the client
    span log's begin ordinal).  The receiver records both on its own
    spans, which is what lets the stitcher prove the client span and the
    server/shard spans describe the same frame.
    """

    trace_id: int
    span_id: int

    def to_json(self) -> dict:
        return {"trace_id": self.trace_id, "span_id": self.span_id}


@dataclass(frozen=True)
class Frame:
    """One decoded wire frame."""

    kind: FrameKind
    client_id: int
    seq: int
    payload: bytes = b""
    #: Propagated tracing context; ``None`` encodes as wire version 1.
    trace: TraceContext | None = None

    def json(self):
        """Decode the payload as JSON (EVENT payloads decode via :mod:`.codec`:
        a row table is not JSON)."""
        return json.loads(self.payload.decode("utf-8"))


@dataclass(frozen=True)
class WireError:
    """One rejected stretch of the byte stream."""

    #: Byte offset (in the whole stream fed so far) where the damage starts.
    offset: int
    reason: str

    def to_json(self) -> dict:
        return {"offset": self.offset, "reason": self.reason}


def encode_frame(frame: Frame) -> bytes:
    """Serialize one frame: header, optional trace context, payload.

    A frame without a trace context encodes as version 1 — byte-identical
    to the pre-trace wire format — so enabling tracing on one side of a
    connection never changes the bytes of untraced traffic.
    """
    payload = frame.payload
    if len(payload) > MAX_PAYLOAD:
        raise ValueError(
            f"frame payload of {len(payload)} bytes exceeds MAX_PAYLOAD "
            f"({MAX_PAYLOAD})"
        )
    version = WIRE_VERSION if frame.trace is None else WIRE_VERSION_TRACE
    header = HEADER.pack(
        MAGIC,
        version,
        int(frame.kind),
        frame.client_id,
        frame.seq,
        len(payload),
        zlib.crc32(payload) & 0xFFFFFFFF,
    )
    if frame.trace is None:
        return header + payload
    return (
        header
        + TRACE_EXT.pack(frame.trace.trace_id, frame.trace.span_id)
        + payload
    )


#: One canonical encoder, built once: ``json.dumps`` with keyword options
#: builds a fresh ``JSONEncoder`` on every call.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def json_payload(obj: dict | list) -> bytes:
    """Canonical JSON payload encoding (sorted keys, compact separators)."""
    return _CANONICAL(obj).encode("utf-8")


def event_frame(
    client_id: int,
    seq: int,
    records: list[dict],
    *,
    trace: TraceContext | None = None,
) -> Frame:
    """A legacy EVENT frame carrying :func:`.trace_io.event_to_json` records.

    ``seq`` is the sequence number of ``records[0]``; the payload is one
    canonical JSON array (or object), encoded with a single
    :func:`json_payload` call.  Clients send a binary row table instead
    (:func:`.codec.encode_events`); the server still serves both.
    """
    return Frame(FrameKind.EVENT, client_id, seq, json_payload(records), trace)


class FrameDecoder:
    """Incremental frame decoder over an arbitrary byte-chunked stream.

    Feed it bytes as they arrive; it returns every complete frame and holds
    partial trailing bytes for the next chunk.  Damage handling:

    * bad magic — scan forward to the next magic, record one
      :class:`WireError` for the skipped garbage;
    * bad version / unknown kind / absurd declared length — treat the
      header as corrupt and resync one byte past the magic;
    * CRC mismatch — the frame is dropped (recorded), stream continues
      after it;
    * truncated final frame (:meth:`eof`) — **rejected**, never zero-padded
      into a bogus record.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        #: Offset of ``_buffer[0]`` within the whole stream fed so far.
        self._base = 0
        self.frames_decoded = 0
        self.resyncs = 0
        self.errors: list[WireError] = []

    def _reject(self, offset: int, reason: str) -> None:
        self.errors.append(WireError(offset, reason))

    def feed(self, data: bytes) -> list[Frame]:
        """Consume a chunk; return every frame completed by it."""
        self._buffer.extend(data)
        frames: list[Frame] = []
        buf = self._buffer
        pos = 0
        while True:
            # Hunt for the magic. Anything before it is transport garbage.
            idx = buf.find(MAGIC, pos)
            if idx < 0:
                # No magic anywhere: keep the final byte (it may be the
                # first half of a split magic) and report the rest.
                keep = max(pos, len(buf) - 1)
                if keep > pos:
                    self._reject(
                        self._base + pos,
                        f"{keep - pos} byte(s) of inter-frame garbage skipped",
                    )
                    self.resyncs += 1
                pos = keep
                break
            if idx > pos:
                self._reject(
                    self._base + pos,
                    f"{idx - pos} byte(s) of inter-frame garbage skipped",
                )
                self.resyncs += 1
                pos = idx
            if len(buf) - pos < HEADER_SIZE:
                break  # incomplete header; wait for more bytes
            magic, version, kind, client_id, seq, length, crc = HEADER.unpack(
                bytes(buf[pos : pos + HEADER_SIZE])
            )
            if version not in SUPPORTED_VERSIONS:
                self._reject(
                    self._base + pos,
                    f"unsupported wire version {version} (expected one of "
                    f"{sorted(SUPPORTED_VERSIONS)}); resyncing",
                )
                self.resyncs += 1
                pos += 2  # skip the magic, rescan
                continue
            try:
                frame_kind = FrameKind(kind)
            except ValueError:
                self._reject(
                    self._base + pos, f"unknown frame kind {kind}; resyncing"
                )
                self.resyncs += 1
                pos += 2
                continue
            if length > MAX_PAYLOAD:
                self._reject(
                    self._base + pos,
                    f"declared payload length {length} exceeds MAX_PAYLOAD "
                    f"({MAX_PAYLOAD}); header treated as corrupt",
                )
                self.resyncs += 1
                pos += 2
                continue
            ext_size = TRACE_EXT_SIZE if version == WIRE_VERSION_TRACE else 0
            body = pos + HEADER_SIZE + ext_size
            end = body + length
            if len(buf) < end:
                break  # incomplete trace context/payload; wait for more
            trace: TraceContext | None = None
            if ext_size:
                trace_id, span_id = TRACE_EXT.unpack(
                    bytes(buf[pos + HEADER_SIZE : body])
                )
                trace = TraceContext(trace_id, span_id)
            payload = bytes(buf[body:end])
            if zlib.crc32(payload) & 0xFFFFFFFF != crc:
                self._reject(
                    self._base + pos,
                    f"payload CRC mismatch on {frame_kind.name} frame "
                    f"seq={seq}; frame dropped",
                )
                pos = end
                continue
            frames.append(Frame(frame_kind, client_id, seq, payload, trace))
            self.frames_decoded += 1
            pos = end
        # Retain only the unconsumed tail.
        del buf[:pos]
        self._base += pos
        return frames

    @property
    def pending_bytes(self) -> int:
        """Bytes held waiting for the rest of a frame."""
        return len(self._buffer)

    def eof(self) -> list[WireError]:
        """Declare end-of-stream; reject (never pad) any truncated frame.

        Returns the full error list for the stream.  A trailing frame whose
        declared payload length exceeds the bytes actually received is the
        classic crash-mid-write artifact: the only safe interpretation is
        "this frame never happened".
        """
        buf = self._buffer
        if buf:
            if len(buf) >= HEADER_SIZE and buf[:2] == MAGIC:
                _, version, _, _, seq, length, _ = HEADER.unpack(
                    bytes(buf[:HEADER_SIZE])
                )
                ext_size = TRACE_EXT_SIZE if version == WIRE_VERSION_TRACE else 0
                have = max(0, len(buf) - HEADER_SIZE - ext_size)
                self._reject(
                    self._base,
                    f"truncated frame at end of stream: declared {length} "
                    f"payload byte(s), got {have}; frame rejected "
                    f"(seq={seq}), not zero-padded",
                )
            else:
                self._reject(
                    self._base,
                    f"{len(buf)} trailing byte(s) do not form a frame header",
                )
            self._buffer = bytearray()
        return list(self.errors)
