"""Wire format: frame round-trips, truncation, resync, CRC rejection."""

import struct

import pytest

from repro.events.wire import (
    HEADER_SIZE,
    MAGIC,
    MAX_PAYLOAD,
    Frame,
    FrameDecoder,
    FrameKind,
    TraceContext,
    encode_frame,
    event_frame,
    json_payload,
)

SAMPLE = Frame(FrameKind.EVENT, client_id=7, seq=42, payload=b'{"t":"sync"}')


class TestEncode:
    @pytest.mark.parametrize("kind", list(FrameKind), ids=lambda k: k.name)
    def test_roundtrip_every_kind(self, kind):
        frame = Frame(kind, client_id=3, seq=9, payload=b'{"x":1}')
        decoder = FrameDecoder()
        (out,) = decoder.feed(encode_frame(frame))
        assert out == frame
        assert not decoder.errors

    def test_empty_payload_roundtrip(self):
        frame = Frame(FrameKind.FIN, client_id=1, seq=100)
        (out,) = FrameDecoder().feed(encode_frame(frame))
        assert out == frame
        assert out.payload == b""

    def test_event_frame_payload_is_canonical_json(self):
        frame = event_frame(1, 0, {"b": 2, "a": 1, "t": "sync"})
        assert frame.payload == b'{"a":1,"b":2,"t":"sync"}'
        assert frame.json() == {"a": 1, "b": 2, "t": "sync"}

    def test_event_frame_carries_a_canonical_json_array(self):
        frame = event_frame(1, 64, [{"b": 2, "t": "sync"}, {"a": 1, "t": "sync"}])
        assert frame.seq == 64
        assert frame.payload == b'[{"b":2,"t":"sync"},{"a":1,"t":"sync"}]'
        assert frame.json() == [{"b": 2, "t": "sync"}, {"a": 1, "t": "sync"}]

    def test_oversized_payload_refused_at_encode(self):
        huge = Frame(FrameKind.EVENT, 1, 0, b"x" * (MAX_PAYLOAD + 1))
        with pytest.raises(ValueError, match="exceeds MAX_PAYLOAD"):
            encode_frame(huge)

    def test_header_is_24_bytes(self):
        assert HEADER_SIZE == 24
        raw = encode_frame(SAMPLE)
        assert raw[:2] == MAGIC
        assert len(raw) == HEADER_SIZE + len(SAMPLE.payload)


class TestDecoderChunking:
    def test_byte_at_a_time_feed(self):
        raw = encode_frame(SAMPLE) + encode_frame(
            Frame(FrameKind.ACK, client_id=7, seq=42)
        )
        decoder = FrameDecoder()
        frames = []
        for i in range(len(raw)):
            frames.extend(decoder.feed(raw[i : i + 1]))
        assert [f.kind for f in frames] == [FrameKind.EVENT, FrameKind.ACK]
        assert decoder.pending_bytes == 0
        assert not decoder.errors

    def test_split_magic_across_chunks(self):
        raw = encode_frame(SAMPLE)
        decoder = FrameDecoder()
        assert decoder.feed(raw[:1]) == []
        (out,) = decoder.feed(raw[1:])
        assert out == SAMPLE
        assert not decoder.errors


class TestDecoderDamage:
    def test_garbage_before_frame_resyncs(self):
        raw = b"NOISE---" + encode_frame(SAMPLE)
        decoder = FrameDecoder()
        (out,) = decoder.feed(raw)
        assert out == SAMPLE
        assert decoder.resyncs == 1
        assert "garbage" in decoder.errors[0].reason
        assert decoder.errors[0].offset == 0

    def test_crc_mismatch_drops_frame_stream_continues(self):
        good = encode_frame(Frame(FrameKind.ACK, 7, 43))
        corrupt = bytearray(encode_frame(SAMPLE))
        corrupt[-1] ^= 0xFF  # flip a payload byte; CRC now disagrees
        decoder = FrameDecoder()
        frames = decoder.feed(bytes(corrupt) + good)
        assert [f.kind for f in frames] == [FrameKind.ACK]
        assert any("CRC mismatch" in e.reason for e in decoder.errors)

    def test_bad_version_resyncs_past_magic(self):
        raw = bytearray(encode_frame(SAMPLE))
        raw[2] = 99  # wire version
        decoder = FrameDecoder()
        assert decoder.feed(bytes(raw) + encode_frame(SAMPLE)) == [SAMPLE]
        assert any("unsupported wire version" in e.reason for e in decoder.errors)

    def test_unknown_kind_resyncs(self):
        raw = bytearray(encode_frame(SAMPLE))
        raw[3] = 200  # frame kind
        decoder = FrameDecoder()
        assert decoder.feed(bytes(raw) + encode_frame(SAMPLE)) == [SAMPLE]
        assert any("unknown frame kind" in e.reason for e in decoder.errors)

    def test_absurd_declared_length_treated_as_corrupt_header(self):
        header = struct.Struct("!2sBBIQII").pack(
            MAGIC, 1, int(FrameKind.EVENT), 1, 0, MAX_PAYLOAD + 1, 0
        )
        decoder = FrameDecoder()
        assert decoder.feed(header + encode_frame(SAMPLE)) == [SAMPLE]
        assert any("exceeds MAX_PAYLOAD" in e.reason for e in decoder.errors)


class TestTruncation:
    """The crash-mid-write artifact: rejected, never zero-padded."""

    def test_truncated_trailing_frame_rejected_at_eof(self):
        raw = encode_frame(SAMPLE)
        decoder = FrameDecoder()
        assert decoder.feed(raw[:-4]) == []  # payload short by 4 bytes
        errors = decoder.eof()
        assert any("not zero-padded" in e.reason for e in errors)
        assert decoder.pending_bytes == 0

    @pytest.mark.parametrize(
        "trace", [None, TraceContext(7, 3)], ids=["version-1", "version-2"]
    )
    def test_truncation_counts_payload_bytes_only(self, trace):
        frame = Frame(FrameKind.EVENT, 7, 42, b'{"a":123}', trace)
        decoder = FrameDecoder()
        assert decoder.feed(encode_frame(frame)[:-3]) == []
        (error,) = decoder.eof()
        assert "declared 9 payload byte(s), got 6" in error.reason

    def test_truncated_header_rejected_at_eof(self):
        decoder = FrameDecoder()
        decoder.feed(encode_frame(SAMPLE)[: HEADER_SIZE - 5])
        errors = decoder.eof()
        assert any("do not form a frame header" in e.reason for e in errors)

    def test_clean_eof_reports_nothing(self):
        decoder = FrameDecoder()
        decoder.feed(encode_frame(SAMPLE))
        assert decoder.eof() == []

    def test_json_payload_roundtrip_through_frame(self):
        payload = json_payload({"benchmark": 23, "engine": "columnar"})
        frame = Frame(FrameKind.HELLO, 23, 0, payload)
        (out,) = FrameDecoder().feed(encode_frame(frame))
        assert out.json() == {"benchmark": 23, "engine": "columnar"}
