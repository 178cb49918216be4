"""The reference serve client: windowed streaming with retry and backoff.

The client side of the delivery guarantee.  Events travel in EVENT frames
of up to :data:`~repro.events.wire.EVENTS_PER_FRAME` records, encoded as a
binary row table — accesses as packed columns, the other kinds and the
frame's stack table in a JSON tail
(:func:`~repro.events.codec.encode_events`) — cut at fixed multiples of
that size and numbered by their first event's sequence number, so a
retransmitted frame is byte-identical to its first send.  The
client holds a frame until a *cumulative* ACK covers its last event, and
retransmits unacknowledged frames — on a NACK (the server names
the next sequence number it expects) or after a timeout, with capped
exponential backoff and deterministic jitter.  Backoff is simulated in
ticks (like every other latency in this codebase) so tests and chaos
campaigns stay byte-reproducible; the jitter derivation mirrors
:meth:`repro.faults.plan.FaultPlan.generate` — a :class:`random.Random`
seeded from stable material, never global randomness.

Because retransmission is the client's duty and dedup is the server's,
the pair is safe under every transport fault the chaos campaign injects:
a dropped frame is retransmitted, a duplicated frame is re-ACKed and
dropped, a reordered frame parks in the server's reorder buffer (or is
shed and retransmitted under backpressure).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from ..events.codec import encode_events
from ..events.trace_io import event_from_json
from ..events.wire import (
    EVENTS_PER_FRAME,
    Frame,
    FrameDecoder,
    FrameKind,
    TraceContext,
    json_payload,
)

__all__ = ["ServeClient", "SessionResult", "RetryPolicy", "DeliveryError"]


class DeliveryError(RuntimeError):
    """The retry budget ran out with frames still unacknowledged."""


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with deterministic (seeded) jitter."""

    seed: int = 0
    base_ticks: int = 1
    cap_ticks: int = 64
    max_attempts: int = 12

    def delay(self, attempt: int) -> int:
        """Backoff ticks before retry ``attempt`` (1-based), with jitter."""
        ceiling = min(self.cap_ticks, self.base_ticks << min(attempt, 16))
        # Full jitter over [1, ceiling], seeded per (policy, attempt) so a
        # replayed session backs off identically tick for tick.
        rng = random.Random(f"{self.seed}/backoff/{attempt}")
        return 1 + rng.randrange(ceiling)


@dataclass
class SessionResult:
    """What one streamed session produced, client-side."""

    client_id: int
    events: int
    findings: list[dict] = field(default_factory=list)
    markers: list[dict] = field(default_factory=list)
    result: dict = field(default_factory=dict)
    frames_sent: int = 0
    retransmits: int = 0
    backoff_ticks: int = 0
    nacks_seen: int = 0

    def fingerprints(self) -> tuple[tuple[str, str], ...]:
        """Delivered ``(tool, fingerprint)`` pairs, sorted."""
        return tuple(
            sorted((f["tool"], f["fingerprint"]) for f in self.findings)
        )


class ServeClient:
    """Stream events to an :class:`AnalysisServer` over any transport.

    ``transport`` is anything with ``send(data: bytes) -> bytes`` — the
    loopback pipe, a socket wrapper, a stdio pipe.  The client is
    synchronous: each send may return zero or more response frames
    (transports under fault injection return fewer).
    """

    def __init__(
        self,
        transport,
        client_id: int = 1,
        policy: RetryPolicy | None = None,
        *,
        spanlog=None,
    ):
        self.transport = transport
        self.client_id = client_id
        self.policy = policy or RetryPolicy(seed=client_id)
        self.decoder = FrameDecoder()
        #: Optional :class:`~repro.observe.spans.SpanLog` modelling this
        #: client as one process of the distributed trace.  When present,
        #: every frame send becomes a span *and* the span's identity is
        #: propagated in the frame's wire trace context (version-2
        #: frames) so the server can tie its spans back to ours.
        self.spanlog = spanlog

    # -- low-level ---------------------------------------------------------

    def _exchange(self, frame: Frame, result: SessionResult) -> list[Frame]:
        from ..events.wire import encode_frame

        spanlog = self.spanlog
        if spanlog is None:
            result.frames_sent += 1
            raw = self.transport.send(encode_frame(frame))
            return self.decoder.feed(raw) if raw else []
        with spanlog.span(
            f"frame:{frame.kind.name}",
            client=self.client_id,
            seq=frame.seq,
        ) as span:
            traced = replace(
                frame, trace=TraceContext(self.client_id, span.begin)
            )
            result.frames_sent += 1
            raw = self.transport.send(encode_frame(traced))
            frames = self.decoder.feed(raw) if raw else []
            span.tags["responses"] = len(frames)
        return frames

    # -- session -----------------------------------------------------------

    def stream(self, events, *, meta: dict | None = None) -> SessionResult:
        """Run one full session: HELLO, EVENT stream, FIN, finding stream.

        ``events`` are event records; a :func:`~repro.events.trace_io.event_to_json`
        dict is decoded into its record once, up front.
        """
        records = [event_from_json(e) if isinstance(e, dict) else e for e in events]
        result = SessionResult(client_id=self.client_id, events=len(records))
        acked_through = -1
        hello_acked = False

        def absorb(frames: list[Frame]) -> list[Frame]:
            """Fold ACK/NACK progress into the watermark; pass the rest on."""
            nonlocal acked_through, hello_acked
            passed: list[Frame] = []
            for f in frames:
                if f.kind is FrameKind.ACK:
                    hello_acked = True
                    acked_through = max(acked_through, f.seq)
                elif f.kind is FrameKind.NACK:
                    result.nacks_seen += 1
                else:
                    passed.append(f)
            return passed

        # HELLO until acknowledged.
        hello = Frame(
            FrameKind.HELLO,
            self.client_id,
            0,
            json_payload(meta or {}),
        )
        for attempt in range(self.policy.max_attempts + 1):
            absorb(self._exchange(hello, result))
            if hello_acked:
                break
            result.retransmits += 1
            result.backoff_ticks += self.policy.delay(attempt + 1)
        else:  # pragma: no cover - requires a dead transport
            raise DeliveryError("HELLO was never acknowledged")
        acked_through = -1  # the HELLO ACK does not cover any event

        def frame_at(first: int) -> Frame:
            """The EVENT frame opening at ``first`` (a multiple of the size)."""
            return Frame(
                FrameKind.EVENT,
                self.client_id,
                first,
                encode_events(records[first : first + EVENTS_PER_FRAME]),
            )

        # First pass: stream every frame once.
        for first in range(0, len(records), EVENTS_PER_FRAME):
            absorb(self._exchange(frame_at(first), result))

        # Repair passes: retransmit from the frame holding the first
        # unacknowledged event until all are acked.
        attempt = 0
        while acked_through < len(records) - 1:
            attempt += 1
            if attempt > self.policy.max_attempts:
                raise DeliveryError(
                    f"gave up after {self.policy.max_attempts} repair "
                    f"passes with seq {acked_through + 1} still "
                    "unacknowledged"
                )
            result.backoff_ticks += self.policy.delay(attempt)
            before = acked_through
            start = (acked_through + 1) // EVENTS_PER_FRAME * EVENTS_PER_FRAME
            for first in range(start, len(records), EVENTS_PER_FRAME):
                result.retransmits += 1
                absorb(self._exchange(frame_at(first), result))
            if acked_through > before:
                attempt = 0  # forward progress resets the budget

        # FIN until the finding stream arrives.
        fin = Frame(FrameKind.FIN, self.client_id, len(records))
        for attempt in range(self.policy.max_attempts + 1):
            tail = absorb(self._exchange(fin, result))
            for f in tail:
                if f.kind is FrameKind.FINDING:
                    result.findings.append(f.json())
                elif f.kind is FrameKind.DEGRADED:
                    result.markers.append(f.json())
                elif f.kind is FrameKind.RESULT:
                    result.result = f.json()
            if result.result:
                return result
            result.retransmits += 1
            result.backoff_ticks += self.policy.delay(attempt + 1)
        raise DeliveryError("FIN was never answered with a RESULT frame")
