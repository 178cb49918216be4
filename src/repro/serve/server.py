"""The analysis server: sessions, ordering, backpressure, finding stream.

One :class:`AnalysisServer` hosts many client sessions.  Each session is
one analysis run: its own :class:`~repro.serve.supervisor.Supervisor`
(sharded detector state — two clients' address spaces must never mix) and
its own :class:`~repro.forensics.ledger.DeliveryLedger`.

**Ordering.**  Findings must be independent of transport mischief, so the
server applies events strictly in sequence order.  An EVENT frame carries
events ``seq .. seq+n-1``; its payload is decoded once, on arrival, into
event records (:func:`~repro.events.codec.decode_events`).  The frame's
unapplied records go to the supervisor in one call, which hands each
shard its slice of the frame at once, and the frame is answered by one
cumulative ACK naming the last applied event.  A frame arriving early
(gap before it) parks in a bounded reorder buffer, keyed by
its first seq; a frame lying wholly below the watermark is acknowledged
again and dropped (the ACK, not the frame, is what the client needs); a
frame straddling the watermark applies only its unapplied tail; a gap
elicits a NACK naming the next expected sequence number so the client can
retransmit without waiting for a timeout.

**Backpressure.**  The reorder buffer is the inbound queue, and it is
bounded in *events*.  When a slow or lossy client overflows it, the server
*sheds the parked frame* — which is recoverable, the client still holds it
— and marks the session ``DEGRADED`` in the finding stream.  Findings are
never shed: degradation costs latency and a marker, not results.

**Drain.**  FIN (and SIGTERM, via :meth:`AnalysisServer.shutdown`) flushes
every shard's parked columnar batch before findings are collected, so an
in-flight batch can never be lost to shutdown timing.
"""

from __future__ import annotations

from time import perf_counter
from dataclasses import dataclass, field

from ..events.codec import PayloadError, decode_events
from ..events.wire import Frame, FrameDecoder, FrameKind, json_payload
from ..forensics.ledger import DeliveryLedger
from .supervisor import Supervisor

__all__ = ["AnalysisServer", "ServerConfig", "ServerConnection"]


@dataclass(frozen=True)
class ServerConfig:
    """Server-wide shape of every session's detector stack."""

    n_shards: int = 4
    tools: tuple[str, ...] = ("arbalest",)
    #: Reorder-buffer (inbound queue) capacity per session, in parked
    #: events (a parked frame occupies one slot per event it carries).
    queue_cap: int = 256


@dataclass
class _Session:
    """One client's run: detector shards, ordering state, delivery ledger."""

    client_id: int
    supervisor: Supervisor
    ledger: DeliveryLedger = field(default_factory=DeliveryLedger)
    meta: dict = field(default_factory=dict)
    next_seq: int = 0
    #: Parked frames keyed by first seq, and the decoded events they hold.
    reorder: dict[int, list] = field(default_factory=dict)
    parked: int = 0
    finished: bool = False
    degraded: bool = False
    out_seq: int = 0
    dup_frames: int = 0
    shed_frames: int = 0
    nacks_sent: int = 0

    def reply(self, kind: FrameKind, payload: bytes = b"", *, seq: int | None = None) -> Frame:
        if seq is None:
            seq = self.out_seq
            self.out_seq += 1
        return Frame(kind, self.client_id, seq, payload)


class AnalysisServer:
    """Frame-in, frames-out protocol engine (transport-agnostic).

    ``observer`` is the optional live observability bundle
    (:class:`~repro.observe.observer.ServeObserver`).  When it is
    ``None`` — the default — every instrumentation site below is a
    single ``is not None`` check and the hot path allocates nothing for
    observability.
    """

    def __init__(self, config: ServerConfig | None = None, observer=None):
        self.config = config or ServerConfig()
        self.observer = observer
        self.sessions: dict[int, _Session] = {}
        self.frames_handled = 0
        self.drained = False

    # -- sessions ----------------------------------------------------------

    def session(self, client_id: int) -> _Session:
        session = self.sessions.get(client_id)
        if session is None:
            session = _Session(
                client_id=client_id,
                supervisor=Supervisor(
                    n_shards=self.config.n_shards,
                    tools=self.config.tools,
                    observer=self.observer,
                ),
            )
            self.sessions[client_id] = session
        return session

    # -- frame handling ----------------------------------------------------

    def handle_frame(self, frame: Frame) -> list[Frame]:
        """Process one inbound frame; returns the response frames."""
        observer = self.observer
        if observer is None:
            return self._handle_frame(frame)
        spans = observer.server_spans
        if spans is None:
            # Fast path: metrics only.  Two clock reads and one list
            # append per frame — the whole observability tax; the window
            # folds into histograms at watchdog cadence, not here.
            if observer.wall_clock:
                begin = perf_counter()
                responses = self._handle_frame(frame)
                observer.frame_handled(
                    self, (perf_counter() - begin) * 1e6
                )
            else:
                responses = self._handle_frame(frame)
                observer.frame_handled(self)
        else:
            begin = perf_counter() if observer.wall_clock else None
            with spans.span(
                f"handle:{frame.kind.name}",
                client=frame.client_id,
                seq=frame.seq,
                ctx_trace=(
                    frame.trace.trace_id if frame.trace is not None else None
                ),
                ctx_span=(
                    frame.trace.span_id if frame.trace is not None else None
                ),
            ):
                responses = self._handle_frame(frame)
            observer.frame_handled(
                self,
                None
                if begin is None
                else (perf_counter() - begin) * 1e6,
            )
        if frame.kind is FrameKind.FIN:
            # Forced end-of-stream evaluation: recovery must be observed
            # even when the tail is shorter than a watchdog window.
            observer.evaluate(self)
        return responses

    def _handle_frame(self, frame: Frame) -> list[Frame]:
        self.frames_handled += 1
        if frame.kind is FrameKind.HELLO:
            session = self.session(frame.client_id)
            if frame.payload and not session.meta:
                try:
                    meta = frame.json()
                except ValueError:
                    return [self._payload_error(frame, "HELLO")]
                if isinstance(meta, dict):
                    session.meta = meta
            return [session.reply(FrameKind.ACK, seq=frame.seq)]
        if frame.kind is FrameKind.EVENT:
            return self._handle_event(frame)
        if frame.kind is FrameKind.FIN:
            return self._handle_fin(frame)
        return [
            Frame(
                FrameKind.ERROR,
                frame.client_id,
                frame.seq,
                json_payload(
                    {"error": f"unexpected {frame.kind.name} frame from client"}
                ),
            )
        ]

    def _payload_error(self, frame: Frame, detail: str) -> Frame:
        """A payload that framed correctly but does not decode.

        The CRC proved the bytes arrived intact, so retransmission cannot
        help — this is a sender bug, surfaced as a counted and logged
        ``wire.decode_error`` plus an ERROR frame, never a silent drop
        (the bug class this PR audits out of the stack).
        """
        observer = self.observer
        if observer is not None:
            observer.count_decode_error()
            observer.log.event(
                "wire.decode_error",
                client=frame.client_id,
                seq=frame.seq,
                kind=frame.kind.name,
                detail=detail,
            )
        return self.session(frame.client_id).reply(
            FrameKind.ERROR,
            json_payload(
                {
                    "error": f"undecodable {frame.kind.name} payload: {detail}",
                    "seq": frame.seq,
                }
            ),
        )

    def _apply(self, session: _Session, first: int, events: list) -> list[Frame]:
        """Dispatch the unapplied tail of a frame; returns ERROR frames.

        ``first`` is the frame's first seq (its trace key); events below
        the watermark were applied by an earlier copy and are skipped.
        The tail goes to the supervisor in one call.  An event that does
        not apply — a structurally broken row (missing field, wrong field
        type) that decoded to a :class:`~repro.events.codec.RowError`, or
        a record routing or a tool rejects — is *consumed*:
        retransmitting identical bytes cannot fix a CRC-valid payload, so
        it costs one ERROR for its seq, not a wedged stream.
        """
        client = session.client_id
        seq = session.next_seq
        tail = events[seq - first :]
        failures = session.supervisor.dispatch(client, seq, tail, frame=first)
        session.next_seq = seq + len(tail)
        return [
            self._payload_error(Frame(FrameKind.EVENT, client, at), detail)
            for at, detail in failures
        ]

    def _handle_event(self, frame: Frame) -> list[Frame]:
        session = self.session(frame.client_id)
        if session.finished:
            return [
                session.reply(
                    FrameKind.ERROR,
                    json_payload({"error": "session already finished"}),
                )
            ]
        seq = frame.seq
        observer = self.observer
        if seq in session.reorder:
            # Duplicate of a *parked* frame.  Parked is not applied: an
            # ACK here would claim durability the gap denies, so renew
            # the NACK for the sequence number actually missing.
            session.dup_frames += 1
            session.nacks_sent += 1
            if observer is not None:
                observer.count_redelivery()
            return [session.reply(FrameKind.NACK, seq=session.next_seq)]
        try:
            events = decode_events(frame.payload)
        except PayloadError as exc:
            return [self._payload_error(frame, str(exc))]
        if seq + len(events) <= session.next_seq:
            # Idempotent re-delivery of an *applied* frame: the client
            # lost our ACK (or the transport duplicated the frame).
            # Re-acknowledge with the cumulative watermark, drop the copy.
            session.dup_frames += 1
            if observer is not None:
                observer.count_redelivery()
            return [session.reply(FrameKind.ACK, seq=session.next_seq - 1)]
        if seq > session.next_seq:
            cap = self.config.queue_cap
            if session.parked + len(events) > cap:
                # Backpressure: shed the parked frame (the client still
                # holds it) and mark the stream DEGRADED — latency is
                # sacrificed, findings are not.
                session.shed_frames += 1
                if observer is not None:
                    observer.count_redelivery()
                if not session.degraded:
                    session.degraded = True
                    session.ledger.mark_degraded(
                        f"reorder buffer overflow at seq {seq} "
                        f"(cap {cap} events): frame shed, "
                        "retransmission required"
                    )
                    if observer is not None:
                        observer.log.event(
                            "session.degraded",
                            client=session.client_id,
                            seq=seq,
                            queue_cap=cap,
                        )
            else:
                session.reorder[seq] = events
                session.parked += len(events)
            session.nacks_sent += 1
            return [session.reply(FrameKind.NACK, seq=session.next_seq)]
        # In order (or straddling the watermark): apply the tail, then
        # drain every parked frame the gap was blocking.
        errors = self._apply(session, seq, events)
        reorder = session.reorder
        while reorder:
            first = min(reorder)
            if first > session.next_seq:
                break
            parked = reorder.pop(first)
            session.parked -= len(parked)
            errors += self._apply(session, first, parked)
        # Cumulative acknowledgement of everything applied so far.
        return errors + [session.reply(FrameKind.ACK, seq=session.next_seq - 1)]

    def _handle_fin(self, frame: Frame) -> list[Frame]:
        session = self.session(frame.client_id)
        if session.finished:
            return [session.reply(FrameKind.ACK, seq=frame.seq)]
        if frame.seq != session.next_seq or session.reorder:
            # The stream has holes: the client must retransmit before the
            # session can close — finishing now would drop findings.
            session.nacks_sent += 1
            return [session.reply(FrameKind.NACK, seq=session.next_seq)]
        session.finished = True
        supervisor = session.supervisor
        supervisor.drain()
        for shard, tool, finding, count in supervisor.findings():
            session.ledger.offer(tool, finding, count, shard=shard)
        responses = [session.reply(FrameKind.ACK, seq=frame.seq)]
        stream: list[tuple[int, Frame]] = []
        for entry in session.ledger.delivered:
            stream.append(
                (
                    entry["position"],
                    session.reply(FrameKind.FINDING, json_payload(entry)),
                )
            )
        for marker in session.ledger.markers:
            stream.append(
                (
                    marker["position"],
                    session.reply(FrameKind.DEGRADED, json_payload(marker)),
                )
            )
        responses += [f for _, f in sorted(stream, key=lambda x: x[0])]
        responses.append(
            session.reply(FrameKind.RESULT, json_payload(self._result(session)))
        )
        return responses

    def _result(self, session: _Session) -> dict:
        sup = session.supervisor.stats()
        return {
            "events": session.supervisor.events_delivered,
            "findings": len(session.ledger.delivered),
            "suppressed_duplicates": session.ledger.suppressed_duplicates,
            "degraded": session.degraded,
            "degraded_markers": len(session.ledger.markers),
            "dup_frames": session.dup_frames,
            "shed_frames": session.shed_frames,
            "nacks_sent": session.nacks_sent,
            "worker_restarts": sup["worker_restarts"],
            "duplicate_deliveries_dropped": sup["duplicates_dropped"],
            "shards": len(session.supervisor.workers),
        }

    # -- lifecycle ---------------------------------------------------------

    def shutdown(self) -> dict:
        """Graceful drain (the SIGTERM path): flush every parked batch.

        Findings already computed stay available; unfinished sessions get
        their columnar batches flushed so no parked access is lost, and
        the per-session stats are returned for the shutdown log line.
        """
        for session in self.sessions.values():
            if not session.finished:
                session.supervisor.drain()
        self.drained = True
        return {
            "sessions": len(self.sessions),
            "unfinished": sum(
                1 for s in self.sessions.values() if not s.finished
            ),
        }

    def connection(self) -> "ServerConnection":
        """A byte-level connection adapter (one per transport connection)."""
        return ServerConnection(self)


class ServerConnection:
    """Byte-stream adapter: decoder in, encoded response frames out.

    The same TCP port the binary wire protocol uses also answers plain
    HTTP GET/HEAD for the observability endpoints (``/metrics``,
    ``/healthz``, ``/readyz``).  The first byte of a connection decides
    its mode: every wire frame opens with magic ``0xF7``, which can never
    collide with the ASCII ``G``/``H`` of an HTTP request line, so
    sniffing is unambiguous.  HTTP connections get one response and are
    closed (``Connection: close``); wire connections behave exactly as
    before.
    """

    def __init__(self, server: AnalysisServer):
        self.server = server
        self.decoder = FrameDecoder()
        self._errors_reported = 0
        #: ``None`` until the first byte arrives, then ``"wire"``/``"http"``.
        self.mode: str | None = None
        self._http_buffer = bytearray()
        #: Set once an HTTP response is emitted: the front end should
        #: close the connection after flushing it.
        self.close_requested = False

    def handle_bytes(self, data: bytes) -> bytes:
        """Feed raw transport bytes; returns the encoded responses."""
        from ..events.wire import encode_frame

        if self.mode is None and data:
            self.mode = "http" if data[:1] in (b"G", b"H") else "wire"
        if self.mode == "http":
            return self._handle_http(data)
        out = bytearray()
        for frame in self.decoder.feed(data):
            for response in self.server.handle_frame(frame):
                out.extend(encode_frame(response))
        self._surface_decoder_errors()
        return bytes(out)

    def _surface_decoder_errors(self) -> None:
        """Count and log decoder rejections the moment they happen.

        The decoder has always *recorded* damage in its error list, but
        nothing drained that list until EOF — transport corruption was
        effectively swallowed for the lifetime of the connection.  Every
        new error now becomes a counted, logged ``wire.decode_error``.
        """
        errors = self.decoder.errors
        if len(errors) == self._errors_reported:
            return
        observer = self.server.observer
        for error in errors[self._errors_reported:]:
            if observer is not None:
                observer.count_decode_error()
                observer.log.event(
                    "wire.decode_error",
                    offset=error.offset,
                    detail=error.reason,
                )
        self._errors_reported = len(errors)

    # -- HTTP observability endpoints --------------------------------------

    def _handle_http(self, data: bytes) -> bytes:
        self._http_buffer.extend(data)
        if b"\r\n\r\n" not in self._http_buffer and b"\n\n" not in self._http_buffer:
            if len(self._http_buffer) > 16384:
                self.close_requested = True
                return self._http_response(400, "text/plain", b"request too large\n")
            return b""  # headers incomplete; wait for more bytes
        request_line = bytes(self._http_buffer).split(b"\r\n", 1)[0].split(b"\n", 1)[0]
        parts = request_line.decode("latin-1").split()
        self.close_requested = True
        if len(parts) < 2 or parts[0] not in ("GET", "HEAD"):
            return self._http_response(400, "text/plain", b"bad request\n")
        method, path = parts[0], parts[1].split("?", 1)[0]
        observer = self.server.observer
        if observer is not None:
            observer.log.event("http.request", method=method, path=path)
        status, ctype, body = self._route(path)
        return self._http_response(status, ctype, body, head=(method == "HEAD"))

    def _route(self, path: str) -> tuple[int, str, bytes]:
        import json as _json

        from ..observe.health import healthz, readyz
        from ..observe.metrics import render_prometheus, service_snapshot

        server = self.server
        if path == "/metrics":
            text = render_prometheus(
                service_snapshot(server, server.observer)
            )
            return 200, "text/plain; version=0.0.4; charset=utf-8", text.encode("utf-8")
        if path == "/healthz":
            document = healthz(server, server.observer)
            status = 200 if document["status"] == "ok" else 503
            body = _json.dumps(document, sort_keys=True).encode("utf-8") + b"\n"
            return status, "application/json", body
        if path == "/readyz":
            document = readyz(server)
            status = 200 if document["ready"] else 503
            body = _json.dumps(document, sort_keys=True).encode("utf-8") + b"\n"
            return status, "application/json", body
        if path in ("/profile", "/profile.json"):
            profiler = (
                server.observer.profiler if server.observer is not None else None
            )
            if profiler is None:
                return 404, "application/json", b'{"error":"profiling disabled"}\n'
            if path == "/profile":
                # Folded-stack text: feed it straight to a flamegraph tool.
                return (
                    200,
                    "text/plain; charset=utf-8",
                    profiler.folded().encode("utf-8"),
                )
            # JSON form: stats plus hot stacks with their (client, seq)
            # wire-frame links, the join key into the stitched span trace.
            body = _json.dumps(profiler.snapshot(), sort_keys=True).encode("utf-8")
            return 200, "application/json", body + b"\n"
        return 404, "application/json", b'{"error":"unknown path"}\n'

    @staticmethod
    def _http_response(
        status: int, ctype: str, body: bytes, *, head: bool = False
    ) -> bytes:
        reasons = {200: "OK", 400: "Bad Request", 404: "Not Found", 503: "Service Unavailable"}
        head_lines = (
            f"HTTP/1.0 {status} {reasons.get(status, 'Unknown')}\r\n"
            f"Content-Type: {ctype}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n"
            "\r\n"
        ).encode("latin-1")
        return head_lines if head else head_lines + body

    def eof(self) -> list:
        """End of stream: reject (never pad) any truncated trailing frame."""
        errors = self.decoder.eof()
        self._surface_decoder_errors()
        return errors
