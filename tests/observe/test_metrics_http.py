"""Snapshots, Prometheus exposition validity, and the HTTP endpoints."""

import json

import pytest

from repro.dracc import get
from repro.harness.serve import record_trace
from repro.observe import (
    ServeObserver,
    healthz,
    histogram_quantile,
    readyz,
    render_prometheus,
    service_snapshot,
)
from repro.observe.metrics import metric_value, parse_exposition
from repro.observe.slo import CHAOS_SLOS
from repro.serve import (
    AnalysisServer,
    LoopbackTransport,
    ServeClient,
    ServerConfig,
)
from repro.telemetry.registry import Histogram

BENCH = 18


def served_server(observer=None):
    server = AnalysisServer(ServerConfig(n_shards=2), observer)
    client = ServeClient(LoopbackTransport(server), client_id=BENCH)
    client.stream(record_trace(get(BENCH)))
    return server


class TestSnapshot:
    def test_snapshot_aggregates_session_and_shard_state(self):
        server = served_server()
        snap = service_snapshot(server)
        assert snap["schema"] == "serve-metrics/1"
        assert snap["frames_handled"] > 0
        session = snap["sessions"][str(BENCH)]
        assert session["finished"]
        assert set(session["shards"]) == {"0", "1"}
        assert snap["totals"]["shards_alive"] == 2
        assert snap["totals"]["events_delivered"] > 0

    def test_observer_state_rides_the_snapshot(self):
        observer = ServeObserver()
        server = served_server(observer)
        snap = service_snapshot(server, observer)
        assert snap["observer"]["frames"] == server.frames_handled
        assert "frame" in snap["latency"]


class TestExposition:
    def test_rendered_text_is_valid_exposition(self):
        observer = ServeObserver()
        server = served_server(observer)
        families = parse_exposition(
            render_prometheus(service_snapshot(server, observer))
        )
        assert metric_value(families, "repro_serve_frames_handled_total") > 0
        assert metric_value(families, "repro_serve_sessions") == 1
        assert metric_value(
            families,
            "repro_serve_shard_alive",
            client=str(BENCH),
            shard="0",
        ) == 1

    def test_two_scrapes_of_an_idle_server_are_byte_identical(self):
        observer = ServeObserver()
        server = served_server(observer)
        first = render_prometheus(service_snapshot(server, observer))
        second = render_prometheus(service_snapshot(server, observer))
        assert first == second

    def test_histogram_lowering_is_cumulative_with_inf(self):
        observer = ServeObserver()
        server = served_server(observer)
        families = parse_exposition(
            render_prometheus(service_snapshot(server, observer))
        )
        buckets = families["repro_serve_frame_latency_us_bucket"]
        values = [v for _, v in buckets]
        assert values == sorted(values)  # cumulative never decreases
        assert buckets[-1][0]["le"] == "+Inf"
        assert buckets[-1][1] == metric_value(
            families, "repro_serve_frame_latency_us_count"
        )

    def test_quantile_returns_a_bucket_upper_edge(self):
        hist = Histogram()
        for value in (3, 5, 9, 100):
            hist.observe(value)
        p50 = histogram_quantile(hist, 0.50)
        assert p50 in {8.0, 16.0}  # an upper power-of-two edge
        assert histogram_quantile(Histogram(), 0.99) == 0.0


class TestHealthDocuments:
    def test_healthz_ok_without_burning_slos(self):
        observer = ServeObserver()
        server = served_server(observer)
        document = healthz(server, observer)
        assert document["status"] == "ok"
        assert document["heartbeat"]["frames_handled"] == server.frames_handled

    def test_healthz_names_the_burning_slo(self):
        observer = ServeObserver(slos=CHAOS_SLOS, cadence=10_000)
        server = served_server(observer)
        observer.count_redelivery(5)
        observer._window_frames = 5
        observer.evaluate(server)
        document = healthz(server, observer)
        assert document["status"] == "degraded"
        (burning,) = document["burning"]
        assert burning["slo"] == "redelivery-rate"
        assert burning["value"] > 0

    def test_healthz_without_observer_reports_disabled(self):
        server = served_server()
        assert healthz(server)["observer"] == "disabled"

    def test_readyz_true_for_live_shards_false_after_drain(self):
        server = served_server()
        assert readyz(server)["ready"] is True
        server.shutdown()
        document = readyz(server)
        assert document["ready"] is False
        assert document["drained"] is True


def http(connection, request: bytes) -> tuple[int, dict, bytes]:
    raw = connection.handle_bytes(request)
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = dict(line.split(": ", 1) for line in lines[1:])
    return status, headers, body


class TestHttpEndpoints:
    """The binary port answers GET/HEAD: sniffed per connection."""

    def test_metrics_endpoint_serves_valid_exposition(self):
        observer = ServeObserver()
        server = served_server(observer)
        connection = server.connection()
        status, headers, body = http(connection, b"GET /metrics HTTP/1.0\r\n\r\n")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert int(headers["Content-Length"]) == len(body)
        assert headers["Connection"] == "close"
        assert connection.close_requested
        families = parse_exposition(body.decode())
        assert metric_value(families, "repro_serve_frames_handled_total") > 0

    def test_healthz_and_readyz_are_json(self):
        server = served_server(ServeObserver())
        for path in (b"/healthz", b"/readyz"):
            status, headers, body = http(
                server.connection(), b"GET " + path + b" HTTP/1.0\r\n\r\n"
            )
            assert status == 200
            assert headers["Content-Type"] == "application/json"
            json.loads(body)

    def test_degraded_healthz_returns_503(self):
        observer = ServeObserver(slos=CHAOS_SLOS, cadence=10_000)
        server = served_server(observer)
        observer.count_redelivery(5)
        observer._window_frames = 5
        observer.evaluate(server)
        status, _, body = http(
            server.connection(), b"GET /healthz HTTP/1.0\r\n\r\n"
        )
        assert status == 503
        assert json.loads(body)["status"] == "degraded"

    def test_unknown_path_404s(self):
        status, _, _ = http(
            served_server().connection(), b"GET /nope HTTP/1.0\r\n\r\n"
        )
        assert status == 404

    def test_non_get_rejected(self):
        # P is neither G nor H: sniffed as wire, so the decoder rejects it;
        # but a GET-sniffed method check still guards HEAD lookalikes.
        status, _, _ = http(
            served_server().connection(), b"GETX / HTTP/1.0\r\n\r\n"
        )
        assert status == 400

    def test_head_returns_headers_only_with_full_length(self):
        server = served_server(ServeObserver())
        status, headers, body = http(
            server.connection(), b"HEAD /metrics HTTP/1.0\r\n\r\n"
        )
        assert status == 200
        assert body == b""
        assert int(headers["Content-Length"]) > 0

    def test_split_request_waits_for_header_end(self):
        server = served_server()
        connection = server.connection()
        assert connection.handle_bytes(b"GET /metr") == b""
        status, _, _body_ = http(connection, b"ics HTTP/1.0\r\n\r\n")
        assert status == 200

    def test_oversized_header_block_400s(self):
        connection = served_server().connection()
        raw = connection.handle_bytes(b"G" + b"x" * 20000)
        assert raw.startswith(b"HTTP/1.0 400")

    def test_wire_mode_is_untouched_by_http_support(self):
        from repro.events.wire import Frame, FrameDecoder, FrameKind, encode_frame

        server = AnalysisServer(ServerConfig(n_shards=2))
        connection = server.connection()
        hello = Frame(FrameKind.HELLO, 1, 0, b"{}")
        raw = connection.handle_bytes(encode_frame(hello))
        assert connection.mode == "wire"
        (reply,) = FrameDecoder().feed(raw)
        assert reply.kind is FrameKind.ACK


class TestLabelEscaping:
    """Exposition validity under hostile label values (satellite fix)."""

    HOSTILE = [
        'quote:"double"',
        "back\\slash",
        "line\nbreak",
        'all\\three\n"at once"',
        'trailing backslash\\',
        "commas,and=equals",
    ]

    def test_hostile_label_values_round_trip(self):
        from repro.observe.metrics import _Exposition

        exp = _Exposition()
        exp.family("test_metric", "gauge", "hostile labels")
        for i, value in enumerate(self.HOSTILE):
            exp.sample("test_metric", i, label=value)
        families = parse_exposition(exp.render())
        seen = {labels["label"] for labels, _ in families["test_metric"]}
        assert seen == set(self.HOSTILE)
        for labels, value in families["test_metric"]:
            assert labels["label"] == self.HOSTILE[int(value)]

    def test_escaping_order_backslash_first(self):
        """Escaping the backslash last would corrupt \\" into \\\\"."""
        from repro.observe.metrics import _escape_label_value

        assert _escape_label_value('"') == '\\"'
        assert _escape_label_value("\\") == "\\\\"
        assert _escape_label_value("\n") == "\\n"
        assert _escape_label_value('\\"') == '\\\\\\"'

    def test_parser_rejects_malformed_label_bodies(self):
        for text in (
            'm{k="unterminated} 1',
            'm{k="dangling\\} 1',
            'm{k="bad\\q"} 1',
            'm{k="a"x="b"} 1',
            "m{novalue} 1",
        ):
            with pytest.raises(ValueError):
                parse_exposition(text)


class TestProfileEndpoint:
    """/profile (folded stacks) and /profile.json (snapshot) ride /metrics."""

    @staticmethod
    def _fine_observer():
        # One DRACC benchmark publishes only a few hundred elements; a fine
        # stride guarantees samples without needing a big workload.
        from repro.observe.prof import Profiler

        return ServeObserver(
            profile=Profiler(stride=8, benchmark="serve", track_kernel_phase=False)
        )

    def test_profile_endpoint_serves_folded_stacks(self):
        observer = self._fine_observer()
        server = served_server(observer)
        status, headers, body = http(
            server.connection(), b"GET /profile HTTP/1.0\r\n\r\n"
        )
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        text = body.decode()
        # Every line is 'bench;phase;tool;frames... weight' — parseable by
        # the flamegraph renderer.
        from repro.observe.flame import parse_folded

        tree = parse_folded(text)
        assert tree["value"] > 0
        assert "shard-" in text

    def test_profile_json_snapshot_has_hot_stacks(self):
        observer = self._fine_observer()
        server = served_server(observer)
        status, headers, body = http(
            server.connection(), b"GET /profile.json HTTP/1.0\r\n\r\n"
        )
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        snap = json.loads(body)
        assert snap["samples"] > 0
        assert snap["hot"]
        top = snap["hot"][0]
        assert top["weight"] >= snap["stride"] or top["weight"] > 0
        # Profile<->span correlation: hot stacks carry wire-frame links.
        assert all("client" in f and "seq" in f for f in top["frames"])

    def test_profile_404s_when_profiling_disabled(self):
        observer = ServeObserver(profile=False)
        server = served_server(observer)
        status, _, body = http(
            server.connection(), b"GET /profile HTTP/1.0\r\n\r\n"
        )
        assert status == 404
        assert b"profiling disabled" in body

    def test_profile_metrics_ride_the_exposition(self):
        observer = self._fine_observer()
        server = served_server(observer)
        families = parse_exposition(
            render_prometheus(service_snapshot(server, observer))
        )
        assert metric_value(families, "repro_serve_profile_events_total") > 0
        assert metric_value(families, "repro_serve_profile_stride") >= 1
        per_shard = families.get("repro_serve_profile_samples_total", [])
        shards = {labels["shard"] for labels, _ in per_shard}
        assert shards and shards <= {"shard-0", "shard-1"}
        assert sum(v for _, v in per_shard) > 0


class TestParseExposition:
    def test_parses_names_labels_and_values(self):
        families = parse_exposition(
            "# HELP x help\n# TYPE x counter\n"
            'x 3\nx_bucket{le="+Inf",stage="decode"} 7\n'
        )
        assert families["x"] == [({}, 3.0)]
        assert families["x_bucket"] == [
            ({"le": "+Inf", "stage": "decode"}, 7.0)
        ]

    def test_blank_and_comment_lines_are_skipped(self):
        assert parse_exposition("\n# just a comment\n\n") == {}

    @pytest.mark.parametrize(
        "line",
        [
            "lonely",  # no value separator yields empty name
            "x notanumber",  # junk value
            'x{le=3} 1',  # unquoted label value
            'x{le"3"} 1',  # no equals sign
            "we ird{} 1 2 3",  # junk tail
        ],
    )
    def test_malformed_lines_raise(self, line):
        with pytest.raises(ValueError):
            parse_exposition(line)

    def test_metric_value_requires_exact_label_match(self):
        families = parse_exposition('x{a="1",b="2"} 5\n')
        assert metric_value(families, "x", a="1", b="2") == 5.0
        assert metric_value(families, "x", a="1") is None
        assert metric_value(families, "x") is None
