"""The observability-off path: zero cost, byte-identical wire, no spans."""

import tracemalloc

from repro.dracc import get
from repro.harness.serve import record_trace
from repro.serve import (
    AnalysisServer,
    LoopbackTransport,
    ServeClient,
    ServerConfig,
)

BENCH = 18


def _stream_once():
    server = AnalysisServer(ServerConfig(n_shards=2))
    client = ServeClient(LoopbackTransport(server), client_id=BENCH)
    return client.stream(record_trace(get(BENCH)))


class TestDisabledPath:
    def test_zero_observe_allocations_without_an_observer(self):
        """No observer, no logger: the serve hot path must never allocate
        inside ``repro/observe``.  The tracemalloc filter is the proof."""
        _stream_once()  # warm every code path first
        tracemalloc.start()
        try:
            _stream_once()
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        observe_allocs = snapshot.filter_traces(
            [tracemalloc.Filter(True, "*repro/observe/*")]
        ).statistics("filename")
        assert observe_allocs == [], [
            f"{s.traceback}: {s.size}B" for s in observe_allocs
        ]

    def test_untraced_client_emits_version_1_wire_only(self):
        """Without a span log the client's bytes are the pre-trace wire."""
        from repro.events.wire import WIRE_VERSION

        versions = set()

        class Tap(LoopbackTransport):
            def send(self, data: bytes) -> bytes:
                versions.add(data[2])
                return super().send(data)

        server = AnalysisServer(ServerConfig(n_shards=2))
        client = ServeClient(Tap(server), client_id=BENCH)
        client.stream(record_trace(get(BENCH)))
        assert versions == {WIRE_VERSION}

    def test_observer_free_result_matches_observed_result(self):
        """Observability must never change what the service computes."""
        from repro.observe import ServeObserver

        bare = _stream_once()
        observer = ServeObserver(trace_spans=True, wall_clock=False)
        server = AnalysisServer(ServerConfig(n_shards=2), observer)
        client = ServeClient(LoopbackTransport(server), client_id=BENCH)
        observed = client.stream(record_trace(get(BENCH)))
        assert bare.fingerprints() == observed.fingerprints()
