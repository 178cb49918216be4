"""ToolBus: selective dispatch and the native-run fast path."""

import pytest

from repro.events import Access, SourceLocation, SyncEvent, ToolBus
from repro.memory import BASE_ADDRESS
from repro.openmp import TargetRuntime
from repro.tools import Tool
from tests.per_access import per_access


class AccessOnly(Tool):
    name = "access-only"

    def __init__(self):
        super().__init__()
        self.seen = []

    def on_access(self, access):
        self.seen.append(access)


class SyncOnly(Tool):
    name = "sync-only"

    def __init__(self):
        super().__init__()
        self.seen = []

    def on_sync(self, event):
        self.seen.append(event)


def make_access():
    return Access(device_id=0, thread_id=0, address=BASE_ADDRESS, size=8, is_write=False)


class TestDispatch:
    def test_empty_bus_wants_nothing(self):
        assert not ToolBus().wants_accesses

    def test_only_overriders_receive(self):
        bus = ToolBus()
        a, s = AccessOnly(), SyncOnly()
        bus.attach(a)
        bus.attach(s)
        bus.publish_access(make_access())
        bus.publish_sync(SyncEvent("fork", 0, 1))
        assert len(a.seen) == 1 and len(s.seen) == 1
        # No cross-delivery: the sync tool saw no access and vice versa.
        assert all(isinstance(e, SyncEvent) for e in s.seen)

    def test_wants_accesses_tracks_subscribers(self):
        bus = ToolBus()
        s = SyncOnly()
        bus.attach(s)
        assert not bus.wants_accesses  # sync-only tool doesn't observe accesses
        a = AccessOnly()
        bus.attach(a)
        assert bus.wants_accesses
        bus.detach(a)
        assert not bus.wants_accesses

    def test_detach_stops_delivery(self):
        bus = ToolBus()
        a = AccessOnly()
        bus.attach(a)
        bus.publish_access(make_access())
        bus.detach(a)
        bus.publish_access(make_access())
        assert len(a.seen) == 1

    def test_multiple_tools_all_receive(self):
        bus = ToolBus()
        tools = [AccessOnly() for _ in range(3)]
        for t in tools:
            bus.attach(t)
        bus.publish_access(make_access())
        bus.flush_batch()
        assert all(len(t.seen) == 1 for t in tools)


class BatchOnly(Tool):
    """Overrides ``on_batch`` and nothing else of the access handlers."""

    name = "batch-only"

    def __init__(self):
        super().__init__()
        self.batches = []

    def on_batch(self, batch):
        self.batches.append(list(batch.accesses))


def make_accesses(n):
    return [
        Access(
            device_id=0, thread_id=0, address=BASE_ADDRESS + 8 * i, size=8,
            is_write=i % 2 == 0,
        )
        for i in range(n)
    ]


class TestBatchOnlyTool:
    """Overriding ``on_batch`` alone subscribes a tool to accesses."""

    def test_batch_only_tool_sees_every_access_in_order(self):
        bus = ToolBus()
        tool = BatchOnly()
        bus.attach(tool)
        assert bus.wants_accesses
        sent = make_accesses(5)
        for access in sent:
            bus.publish_access(access)
        assert tool.batches == []  # parked until the flush
        bus.flush_batch()
        assert tool.batches == [sent]

    def test_batches_of_one_while_an_immediate_tool_is_attached(self):
        bus = ToolBus()
        tool, immediate = BatchOnly(), per_access(AccessOnly)()
        bus.attach(tool)
        bus.attach(immediate)
        sent = make_accesses(3)
        for access in sent:
            bus.publish_access(access)
        assert tool.batches == [[access] for access in sent]
        assert immediate.seen == sent
        bus.detach(immediate)
        for access in sent:
            bus.publish_access(access)
        bus.flush_batch()
        assert tool.batches[3:] == [sent]


class TestStackCapture:
    """An access carries the stack of the frame that published it."""

    @pytest.mark.parametrize("tool_cls", [AccessOnly, per_access(AccessOnly)])
    def test_stack_survives_the_frame_exiting_before_the_flush(self, tool_cls):
        rt = TargetRuntime()
        tool = tool_cls()
        rt.machine.bus.attach(tool)
        a = rt.array("a", 4)
        with rt.machine.source.at("main.c", 10):
            with rt.machine.source.at("kernel.c", 5, function="kern"):
                a.write(1, 2.0)
        assert len(tool.seen) == int(tool.immediate_delivery)
        with rt.machine.source.at("main.c", 20):
            rt.machine.bus.flush_batch()
        (access,) = tool.seen
        assert access.stack == (
            SourceLocation("kernel.c", 5, function="kern"),
            SourceLocation("main.c", 10),
        )


class Exploding(Tool):
    name = "exploding"

    def on_access(self, access):
        raise RuntimeError("boom")


class TestCrashIsolation:
    def test_detach_never_attached_raises_naming_the_tool(self):
        bus = ToolBus()
        with pytest.raises(ValueError, match="'access-only'"):
            bus.detach(AccessOnly())

    def test_handler_exception_is_contained(self):
        bus = ToolBus()
        bad, good = Exploding(), AccessOnly()
        bus.attach(bad)
        bus.attach(good)
        bus.publish_access(make_access())
        bus.flush_batch()  # must not raise
        # The healthy tool still received the event.
        assert len(good.seen) == 1
        # The failure was recorded against the offender.
        assert len(bus.errors) == 1
        record = bus.errors[0]
        assert record.tool == "exploding"
        assert record.handler == "on_access"
        assert "boom" in record.error
        assert record.to_json()["handler"] == "on_access"

    def test_isolated_failure_files_tool_error_finding(self):
        from repro.tools import FindingKind

        bus = ToolBus()
        bad = Exploding()
        bus.attach(bad)
        bus.publish_access(make_access())
        bus.flush_batch()
        kinds = [f.kind for f in bad.findings]
        assert kinds == [FindingKind.TOOL_ERROR]
        assert "on_access" in bad.findings[0].message

    def test_strict_mode_reraises(self):
        bus = ToolBus()
        bus.strict = True
        bus.attach(Exploding())
        bus.publish_access(make_access())
        with pytest.raises(RuntimeError, match="boom"):
            bus.flush_batch()
        assert not bus.errors


class TestToolLifecycle:
    def test_attach_via_tool_helper(self):
        from repro.openmp import Machine

        machine = Machine(1)
        tool = AccessOnly().attach(machine)
        assert tool in machine.bus.tools
        tool.detach()
        assert tool not in machine.bus.tools

    def test_report_dedups_by_site(self):
        from repro.events import SourceLocation
        from repro.tools import Finding, FindingKind

        t = AccessOnly()
        loc = (SourceLocation("a.c", 3),)
        f = Finding(tool=t.name, kind=FindingKind.UUM, message="x", stack=loc)
        assert t.report(f)
        assert not t.report(f)
        assert len(t.findings) == 1
        # Different line: new site.
        g = Finding(
            tool=t.name, kind=FindingKind.UUM, message="x",
            stack=(SourceLocation("a.c", 4),),
        )
        assert t.report(g)

    def test_reset_clears_findings_and_dedup(self):
        from repro.tools import Finding, FindingKind

        t = AccessOnly()
        f = Finding(tool=t.name, kind=FindingKind.USD, message="m")
        t.report(f)
        t.reset()
        assert not t.findings
        assert t.report(f)  # dedup state gone too
