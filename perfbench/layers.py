"""Which public functions the traced run wraps, and under which metric key.

A key is ``<layer>.<part>``; the layer is the ``repro`` package module the
function lives in.  Everything here is looked up by public name at install
time, so the sites follow the program as it changes: a site whose function
no longer exists is skipped and reported, never a crash.
"""

from __future__ import annotations

import importlib

#: Module layers, in the order the per-layer totals are reported.
LAYERS = ("openmp", "events", "core", "tools", "staticlint", "serve", "observe")

#: (module, class or None, attribute, metric key, options).  Options:
#: ``count`` (count calls, no span), ``context`` (span the returned context
#: manager's enter and exit too).
SITES = (
    ("repro.openmp.runtime", "TargetRuntime", "__init__", "openmp.init", ""),
    *(
        ("repro.openmp.runtime", "TargetRuntime", name, "openmp.runtime", "")
        for name in (
            "array",
            "free",
            "target",
            "target_enter_data",
            "target_exit_data",
            "target_update",
            "taskwait",
            "finalize",
        )
    ),
    ("repro.openmp.runtime", "TargetRuntime", "target_data", "openmp.runtime", "context"),
    # Host-side instrumented array views (kernel-side ones run inside target).
    *(
        ("repro.openmp.arrays", "HostArray", name, "openmp.view", "")
        for name in ("read", "write", "__getitem__", "__setitem__", "fill", "to_list", "peek", "poke")
    ),
    ("repro.tools.base", "Tool", "attach", "tools.attach", ""),
    ("repro.events.bus", "ToolBus", "publish_access", "events.publish.access", "count"),
    *(
        ("repro.events.bus", "ToolBus", f"publish_{kind}", "events.publish", "")
        for kind in ("data_op", "memcpy", "kernel", "allocation", "sync", "flush")
    ),
    ("repro.events.bus", "ToolBus", "flush_batch", "events.flush_batch", ""),
    ("repro.events.wire", None, "encode_frame", "events.wire.encode", ""),
    ("repro.events.wire", "FrameDecoder", "feed", "events.wire.decode", ""),
    ("repro.events.wire", None, "json_payload", "events.json", ""),
    ("repro.events.wire", "Frame", "json", "events.json", ""),
    ("repro.events.trace_io", None, "event_to_json", "events.json", ""),
    ("repro.events.trace_io", None, "event_from_json", "events.json", ""),
    ("repro.core.detector", "Arbalest", "__init__", "core.init", ""),
    ("repro.core.detector", "Arbalest", "on_batch", "core.on_batch", ""),
    ("repro.core.detector", "Arbalest", "on_access", "core.on_access", ""),
    ("repro.core.detector", "Arbalest", "on_data_op", "core.on_data_op", ""),
    ("repro.core.detector", "Arbalest", "on_allocation", "core.on_allocation", ""),
    ("repro.core.detector", "Arbalest", "on_memcpy", "core.on_event", ""),
    ("repro.core.detector", "Arbalest", "on_kernel", "core.on_event", ""),
    ("repro.core.detector", "Arbalest", "on_sync", "core.on_event", ""),
    ("repro.core.shadow", "ShadowBlock", "apply", "core.vsm", ""),
    ("repro.core.shadow", "ShadowBlock", "apply_ops", "core.vsm", ""),
    ("repro.core.shadow", "ShadowBlock", "apply_scalar", "core.vsm", ""),
    ("repro.core.registry", "MappingRegistry", "find", "core.lookup", ""),
    ("repro.core.registry", "MappingRegistry", "find_exact", "core.lookup", ""),
    ("repro.core.registry", "MappingRegistry", "find_by_ov", "core.lookup", ""),
    ("repro.core.registry", "ShadowRegistry", "find", "core.lookup", ""),
    *(
        ("repro.tools.archer", "RaceEngine", name, "tools.race", "")
        for name in ("check_batch", "check_access", "check_range", "check_strided")
    ),
    ("repro.staticlint", None, "spec_certificates", "staticlint.certify", ""),
    ("repro.staticlint", None, "dracc_certificates", "staticlint.certify", ""),
    ("repro.serve.client", "ServeClient", "stream", "serve.client", ""),
    ("repro.serve.transport", "LoopbackTransport", "send", "serve.transport", ""),
    ("repro.serve.server", "AnalysisServer", "handle_frame", "serve.server", ""),
    ("repro.serve.journal", "ShardJournal", "record", "serve.journal.record", ""),
    ("repro.serve.supervisor", "Supervisor", "dispatch", "serve.route", ""),
    ("repro.serve.shard", "ShardWorker", "deliver", "serve.shard.deliver", ""),
    ("repro.observe.observer", "ServeObserver", "frame_handled", "observe.frame_handled", ""),
    ("repro.observe.observer", "ServeObserver", "evaluate", "observe.frame_handled", ""),
)


def install(tracer, *, min_batch: int) -> list[str]:
    """Wrap every site on ``tracer``; returns the sites that do not exist.

    Besides spans, three hooks keep counts where the work happens: accesses
    published per bus since its last flush (so each ``flush_batch`` knows
    its batch size), bytes and frames the client put on the loopback wire,
    and every detector instance built (for its lookup, certificate and
    shadow accounting once its program ends).
    """
    counters = tracer.counters
    pending: dict[int, int] = {}

    def published(args) -> None:
        bus = id(args[0])
        pending[bus] = pending.get(bus, 0) + 1

    def flushing(args) -> None:
        size = pending.pop(id(args[0]), 0)
        if size:
            counters["events.batches"] += 1
            counters["events.batched"] += size
            counters["events.small_batches"] += size < min_batch

    def sending(args) -> None:
        counters["serve.frames"] += 1
        counters["serve.bytes"] += len(args[1])

    def built(args, _result) -> None:
        tracer.instances.append(args[0])

    hooks = {
        "publish_access": {"before": published},
        "flush_batch": {"before": flushing},
        "send": {"before": sending},
    }
    missing = []
    for module_name, class_name, attr, key, options in SITES:
        module = importlib.import_module(module_name)
        owner = getattr(module, class_name, None) if class_name else module
        if owner is None or not hasattr(owner, attr):
            missing.append(f"{module_name}.{class_name or ''}.{attr}".replace("..", "."))
            continue
        if class_name is None:
            tracer.wrap_function(owner, attr, key)
            continue
        kwargs = dict(hooks.get(attr, {}))
        if key == "core.init":
            kwargs["after"] = built
        tracer.wrap_method(
            owner,
            attr,
            key,
            span=options != "count",
            context=options == "context",
            **kwargs,
        )
    return missing
