"""Per-access delivery for tests: every access reaches the tools at once.

The bus delivers accesses in batches unless an attached tool class declares
``immediate_delivery``.  :func:`per_access` derives a test-only subclass of
any tool class that does, so a bus it is attached to flushes every access
as it is published: a vectorizing tool gets it as a batch of one, any
other tool through ``on_access``.  A batched run must match that run.  The
subclass keeps the tool's ``name``, so findings fingerprint identically.
The mapping findings of both are held to an independent model in
:mod:`tests.mapping_reference`.
"""

from functools import cache


@cache
def per_access(tool_cls: type) -> type:
    """``tool_cls`` with immediate (per-access) delivery."""
    return type(
        f"PerAccess{tool_cls.__name__}", (tool_cls,), {"immediate_delivery": True}
    )
