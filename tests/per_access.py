"""Per-access reference tools: the differential oracle for batched delivery.

The bus delivers accesses in batches unless an attached tool class declares
``immediate_delivery``.  :func:`per_access` derives a test-only subclass of
any tool class that does, so a bus it is attached to hands every access to
``on_access`` as it is published — the reference run a batched run must
match.  The subclass keeps the tool's ``name``, so findings fingerprint
identically.
"""

from functools import cache


@cache
def per_access(tool_cls: type) -> type:
    """``tool_cls`` with immediate (per-access) delivery."""
    return type(
        f"PerAccess{tool_cls.__name__}", (tool_cls,), {"immediate_delivery": True}
    )
