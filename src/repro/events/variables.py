"""The bus's address-to-variable index: which variable owns an address.

ASan/MSan/Valgrind findings carry a faulting address but no variable
name, and ARBALEST's own overflow findings (§IV.D) fault outside every
mapping by definition.  :class:`VariableIndex` names them.  Every
:class:`~repro.events.bus.ToolBus` owns one and feeds it from the event
stream itself, before fan-out, so a live run, a trace replay and a served
session all see the same names — with or without a flight recorder:

* a host (device 0) allocation carries the array name as its label and
  registers verbatim;
* a device CV is named after its OV, **not** after its allocation label
  (device allocs are labelled ``name(CV)`` / ``name(image)``), so CV
  ranges register at the ``ALLOC`` data op by resolving the OV address
  against the already-registered host range;
* frees and ``DELETE`` data ops retire ranges, keeping allocator reuse
  from mis-attributing and letting use-after-unmap findings still name
  the departed variable.
"""

from __future__ import annotations

from .records import AllocationEvent, DataOp, DataOpKind

#: How many retired (unmapped/freed) address ranges to remember, so that
#: use-after-free findings can still name the variable that used to live
#: at the faulting address.
RETIRED_RANGES = 256


class VariableIndex:
    """Live and retired ``(device, lo, hi, variable)`` address ranges.

    Live ranges are keyed by ``(device, base)``: registering a base again
    replaces the older range, so an index shared by several buses that
    each observe one broadcast allocation holds it once.
    """

    def __init__(self) -> None:
        self._live: dict[tuple[int, int], tuple[int, int, int, str]] = {}
        self._retired: list[tuple[int, int, int, str]] = []

    # -- feeding -----------------------------------------------------------

    def observe(self, event) -> None:
        """Register or retire the range an allocation or data op names."""
        if type(event) is AllocationEvent:
            if event.is_free:
                self._release(event.device_id, event.address)
            elif event.device_id == 0 and event.label:
                self._register(0, event.address, event.nbytes, event.label)
        elif type(event) is DataOp:
            if event.kind is DataOpKind.ALLOC:
                name = self.resolve(0, event.ov_address)
                if name:
                    self._register(
                        event.device_id, event.cv_address, event.nbytes, name
                    )
            elif event.kind is DataOpKind.DELETE:
                self._release(event.device_id, event.cv_address)

    def _register(
        self, device_id: int, base: int, nbytes: int, variable: str
    ) -> None:
        if nbytes > 0:
            key = (device_id, base)
            self._live.pop(key, None)  # re-insert: most recent is last
            self._live[key] = (device_id, base, base + nbytes, variable)

    def _release(self, device_id: int, base: int) -> None:
        entry = self._live.pop((device_id, base), None)
        if entry is not None:
            if entry in self._retired:  # a journal replay retires it again
                self._retired.remove(entry)
            self._retired.append(entry)
            if len(self._retired) > RETIRED_RANGES:
                del self._retired[0]

    # -- lookup ------------------------------------------------------------

    def _newest_first(self):
        """Live ranges, then retired ones, each most recent first."""
        yield from reversed(self._live.values())
        yield from reversed(self._retired)

    def resolve(self, device_id: int, address: int) -> str:
        """The variable whose storage covers ``address``, or ``""``.

        Live ranges win over retired ones; within each class the most
        recently registered range wins (matching allocator reuse).
        """
        for dev, lo, hi, var in self._newest_first():
            if dev == device_id and lo <= address < hi:
                return var
        return ""

    def resolve_near(self, device_id: int, address: int, slack: int = 4096) -> str:
        """Like :meth:`resolve`, with a nearest-range fallback.

        Buffer overflows fault *outside* every registered range by
        definition.  An overrun is attributed to the nearest range ending
        at or below the address — the range the access ran past — and
        only an address below every such range (an underrun) to the
        nearest range above it, as :class:`~repro.serve.router.AddressRouter`
        routes them.  ``slack`` bounds the gap so a wild access far from
        everything stays unattributed.
        """
        exact = self.resolve(device_id, address)
        if exact:
            return exact
        below = above = ""
        below_gap = above_gap = slack + 1
        for dev, lo, hi, var in self._newest_first():
            if dev != device_id:
                continue
            if hi <= address:
                if address - hi < below_gap:
                    below, below_gap = var, address - hi
            elif lo - address < above_gap:
                above, above_gap = var, lo - address
        return below or above

    def __len__(self) -> int:
        return len(self._live) + len(self._retired)
