"""Multi-accelerator extension of the VSM (§IV.C of the paper).

For an application using *n* accelerators the variable state becomes an
``(n+1)``-tuple marking the validity of every storage location: the OV plus
one CV per device.  We pack the tuple into two 32-bit masks per granule:

* ``valid``  — bit 0: OV holds the last write; bit *d*: device *d*'s CV does;
* ``init``   — bit per location: was it ever written at all (UUM vs USD).

The single-accelerator VSM is the special case n = 1 (states map as
``invalid=00 / host=01 / target=10 / consistent=11`` over bits {0, d});
property-based tests assert this equivalence against the scalar reference.

Space is O(n+1) bits per granule and each operation is O(1) bit arithmetic
— vectorized over ranges with numpy, like the single-device shadow.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..memory.layout import GRANULE
from .detector import Arbalest
from .registry import ShadowRegistry
from .states import VsmOp

if TYPE_CHECKING:  # pragma: no cover - typing only
    pass

#: Up to 31 accelerators + the host fit the uint32 masks.
MAX_DEVICES = 31

_HOST_BIT = np.uint32(1)


def _step_masks(
    v: int, ini: int, op: VsmOp, dbit: int
) -> tuple[int, int, bool, bool]:
    """One validity/init transition on plain-int masks (shared fast path)."""
    illegal = uninit = False
    if op is VsmOp.READ_HOST:
        illegal = not v & 1
        uninit = illegal and not ini & 1
    elif op is VsmOp.READ_TARGET:
        illegal = not v & dbit
        uninit = illegal and not ini & dbit
    elif op is VsmOp.WRITE_HOST:
        v = 1
        ini |= 1
    elif op is VsmOp.WRITE_TARGET:
        v = dbit
        ini |= dbit
    elif op is VsmOp.UPDATE_HOST:
        v = v | 1 if v & dbit else v & ~1
        ini = ini | 1 if ini & dbit else ini & ~1
    elif op is VsmOp.UPDATE_TARGET:
        v = v | dbit if v & 1 else v & ~dbit
        ini = ini | dbit if ini & 1 else ini & ~dbit
    elif op is VsmOp.ALLOCATE:
        ini &= ~dbit
    elif op is VsmOp.RELEASE:
        v &= ~dbit
        ini &= ~dbit
    return v, ini, illegal, uninit


class MultiShadowBlock:
    """(n+1)-tuple validity shadow for one host allocation.

    Implements the same ``index_range``/``apply`` interface as
    :class:`~repro.core.shadow.ShadowBlock`, with ``device_id`` selecting
    which CV bit an operation touches.
    """

    __slots__ = ("base", "nbytes", "granule", "_valid", "_init", "_uniform", "label")

    def __init__(self, base: int, nbytes: int, *, granule: int = GRANULE, label: str = ""):
        self.base = base
        self.nbytes = nbytes
        self.granule = granule
        self.label = label
        n = -(-nbytes // granule)
        self._valid = np.zeros(n, dtype=np.uint32)
        self._init = np.zeros(n, dtype=np.uint32)
        # Uniform summary, like ShadowBlock: (valid, init) masks shared by
        # every granule while whole-block operations keep them in lockstep.
        self._uniform: tuple[int, int] | None = (0, 0)

    def _materialize(self) -> None:
        u = self._uniform
        if u is not None:
            self._valid.fill(u[0])
            self._init.fill(u[1])
            self._uniform = None

    @property
    def valid(self) -> np.ndarray:
        self._materialize()
        return self._valid

    @property
    def init(self) -> np.ndarray:
        self._materialize()
        return self._init

    @property
    def n_granules(self) -> int:
        return len(self._valid)

    @property
    def shadow_nbytes(self) -> int:
        return self._valid.nbytes + self._init.nbytes

    def contains(self, address: int, span: int = 1) -> bool:
        return self.base <= address and address + span <= self.base + self.nbytes

    def index_range(self, address: int, span: int) -> slice:
        lo = max(0, (address - self.base) // self.granule)
        hi = min(self.n_granules, -(-(address + span - self.base) // self.granule))
        return slice(lo, max(lo, hi))

    def apply(self, idx, op: VsmOp, device_id: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """Apply ``op`` for device ``device_id``; see ShadowBlock.apply."""
        if not 1 <= device_id <= MAX_DEVICES:
            raise ValueError(f"device id {device_id} out of range 1..{MAX_DEVICES}")
        if (
            type(idx) is slice
            and idx.step in (None, 1)
            and idx.start is not None
            and idx.stop == idx.start + 1
        ):
            # One granule: the plain-int step, as ShadowBlock.apply takes it.
            ill, uni = self.apply_scalar(idx.start, op, device_id)
            return np.array([ill]), np.array([uni])
        u = self._uniform
        if u is not None and type(idx) is slice:
            lo, hi = idx.start, idx.stop
            if (
                lo == 0
                and hi is not None
                and hi >= len(self._valid)
                and (idx.step is None or idx.step == 1)
            ):
                n = len(self._valid)
                v2, ini2, ill, uni = _step_masks(u[0], u[1], op, 1 << device_id)
                self._uniform = (v2, ini2)
                return np.full(n, ill), np.full(n, uni)
        self._materialize()
        dbit = np.uint32(1 << device_id)
        v = self.valid[idx]
        ini = self.init[idx]
        illegal = np.zeros(v.shape, dtype=bool)
        uninit = np.zeros(v.shape, dtype=bool)
        if op is VsmOp.READ_HOST:
            illegal = (v & _HOST_BIT) == 0
            uninit = illegal & ((ini & _HOST_BIT) == 0)
        elif op is VsmOp.READ_TARGET:
            illegal = (v & dbit) == 0
            uninit = illegal & ((ini & dbit) == 0)
        elif op is VsmOp.WRITE_HOST:
            v = np.zeros_like(v) | _HOST_BIT
            ini = ini | _HOST_BIT
        elif op is VsmOp.WRITE_TARGET:
            v = np.zeros_like(v) | dbit
            ini = ini | dbit
        elif op is VsmOp.UPDATE_HOST:
            # memcpy(OV, CV_d): OV's validity/history becomes the device's.
            dev_valid = (v & dbit) != 0
            v = np.where(dev_valid, v | _HOST_BIT, v & ~_HOST_BIT)
            dev_init = (ini & dbit) != 0
            ini = np.where(dev_init, ini | _HOST_BIT, ini & ~_HOST_BIT)
        elif op is VsmOp.UPDATE_TARGET:
            # memcpy(CV_d, OV)
            host_valid = (v & _HOST_BIT) != 0
            v = np.where(host_valid, v | dbit, v & ~dbit)
            host_init = (ini & _HOST_BIT) != 0
            ini = np.where(host_init, ini | dbit, ini & ~dbit)
        elif op is VsmOp.ALLOCATE:
            # A fresh CV holds garbage (init cleared) but, per Fig 4, the
            # validity state is unchanged: allocation is not a transfer.
            ini = ini & ~dbit
        elif op is VsmOp.RELEASE:
            v = v & ~dbit
            ini = ini & ~dbit
        self.valid[idx] = v
        self.init[idx] = ini
        return illegal, uninit

    def apply_scalar(self, i: int, op: VsmOp, device_id: int = 1) -> tuple[bool, bool]:
        """Scalar twin of :meth:`apply` for single-granule accesses."""
        if not 1 <= device_id <= MAX_DEVICES:
            raise ValueError(f"device id {device_id} out of range 1..{MAX_DEVICES}")
        dbit = 1 << device_id
        u = self._uniform
        if u is not None:
            v2, ini2, illegal, uninit = _step_masks(u[0], u[1], op, dbit)
            if (v2, ini2) == u:
                return illegal, uninit
            if len(self._valid) == 1:
                self._uniform = (v2, ini2)
                return illegal, uninit
            self._materialize()
            self._valid[i] = v2
            self._init[i] = ini2
            return illegal, uninit
        v, ini, illegal, uninit = _step_masks(
            int(self._valid[i]), int(self._init[i]), op, dbit
        )
        self._valid[i] = v
        self._init[i] = ini
        return illegal, uninit

    def validity_at(self, address: int) -> int:
        """The raw validity mask of one granule (bit 0 = host)."""
        u = self._uniform
        if u is not None:
            return u[0]
        return int(self._valid[(address - self.base) // self.granule])

    def state_label(self, i: int) -> str:
        """Validity mask of granule ``i`` rendered for flight-recorder
        timelines: which locations hold the last write, e.g. ``OV+CV2``
        (host and device 2 consistent) or ``NONE`` (nothing valid yet)."""
        u = self._uniform
        v = u[0] if u is not None else int(self._valid[i])
        if v == 0:
            return "NONE"
        parts = ["OV"] if v & 1 else []
        d = 1
        v >>= 1
        while v:
            if v & 1:
                parts.append(f"CV{d}")
            d += 1
            v >>= 1
        return "+".join(parts)


class MultiShadowRegistry(ShadowRegistry):
    """ShadowRegistry producing multi-device blocks."""

    def _make_block(
        self, base: int, nbytes: int, granule: int, label: str
    ) -> MultiShadowBlock:
        return MultiShadowBlock(base, nbytes, granule=granule, label=label)


class MultiDeviceArbalest(Arbalest):
    """ARBALEST generalized to n accelerators.

    Identical event handling to :class:`~repro.core.detector.Arbalest`; only
    the per-granule state representation changes, exactly as §IV.C
    describes ("by extending states in VSM, the algorithm can support
    multiple accelerators ... the space overhead increases to O(n+1)").
    """

    name = "arbalest-multi"

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.shadows = MultiShadowRegistry(
            granule=self.granule,
            certified=self.certified,
            sections=self.cert_sections,
        )
