"""Multi-accelerator extension of the VSM (§IV.C of the paper).

For an application using *n* accelerators the variable state becomes an
``(n+1)``-tuple marking the validity of every storage location: the OV plus
one CV per device.  We pack the tuple into two 32-bit masks per granule:

* ``valid``  — bit 0: OV holds the last write; bit *d*: device *d*'s CV does;
* ``init``   — bit per location: was it ever written at all (UUM vs USD).

An operation for device *d* touches only the pair (OV, CV_d), and on that
pair it is the single-accelerator VSM: bits {0, d} of ``valid`` are its
state (``invalid=00 / host=01 / target=10 / consistent=11``) and bits
{0, d} of ``init`` its initialization bits.  So a transition projects the
pair onto a single-device shadow word's low nibble, steps it through the
table :mod:`repro.core.shadow` generates from the reference machine, and
writes it back, with one rule of its own: a write leaves only the writer's
copy valid, so it also clears every other CV's validity.

Space is O(n+1) bits per granule and each operation is O(1) bit arithmetic,
on plain ints for one granule or a uniform block and gathered with numpy
otherwise.
"""

from __future__ import annotations

import numpy as np

from ..memory.layout import GRANULE
from .detector import Arbalest
from .registry import ShadowRegistry
from .shadow import STEP, STEP_TABLE, const_bool
from .states import VsmOp

#: Up to 31 accelerators + the host fit the uint32 masks.
MAX_DEVICES = 31

#: Per op, the validity bits outside (OV, CV_d) that survive it: none after
#: a write, all otherwise.
_KEEP = [0 if op in (VsmOp.WRITE_HOST, VsmOp.WRITE_TARGET) else -1 for op in VsmOp]
_KEEP_ARRAY = np.array(_KEEP, dtype=np.int64)


def _nibble(v, ini, d):
    """The (OV, CV_d) pair of ``valid``/``init`` masks as a single-device
    shadow word's low nibble (plain ints or int64 arrays alike)."""
    return (v & 1) | (v >> d & 1) << 1 | (ini & 1) << 2 | (ini >> d & 1) << 3


def _lift(v, ini, d, keep, nxt):
    """Write a stepped nibble back into the (OV, CV_d) bits of the masks;
    ``keep`` masks the other validity bits (see ``_KEEP``)."""
    pair = 1 | 1 << d
    v = (v & keep & ~pair) | (nxt & 1) | (nxt >> 1 & 1) << d
    ini = (ini & ~pair) | (nxt >> 2 & 1) | (nxt >> 3 & 1) << d
    return v, ini


class MultiShadowBlock:
    """(n+1)-tuple validity shadow for one host allocation.

    Implements the same ``index_range``/``apply`` interface as
    :class:`~repro.core.shadow.ShadowBlock`, with ``device_id`` selecting
    which CV bit an operation touches.
    """

    __slots__ = ("base", "nbytes", "granule", "_valid", "_init", "_uniform", "label")

    #: Number of validity masks :meth:`states` can return.
    N_STATES = 1 << (MAX_DEVICES + 1)

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

    def apply(
        self, idx, ops, device_id=1, telemetry=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Apply ``ops`` for device ``device_id``; see ShadowBlock.apply.

        ``device_id`` is one device for every selected granule, or an
        array aligned with a no-repeat index array, like ``ops``.  No
        edge counts: ``telemetry`` is accepted for interface parity.
        """
        if type(device_id) is np.ndarray:
            in_range = not device_id.size or (
                1 <= device_id.min() and device_id.max() <= MAX_DEVICES
            )
        else:
            in_range = 1 <= device_id <= MAX_DEVICES
        if not in_range:
            raise ValueError(f"device id {device_id} out of range 1..{MAX_DEVICES}")
        u = self._uniform
        if (
            type(idx) is slice
            and idx.step in (None, 1)
            and None not in (idx.start, idx.stop)
            and type(ops) is not np.ndarray
            and type(device_id) is not np.ndarray
        ):
            lo = idx.start
            n = min(idx.stop, len(self._valid)) - lo
            if n > 0 and (u is not None or n == 1):
                # Plain ints: every selected granule holds one mask pair.
                old = u if u is not None else (int(self._valid[lo]), int(self._init[lo]))
                nxt, ill, uni = STEP[ops][_nibble(*old, device_id)]
                new = _lift(*old, device_id, _KEEP[ops], nxt)
                if u is not None and n == len(self._valid):
                    self._uniform = new  # whole block: the summary steps
                elif new != old:
                    self._materialize()
                    self._valid[idx], self._init[idx] = new
                return const_bool(ill, n), const_bool(uni, n)
        self._materialize()
        v = self._valid[idx].astype(np.int64)
        ini = self._init[idx].astype(np.int64)
        step = STEP_TABLE[ops, _nibble(v, ini, device_id)]
        self._valid[idx], self._init[idx] = _lift(
            v, ini, device_id, _KEEP_ARRAY[ops], step[:, 0]
        )
        return step[:, 1].astype(bool), step[:, 2].astype(bool)

    @staticmethod
    def count_steps(ops, states, telemetry):
        """No edge counts (see :meth:`apply`): interface parity."""
        return states

    def validity_at(self, address: int) -> int:
        """The raw validity mask of one granule (bit 0 = host)."""
        u = self._uniform
        if u is not None:
            return u[0]
        return int(self._valid[(address - self.base) // self.granule])

    def states(self, idx=slice(None)) -> np.ndarray:
        """Validity masks of the selected granules (the recorder's states)."""
        return self.valid[idx].copy()

    def state_label(self, i: int) -> str:
        """Validity mask of granule ``i`` rendered for flight-recorder
        timelines (see :meth:`state_name`)."""
        u = self._uniform
        return self.state_name(u[0] if u is not None else int(self._valid[i]))

    @staticmethod
    def state_name(v: int) -> str:
        """Which locations a validity mask says hold the last write, e.g.
        ``OV+CV2`` (host and device 2 consistent) or ``NONE`` (nothing
        valid yet)."""
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
