"""Packed shadow memory: the production, vectorized VSM implementation.

For every aligned granule (8 bytes, §IV.C) of every host allocation the
detector keeps one 64-bit *shadow word* whose layout transcribes Table II:

======================  ======  ========
field                    bits    position
======================  ======  ========
IsOVValid                 1       0
IsCVValid                 1       1
IsOVInitialized           1       2
IsCVInitialized           1       3
TID (thread id)           12      4..15
Scalar clock              42      16..57
IsWrite                   1       58
Access size code          2       59..60
Address offset            3       61..63
======================  ======  ========

Bits 0..1 *are* the VSM state (see :class:`repro.core.states.VsmState`), so
a whole-range transition is four numpy ops: mask out the state, push it
through a (op × state) lookup table with fancy indexing, detect the illegal
combinations with a boolean table, and write back.  This is the vectorized
twin of :class:`repro.core.vsm.VariableStateMachine`; hypothesis-based tests
assert they never disagree.

A :class:`ShadowBlock` covers one allocation.  ``granule`` is parametric
only to support the paper's §IV.C soundness argument as an ablation: coarse
(whole-array) tracking is what X10CUDA/OpenARC do and produces false alarms
on partial updates; 8 bytes is ARBALEST's choice.
"""

from __future__ import annotations

import numpy as np

from ..memory.errors import ShadowEncodingError
from ..memory.layout import GRANULE
from ..telemetry import registry as _telemetry
from .states import ILLEGAL, TRANSITIONS, VsmOp, VsmState

# -- Table II bit positions --------------------------------------------------

BIT_OV_VALID = 0
BIT_CV_VALID = 1
BIT_OV_INIT = 2
BIT_CV_INIT = 3
SHIFT_TID = 4
SHIFT_CLOCK = 16
BIT_IS_WRITE = 58
SHIFT_SIZE = 59
SHIFT_OFFSET = 61

MASK_STATE = np.uint64(0b11)
MASK_OV_INIT = np.uint64(1 << BIT_OV_INIT)
MASK_CV_INIT = np.uint64(1 << BIT_CV_INIT)
MASK_TID = np.uint64(0xFFF) << np.uint64(SHIFT_TID)
MASK_CLOCK = np.uint64((1 << 42) - 1) << np.uint64(SHIFT_CLOCK)

#: Access sizes are encoded in 2 bits: 1, 2, 4 or 8 bytes (Table II).
SIZE_CODES = {1: 0, 2: 1, 4: 2, 8: 3}
SIZE_FROM_CODE = {v: k for k, v in SIZE_CODES.items()}


def pack_word(
    state: VsmState,
    *,
    ov_initialized: bool = False,
    cv_initialized: bool = False,
    tid: int = 0,
    clock: int = 0,
    is_write: bool = False,
    access_size: int = 8,
    offset: int = 0,
) -> int:
    """Pack one full Table II shadow word (scalar; tests and reports)."""
    if access_size not in SIZE_CODES:
        raise ShadowEncodingError(f"access size must be 1/2/4/8, got {access_size}")
    if not 0 <= tid < (1 << 12):
        raise ShadowEncodingError(f"tid {tid} exceeds 12 bits")
    if not 0 <= clock < (1 << 42):
        raise ShadowEncodingError(f"clock {clock} exceeds 42 bits")
    if not 0 <= offset < 8:
        raise ShadowEncodingError(f"address offset {offset} exceeds 3 bits")
    return (
        int(state)
        | (int(ov_initialized) << BIT_OV_INIT)
        | (int(cv_initialized) << BIT_CV_INIT)
        | (tid << SHIFT_TID)
        | (clock << SHIFT_CLOCK)
        | (int(is_write) << BIT_IS_WRITE)
        | (SIZE_CODES[access_size] << SHIFT_SIZE)
        | (offset << SHIFT_OFFSET)
    )


def unpack_word(word: int) -> dict:
    """Inverse of :func:`pack_word`."""
    return {
        "state": VsmState(word & 0b11),
        "ov_initialized": bool(word >> BIT_OV_INIT & 1),
        "cv_initialized": bool(word >> BIT_CV_INIT & 1),
        "tid": (word >> SHIFT_TID) & 0xFFF,
        "clock": (word >> SHIFT_CLOCK) & ((1 << 42) - 1),
        "is_write": bool(word >> BIT_IS_WRITE & 1),
        "access_size": SIZE_FROM_CODE[(word >> SHIFT_SIZE) & 0b11],
        "offset": (word >> SHIFT_OFFSET) & 0b111,
    }


# -- vectorized transition tables -------------------------------------------

_N_OPS = len(VsmOp)
TRANS_LUT = np.zeros((_N_OPS, 4), dtype=np.uint64)
ILLEGAL_LUT = np.zeros((_N_OPS, 4), dtype=bool)
for _op in VsmOp:
    for _st in VsmState:
        TRANS_LUT[_op, _st] = int(TRANSITIONS[_op][_st])
        ILLEGAL_LUT[_op, _st] = ILLEGAL[_op][_st]

_U64_3 = np.uint64(3)
_U64_1 = np.uint64(1)

# -- scalar (plain-int) twin tables ------------------------------------------
#
# The vectorized pipeline above costs ~10 numpy dispatches per apply(); for a
# single-granule access that fixed cost dwarfs the work.  The scalar fast
# path uses these plain Python lists and int bit ops instead — hypothesis
# tests assert it never disagrees with either the vectorized path or the
# reference VariableStateMachine.

TRANS_LUT_PY: list[list[int]] = [
    [int(TRANSITIONS[op][st]) for st in VsmState] for op in VsmOp
]
ILLEGAL_LUT_PY: list[list[bool]] = [
    [ILLEGAL[op][st] for st in VsmState] for op in VsmOp
]

_OV_INIT_INT = 1 << BIT_OV_INIT
_CV_INIT_INT = 1 << BIT_CV_INIT

# Telemetry counter names for every (op, old-state) pair, precomputed so
# enabled-mode accounting on the access hot path allocates no strings.  The
# new state is a function of (op, old state), so the pair names the full
# transition edge.
_TRANSITION_KEYS: list[list[str]] = [
    [
        f"vsm.{op.name.lower()}.{VsmState(st).name}->"
        f"{VsmState(TRANS_LUT_PY[op][st]).name}"
        for st in range(4)
    ]
    for op in VsmOp
]


# Read-only constant-bool pools for the uniform fast paths: a slice of a
# shared array is ~20x cheaper than np.full/np.broadcast_to at these sizes.
# Callers treat the returned (illegal, uninit) arrays as read-only.
_CONST_POOL_CAP = 1 << 16
_FALSE_POOL = np.zeros(_CONST_POOL_CAP, dtype=bool)
_TRUE_POOL = np.ones(_CONST_POOL_CAP, dtype=bool)
_FALSE_POOL.setflags(write=False)
_TRUE_POOL.setflags(write=False)


def _const_bool(flag: bool, n: int) -> np.ndarray:
    if n <= _CONST_POOL_CAP:
        return (_TRUE_POOL if flag else _FALSE_POOL)[:n]
    return np.full(n, flag)


def _step_word(w: int, op: VsmOp) -> tuple[int, bool, bool]:
    """One Table-II transition on a plain-int shadow word.

    Returns ``(new_word, illegal, uninitialized)``; shared by the scalar
    and uniform-range fast paths.
    """
    st = w & 0b11
    illegal = ILLEGAL_LUT_PY[op][st]
    uninit = False
    if illegal:
        if op is VsmOp.READ_HOST:
            uninit = not (w >> BIT_OV_INIT) & 1
        else:  # the only other illegal-capable op is READ_TARGET
            uninit = not (w >> BIT_CV_INIT) & 1
    if op is VsmOp.WRITE_HOST:
        w |= _OV_INIT_INT
    elif op is VsmOp.WRITE_TARGET:
        w |= _CV_INIT_INT
    elif op is VsmOp.UPDATE_HOST:
        w = (w & ~_OV_INIT_INT) | ((w >> 1) & _OV_INIT_INT)
    elif op is VsmOp.UPDATE_TARGET:
        w = (w & ~_CV_INIT_INT) | ((w & _OV_INIT_INT) << 1)
    elif op is VsmOp.ALLOCATE or op is VsmOp.RELEASE:
        w &= ~_CV_INIT_INT
    return (w & ~0b11) | TRANS_LUT_PY[op][st], illegal, uninit


class ShadowBlock:
    """Shadow words for one host allocation (one word per granule).

    Blocks additionally keep a *uniform-word summary*: while every granule
    holds the same shadow word (true from birth, and preserved by the
    whole-block transitions that dominate bulk workloads) ``_uniform`` holds
    that word and the backing array is stale.  Whole-range applies then cost
    O(1) plain-int work; any partial or per-granule operation first
    materializes the summary back into ``words``.
    """

    __slots__ = ("base", "nbytes", "granule", "_words", "_uniform", "label")

    def __init__(self, base: int, nbytes: int, *, granule: int = GRANULE, label: str = ""):
        if granule <= 0:
            raise ValueError(f"granule must be positive, got {granule}")
        self.base = base
        self.nbytes = nbytes
        self.granule = granule
        self.label = label
        n = -(-nbytes // granule)
        # All-invalid, nothing initialized: exactly "[Host: 0, Accel: 0]".
        self._words = np.zeros(n, dtype=np.uint64)
        self._uniform: int | None = 0

    def _materialize(self) -> np.ndarray:
        """Write the uniform summary back into the word array and return it."""
        u = self._uniform
        if u is not None:
            self._words.fill(u)
            self._uniform = None
        return self._words

    @property
    def words(self) -> np.ndarray:
        """The per-granule shadow words (materializing any uniform summary)."""
        return self._materialize()

    # -- indexing -----------------------------------------------------------

    @property
    def n_granules(self) -> int:
        return len(self._words)

    @property
    def shadow_nbytes(self) -> int:
        return self._words.nbytes

    def contains(self, address: int, span: int = 1) -> bool:
        return self.base <= address and address + span <= self.base + self.nbytes

    def index_range(self, address: int, span: int) -> slice:
        """Local granule slice covering ``[address, address+span)``, clipped."""
        lo = max(0, (address - self.base) // self.granule)
        hi = min(self.n_granules, -(-(address + span - self.base) // self.granule))
        return slice(lo, max(lo, hi))

    # -- transitions ------------------------------------------------------------

    def apply(self, idx, op: VsmOp, device_id: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """Apply ``op`` to the granules selected by ``idx`` (slice or array).

        Returns ``(illegal, uninitialized)`` boolean arrays aligned with the
        selection: which granules had no legal transition, and which of
        those were never initialized on the reading side (UUM vs USD).

        ``device_id`` is accepted for interface parity with the
        multi-device shadow (§IV.C) and ignored here: the four-state VSM
        models exactly one accelerator.
        """
        if type(idx) is slice:
            lo, hi = idx.start, idx.stop
            if (
                lo is not None
                and hi is not None
                and (idx.step is None or idx.step == 1)
            ):
                if hi <= lo:
                    return np.zeros(0, dtype=bool), np.zeros(0, dtype=bool)
                if hi - lo == 1:
                    ill, uni = self.apply_scalar(lo, op, device_id)
                    return np.array([ill]), np.array([uni])
                u = self._uniform
                if u is not None and lo == 0 and hi >= len(self._words):
                    # Whole-block transition on a uniform block: O(1) — the
                    # summary steps once and the word array stays stale.
                    n = len(self._words)
                    new_w, ill, uni = _step_word(u, op)
                    self._uniform = new_w
                    telemetry = _telemetry.ACTIVE
                    if telemetry is not None:
                        telemetry.count(_TRANSITION_KEYS[op][u & 0b11], n)
                    return _const_bool(ill, n), _const_bool(uni, n)
                # Uniform-range fast path: whole-array data ops and kernel
                # accesses usually find every granule in one state, so one
                # scalar transition broadcast back replaces the vectorized
                # pipeline below.
                words = self._materialize()
                w0 = words[idx]
                n = len(w0)
                if n and bool((w0 == w0[0]).all()):
                    old = int(w0[0])
                    new_w, ill, uni = _step_word(old, op)
                    words[idx] = new_w
                    telemetry = _telemetry.ACTIVE
                    if telemetry is not None:
                        telemetry.count(_TRANSITION_KEYS[op][old & 0b11], n)
                    return _const_bool(ill, n), _const_bool(uni, n)
        w = self.words[idx]
        st = (w & MASK_STATE).astype(np.intp)
        telemetry = _telemetry.ACTIVE
        if telemetry is not None:
            counts = np.bincount(st, minlength=4)
            keys = _TRANSITION_KEYS[op]
            for state_code in range(4):
                if counts[state_code]:
                    telemetry.count(keys[state_code], int(counts[state_code]))
        illegal = ILLEGAL_LUT[op][st]
        if op is VsmOp.READ_HOST:
            uninit = illegal & ((w >> np.uint64(BIT_OV_INIT)) & _U64_1 == 0)
        elif op is VsmOp.READ_TARGET:
            uninit = illegal & ((w >> np.uint64(BIT_CV_INIT)) & _U64_1 == 0)
        else:
            uninit = np.zeros_like(illegal)
        # Initialization-bit bookkeeping (matches VariableStateMachine).
        if op is VsmOp.WRITE_HOST:
            w = w | MASK_OV_INIT
        elif op is VsmOp.WRITE_TARGET:
            w = w | MASK_CV_INIT
        elif op is VsmOp.UPDATE_HOST:
            cv_init = (w >> np.uint64(1)) & MASK_OV_INIT  # bit3 -> bit2 position
            w = (w & ~MASK_OV_INIT) | cv_init
        elif op is VsmOp.UPDATE_TARGET:
            ov_init = (w & MASK_OV_INIT) << np.uint64(1)  # bit2 -> bit3 position
            w = (w & ~MASK_CV_INIT) | ov_init
        elif op in (VsmOp.ALLOCATE, VsmOp.RELEASE):
            w = w & ~MASK_CV_INIT
        w = (w & ~MASK_STATE) | TRANS_LUT[op][st]
        self.words[idx] = w
        return illegal, uninit

    def apply_scalar(self, i: int, op: VsmOp, device_id: int = 1) -> tuple[bool, bool]:
        """Scalar fast path: apply ``op`` to granule ``i`` with plain-int ops.

        Semantically identical to :meth:`apply` on a one-granule selection,
        but returns plain bools and touches numpy only to load/store the one
        word.  ``device_id`` is ignored exactly as in :meth:`apply`.
        """
        u = self._uniform
        if u is not None:
            new_w, illegal, uninit = _step_word(u, op)
            if new_w == u:
                # The word didn't change (legal or illegal *read*): the
                # block stays uniform and the array stays untouched.
                pass
            elif len(self._words) == 1:
                self._uniform = new_w
            else:
                self._materialize()[i] = new_w
            telemetry = _telemetry.ACTIVE
            if telemetry is not None:
                telemetry.count(_TRANSITION_KEYS[op][u & 0b11])
            return illegal, uninit
        words = self._words
        old = int(words[i])
        new_w, illegal, uninit = _step_word(old, op)
        words[i] = new_w
        telemetry = _telemetry.ACTIVE
        if telemetry is not None:
            telemetry.count(_TRANSITION_KEYS[op][old & 0b11])
        return illegal, uninit

    def apply_ops(self, idx: np.ndarray, ops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Columnar transition: one op *per selected granule*, gather/scatter.

        ``idx`` is a local granule index array with **no repeats** (the
        batch path splits batches into first-occurrence passes before
        calling this) and ``ops`` the matching VsmOp codes — access ops
        only (READ_HOST/READ_TARGET/WRITE_HOST/WRITE_TARGET).  Returns
        ``(illegal, uninitialized)`` aligned with the selection, with the
        same semantics as :meth:`apply`.
        """
        words = self._materialize()
        w = words[idx]
        st = (w & MASK_STATE).astype(np.intp)
        illegal = ILLEGAL_LUT[ops, st]
        ov_uninit = (w >> np.uint64(BIT_OV_INIT)) & _U64_1 == 0
        cv_uninit = (w >> np.uint64(BIT_CV_INIT)) & _U64_1 == 0
        uninit = illegal & np.where(ops == VsmOp.READ_HOST, ov_uninit, cv_uninit)
        w = (
            w
            | np.where(ops == VsmOp.WRITE_HOST, MASK_OV_INIT, np.uint64(0))
            | np.where(ops == VsmOp.WRITE_TARGET, MASK_CV_INIT, np.uint64(0))
        )
        w = (w & ~MASK_STATE) | TRANS_LUT[ops, st]
        words[idx] = w
        telemetry = _telemetry.ACTIVE
        if telemetry is not None:
            combo = np.bincount(ops * 4 + st, minlength=16)
            for code in np.flatnonzero(combo):
                telemetry.count(
                    _TRANSITION_KEYS[code >> 2][code & 3], int(combo[code])
                )
        return illegal, uninit

    # -- inspection ----------------------------------------------------------

    def states(self, idx=slice(None)) -> np.ndarray:
        """Current VSM state codes of the selected granules."""
        return (self.words[idx] & MASK_STATE).astype(np.uint8)

    def state_label(self, i: int) -> str:
        """VSM state name of granule ``i`` (flight-recorder timelines)."""
        u = self._uniform
        w = u if u is not None else int(self._words[i])
        return VsmState(w & 0b11).name

    def state_at(self, address: int) -> VsmState:
        u = self._uniform
        if u is not None:
            return VsmState(u & 0b11)
        return VsmState(int(self._words[(address - self.base) // self.granule] & MASK_STATE))

    def word_at(self, address: int) -> dict:
        return unpack_word(int(self.words[(address - self.base) // self.granule]))
