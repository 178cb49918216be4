"""Packed shadow words: Table II encoding, vectorized transitions, and
hypothesis equivalence with the scalar reference machine."""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ShadowBlock, VariableStateMachine, VsmOp, VsmState
from repro.core.multidevice import _KEEP, _lift, _nibble
from repro.core.shadow import STEP, pack_word, unpack_word
from repro.memory import ShadowEncodingError

BASE = 1 << 32


class TestPacking:
    def test_roundtrip_all_fields(self):
        w = pack_word(
            VsmState.TARGET,
            ov_initialized=True,
            cv_initialized=False,
            tid=0x9AB,
            clock=(1 << 42) - 2,
            is_write=True,
            access_size=4,
            offset=5,
        )
        f = unpack_word(w)
        assert f["state"] is VsmState.TARGET
        assert f["ov_initialized"] and not f["cv_initialized"]
        assert f["tid"] == 0x9AB
        assert f["clock"] == (1 << 42) - 2
        assert f["is_write"] and f["access_size"] == 4 and f["offset"] == 5

    def test_fits_64_bits(self):
        w = pack_word(
            VsmState.CONSISTENT,
            ov_initialized=True,
            cv_initialized=True,
            tid=0xFFF,
            clock=(1 << 42) - 1,
            is_write=True,
            access_size=8,
            offset=7,
        )
        assert 0 <= w < (1 << 64)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(access_size=3),
            dict(tid=1 << 12),
            dict(clock=1 << 42),
            dict(offset=8),
        ],
    )
    def test_field_overflow_rejected(self, kwargs):
        with pytest.raises(ShadowEncodingError):
            pack_word(VsmState.INVALID, **kwargs)

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(list(VsmState)),
        st.booleans(),
        st.booleans(),
        st.integers(0, (1 << 12) - 1),
        st.integers(0, (1 << 42) - 1),
        st.booleans(),
        st.sampled_from([1, 2, 4, 8]),
        st.integers(0, 7),
    )
    def test_roundtrip_property(self, state, ovi, cvi, tid, clock, w, size, off):
        word = pack_word(
            state,
            ov_initialized=ovi,
            cv_initialized=cvi,
            tid=tid,
            clock=clock,
            is_write=w,
            access_size=size,
            offset=off,
        )
        f = unpack_word(word)
        assert (
            f["state"],
            f["ov_initialized"],
            f["cv_initialized"],
            f["tid"],
            f["clock"],
            f["is_write"],
            f["access_size"],
            f["offset"],
        ) == (state, ovi, cvi, tid, clock, w, size, off)


class TestShadowBlock:
    def test_initial_all_invalid(self):
        b = ShadowBlock(BASE, 64)
        assert b.n_granules == 8
        assert (b.states() == int(VsmState.INVALID)).all()

    def test_granule_rounding(self):
        assert ShadowBlock(BASE, 65).n_granules == 9
        assert ShadowBlock(BASE, 1).n_granules == 1

    def test_index_range_clips(self):
        b = ShadowBlock(BASE, 64)
        assert b.index_range(BASE, 64) == slice(0, 8)
        assert b.index_range(BASE + 8, 16) == slice(1, 3)
        assert b.index_range(BASE - 16, 1000) == slice(0, 8)
        assert b.index_range(BASE + 4, 8) == slice(0, 2)  # straddles

    def test_write_host_sets_host_state(self):
        b = ShadowBlock(BASE, 64)
        b.apply(slice(0, 4), VsmOp.WRITE_HOST)
        assert (b.states(slice(0, 4)) == int(VsmState.HOST)).all()
        assert (b.states(slice(4, 8)) == int(VsmState.INVALID)).all()

    def test_read_in_invalid_reports_uum(self):
        b = ShadowBlock(BASE, 64)
        illegal, uninit = b.apply(slice(0, 8), VsmOp.READ_HOST)
        assert illegal.all() and uninit.all()

    def test_stale_read_reports_usd(self):
        b = ShadowBlock(BASE, 64)
        b.apply(slice(0, 8), VsmOp.WRITE_HOST)
        b.apply(slice(0, 8), VsmOp.UPDATE_TARGET)
        b.apply(slice(0, 8), VsmOp.WRITE_TARGET)
        illegal, uninit = b.apply(slice(0, 8), VsmOp.READ_HOST)
        assert illegal.all()
        assert not uninit.any()  # host side had been initialized: stale

    def test_fancy_index_application(self):
        b = ShadowBlock(BASE, 128)
        idx = np.array([0, 3, 7])
        b.apply(idx, VsmOp.WRITE_TARGET)
        states = b.states()
        assert states[0] == states[3] == states[7] == int(VsmState.TARGET)
        assert states[1] == int(VsmState.INVALID)

    def test_partial_update_leaves_other_granules(self):
        # The §IV.C soundness argument: only the updated granules change.
        b = ShadowBlock(BASE, 64)
        b.apply(slice(0, 8), VsmOp.WRITE_HOST)
        b.apply(slice(0, 8), VsmOp.UPDATE_TARGET)  # all consistent
        b.apply(slice(0, 2), VsmOp.WRITE_TARGET)   # kernel touches 2 granules
        b.apply(slice(0, 2), VsmOp.UPDATE_HOST)    # copies those back
        illegal, _ = b.apply(slice(0, 8), VsmOp.READ_HOST)
        assert not illegal.any()

    def test_record_access_preserves_state_bits(self):
        # Table II's access-metadata fields never overlap the validity and
        # initialization bits the VSM transitions read and write.
        b = ShadowBlock(BASE, 8)
        b.apply(slice(0, 1), VsmOp.WRITE_HOST)
        state_bits = int(b.words[0])
        word = pack_word(
            VsmState.HOST,
            ov_initialized=True,
            tid=5,
            clock=(1 << 42) - 1,
            is_write=True,
            access_size=4,
            offset=2,
        )
        assert word & 0b1111 == state_bits
        f = unpack_word(word)
        assert f["state"] is VsmState.HOST
        assert f["ov_initialized"] and not f["cv_initialized"]
        assert f["tid"] == 5 and f["access_size"] == 4 and f["offset"] == 2

    def test_shadow_nbytes(self):
        assert ShadowBlock(BASE, 64).shadow_nbytes == 8 * 8

    def test_coarse_granule(self):
        b = ShadowBlock(BASE, 4096, granule=4096)
        assert b.n_granules == 1
        b.apply(b.index_range(BASE + 100, 8), VsmOp.WRITE_TARGET)
        assert b.state_at(BASE) is VsmState.TARGET  # whole block one state


# -- equivalence: vectorized shadow vs scalar reference ----------------------

op_sequences = st.lists(st.sampled_from(list(VsmOp)), min_size=1, max_size=60)


@settings(max_examples=400, deadline=None)
@given(op_sequences)
def test_vectorized_equals_scalar_reference(ops):
    """One granule pushed through both implementations never disagrees."""
    block = ShadowBlock(BASE, 8)
    scalar = VariableStateMachine()
    for op in ops:
        illegal, uninit = block.apply(slice(0, 1), op)
        verdict = scalar.apply(op)
        assert bool(illegal[0]) == verdict.illegal, (op, scalar)
        if verdict.illegal:
            assert bool(uninit[0]) == verdict.uninitialized, (op, scalar)
        assert block.state_at(BASE) is scalar.state
        word = block.word_at(BASE)
        assert word["ov_initialized"] == scalar.ov_initialized
        assert word["cv_initialized"] == scalar.cv_initialized


@settings(max_examples=400, deadline=None)
@given(op_sequences)
def test_scalar_fast_path_three_way_equivalence(ops):
    """One granule three ways ≡ the scalar reference machine.

    A one-granule slice takes the plain-int step; a one-element array and
    a many-granule array take the gather/scatter, so the paths are
    genuinely independent here.
    """
    one = ShadowBlock(BASE, 8)
    arr = ShadowBlock(BASE, 8)
    many = ShadowBlock(BASE, 8 * 5)
    many_idx = np.array([4, 0, 2])
    scalar = VariableStateMachine()
    for op in ops:
        ill_1, uni_1 = one.apply(slice(0, 1), op)
        ill_a, uni_a = arr.apply(np.array([0]), op)
        ill_m, uni_m = many.apply(many_idx, op)
        verdict = scalar.apply(op)
        assert bool(ill_1[0]) == bool(ill_a[0]) == verdict.illegal, (op, scalar)
        assert (ill_m == verdict.illegal).all(), (op, scalar)
        if verdict.illegal:
            assert bool(uni_1[0]) == bool(uni_a[0]) == verdict.uninitialized
            assert (uni_m == verdict.uninitialized).all(), (op, scalar)
        assert int(one.words[0]) == int(arr.words[0])
        assert (many.words[many_idx] == arr.words[0]).all()
        assert one.state_at(BASE) is scalar.state


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 24).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.lists(st.sampled_from(list(VsmOp)), min_size=n, max_size=n),
                min_size=1,
                max_size=12,
            ),
            st.permutations(range(n)),
        )
    )
)
def test_per_granule_ops_equal_reference_per_granule(case):
    """``apply(idx, ops)`` with one op per distinct granule, drawn from all
    eight ops, equals one reference machine per granule."""
    n, rounds, order = case
    block = ShadowBlock(BASE, 8 * n)
    machines = [VariableStateMachine() for _ in range(n)]
    idx = np.array(order)
    for ops in rounds:
        illegal, uninit = block.apply(idx, np.array(ops))
        for k, (g, op) in enumerate(zip(order, ops)):
            verdict = machines[g].apply(op)
            assert bool(illegal[k]) == verdict.illegal, (g, op)
            assert bool(uninit[k]) == verdict.uninitialized, (g, op)
    for g, machine in enumerate(machines):
        word = block.word_at(BASE + 8 * g)
        assert word["state"] is machine.state
        assert word["ov_initialized"] == machine.ov_initialized
        assert word["cv_initialized"] == machine.cv_initialized


@settings(max_examples=200, deadline=None)
@given(op_sequences)
def test_int_op_code_steps_as_its_enum(ops):
    """A plain ``int`` op code steps exactly as its :class:`VsmOp` does."""
    by_enum = ShadowBlock(BASE, 8 * 3)
    by_int = ShadowBlock(BASE, 8 * 3)
    for op in ops:
        for idx in (slice(0, 1), slice(0, 3), np.array([1, 2])):
            expected = by_enum.apply(idx, op)
            got = by_int.apply(idx, int(op))
            assert np.array_equal(got[0], expected[0])
            assert np.array_equal(got[1], expected[1])
        assert np.array_equal(by_int.words, by_enum.words)


@settings(max_examples=200, deadline=None)
@given(op_sequences, st.integers(2, 12))
def test_uniform_range_fast_path_matches_vectorized(ops, n):
    """A whole-range slice apply ≡ the fancy-indexed vectorized path."""
    a = ShadowBlock(BASE, 8 * n)
    b = ShadowBlock(BASE, 8 * n)
    idx = np.arange(n)
    for op in ops:
        ill_a, uni_a = a.apply(slice(0, n), op)  # may take the uniform path
        ill_b, uni_b = b.apply(idx, op)          # always vectorized
        assert np.array_equal(ill_a, ill_b)
        assert np.array_equal(uni_a, uni_b)
        assert np.array_equal(a.words, b.words)


@settings(max_examples=200, deadline=None)
@given(op_sequences, st.integers(2, 12))
def test_nonuniform_range_falls_back_correctly(ops, n):
    """A range whose granules differ still matches the vectorized path."""
    a = ShadowBlock(BASE, 8 * n)
    b = ShadowBlock(BASE, 8 * n)
    # Desynchronize granule 0 so the uniform-range shortcut cannot apply.
    a.apply(np.array([0]), VsmOp.WRITE_HOST)
    b.apply(np.array([0]), VsmOp.WRITE_HOST)
    idx = np.arange(n)
    for op in ops:
        ill_a, uni_a = a.apply(slice(0, n), op)
        ill_b, uni_b = b.apply(idx, op)
        assert np.array_equal(ill_a, ill_b)
        assert np.array_equal(uni_a, uni_b)
        assert np.array_equal(a.words, b.words)


@settings(max_examples=200, deadline=None)
@given(op_sequences, st.integers(2, 16))
def test_granules_evolve_independently(ops, n):
    """Applying ops to granule 0 never perturbs granules 1..n-1."""
    block = ShadowBlock(BASE, 8 * n)
    for op in ops:
        block.apply(np.array([0]), op)
    assert (block.states(slice(1, n)) == int(VsmState.INVALID)).all()


# -- idempotence: what lets the batch path drop a repeated step --------------


def test_every_op_is_idempotent_in_state_and_verdict():
    """Stepping an op from the state it just reached changes nothing and
    repeats its verdict, for all eight ops from all sixteen nibbles, so a
    repeated access only needs its leader's verdict."""
    for op in VsmOp:
        for nibble in range(16):
            nxt, illegal, uninit = STEP[op][nibble]
            assert STEP[op][nxt] == (nxt, illegal, uninit), (op, nibble)


def test_unified_write_is_idempotent():
    """A host write to a unified mapping steps WRITE_HOST then
    UPDATE_TARGET; repeating the pair keeps the state and the write's
    verdict."""
    for nibble in range(16):
        mid, illegal, uninit = STEP[VsmOp.WRITE_HOST][nibble]
        after = STEP[VsmOp.UPDATE_TARGET][mid][0]
        mid2, illegal2, uninit2 = STEP[VsmOp.WRITE_HOST][after]
        assert STEP[VsmOp.UPDATE_TARGET][mid2][0] == after, nibble
        assert (illegal2, uninit2) == (illegal, uninit), nibble


@pytest.mark.parametrize("device", [1, 2, 3])
def test_multi_device_lift_is_idempotent(device):
    """The multi-device step (project the (OV, CV_d) pair, step, lift it
    back) is idempotent too, alone and as the unified write pair, over
    every validity and init mask of the host and three devices."""

    def step(masks, op):
        nxt, illegal, uninit = STEP[op][_nibble(*masks, device)]
        return _lift(*masks, device, _KEEP[op], nxt), illegal, uninit

    def unified_write(masks):
        masks, illegal, uninit = step(masks, VsmOp.WRITE_HOST)
        return step(masks, VsmOp.UPDATE_TARGET)[0], illegal, uninit

    for apply in [*(partial(step, op=op) for op in VsmOp), unified_write]:
        for valid in range(16):
            for init in range(16):
                once, illegal, uninit = apply((valid, init))
                assert apply(once) == (once, illegal, uninit), (apply, valid, init)
