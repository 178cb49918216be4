"""Multi-device VSM: (n+1)-tuple semantics and n=1 equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MultiDeviceArbalest, MultiShadowBlock, VariableStateMachine, VsmOp
from repro.core.multidevice import MAX_DEVICES
from repro.openmp import TargetRuntime, to, tofrom

BASE = 1 << 32


class TestMultiShadowBlock:
    def test_initially_nothing_valid(self):
        b = MultiShadowBlock(BASE, 64)
        illegal, uninit = b.apply(slice(0, 8), VsmOp.READ_HOST)
        assert illegal.all() and uninit.all()

    def test_write_on_one_device_invalidates_others(self):
        b = MultiShadowBlock(BASE, 8)
        b.apply(slice(0, 1), VsmOp.WRITE_HOST)
        b.apply(slice(0, 1), VsmOp.UPDATE_TARGET, device_id=1)
        b.apply(slice(0, 1), VsmOp.UPDATE_TARGET, device_id=2)
        # All three locations valid now.
        assert b.validity_at(BASE) == 0b111
        # Device 2 writes: only device 2 valid.
        b.apply(slice(0, 1), VsmOp.WRITE_TARGET, device_id=2)
        assert b.validity_at(BASE) == 0b100
        illegal, _ = b.apply(slice(0, 1), VsmOp.READ_TARGET, device_id=1)
        assert illegal.all()

    def test_transfer_chain_across_devices(self):
        # host -> dev1 -> host -> dev2: reading on dev2 must be legal.
        b = MultiShadowBlock(BASE, 8)
        b.apply(slice(0, 1), VsmOp.WRITE_HOST)
        b.apply(slice(0, 1), VsmOp.UPDATE_TARGET, device_id=1)
        b.apply(slice(0, 1), VsmOp.WRITE_TARGET, device_id=1)
        b.apply(slice(0, 1), VsmOp.UPDATE_HOST, device_id=1)
        b.apply(slice(0, 1), VsmOp.UPDATE_TARGET, device_id=2)
        illegal, _ = b.apply(slice(0, 1), VsmOp.READ_TARGET, device_id=2)
        assert not illegal.any()

    def test_update_from_invalid_device_destroys_host(self):
        b = MultiShadowBlock(BASE, 8)
        b.apply(slice(0, 1), VsmOp.WRITE_HOST)
        b.apply(slice(0, 1), VsmOp.UPDATE_HOST, device_id=1)  # copy garbage CV
        illegal, uninit = b.apply(slice(0, 1), VsmOp.READ_HOST)
        assert illegal.all() and uninit.all()

    def test_release_on_one_device_keeps_others(self):
        b = MultiShadowBlock(BASE, 8)
        b.apply(slice(0, 1), VsmOp.WRITE_HOST)
        b.apply(slice(0, 1), VsmOp.UPDATE_TARGET, device_id=1)
        b.apply(slice(0, 1), VsmOp.UPDATE_TARGET, device_id=2)
        b.apply(slice(0, 1), VsmOp.RELEASE, device_id=1)
        assert b.validity_at(BASE) == 0b101
        illegal, _ = b.apply(slice(0, 1), VsmOp.READ_TARGET, device_id=2)
        assert not illegal.any()

    def test_device_id_range_checked(self):
        b = MultiShadowBlock(BASE, 8)
        with pytest.raises(ValueError):
            b.apply(slice(0, 1), VsmOp.WRITE_TARGET, device_id=0)
        with pytest.raises(ValueError):
            b.apply(slice(0, 1), VsmOp.WRITE_TARGET, device_id=MAX_DEVICES + 1)

    def test_space_is_two_words_per_granule(self):
        b = MultiShadowBlock(BASE, 800)
        assert b.shadow_nbytes == 100 * 8  # 2 x uint32 per granule


# -- n=1 equivalence with the scalar VSM --------------------------------------

op_sequences = st.lists(st.sampled_from(list(VsmOp)), min_size=1, max_size=60)


@settings(max_examples=400, deadline=None)
@given(op_sequences)
def test_single_device_equivalence(ops):
    multi = MultiShadowBlock(BASE, 8)
    scalar = VariableStateMachine()
    for op in ops:
        illegal, uninit = multi.apply(slice(0, 1), op, device_id=1)
        verdict = scalar.apply(op)
        assert bool(illegal[0]) == verdict.illegal, (op, scalar)
        if verdict.illegal:
            assert bool(uninit[0]) == verdict.uninitialized, (op, scalar)
        # valid mask == state bits (invalid=00 host=01 target=10 cons=11)
        assert multi.validity_at(BASE) == int(scalar.state)


def test_int_op_code_regression():
    """A plain ``int`` READ_HOST after the host copy was overwritten with
    a never-written CV is an uninitialized read, as the enum's is."""
    for read in (VsmOp.READ_HOST, int(VsmOp.READ_HOST)):
        b = MultiShadowBlock(BASE, 8)
        for op in (VsmOp.WRITE_HOST, VsmOp.ALLOCATE, VsmOp.UPDATE_HOST):
            b.apply(slice(0, 1), op)
        illegal, uninit = b.apply(slice(0, 1), read)
        assert illegal.all() and uninit.all(), read


@settings(max_examples=200, deadline=None)
@given(op_sequences, st.integers(1, 3))
def test_int_op_code_steps_as_its_enum(ops, device):
    """A plain ``int`` op code steps exactly as its :class:`VsmOp` does,
    on every selection form."""
    by_enum = MultiShadowBlock(BASE, 8 * 3)
    by_int = MultiShadowBlock(BASE, 8 * 3)
    for op in ops:
        for idx in (slice(0, 1), slice(0, 3), np.array([1, 2])):
            expected = by_enum.apply(idx, op, device)
            got = by_int.apply(idx, int(op), device)
            assert np.array_equal(got[0], expected[0])
            assert np.array_equal(got[1], expected[1])
        assert np.array_equal(by_int.valid, by_enum.valid)
        assert np.array_equal(by_int.init, by_enum.init)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 16).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.lists(
                    st.tuples(st.sampled_from(list(VsmOp)), st.integers(1, 3)),
                    min_size=n,
                    max_size=n,
                ),
                min_size=1,
                max_size=10,
            ),
            st.permutations(range(n)),
        )
    )
)
def test_per_granule_ops_and_devices_equal_granulewise(case):
    """``apply(idx, ops, devices)`` over distinct granules ≡ applying each
    granule's (op, device) on its own."""
    rounds, order = case
    n = len(order)
    batched = MultiShadowBlock(BASE, 8 * n)
    single = MultiShadowBlock(BASE, 8 * n)
    idx = np.array(order)
    for steps in rounds:
        ops = np.array([op for op, _ in steps])
        devices = np.array([device for _, device in steps])
        illegal, uninit = batched.apply(idx, ops, devices)
        for k, (g, (op, device)) in enumerate(zip(order, steps)):
            ill, uni = single.apply(slice(g, g + 1), op, device)
            assert bool(illegal[k]) == bool(ill[0]), (g, op, device)
            assert bool(uninit[k]) == bool(uni[0]), (g, op, device)
    assert np.array_equal(batched.valid, single.valid)
    assert np.array_equal(batched.init, single.init)


def test_device_array_range_checked():
    b = MultiShadowBlock(BASE, 16)
    for devices in ([1, 0], [1, MAX_DEVICES + 1]):
        with pytest.raises(ValueError):
            b.apply(np.array([0, 1]), VsmOp.WRITE_TARGET, np.array(devices))


class TestMultiDeviceDetector:
    def test_stale_second_device_detected(self):
        rt = TargetRuntime(n_devices=2)
        det = MultiDeviceArbalest().attach(rt.machine)
        a = rt.array("a", 8)
        a.fill(1.0)
        # Device 1 computes and copies back.
        rt.target(lambda ctx: ctx["a"].fill(2.0), maps=[tofrom(a)], device=1)
        # Device 2 got a's value BEFORE... map to device 2 first:
        rt.finalize()
        assert not det.mapping_issue_findings()

    def test_issue_between_devices(self):
        rt = TargetRuntime(n_devices=2)
        det = MultiDeviceArbalest().attach(rt.machine)
        a = rt.array("a", 8)
        a.fill(1.0)
        rt.target_enter_data([to(a)], device=2)  # dev2 snapshot of a==1
        rt.target(lambda ctx: ctx["a"].fill(2.0), maps=[tofrom(a)], device=1)
        got = []
        # dev2's stale CV read: host copy is 2.0, dev2 still holds 1.0.
        rt.target(lambda ctx: got.append(ctx["a"][0]), device=2)
        rt.finalize()
        kinds = {f.kind.name for f in det.mapping_issue_findings()}
        assert "USD" in kinds
        assert got == [1.0]  # the stale value really was observed

    def test_invariants_hold_with_two_devices_valid(self):
        # Host and device 2 both valid: validity mask 0b101 is a legal
        # state of the (n+1)-tuple, not an illegal four-state code.
        rt = TargetRuntime(n_devices=2)
        det = MultiDeviceArbalest().attach(rt.machine)
        a = rt.array("a", 8)
        a.fill(1.0)
        rt.target_enter_data([to(a)], device=2)
        base = a.address_of(0)
        assert det.shadows.find(base).validity_at(base) == 0b101
        assert det.check_invariants() == []

    def test_clean_multi_device_pipeline(self):
        rt = TargetRuntime(n_devices=2)
        det = MultiDeviceArbalest().attach(rt.machine)
        a = rt.array("a", 8)
        a.fill(1.0)
        rt.target(lambda ctx: ctx["a"].fill(2.0), maps=[tofrom(a)], device=1)
        got = []
        rt.target(lambda ctx: got.append(ctx["a"][0]), maps=[to(a)], device=2)
        rt.finalize()
        assert got == [2.0]
        assert not det.mapping_issue_findings()
