"""MappingRegistry / ShadowRegistry unit behaviour."""

import pytest

from repro.core import MappingRecord, MappingRegistry, ShadowRegistry

HOST_BASE = 1 << 32
DEV_BASE = 1 << 33


def record(name="a", ov=HOST_BASE, cv=DEV_BASE, n=64, device=1, unified=False):
    return MappingRecord(
        name=name, ov_base=ov, cv_base=cv, nbytes=n, device_id=device, unified=unified
    )


class TestMappingRecord:
    def test_translation(self):
        r = record()
        assert r.to_ov(DEV_BASE) == HOST_BASE
        assert r.to_ov(DEV_BASE + 40) == HOST_BASE + 40

    def test_cv_containment(self):
        r = record(n=64)
        assert r.cv_contains(DEV_BASE)
        assert r.cv_contains(DEV_BASE + 63)
        assert not r.cv_contains(DEV_BASE + 64)
        assert r.cv_contains(DEV_BASE, 64)
        assert not r.cv_contains(DEV_BASE + 1, 64)


class TestMappingRegistry:
    def test_find_by_cv_and_ov(self):
        reg = MappingRegistry()
        r = record()
        reg.add(r)
        assert reg.find(DEV_BASE + 10) is r
        assert reg.find(HOST_BASE) is None  # host address is not a CV key
        assert reg.find_by_ov(HOST_BASE + 10) is r
        assert reg.find_by_ov(DEV_BASE) is None

    def test_same_ov_on_two_devices(self):
        reg = MappingRegistry()
        r1 = record(cv=DEV_BASE, device=1)
        r2 = record(cv=DEV_BASE + (1 << 32), device=2)
        reg.add(r1)
        reg.add(r2)
        assert reg.find_by_ov(HOST_BASE) is r2  # most recent wins
        reg.drop(r2.cv_base)
        assert reg.find_by_ov(HOST_BASE) is r1

    def test_unified_mapping_found_via_shared_address(self):
        reg = MappingRegistry()
        r = record(cv=HOST_BASE, unified=True)
        reg.add(r)
        assert reg.find(HOST_BASE + 5) is r
        assert reg.find_by_ov(HOST_BASE + 5) is r

    def test_drop_returns_record(self):
        reg = MappingRegistry()
        r = record()
        reg.add(r)
        assert reg.drop(DEV_BASE) is r
        assert len(reg) == 0
        assert reg.records() == []

    def test_double_drop_returns_none(self):
        reg = MappingRegistry()
        reg.add(record())
        assert reg.drop(DEV_BASE) is not None
        assert reg.drop(DEV_BASE) is None  # tolerated, not a KeyError
        assert len(reg) == 0

    def test_drop_of_never_mapped_base_returns_none(self):
        reg = MappingRegistry()
        assert reg.drop(DEV_BASE) is None

    def test_lookup_stats_and_cache_ablation(self):
        reg = MappingRegistry()
        reg.add(record())
        reg.add(record(name="b", ov=HOST_BASE + 64, cv=DEV_BASE + 64))
        for _ in range(10):
            reg.find(DEV_BASE)
        hits, misses = reg.lookup_stats
        assert hits >= 9
        # The cache holds the last lookup only: alternating between two
        # mappings misses on every stab.
        for _ in range(5):
            reg.find(DEV_BASE + 64)
            reg.find(DEV_BASE)
        hits2, misses2 = reg.lookup_stats
        assert misses2 >= misses + 10


class TestShadowRegistry:
    def test_create_find_drop(self):
        reg = ShadowRegistry()
        block = reg.create(HOST_BASE, 128, label="arr")
        assert reg.find(HOST_BASE + 100) is block
        assert reg.find(HOST_BASE + 128) is None
        assert reg.shadow_bytes == block.shadow_nbytes
        reg.drop(HOST_BASE)
        assert reg.shadow_bytes == 0
        assert reg.find(HOST_BASE) is None

    def test_blocks_listing(self):
        reg = ShadowRegistry()
        reg.create(HOST_BASE + 1024, 64)
        reg.create(HOST_BASE, 64)
        bases = [b.base for b in reg.blocks()]
        assert bases == sorted(bases)

    def test_granule_parameter_propagates(self):
        reg = ShadowRegistry(granule=32)
        block = reg.create(HOST_BASE, 128)
        assert block.n_granules == 4
