"""Address-range sharding: claims, mapping-pair binding, overrun routing."""

import random

import pytest

from repro.events.records import Access, AllocationEvent, DataOp, DataOpKind
from repro.serve import AddressRouter, Supervisor


class TestClaims:
    def test_round_robin_assignment(self):
        router = AddressRouter(3)
        shards = [router.claim(base, 64) for base in (0x1000, 0x2000, 0x3000)]
        assert shards == [0, 1, 2]

    def test_reclaim_inside_existing_range_keeps_owner(self):
        router = AddressRouter(4)
        owner = router.claim(0x1000, 256)
        # Address reuse after free: the old shard keeps the history.
        assert router.claim(0x1040, 8) == owner
        assert router.stats()["claims"] == 1

    def test_claim_extends_past_existing_end(self):
        router = AddressRouter(2)
        owner = router.claim(0x1000, 64)
        assert router.claim(0x1020, 256) == owner  # partial overlap grows it
        assert router.route(0x1000 + 300) == owner

    def test_needs_at_least_one_shard(self):
        with pytest.raises(ValueError):
            AddressRouter(0)


class TestRouting:
    def test_containment_routes_to_owner(self):
        router = AddressRouter(4)
        owner = router.claim(0x4000, 128)
        assert router.route(0x4000) == owner
        assert router.route(0x407F) == owner

    def test_overrun_routes_to_nearest_preceding_claim(self):
        router = AddressRouter(4)
        a = router.claim(0x1000, 64)
        b = router.claim(0x8000, 64)
        # Past a's end but before b: the overrun belongs to a's shard,
        # which is the shard whose extent map watched the allocation.
        assert router.route(0x1040) == a
        assert router.route(0x8040) == b

    def test_address_below_every_claim_routes_deterministically(self):
        router = AddressRouter(4)
        first = router.claim(0x9000, 64)
        assert router.route(0x100) == first

    def test_no_claims_at_all_routes_to_shard_zero(self):
        assert AddressRouter(4).route(0xDEAD) == 0


class TestBinding:
    def test_bind_colocates_ov_and_cv(self):
        router = AddressRouter(4)
        ov_shard, cv_shard = router.bind(0x1000, 0x9000, 256)
        assert ov_shard == cv_shard
        assert router.route(0x1000) == router.route(0x9000)

    def test_bind_rebinds_preclaimed_cv_to_ov_shard(self):
        router = AddressRouter(4)
        ov_shard = router.claim(0x1000, 256)       # host allocation
        cv_shard = router.claim(0x9000, 256)       # device alloc, round-robin
        assert cv_shard != ov_shard
        assert router.bind(0x1000, 0x9000, 256) == (ov_shard, ov_shard)
        assert router.route(0x9000) == ov_shard
        assert router.stats()["rebinds"] == 1

    def test_rebind_to_same_shard_is_not_counted(self):
        router = AddressRouter(1)  # everything lands on shard 0 anyway
        router.claim(0x1000, 64)
        router.claim(0x9000, 64)
        router.bind(0x1000, 0x9000, 64)
        assert router.stats()["rebinds"] == 0

    def test_rebound_range_keeps_the_larger_extent(self):
        router = AddressRouter(4)
        ov_shard = router.claim(0x1000, 64)
        router.claim(0x9000, 1024)  # device allocated more than the section
        router.bind(0x1000, 0x9000, 64)
        assert router.route(0x9000 + 1000) == ov_shard


class TestClaimReuse:
    """``Supervisor.dispatch`` reuses a route range across a frame's
    accesses; every access must land where ``route`` sends it, with the
    router in the state the events before it left."""

    @staticmethod
    def access(address: int) -> Access:
        return Access(device_id=1, thread_id=0, address=address, size=8, is_write=False)

    @staticmethod
    def alloc(address: int, nbytes: int) -> AllocationEvent:
        return AllocationEvent(
            device_id=1, thread_id=0, address=address, nbytes=nbytes,
            is_free=False,
        )

    @staticmethod
    def bind(ov: int, cv: int, nbytes: int) -> DataOp:
        return DataOp(
            kind=DataOpKind.ALLOC, device_id=1, thread_id=0,
            ov_address=ov, cv_address=cv, nbytes=nbytes,
        )

    def check(self, frames, n_shards=3):
        """Dispatch ``frames``; compare each shard's journal with routing
        every event one at a time through ``shards_for``."""
        served = Supervisor(n_shards=n_shards)
        reference = Supervisor(n_shards=n_shards)
        expected = {shard: [] for shard in range(n_shards)}
        seq = 0
        for events in frames:
            served.dispatch(1, seq, events)
            for event in events:
                for shard in reference.shards_for(event):
                    expected[shard].append(seq)
                seq += 1
        for worker in served.workers:
            journaled = [s for _c, s, _e in worker.journal.replay()]
            assert journaled == expected[worker.shard_id], worker.shard_id
        return served

    def test_overrun_past_a_claims_end_and_underrun(self):
        a = self.access
        self.check(
            [
                [self.alloc(0x1000, 64), self.alloc(0x2000, 64), self.alloc(0x3000, 64)],
                [a(0x1000), a(0x1038), a(0x1040), a(0x1FF8), a(0x2000),
                 a(0x0800), a(0x0FF8), a(0x1000), a(0x3040), a(0x9000),
                 a(0x2FF8), a(0x3000), a(0x0)],
            ]
        )

    def test_no_claims_routes_to_shard_zero(self):
        served = self.check([[self.access(0x10), self.access(0x9000)]])
        assert len(served.workers[0].journal) == 2

    def test_claim_extended_mid_frame(self):
        a = self.access
        self.check(
            [[self.alloc(0x1000, 64), self.alloc(0x2000, 64), a(0x1010),
              a(0x1050), self.alloc(0x1020, 0x100), a(0x1050), a(0x1110),
              a(0x1200), self.alloc(0x1180, 64), a(0x1190), a(0x1010)]]
        )

    def test_claim_rebound_mid_frame(self):
        a = self.access
        self.check(
            [[self.alloc(0x1000, 64), self.alloc(0x8000, 64), a(0x8008),
              a(0x8010), self.bind(0x1000, 0x8000, 64), a(0x8008), a(0x8010),
              self.bind(0x5000, 0x8000, 64), a(0x8018), a(0x5000)]]
        )

    def test_overlapping_claims(self):
        # A claim placed past its predecessor's end can run over the next
        # base: containment in the wider claim must not shadow the base.
        a = self.access
        self.check(
            [[self.alloc(0x1000, 0x50), self.alloc(0x2000, 0x50),
              self.alloc(0x1800, 0x1000), a(0x1900), a(0x2010), a(0x2900),
              a(0x1900), a(0x2FFF)]]
        )

    @pytest.mark.parametrize("seed", range(20))
    def test_random_frames(self, seed):
        rng = random.Random(seed)

        def address():
            return rng.randrange(0, 0x800, 8)

        def event():
            roll = rng.random()
            if roll < 0.15:
                return self.alloc(address(), rng.randrange(8, 0x200, 8))
            if roll < 0.25:
                return self.bind(address(), address(), rng.randrange(8, 0x100, 8))
            return self.access(address())

        frames = [[event() for _ in range(rng.randint(1, 40))] for _ in range(8)]
        self.check(frames, n_shards=rng.randint(1, 4))
