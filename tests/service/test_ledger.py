"""Unit tests for the shard memory ledger and the aggregate chain.

The distribution arithmetic (largest-remainder grant splits, the
most-free-first shrink scan, all-or-nothing release semantics) is what
keeps the sharded stack's accounting equal to the unsharded stack's --
so it gets pinned here in isolation, with hand-computed expectations.

Every case runs twice: over real :class:`LockBlockChain` shards (the
in-process topology) and over :class:`WorkerChain` views of a fake
worker pool whose control calls drive in-memory worker chains (the
worker-pool topology).  The pool-only rules -- dead workers, the
one-block floor, closed-worker mirror release, redistribution of an
undelivered grow share -- are pinned at the end.
"""

from types import SimpleNamespace

import pytest

from repro.errors import MemoryAccountingError, ServiceError
from repro.lockmgr.blocks import LockBlockChain
from repro.service.ledger import AggregateLockChain, ShardMemoryLedger
from repro.service.workers import WorkerChain, WorkerDiedError
from repro.units import LOCKS_PER_BLOCK, PAGES_PER_BLOCK


class LocalShards:
    """Real per-shard chains."""

    def __init__(self, *initial_blocks):
        self.chains = [
            LockBlockChain(initial_blocks=blocks) for blocks in initial_blocks
        ]

    def occupy(self, idx: int, slots: int):
        return [self.chains[idx].allocate_slot() for _ in range(slots)]


class FakePool:
    """The parent-side pool state a :class:`WorkerChain` reads.

    ``remote`` stands in for the worker processes' chains; ``_call``
    plays the control plane against them and logs every op.  Workers
    listed in ``dying`` die on their next control call; workers listed
    in ``failing`` answer it with an error reply.
    """

    def __init__(self, initial_blocks):
        self.remote = [LockBlockChain(initial_blocks=b) for b in initial_blocks]
        self._blocks = list(initial_blocks)
        self._handles = [
            SimpleNamespace(dead=False, closed=False) for _ in initial_blocks
        ]
        self.calls = []
        self.dying = set()
        self.failing = set()
        self.sample()

    def sample(self):
        """Refresh the sampled occupancy (the pool does this pre-pass)."""
        self._occ = [
            {
                "used_slots": chain.used_slots,
                "entirely_free_blocks": chain.entirely_free_blocks(),
            }
            for chain in self.remote
        ]

    def _live_workers(self):
        return [
            idx
            for idx, handle in enumerate(self._handles)
            if not handle.dead and not handle.closed
        ]

    def _call(self, idx, op, *args, drain=False):
        self.calls.append((idx, op, *args))
        if idx in self.dying:
            self._handles[idx].dead = True
            raise WorkerDiedError(f"worker {idx} died during {op!r}")
        if idx in self.failing:
            raise ServiceError(f"worker {idx} {op!r} failed")
        chain = self.remote[idx]
        if op == "add_blocks":
            chain.add_blocks(args[0])
            return chain.block_count
        if op == "release_blocks":
            return chain.release_blocks(args[0], partial=True)
        if op == "check":
            return chain.block_count
        raise AssertionError(f"unexpected control op {op!r}")


class WorkerShards:
    """:class:`WorkerChain` views over a :class:`FakePool`."""

    def __init__(self, *initial_blocks):
        self.pool = FakePool(initial_blocks)
        self.chains = [
            WorkerChain(self.pool, idx) for idx in range(len(initial_blocks))
        ]

    def occupy(self, idx: int, slots: int):
        taken = [self.pool.remote[idx].allocate_slot() for _ in range(slots)]
        self.pool.sample()
        return taken


class TestGrantSplit:
    make = LocalShards

    def test_idle_shards_split_evenly_with_low_index_ties(self):
        shards = self.make(1, 1, 1)
        ledger = ShardMemoryLedger(shards.chains)
        # weights [1, 1, 1]; 4 blocks -> floors [1, 1, 1], remainder 1
        # goes to the lowest index
        assert ledger.grant_split(4) == [2, 1, 1]
        assert ledger.grant_split(0) == [0, 0, 0]
        assert ledger.grant_split(3) == [1, 1, 1]

    def test_split_follows_demand(self):
        shards = self.make(1, 1, 1)
        shards.occupy(0, 30)
        shards.occupy(1, 10)
        ledger = ShardMemoryLedger(shards.chains)
        assert ledger.demand_weights() == [31, 11, 1]
        # shares of 10 blocks: [7.209, 2.558, 0.232] -> floors [7, 2, 0],
        # remainder 1 to the largest fraction (shard 1)
        assert ledger.grant_split(10) == [7, 3, 0]

    def test_split_always_sums_to_the_grant(self):
        shards = self.make(1, 1, 1, 1, 1)
        shards.occupy(1, 17)
        shards.occupy(3, 1200)
        ledger = ShardMemoryLedger(shards.chains)
        for blocks in range(0, 40):
            split = ledger.grant_split(blocks)
            assert sum(split) == blocks
            assert all(share >= 0 for share in split)

    def test_negative_grant_rejected(self):
        ledger = ShardMemoryLedger(self.make(1).chains)
        with pytest.raises(ValueError):
            ledger.grant_split(-1)


class TestBorrowAccounting:
    make = LocalShards

    def test_borrows_accumulate_per_shard(self):
        ledger = ShardMemoryLedger(self.make(1, 1).chains)
        ledger.record_sync_borrow(0, 2)
        ledger.record_sync_borrow(0, 1)
        ledger.record_sync_borrow(1, 4)
        assert ledger.borrowed_blocks(0) == 3
        assert ledger.borrowed_blocks(1) == 4
        assert ledger.total_borrowed_blocks() == 7

    def test_negative_borrow_rejected(self):
        ledger = ShardMemoryLedger(self.make(1).chains)
        with pytest.raises(ValueError):
            ledger.record_sync_borrow(0, -1)

    def test_occupancy_mirrors_the_chains(self):
        shards = self.make(2, 1)
        shards.occupy(0, 5)
        ledger = ShardMemoryLedger(shards.chains)
        ledger.record_sync_borrow(1, 2)
        occ = ledger.occupancy()
        assert [o.shard for o in occ] == [0, 1]
        assert occ[0].used_slots == 5
        assert occ[0].capacity_slots == 2 * LOCKS_PER_BLOCK
        assert occ[0].entirely_free_blocks == 1
        assert occ[1].used_slots == 0
        assert occ[1].borrowed_blocks == 2


class TestAggregateChain:
    make = LocalShards

    def test_reads_are_sums(self):
        shards = self.make(2, 3)
        shards.occupy(0, 10)
        shards.occupy(1, 20)
        chain = AggregateLockChain(
            shards.chains, ShardMemoryLedger(shards.chains)
        )
        assert chain.block_count == 5
        assert chain.capacity_slots == 5 * LOCKS_PER_BLOCK
        assert chain.used_slots == 30
        assert chain.free_slots == 5 * LOCKS_PER_BLOCK - 30
        assert chain.allocated_pages == 5 * PAGES_PER_BLOCK
        assert chain.entirely_free_blocks() == 3
        assert 0.0 < chain.free_fraction() < 1.0

    def test_add_blocks_lands_where_demand_is(self):
        shards = self.make(1, 1)
        shards.occupy(0, 100)
        chain = AggregateLockChain(
            shards.chains, ShardMemoryLedger(shards.chains)
        )
        # weights [101, 1]: all 3 blocks go to shard 0
        assert chain.add_blocks(3) == 3
        assert shards.chains[0].block_count == 4
        assert shards.chains[1].block_count == 1

    def test_release_prefers_most_free_then_highest_index(self):
        shards = self.make(3, 4, 4)
        shards.occupy(0, 2 * LOCKS_PER_BLOCK)  # 1 free block
        shards.occupy(1, LOCKS_PER_BLOCK)      # 3 free blocks
        shards.occupy(2, LOCKS_PER_BLOCK)      # 3 free blocks
        chain = AggregateLockChain(
            shards.chains, ShardMemoryLedger(shards.chains)
        )
        # shard 1 and 2 tie at 3 free; the highest index drains first
        assert chain.release_blocks(3) == 3
        assert shards.chains[2].block_count == 1
        assert shards.chains[1].block_count == 4
        assert shards.chains[0].block_count == 3
        # next release spills from shard 1 into shard 0's single free block
        assert chain.release_blocks(4) == 4
        assert shards.chains[1].block_count == 1
        assert shards.chains[0].block_count == 2

    def test_release_is_all_or_nothing_without_partial(self):
        shards = self.make(2, 2)
        shards.occupy(0, LOCKS_PER_BLOCK + 1)  # pins 2 blocks
        shards.occupy(1, 1)                    # pins 1 block
        chain = AggregateLockChain(
            shards.chains, ShardMemoryLedger(shards.chains)
        )
        assert chain.entirely_free_blocks() == 1
        # asking for 2 when only 1 is jointly free: nothing moves
        assert chain.release_blocks(2) == 0
        assert chain.block_count == 4
        # partial takes what exists
        assert chain.release_blocks(2, partial=True) == 1
        assert chain.block_count == 3

    def test_constructor_rejects_mismatched_ledger(self):
        shards = self.make(1, 1)
        ledger = ShardMemoryLedger(shards.chains)
        with pytest.raises(ServiceError, match="ledger tracks"):
            AggregateLockChain([shards.chains[0]], ledger)
        with pytest.raises(ServiceError):
            AggregateLockChain([], ledger)
        with pytest.raises(ServiceError):
            ShardMemoryLedger([])


class TestGrantSplitOverWorkers(TestGrantSplit):
    make = WorkerShards


class TestBorrowAccountingOverWorkers(TestBorrowAccounting):
    make = WorkerShards


class TestAggregateChainOverWorkers(TestAggregateChain):
    make = WorkerShards


def aggregate(shards):
    return AggregateLockChain(shards.chains, ShardMemoryLedger(shards.chains))


class TestWorkerChainRules:
    """The pool-only rules, each a property of the worker view."""

    def test_dead_worker_has_zero_demand_weight(self):
        shards = WorkerShards(1, 1, 1)
        shards.pool._handles[1].dead = True
        ledger = ShardMemoryLedger(shards.chains)
        assert ledger.demand_weights() == [1, 0, 1]
        assert ledger.grant_split(4) == [2, 0, 2]

    def test_no_live_workers_is_a_worker_died_error(self):
        shards = WorkerShards(1, 1)
        for handle in shards.pool._handles:
            handle.dead = True
        ledger = ShardMemoryLedger(shards.chains)
        with pytest.raises(WorkerDiedError, match="no live workers"):
            ledger.grant_split(2)

    def test_live_worker_keeps_one_block(self):
        shards = WorkerShards(3)
        chain = aggregate(shards)
        assert chain.entirely_free_blocks() == 3
        # three free blocks, but the floor keeps one behind
        assert chain.release_blocks(3, partial=True) == 2
        assert chain.block_count == 1
        assert chain.release_blocks(1, partial=True) == 0
        assert shards.pool.remote[0].block_count == 1

    def test_closed_worker_blocks_release_from_the_mirror(self):
        shards = WorkerShards(2, 3)
        shards.pool._handles[1].closed = True
        chain = aggregate(shards)
        assert chain.release_blocks(3, partial=True) == 3
        # the closed worker's mirror drained without a control call
        assert shards.chains[1].block_count == 0
        assert [op for _, op, *_ in shards.pool.calls] == []

    def test_dead_worker_blocks_stay_stranded(self):
        shards = WorkerShards(2, 3)
        shards.pool._handles[1].dead = True
        chain = aggregate(shards)
        assert chain.entirely_free_blocks() == 2
        assert chain.release_blocks(5, partial=True) == 1  # worker 0's floor
        assert shards.chains[1].block_count == 3
        assert all(idx == 0 for idx, *_ in shards.pool.calls)

    def test_undelivered_grow_share_is_redistributed_once(self):
        shards = WorkerShards(1, 1, 1)
        shards.occupy(0, 100)  # worker 0 would take every block
        shards.pool.dying.add(0)
        chain = aggregate(shards)
        assert chain.add_blocks(3) == 3
        assert shards.pool._handles[0].dead
        # the survivors split the re-grant evenly, low index first
        assert [c.block_count for c in shards.chains] == [1, 3, 2]
        assert [c.block_count for c in shards.pool.remote] == [1, 3, 2]
        adds = [(idx, args) for idx, op, *args in shards.pool.calls]
        assert adds == [(0, [3]), (1, [2]), (2, [1])]

    def test_shortfall_after_the_second_round_raises(self):
        shards = WorkerShards(1, 1)
        shards.pool.failing.add(0)  # error replies: alive, never accepts
        shards.occupy(0, 100)
        chain = aggregate(shards)
        with pytest.raises(MemoryAccountingError, match="could not be delivered"):
            chain.add_blocks(2)

    def test_mirror_check_compares_live_workers_only(self):
        shards = WorkerShards(2, 2)
        chain = aggregate(shards)
        chain.check_invariants()
        shards.pool.remote[0].add_blocks(1)  # drift the real worker
        with pytest.raises(MemoryAccountingError, match="arbiter mirror"):
            chain.check_invariants()
        shards.pool._handles[0].dead = True
        chain.check_invariants()
