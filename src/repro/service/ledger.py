"""The shard memory ledger: one LOCKLIST budget over many lock tables.

The paper's tuning algorithm arbitrates exactly *one* LOCKLIST against
the rest of database memory, but both scale-out topologies split the
lock space over N lock tables: in-process shards
(:mod:`repro.service.sharded`) and forked worker processes
(:mod:`repro.service.workers`).  This module is the bridge for both:

* :class:`ShardMemoryLedger` is the reporting side of the protocol:
  every shard's demand (outstanding structures), free-list occupancy
  and cumulative synchronous borrows are readable in one place.
* :class:`AggregateLockChain` is the acting side: it duck-types the
  :class:`LockBlockChain` surface that
  :class:`~repro.core.controller.LockMemoryController` and
  :class:`~repro.core.maxlocks.AdaptiveMaxlocks` consume, summing the
  shard chains for every read.  A **grow** is distributed as per-shard
  128 KB block grants proportional to ledger demand (largest-remainder
  rounding, ties to the lowest shard index); a **shrink** scans the
  shards' entirely-free blocks, preferring the shard with the most
  free blocks (ties to the highest shard index -- the "tail" of the
  round-robin initial layout, mirroring the unsharded tail-first
  shrink protocol).

Both work over per-shard *chains*: anything with the
:class:`LockBlockChain` surface, ``demand_weight()`` included.  In-process
shards hand in their real chains; the worker pool hands in one
:class:`~repro.service.workers.WorkerChain` view per worker, whose
reads come from the parent's block mirror and whose writes are control
calls.  Topology-specific rules (a dead worker is unfundable, a live
one keeps a block) are properties of those views, not branches here.

With one shard both classes degenerate to pass-throughs, which is what
makes the ``shards=1`` equivalence against the unsharded stack exact.

Locking: neither class takes locks.  Callers that mutate (the STMM
tuner, shutdown reclaim) hold **every** shard condition; callers that
only read for distribution decisions run under the controller's growth
lock plus one shard condition, where the transient understatement of a
concurrent shard's demand only skews a proportional split, never the
accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.errors import MemoryAccountingError, ServiceError
from repro.lockmgr.blocks import LockBlockChain


@dataclass
class ShardOccupancy:
    """One shard's lock-memory picture at a point in time."""

    shard: int
    used_slots: int
    capacity_slots: int
    free_fraction: float
    entirely_free_blocks: int
    #: Cumulative 128 KB blocks this shard borrowed synchronously from
    #: overflow (the shard's share of the paper's LMO traffic).
    borrowed_blocks: int


class ShardMemoryLedger:
    """Global read-side of the shard memory protocol (see module doc)."""

    def __init__(self, chains: Sequence[LockBlockChain]) -> None:
        if not chains:
            raise ServiceError("ledger needs at least one shard")
        self._chains = list(chains)
        self._borrowed_blocks = [0] * len(self._chains)

    def __len__(self) -> int:
        return len(self._chains)

    # -- reporting (shards -> ledger) --------------------------------------

    def record_sync_borrow(self, shard: int, blocks: int) -> None:
        """Account a synchronous-growth grant routed to ``shard``."""
        if blocks < 0:
            raise ValueError(f"blocks must be non-negative, got {blocks}")
        self._borrowed_blocks[shard] += blocks

    def borrowed_blocks(self, shard: int) -> int:
        return self._borrowed_blocks[shard]

    # -- global views (ledger -> controller) -------------------------------

    def occupancy(self) -> List[ShardOccupancy]:
        """Per-shard demand and free-list occupancy, in shard order."""
        return [
            ShardOccupancy(
                shard=idx,
                used_slots=chain.used_slots,
                capacity_slots=chain.capacity_slots,
                free_fraction=chain.free_fraction(),
                entirely_free_blocks=chain.entirely_free_blocks(),
                borrowed_blocks=self._borrowed_blocks[idx],
            )
            for idx, chain in enumerate(self._chains)
        ]

    def demand_weights(self) -> List[int]:
        """Per-shard grow weights (:meth:`LockBlockChain.demand_weight`)."""
        return [chain.demand_weight() for chain in self._chains]

    def grant_split(self, blocks: int) -> List[int]:
        """Split a grant of ``blocks`` across shards proportional to demand.

        Largest-remainder rounding; ties go to the lowest shard index,
        so the split is a pure function of the demand snapshot.
        """
        if blocks < 0:
            raise ValueError(f"blocks must be non-negative, got {blocks}")
        weights = self.demand_weights()
        total = sum(weights)
        shares = [blocks * weight / total for weight in weights]
        split = [int(share) for share in shares]
        remainder = blocks - sum(split)
        if remainder:
            by_fraction = sorted(
                range(len(split)),
                key=lambda i: (-(shares[i] - split[i]), i),
            )
            for i in by_fraction[:remainder]:
                split[i] += 1
        return split

    def total_borrowed_blocks(self) -> int:
        """Cumulative synchronous borrows across every shard."""
        return sum(self._borrowed_blocks)


class AggregateLockChain:
    """The one global LOCKLIST the controller tunes: sum of shard chains.

    Duck-types the :class:`LockBlockChain` surface the tuning layer
    consumes (reads, ``add_blocks``, ``release_blocks``,
    ``check_invariants``); see the module docstring for the grow/shrink
    distribution rules.
    """

    def __init__(
        self, chains: Sequence[LockBlockChain], ledger: ShardMemoryLedger
    ) -> None:
        if not chains:
            raise ServiceError("aggregate chain needs at least one shard chain")
        if len(chains) != len(ledger):
            raise ServiceError(
                f"{len(chains)} chains but ledger tracks {len(ledger)} shards"
            )
        self._chains = list(chains)
        self._ledger = ledger

    # -- read surface (sums over shards) -----------------------------------

    @property
    def block_count(self) -> int:
        return sum(chain.block_count for chain in self._chains)

    @property
    def capacity_slots(self) -> int:
        return sum(chain.capacity_slots for chain in self._chains)

    @property
    def used_slots(self) -> int:
        return sum(chain.used_slots for chain in self._chains)

    @property
    def free_slots(self) -> int:
        # Clamped: a chain view whose occupancy is sampled may briefly
        # report more used slots than its current capacity.
        return max(0, self.capacity_slots - self.used_slots)

    @property
    def allocated_pages(self) -> int:
        return sum(chain.allocated_pages for chain in self._chains)

    def free_fraction(self) -> float:
        capacity = self.capacity_slots
        if capacity == 0:
            return 1.0
        return self.free_slots / capacity

    def entirely_free_blocks(self) -> int:
        return sum(chain.entirely_free_blocks() for chain in self._chains)

    # -- grow / shrink (the controller's physical hooks) -------------------

    def add_blocks(self, count: int) -> int:
        """Distribute ``count`` new blocks across shards by demand.

        A chain may accept fewer blocks than its share (a worker that
        died mid-pass); the shortfall is re-split once over the updated
        demand, and a shortfall that survives that round is an error.
        """
        if count < 0:
            raise ValueError(f"block count must be non-negative, got {count}")
        if count == 0:
            return 0
        undelivered = self._deliver(self._ledger.grant_split(count))
        if undelivered:
            undelivered = self._deliver(self._ledger.grant_split(undelivered))
        if undelivered:
            raise MemoryAccountingError(
                f"{undelivered} of {count} granted blocks could not be "
                "delivered to any shard"
            )
        return count

    def _deliver(self, split: Sequence[int]) -> int:
        """Hand each chain its share; returns the blocks not accepted."""
        undelivered = 0
        for chain, share in zip(self._chains, split):
            if share:
                undelivered += share - chain.add_blocks(share)
        return undelivered

    def release_blocks(self, count: int, partial: bool = False) -> int:
        """Free up to ``count`` entirely-empty blocks across shards.

        Keeps the unsharded semantics: with ``partial=False`` the
        request is all-or-nothing -- if the shards cannot jointly
        surrender ``count`` empty blocks, nothing is freed and 0 is
        returned.
        """
        if count < 0:
            raise ValueError(f"block count must be non-negative, got {count}")
        if count == 0:
            return 0
        free_per_shard = [chain.entirely_free_blocks() for chain in self._chains]
        if sum(free_per_shard) < count and not partial:
            return 0
        order = sorted(
            range(len(self._chains)),
            key=lambda i: (-free_per_shard[i], -i),
        )
        freed = 0
        for i in order:
            if freed >= count:
                break
            take = min(count - freed, free_per_shard[i])
            if take:
                freed += self._chains[i].release_blocks(take, partial=True)
        return freed

    def check_invariants(self) -> None:
        for chain in self._chains:
            chain.check_invariants()

    def __repr__(self) -> str:
        return (
            f"AggregateLockChain(shards={len(self._chains)}, "
            f"blocks={self.block_count}, "
            f"used={self.used_slots}/{self.capacity_slots})"
        )
