"""Cross-shard deadlock detection: merged graphs, sweeps, victim rules.

Shard-local cycles cannot exist (each shard keeps immediate
detection), so these tests build cycles that genuinely span shard
boundaries and assert the sweep finds them in ONE pass, picks victims
by global footprint with the documented lowest-app-id tie-break, and
that the degraded path (graph-merge invariant violation) fails loudly.
"""

import threading

import pytest

from repro.errors import DeadlockError, LockManagerError
from repro.lockmgr.detector import merge_wait_graphs
from repro.lockmgr.modes import LockMode
from repro.service.sharded import (
    ShardedDeadlockDetector,
    ShardedServiceConfig,
    ShardedServiceStack,
)
from tests.service.sched import ScriptedThread, wait_until


def make_stack(shards: int, **cfg_kwargs) -> ShardedServiceStack:
    cfg_kwargs.setdefault("tuner_interval_s", None)
    return ShardedServiceStack(
        ShardedServiceConfig(shards=shards, **cfg_kwargs)
    )


def park_all(service, requests):
    """Issue blocking table requests on threads; wait until all parked."""
    threads = {
        app: ScriptedThread(
            service.lock_table, app, table, LockMode.X, name=f"app{app}"
        )
        for app, table in requests
    }
    expected = {app for app, _ in requests}
    wait_until(
        lambda: service.waiting_sessions() == expected,
        what="all cycle participants parked",
    )
    return threads


def global_slots(service, app):
    """Lock structures ``app`` holds summed over every shard."""
    return sum(shard.manager.app_slots(app) for shard in service.shards)


class TestCycleSpans:
    def test_two_shard_cycle_found_in_one_sweep(self):
        stack = make_stack(2)
        service = stack.service
        a, b = service.open_session(), service.open_session()
        service.lock_table(a, 0, LockMode.X)  # shard 0
        service.lock_table(b, 1, LockMode.X)  # shard 1
        threads = park_all(service, [(a, 1), (b, 0)])

        assert stack.detector.check() == 1
        assert stack.detector.stats.checks == 1
        assert stack.detector.stats.cycles_found == 1

        victim = stack.detector.stats.victims[0]
        assert isinstance(threads[victim].outcome(), DeadlockError)
        service.rollback(victim)
        survivor = b if victim == a else a
        threads[survivor].result()
        assert stack.manager_stats.deadlocks == 1
        for app in (a, b):
            service.rollback(app)
            service.close_session(app)
        stack.stop()
        stack.check_invariants()

    def test_three_shard_cycle_found_in_one_sweep(self):
        stack = make_stack(3)
        service = stack.service
        a, b, c = (service.open_session() for _ in range(3))
        service.lock_table(a, 0, LockMode.X)  # shard 0
        service.lock_table(b, 1, LockMode.X)  # shard 1
        service.lock_table(c, 2, LockMode.X)  # shard 2
        threads = park_all(service, [(a, 1), (b, 2), (c, 0)])

        assert stack.detector.check() == 1
        assert stack.detector.stats.cycles_found == 1
        # Equal global footprints (one table lock + one parked request
        # each): the tie-break picks the lowest application id.
        assert stack.detector.stats.victims == [a]

        assert isinstance(threads[a].outcome(), DeadlockError)
        # Unwinding the cycle is a chain: a's rollback grants c (who
        # waited on table 0), c's rollback then grants b.
        service.rollback(a)
        threads[c].result()
        service.rollback(c)
        threads[b].result()
        service.rollback(b)
        for app in (a, b, c):
            service.close_session(app)
        stack.stop()
        stack.check_invariants()

    def test_two_and_three_shard_cycles_in_the_same_sweep(self):
        """Disjoint cycles spanning 2 and 3 shards resolved together."""
        stack = make_stack(3)
        service = stack.service
        a, b, c, d, e = (service.open_session() for _ in range(5))
        # 2-shard cycle over tables 0 (shard 0) and 1 (shard 1).
        service.lock_table(a, 0, LockMode.X)
        service.lock_table(b, 1, LockMode.X)
        # 3-shard cycle over tables 3, 4, 5 (shards 0, 1, 2).
        service.lock_table(c, 3, LockMode.X)
        service.lock_table(d, 4, LockMode.X)
        service.lock_table(e, 5, LockMode.X)
        threads = park_all(
            service, [(a, 1), (b, 0), (c, 4), (d, 5), (e, 3)]
        )

        assert stack.detector.check() == 2
        assert stack.detector.stats.cycles_found == 2
        assert sorted(stack.detector.stats.victims) == [a, c]

        for victim in (a, c):
            assert isinstance(threads[victim].outcome(), DeadlockError)
            service.rollback(victim)
        # 2-cycle: a's rollback grants b directly.  3-cycle: c's
        # rollback grants e (who waited on table 3); e's rollback then
        # grants d.
        threads[b].result()
        threads[e].result()
        service.rollback(e)
        threads[d].result()
        assert stack.manager_stats.deadlocks == 2
        for app in (b, d):
            service.rollback(app)
        for app in (a, b, c, d, e):
            service.close_session(app)
        stack.stop()
        stack.check_invariants()


class TestVictimChoice:
    def test_victim_has_smallest_global_footprint(self):
        """Global, not per-shard, slot counts drive the choice."""
        stack = make_stack(2)
        service = stack.service
        a, b = service.open_session(), service.open_session()
        # Inflate a's GLOBAL footprint with row locks on an unrelated
        # table in the *other* shard -- a per-shard count at a's wait
        # site would miss them.
        for row in range(5):
            service.lock_row(a, 9, row, LockMode.X)  # table 9 -> shard 1
        service.lock_table(a, 0, LockMode.X)  # shard 0
        service.lock_table(b, 1, LockMode.X)  # shard 1
        threads = park_all(service, [(a, 1), (b, 0)])
        assert global_slots(service, a) > global_slots(service, b)

        assert stack.detector.check() == 1
        # b holds fewer structures globally, so b is the victim even
        # though a has the lower id.
        assert stack.detector.stats.victims == [b]
        assert isinstance(threads[b].outcome(), DeadlockError)
        service.rollback(b)
        threads[a].result()
        for app in (a, b):
            service.rollback(app)
            service.close_session(app)
        stack.stop()
        stack.check_invariants()

    def test_tie_break_is_lowest_app_id(self):
        """Documented contract: equal footprints -> lowest id loses."""
        stack = make_stack(2)
        service = stack.service
        # Open in reverse-ish order so id order != creation order of
        # the cycle edges.
        a, b = service.open_session(), service.open_session()
        service.lock_table(b, 1, LockMode.X)
        service.lock_table(a, 0, LockMode.X)
        threads = park_all(service, [(b, 0), (a, 1)])
        assert global_slots(service, a) == global_slots(service, b)

        stack.detector.check()
        assert stack.detector.stats.victims == [min(a, b)]
        assert isinstance(threads[min(a, b)].outcome(), DeadlockError)
        service.rollback(min(a, b))
        threads[max(a, b)].result()
        for app in (a, b):
            service.rollback(app)
            service.close_session(app)
        stack.stop()


class TestSweepThread:
    def test_background_sweep_resolves_cycle_without_manual_check(self):
        stack = make_stack(2, deadlock_interval_s=0.02)
        with stack:
            service = stack.service
            a, b = service.open_session(), service.open_session()
            service.lock_table(a, 0, LockMode.X)
            service.lock_table(b, 1, LockMode.X)
            ta = ScriptedThread(service.lock_table, a, 1, LockMode.X)
            tb = ScriptedThread(service.lock_table, b, 0, LockMode.X)
            wait_until(
                lambda: stack.detector.stats.victims,
                what="background sweep picked a victim",
            )
            victim = stack.detector.stats.victims[0]
            tv, ts = (ta, tb) if victim == a else (tb, ta)
            assert isinstance(tv.outcome(), DeadlockError)
            # The survivor grants only once the victim's held table
            # lock is gone.
            service.rollback(victim)
            ts.result()
            assert stack.detector.crash is None
            for app in (a, b):
                service.rollback(app)
                service.close_session(app)
        stack.check_invariants()


class FakeShard:
    """A scripted shard: its waiters' edges and its per-app footprints.

    Each sweep reads these as they stand, one shard at a time -- like
    worker processes answering separate round trips, the snapshots are
    not atomic with each other.
    """

    def __init__(self):
        self.waits = {}  # waiting app -> apps it waits for
        self.slots = {}  # app -> lock structures held on this shard
        self.victims = []

    def waiting_sessions(self):
        return set(self.waits)

    def graph(self, waiting):
        graph = {
            app: [blocker for blocker in blockers if blocker in waiting]
            for app, blockers in self.waits.items()
        }
        return graph, {app: self.slots.get(app, 0) for app in waiting}

    def victimize(self, app, message):
        if self.waits.pop(app, None) is None:
            return False, ""
        self.victims.append(app)
        return True, "table 0"


def two_shard_cycle(a_slots=(1, 1), b_slots=(1, 1)):
    """App 1 waits on shard 0 for app 2, app 2 on shard 1 for app 1."""
    shards = [FakeShard(), FakeShard()]
    shards[0].waits[1] = [2]
    shards[1].waits[2] = [1]
    for shard, a, b in zip(shards, a_slots, b_slots):
        shard.slots.update({1: a, 2: b})
    return shards


class TestSnapshotPolicy:
    """Two-sweep phantom confirmation vs first-sight victimization."""

    def test_cycle_seen_once_is_not_victimized(self):
        shards = two_shard_cycle()
        detector = ShardedDeadlockDetector(shards)
        assert detector.check() == 0
        assert detector.stats.cycles_found == 0
        assert detector.stats.victims == []
        assert shards[0].victims == shards[1].victims == []

    def test_cycle_seen_twice_is_victimized_by_global_footprint(self):
        # App 1 holds 3 + 2 structures globally, app 2 holds 1 + 3:
        # app 2 is the lighter victim although app 1 has the lower id.
        shards = two_shard_cycle(a_slots=(3, 2), b_slots=(1, 3))
        detector = ShardedDeadlockDetector(shards)
        recorded = []
        detector.on_victim = lambda *args: recorded.append(args)
        assert detector.check() == 0
        assert detector.check() == 1
        assert detector.stats.cycles_found == 1
        assert detector.stats.victims == [2]
        assert shards[1].victims == [2]  # cancelled where it waits
        assert recorded == [(1, 2, "table 0", [1, 2])]
        assert detector.check() == 0  # broken: nothing left to confirm

    def test_equal_footprints_victimize_the_lowest_app_id(self):
        shards = two_shard_cycle(a_slots=(2, 0), b_slots=(0, 2))
        detector = ShardedDeadlockDetector(shards)
        detector.check()
        assert detector.check() == 1
        assert detector.stats.victims == [1]
        assert shards[0].victims == [1]

    def test_cycle_that_dissolves_between_sweeps_is_dropped(self):
        shards = two_shard_cycle()
        detector = ShardedDeadlockDetector(shards)
        assert detector.check() == 0  # seen once
        blockers = shards[0].waits.pop(1)  # app 1 got its grant
        assert detector.check() == 0
        shards[0].waits[1] = blockers  # a new wait closes it again
        assert detector.check() == 0  # seen once more: still pending
        assert detector.stats.victims == []
        assert detector.check() == 1

    def test_atomic_snapshots_victimize_on_first_sight(self):
        shards = two_shard_cycle()
        detector = ShardedDeadlockDetector(
            shards, snapshot_lock=threading.Lock()
        )
        assert detector.check() == 1
        assert detector.stats.victims == [1]


class TestMergeBackstop:
    def test_duplicate_waiter_across_shards_is_rejected(self):
        """One session waiting in two shards means the one-in-flight
        invariant broke upstream; the merge must not paper over it."""
        with pytest.raises(LockManagerError, match="two shards"):
            merge_wait_graphs([{7: [1]}, {7: [2]}])

    def test_one_in_flight_is_enforced_globally(self):
        from repro.errors import ServiceError

        stack = make_stack(2)
        service = stack.service
        blocker = service.open_session()
        app = service.open_session()
        service.lock_table(blocker, 0, LockMode.X)
        thread = ScriptedThread(service.lock_table, app, 0, LockMode.X)
        wait_until(
            lambda: app in service.waiting_sessions(),
            what="first request parked",
        )
        # A second concurrent request -- even routed to the OTHER
        # shard -- must be refused, or the merged wait-for graph would
        # contain this session twice.
        with pytest.raises(ServiceError, match="in flight"):
            service.lock_table(app, 1, LockMode.X)
        service.rollback(blocker)
        thread.result()
        for s in (blocker, app):
            service.rollback(s)
            service.close_session(s)
        stack.stop()
