"""Multi-process worker pool: accounting, routing, failure modes.

A real :class:`WorkerPoolStack` -- forked worker processes, Unix-domain
sockets, the arbiter thread in the parent -- exercised through the
routed client library.  Covers the ISSUE acceptance criteria: byte-exact
cross-worker block accounting on clean shutdown, sync-growth borrows
over the control channel, cross-worker deadlock detection, and the
worker-crash degraded mode.
"""

import os
import signal
import threading
import time
from collections import Counter

import pytest

from repro.errors import DeadlockError
from repro.net import protocol as wire
from repro.net.client import ConnectionLostError
from repro.service.driver import LoadDriver, TransactionMix
from repro.service.workers import WorkerPoolConfig, WorkerPoolStack
from repro.lockmgr.modes import LockMode
from repro.units import LOCKS_PER_BLOCK, PAGES_PER_BLOCK


def wait_until(predicate, timeout_s: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


def pool_config(**overrides) -> WorkerPoolConfig:
    defaults = dict(
        total_memory_pages=16384,
        initial_locklist_pages=128,
        tuner_interval_s=0.05,
        max_in_flight=16,
        admission_queue_depth=64,
        workers=2,
        deadlock_interval_s=0.1,
    )
    defaults.update(overrides)
    return WorkerPoolConfig(**defaults)


class TestCleanShutdown:
    def test_idle_pool_reconciles_byte_exactly(self):
        pool = WorkerPoolStack(pool_config()).start()
        pool.stop()
        rec = pool.reconciliation
        assert rec is not None and rec.ok
        assert rec.expected_blocks == rec.reported_blocks
        assert rec.expected_pages == 128
        assert all(w["state"] == "closed" for w in rec.workers)

    def test_driven_pool_reconciles_byte_exactly(self):
        with WorkerPoolStack(pool_config()) as pool:
            with pool.client_stack() as net:
                driver = LoadDriver(
                    net,
                    mix=TransactionMix(
                        locks_per_txn_mean=8.0,
                        think_time_mean_s=0.0,
                        work_time_per_lock_s=0.0,
                        rows_per_table=20_000,
                    ),
                    threads=4,
                    requests_per_thread=800,
                    seed=17,
                )
                report = driver.run()
                assert report.worker_errors == []
                assert report.lock_requests >= 4 * 800
                assert report.commits > 0
                # Traffic reached every worker, not just one shard.
                per_worker = net.service.stats()
                assert len(per_worker) == 2
                for payload in per_worker:
                    assert payload["service"]["requests"] > 0
        rec = pool.reconciliation
        assert rec is not None and rec.ok
        assert rec.expected_blocks == rec.reported_blocks
        for worker in rec.workers:
            assert worker["state"] == "closed"
            assert worker["reported_used_slots"] == 0


class TestSyncGrowthBorrow:
    def test_borrow_over_the_control_channel(self):
        # One block per worker, and a tuner interval so long the async
        # grow path never fires during the test: filling worker 0 past
        # its capacity *must* go through the synchronous borrow pipe.
        cfg = pool_config(
            initial_locklist_pages=2 * PAGES_PER_BLOCK,
            tuner_interval_s=5.0,
        )
        with WorkerPoolStack(cfg) as pool:
            assert pool.chain.capacity_slots == 2 * LOCKS_PER_BLOCK
            with pool.client_stack() as net:
                client = net.service
                apps = [client.open_session() for _ in range(4)]
                # Even tables all route to worker 0; each session stays
                # far below MAXLOCKS so escalation never preempts the
                # growth path.
                per_session = (LOCKS_PER_BLOCK // 4) + 150
                for offset, app in enumerate(apps):
                    client.lock_rows(
                        app,
                        [
                            (2 * offset, row, LockMode.X)
                            for row in range(per_session)
                        ],
                    )
                assert pool.ledger.borrowed_blocks(0) >= 1
                assert pool.ledger.total_borrowed_blocks() >= 1
                # The grant landed in the parent's authoritative mirror.
                assert pool.chain.block_count > 2
                for app in apps:
                    client.rollback(app)
                    client.close_session(app)
        rec = pool.reconciliation
        assert rec is not None and rec.ok
        assert rec.expected_blocks == rec.reported_blocks


class TestCrossWorkerDeadlock:
    def test_cycle_spanning_two_workers_is_broken(self):
        with WorkerPoolStack(pool_config()) as pool:
            with pool.client_stack() as net:
                client = net.service
                a = client.open_session()  # home: worker 0
                b = client.open_session()  # home: worker 1
                client.lock_row(a, 0, 1, LockMode.X)  # worker 0
                client.lock_row(b, 1, 1, LockMode.X)  # worker 1
                # Each worker only ever sees half of the wait-for
                # cycle; only the parent's merged graph closes it.
                outcomes = {}

                def wait_for(name, app, table):
                    try:
                        client.lock_row(
                            app, table, 1, LockMode.X, timeout_s=None
                        )
                        outcomes[name] = "granted"
                    except DeadlockError:
                        outcomes[name] = "deadlock"
                        client.rollback(app)

                threads = [
                    threading.Thread(target=wait_for, args=("a", a, 1)),
                    threading.Thread(target=wait_for, args=("b", b, 0)),
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30.0)
                assert not any(t.is_alive() for t in threads)
                assert sorted(outcomes.values()) == ["deadlock", "granted"]
                assert pool.detector.stats.cycles_found >= 1
                assert len(pool.detector.stats.victims) >= 1
                assert pool.incidents.kind_counts().get("deadlock", 0) >= 1
                for app in (a, b):
                    client.rollback(app)
                    client.close_session(app)
        assert pool.reconciliation is not None and pool.reconciliation.ok

    def test_detector_runs_without_cycles(self):
        with WorkerPoolStack(pool_config()) as pool:
            with pool.client_stack() as net:
                with net.service.session() as app:
                    net.service.lock_row(app, 0, 1, LockMode.X)
                    net.service.lock_row(app, 1, 1, LockMode.X)
                assert wait_until(lambda: pool.detector.stats.checks >= 2)
            assert pool.detector.stats.cycles_found == 0
            assert pool.detector.stats.victims == []


class TestWorkerCrash:
    def test_sigkill_degrades_like_a_tuner_crash(self):
        with WorkerPoolStack(pool_config()) as pool:
            with pool.client_stack() as net:
                client = net.service
                a = client.open_session()  # home: worker 0
                b = client.open_session()  # home: worker 1
                client.lock_row(a, 0, 1, LockMode.X)
                client.lock_row(b, 1, 1, LockMode.X)

                os.kill(pool._handles[0].process.pid, signal.SIGKILL)
                assert wait_until(lambda: pool.frozen_reason is not None)
                assert "worker" in pool.frozen_reason
                assert pool.worker_crashes == 1

                health = pool.ops_health()
                assert health["ok"] is False
                assert health["frozen_reason"] is not None
                counts = pool.incidents.kind_counts()
                assert counts.get("worker-crash", 0) >= 1

                # Survivors keep serving their shards on a frozen,
                # static LOCKLIST.
                client.lock_row(b, 3, 7, LockMode.X, timeout_s=2.0)
                # The dead worker's shard is gone.
                with pytest.raises(
                    (ConnectionLostError, wire.ServiceError, OSError)
                ):
                    client.lock_row(a, 2, 2, LockMode.X, timeout_s=1.0)

                client.rollback(b)
                client.close_session(b)
        rec = pool.reconciliation
        assert rec is not None
        assert rec.ok is False
        states = {w["worker"]: w["state"] for w in rec.workers}
        assert states[0] == "crashed"
        assert states[1] == "closed"


class TestControlPlaneBudget:
    def test_quiet_pool_round_trips_per_sweep_and_pass(self):
        """Pins the control-plane cost a quiet pool pays: per deadlock
        sweep one ``waiting`` round trip per live worker (and no
        ``graph``), per tuner pass one ``occupancy`` round trip per
        live worker."""
        pool = WorkerPoolStack(
            pool_config(tuner_interval_s=0.02, deadlock_interval_s=0.02)
        )
        ops = Counter()
        real_call = pool._call

        def counting_call(idx, op, *args, **kwargs):
            ops[op] += 1
            return real_call(idx, op, *args, **kwargs)

        pool._call = counting_call
        with pool:
            assert wait_until(
                lambda: pool.tuner.intervals_run >= 5
                and pool.detector.stats.checks >= 5
            )
            # Join both loops so the counts and their counters agree.
            pool.detector.stop()
            pool.tuner.stop()
            workers = pool.config.workers
            assert ops["waiting"] == workers * pool.detector.stats.checks
            assert ops["graph"] == 0
            assert ops["occupancy"] == workers * pool.tuner.intervals_run
        assert pool.reconciliation is not None and pool.reconciliation.ok
