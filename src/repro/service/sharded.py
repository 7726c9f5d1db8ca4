"""Sharded lock service: per-shard lock tables, one global tuning loop.

The unsharded :class:`~repro.service.service.LockService` serializes
every request on a single mutex, so its throughput *falls* as threads
are added (BENCH_SERVICE.json: the hot latch).  This module partitions
the resource space across N independent lock managers:

* **Routing**: a request for table ``t`` (or any row of ``t``) goes to
  shard ``t % N``.  Row locks take their covering intent lock on the
  same table, so a single request never spans shards; uncontended
  requests on different shards never touch the same mutex.
* **Sessions** are global: :class:`ShardedLockService` owns the
  application-id space and lazily registers a session with a shard the
  first time a request routes there
  (:meth:`LockService.adopt_session`).  A per-session lock enforces the
  one-request-in-flight contract *globally* -- the cross-shard deadlock
  detector's merged wait-for graph is only sound if a session waits in
  at most one shard.
* **Memory** stays a single LOCKLIST: the paper's
  :class:`~repro.core.controller.LockMemoryController` tunes the
  :class:`~repro.service.ledger.AggregateLockChain` (the sum of the
  shard chains); grows are distributed as per-shard 128 KB block
  grants proportional to ledger demand, synchronous-growth borrows go
  to the requesting shard (recorded in the
  :class:`~repro.service.ledger.ShardMemoryLedger`) and stay bounded
  by the global LMOmax, and the adaptive MAXLOCKS fraction -- computed
  from aggregate usage -- is pushed to every shard on every resize.
* **Deadlocks**: each shard keeps immediate detection for its own
  cycles (a same-shard cycle therefore never persists), so any cycle
  in the merged graph necessarily spans shards;
  :class:`ShardedDeadlockDetector` sweeps for those on a wall-clock
  interval, choosing victims by *global* lock footprint (slots summed
  over the shards) with the lowest-app-id tie-break.  The worker pool
  runs the same sweep over its worker processes.

Lock ordering protocol (deadlock-freedom across internal actors):

1. Shard conditions are only ever acquired one-at-a-time (request
   path) or all-ascending-by-index (:class:`_AllShardConds`: tuner,
   detector, close, invariant checks).
2. The stack's growth lock is acquired only *after* a shard condition
   (a sync-growing request thread) and never the other way around.
3. The growth-lock holder never waits for any shard condition.

A thread holding all shard conditions excludes every request thread,
so the heap-grown-but-chain-not-yet window inside synchronous growth
is unobservable to the tuner and ``check_consistency`` cannot
misfire.

With ``shards=1`` the routing, the ledger split and the aggregate
chain all degenerate to pass-throughs and the stack reproduces the
unsharded stack's accounting exactly (asserted by the property tests).
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import (
    Callable,
    ContextManager,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import (
    ConfigurationError,
    ServiceClosedError,
    ServiceError,
)
from repro.lockmgr.blocks import LockBlockChain
from repro.lockmgr.detector import (
    DetectorStats,
    find_cycles_in_graph,
    merge_wait_graphs,
)
from repro.lockmgr.manager import LockManagerStats
from repro.lockmgr.modes import LockMode
from repro.obs.incidents import IncidentLog, IncidentRecorder
from repro.obs.registry import MetricRegistry
from repro.obs.spans import RequestSpanSampler
from repro.obs.waits import WaitEventProfiler
from repro.service.admission import AdmissionController
from repro.service.clock import Clock, MonotonicClock
from repro.service.ledger import AggregateLockChain, ShardMemoryLedger
from repro.service.ops import OpsServer
from repro.service.service import LockService, ServiceStats, _USE_DEFAULT
from repro.service.stack import (
    ServiceConfig,
    StackSurface,
    build_broker,
    build_memory_registry,
    check_scale_out,
    initial_block_split,
    publish_stack_gauges,
    stmm_payload,
)


def shard_of(table_id: int, shards: int) -> int:
    """The shard owning ``table_id`` and every row in it.

    Plain modulo over the integer table id: deterministic across
    processes (no reliance on ``hash()``, so PYTHONHASHSEED cannot
    change placement) and trivially computable by operators reading a
    trace.
    """
    return table_id % shards


@dataclass
class ShardedServiceConfig(ServiceConfig):
    """A :class:`ServiceConfig` plus the shard-layer knobs."""

    #: Number of lock-manager shards (1 = byte-equivalent to unsharded).
    shards: int = 4
    #: Wall-clock seconds between cross-shard deadlock sweeps.
    deadlock_interval_s: float = 0.25

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {self.shards}")
        super().__post_init__()
        check_scale_out(self, self.shards, "shards")


class _Session:
    """Global session registry entry.

    ``lock`` is acquired non-blocking around each request, enforcing
    one-in-flight per session across shards.  ``shard_ids`` is an
    immutable tuple replaced wholesale on adoption so concurrent
    readers (cancel from another thread) never see a mutating
    collection.
    """

    __slots__ = ("lock", "shard_ids")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.shard_ids: Tuple[int, ...] = ()


class _AllShardConds:
    """Acquire every shard condition, ascending by shard index.

    Duck-types the ``with service._cond:`` surface the
    :class:`TunerDaemon` uses, extended over N shards.  The underlying
    locks are RLocks, so a holder may re-enter any single shard's
    public API (freeze, close) without deadlocking itself.
    """

    def __init__(self, conds: Sequence[threading.Condition]) -> None:
        self._conds = list(conds)

    def __enter__(self) -> "_AllShardConds":
        for cond in self._conds:
            cond.acquire()
        return self

    def __exit__(self, *exc_info: object) -> None:
        for cond in reversed(self._conds):
            cond.release()


class ShardedLockService:
    """N :class:`LockService` shards behind one service facade.

    Exposes the same client surface as the unsharded service (session
    lifecycle, ``lock_row`` / ``lock_table`` / ``rollback`` / ``cancel``
    / ``release_read_lock``) plus the aggregate surfaces the tuning
    stack consumes (``chain``, ``_cond``, ``clock``, ``freeze_tuning``),
    so both :class:`~repro.service.driver.LoadDriver` and
    :class:`~repro.service.tuner.TunerDaemon` run unchanged against it.
    """

    def __init__(
        self,
        chains: Sequence[LockBlockChain],
        *,
        clock: Optional[Clock] = None,
        default_timeout_s: Optional[float] = None,
        metrics: Optional[MetricRegistry] = None,
        maxlocks_fraction: float = 0.98,
        lock_timeout_s: Optional[float] = None,
    ) -> None:
        if not chains:
            raise ServiceError("sharded service needs at least one chain")
        self.clock = clock or MonotonicClock()
        # Shards share the clock and the metric registry; each shard's
        # service.* instruments carry a shard=N label, so the registry
        # holds one distinct series per shard (sum for the aggregate).
        self.shards: List[LockService] = [
            LockService(
                chain,
                clock=self.clock,
                default_timeout_s=default_timeout_s,
                metrics=metrics,
                metric_labels=(
                    None if metrics is None else {"shard": str(idx)}
                ),
                maxlocks_fraction=maxlocks_fraction,
                lock_timeout_s=lock_timeout_s,
            )
            for idx, chain in enumerate(chains)
        ]
        self.num_shards = len(self.shards)
        chains = [shard.chain for shard in self.shards]
        self.ledger = ShardMemoryLedger(chains)
        self.chain = AggregateLockChain(chains, self.ledger)
        self._cond = _AllShardConds([shard._cond for shard in self.shards])
        #: Session-lifecycle counters; request counters live in the
        #: shards (see :meth:`aggregate_stats`).
        self.stats = ServiceStats()
        self._slock = threading.Lock()
        self._sessions: Dict[int, _Session] = {}
        self._app_ids = itertools.count(1)
        self._closed = False
        self.frozen_reason: Optional[str] = None
        #: Same contract as :attr:`LockService.borrow_return`: invoked
        #: once at :meth:`close` to return in-flight borrows to overflow.
        self.borrow_return = None

    # -- introspection -----------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def session_count(self) -> int:
        """Open sessions across the whole service (feeds minLockMemory)."""
        return len(self._sessions)

    def waiting_sessions(self) -> Set[int]:
        waiting: Set[int] = set()
        for shard in self.shards:
            waiting |= shard.waiting_sessions()
        return waiting

    def total_escalations(self) -> int:
        """Cumulative escalations across shards (feeds the controller's
        escalation-recovery doubling rule)."""
        return sum(
            shard.manager.stats.escalations.count for shard in self.shards
        )

    def check_invariants(self) -> None:
        """Every shard's accounting, plus the adoption index."""
        with self._cond:
            for shard in self.shards:
                shard.check_invariants()
            for app_id, entry in list(self._sessions.items()):
                for idx in entry.shard_ids:
                    if app_id not in self.shards[idx]._sessions:
                        raise ServiceError(
                            f"session {app_id} routed to shard {idx} "
                            "but the shard never adopted it"
                        )

    def snapshot_report(self, max_resources: int = 20) -> str:
        sections = []
        for idx, shard in enumerate(self.shards):
            sections.append(f"-- shard {idx} --")
            sections.append(shard.snapshot_report(max_resources))
        return "\n".join(sections)

    def aggregate_stats(self) -> ServiceStats:
        """Point-in-time service counters summed over the shards.

        Session counters come from this facade (sessions are global and
        never counted by the shards -- adoption is deliberately
        invisible to shard stats); request counters sum.
        """
        total = ServiceStats(
            sessions_opened=self.stats.sessions_opened,
            sessions_closed=self.stats.sessions_closed,
            peak_sessions=self.stats.peak_sessions,
        )
        for shard in self.shards:
            total.requests += shard.stats.requests
            total.granted += shard.stats.granted
            total.timeouts += shard.stats.timeouts
            total.cancellations += shard.stats.cancellations
            total.failures += shard.stats.failures
        return total

    def manager_stats(self) -> LockManagerStats:
        """Merged lock-manager counters (snapshot, not a live view)."""
        return LockManagerStats.merged(
            [shard.manager.stats for shard in self.shards]
        )

    # -- session lifecycle -------------------------------------------------

    def open_session(self) -> int:
        with self._slock:
            if self._closed:
                raise ServiceClosedError("lock service is closed")
            app_id = next(self._app_ids)
            self._sessions[app_id] = _Session()
            self.stats.sessions_opened += 1
            if len(self._sessions) > self.stats.peak_sessions:
                self.stats.peak_sessions = len(self._sessions)
            return app_id

    def close_session(self, app_id: int) -> int:
        """Release the session's locks in every adopted shard."""
        entry = self._sessions.get(app_id)
        if entry is None:
            raise ServiceError(f"session {app_id} is not open")
        if not entry.lock.acquire(blocking=False):
            raise ServiceError(
                f"session {app_id} still has a request in flight"
            )
        # The lock is never released: the session is retiring, and
        # holding it fails any late request racing the close.
        freed = 0
        for idx in sorted(entry.shard_ids):
            freed += self.shards[idx].close_session(app_id)
        with self._slock:
            del self._sessions[app_id]
            self.stats.sessions_closed += 1
        return freed

    @contextmanager
    def session(self) -> Iterator[int]:
        app_id = self.open_session()
        try:
            yield app_id
        finally:
            self.close_session(app_id)

    # -- routing -----------------------------------------------------------

    def _route(self, app_id: int, table_id: int) -> Tuple[_Session, LockService]:
        entry = self._sessions.get(app_id)
        if entry is None:
            raise ServiceError(f"session {app_id} is not open")
        if not entry.lock.acquire(blocking=False):
            raise ServiceError(
                f"session {app_id} already has a request in flight"
            )
        try:
            idx = table_id % self.num_shards
            shard = self.shards[idx]
            if idx not in entry.shard_ids:
                shard.adopt_session(app_id)
                entry.shard_ids = entry.shard_ids + (idx,)
        except BaseException:
            entry.lock.release()
            raise
        return entry, shard

    # -- locking API -------------------------------------------------------

    def lock_row(
        self,
        app_id: int,
        table_id: int,
        row_id: int,
        mode: LockMode,
        timeout_s: object = _USE_DEFAULT,
    ) -> None:
        """Route to the owning shard; semantics of
        :meth:`LockService.lock_row`."""
        # Inlined _route plus the shard's uncontended fast path: the
        # facade validates the session and holds its in-flight lock.
        entry = self._sessions.get(app_id)
        if entry is None:
            raise ServiceError(f"session {app_id} is not open")
        if not entry.lock.acquire(blocking=False):
            raise ServiceError(
                f"session {app_id} already has a request in flight"
            )
        try:
            idx = table_id % self.num_shards
            shard = self.shards[idx]
            if idx not in entry.shard_ids:
                shard.adopt_session(app_id)
                entry.shard_ids = entry.shard_ids + (idx,)
            if not shard.lock_row_uncontended(
                app_id, table_id, row_id, mode, timeout_s
            ):
                shard.lock_row(app_id, table_id, row_id, mode, timeout_s)
        finally:
            entry.lock.release()

    def lock_table(
        self,
        app_id: int,
        table_id: int,
        mode: LockMode,
        timeout_s: object = _USE_DEFAULT,
    ) -> None:
        entry, shard = self._route(app_id, table_id)
        try:
            shard.lock_table(app_id, table_id, mode, timeout_s)
        finally:
            entry.lock.release()

    def rollback(self, app_id: int) -> int:
        """Release the session's locks everywhere, keeping the session."""
        entry = self._sessions.get(app_id)
        if entry is None:
            raise ServiceError(f"session {app_id} is not open")
        freed = 0
        for idx in sorted(entry.shard_ids):
            freed += self.shards[idx].rollback(app_id)
        return freed

    def release_read_lock(self, app_id: int, table_id: int, row_id: int) -> bool:
        entry = self._sessions.get(app_id)
        if entry is None:
            raise ServiceError(f"session {app_id} is not open")
        idx = table_id % self.num_shards
        if idx not in entry.shard_ids:
            return False  # never locked anything there
        return self.shards[idx].release_read_lock(app_id, table_id, row_id)

    def cancel(self, app_id: int, message: str = "cancelled") -> bool:
        """Withdraw a pending wait, wherever it is parked.

        A session waits in at most one shard (one-in-flight is global),
        so the first shard that confirms the cancel is the only one
        that ever will.
        """
        entry = self._sessions.get(app_id)
        if entry is None:
            return False
        for idx in sorted(entry.shard_ids):
            if self.shards[idx].cancel(app_id, message):
                return True
        return False

    # -- tuning hooks ------------------------------------------------------

    def refresh_all_maxlocks(self) -> None:
        """Push the (aggregate-derived) MAXLOCKS fraction to every shard.

        Wired as the controller's ``on_resize``; the caller (tuner pass
        or shutdown reclaim) holds every shard condition.
        """
        for shard in self.shards:
            shard.manager.refresh_maxlocks()

    def freeze_tuning(self, reason: str) -> None:
        """Degrade every shard to the static-LOCKLIST configuration."""
        with self._cond:
            if self.frozen_reason is not None:
                return
            self.frozen_reason = reason
            for shard in self.shards:
                shard.freeze_tuning(reason)

    # -- shutdown ----------------------------------------------------------

    def close(self) -> None:
        """Close every shard, then return in-flight borrows to overflow.

        Ordering matters exactly as in the unsharded close: cancelling
        the shards' pending waits first frees their structures, so the
        borrow-return hook sees every reclaimable block.
        """
        with self._slock:
            if self._closed:
                return
            self._closed = True
        with self._cond:
            for shard in self.shards:
                shard.close()
            if self.borrow_return is not None:
                self.borrow_return()

    def __repr__(self) -> str:
        return (
            f"ShardedLockService(shards={self.num_shards}, "
            f"sessions={len(self._sessions)}, chain={self.chain!r})"
        )


class ShardedDeadlockDetector:
    """Wall-clock sweep for cycles that span shards.

    Serves both scale-out topologies: the shards are in-process
    :class:`LockService` instances or the worker pool's per-worker
    views (:class:`~repro.service.workers.WorkerChain`).  Each shard
    exposes ``waiting_sessions()``, ``graph(waiting) -> (graph,
    slots)`` and ``victimize(app, message) -> (cancelled, resource)``.

    Shard-local cycles cannot exist (each shard keeps the manager's
    immediate detection), so every cycle in the merged wait-for graph
    crosses a shard boundary.  A sweep builds every shard's graph
    against the *global* waiting set, merges them
    (:func:`merge_wait_graphs` -- which also audits the
    one-wait-per-session invariant), and victimizes by **global** lock
    footprint (slots summed over shards), ties broken by lowest
    application id -- the same pure-function-of-membership contract as
    the single-manager detector.

    Snapshot policy: with ``snapshot_lock`` (the in-process stack
    passes all shard conditions) the graphs form one atomic snapshot
    and a cycle is victimized on first sight.  Without it (worker
    processes answer one round trip at a time) a cycle is victimized
    only when seen in **two consecutive sweeps** -- a real deadlock is
    permanent until broken, a phantom from skewed snapshots dissolves
    by itself.

    Degraded mode: if the sweep thread dies (``crash`` is set), tuning
    is *not* frozen -- lock memory management is unaffected -- but
    cross-shard cycles then persist until a participant's request
    deadline or LOCKTIMEOUT resolves them.  The CLI surfaces ``crash``
    at shutdown.
    """

    def __init__(
        self,
        shards: Sequence,
        *,
        interval_s: float = 0.25,
        snapshot_lock: Optional[ContextManager] = None,
    ) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be positive, got {interval_s}")
        self.shards = list(shards)
        self.interval_s = interval_s
        self.snapshot_lock = snapshot_lock
        self.stats = DetectorStats()
        self.crash: Optional[BaseException] = None
        #: Optional ``(shard, victim, resource, cycle)`` hook called
        #: after each successful victimization (incident capture).
        self.on_victim: Optional[Callable[[int, int, str, List[int]], None]] = None
        #: Cycles seen once, awaiting confirmation (no snapshot lock).
        self._pending: Set[FrozenSet[int]] = set()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> None:
        if self._thread is not None:
            raise ServiceError("deadlock sweep already started")
        self._thread = threading.Thread(
            target=self._run, name="deadlock-sweep", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()

    def status(self) -> dict:
        """The ``/healthz`` ``detector`` block."""
        return {
            "alive": self._thread is not None and self._thread.is_alive(),
            "crash": None if self.crash is None else str(self.crash),
            "checks": self.stats.checks,
            "victims": len(self.stats.victims),
        }

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                self.check()
            except Exception as exc:  # degraded mode, see class docstring
                self.crash = exc
                return

    def check(self) -> int:
        """One cross-shard sweep; returns the number of victims."""
        self.stats.checks += 1
        # The waiting set is read WITHOUT the snapshot lock: a sweep
        # that takes every shard condition stalls all request threads,
        # and almost every sweep finds nobody waiting.  A stale set can
        # only prune edges (graph nodes are the shards' waiters at
        # graph time), so it delays detection by one interval at most
        # and never invents a cycle.
        waiting: Set[int] = set()
        for shard in self.shards:
            waiting |= shard.waiting_sessions()
        if not waiting:
            self._pending.clear()
            return 0
        with self.snapshot_lock or nullcontext():
            return self._sweep(waiting)

    def _sweep(self, waiting: Set[int]) -> int:
        snapshots = [shard.graph(waiting) for shard in self.shards]
        cycles = find_cycles_in_graph(
            merge_wait_graphs(graph for graph, _ in snapshots)
        )
        if self.snapshot_lock is None:
            seen = {frozenset(cycle) for cycle in cycles}
            cycles = [c for c in cycles if frozenset(c) in self._pending]
            self._pending = seen - {frozenset(cycle) for cycle in cycles}
        victims = 0
        for cycle in cycles:
            self.stats.cycles_found += 1
            footprint = {
                app: sum(slots.get(app, 0) for _, slots in snapshots)
                for app in cycle
            }
            victim = min(cycle, key=lambda app: (footprint[app], app))
            owner = next(
                idx for idx, (graph, _) in enumerate(snapshots) if victim in graph
            )
            cancelled, resource = self.shards[owner].victimize(
                victim,
                f"cross-shard deadlock: app {victim} chosen as victim of "
                f"cycle {sorted(cycle)}",
            )
            if cancelled:
                self.stats.victims.append(victim)
                victims += 1
                if self.on_victim is not None:
                    self.on_victim(owner, victim, resource, list(cycle))
        return victims


class ShardedServiceStack(StackSurface):
    """A fully wired sharded service: shards below, one STMM loop above.

    Mirrors :class:`~repro.service.stack.ServiceStack` wiring exactly
    -- same memory registry layout, same controller, same adaptive
    MAXLOCKS, same STMM and tuner daemon -- with the aggregate chain
    standing in for the single chain and the per-shard growth
    providers funnelling synchronous borrows through one growth lock.
    """

    def __init__(
        self,
        config: Optional[ShardedServiceConfig] = None,
        *,
        clock: Optional[Clock] = None,
    ) -> None:
        cfg = config or ShardedServiceConfig()
        self.config = cfg
        self.clock = clock or MonotonicClock()
        self.metrics: Optional[MetricRegistry] = (
            MetricRegistry() if cfg.telemetry else None
        )
        self.registry = build_memory_registry(cfg)

        chains = [
            LockBlockChain(initial_blocks=blocks)
            for blocks in initial_block_split(cfg, cfg.shards)
        ]
        self.service = ShardedLockService(
            chains,
            clock=self.clock,
            default_timeout_s=cfg.default_timeout_s,
            lock_timeout_s=cfg.lock_timeout_s,
            metrics=self.metrics,
        )
        self.ledger = self.service.ledger
        self.chain = self.service.chain

        self._wire_tuning(
            self.service,
            num_applications=self.service.session_count,
            escalation_count=self.service.total_escalations,
        )
        # Synchronous borrows from any shard funnel through one lock:
        # the registry is not thread-safe, and the ledger must see the
        # borrow attributed before another shard reads the split.
        self._growth_lock = threading.Lock()
        for idx, shard in enumerate(self.service.shards):
            manager = shard.manager
            manager.growth_provider = self._make_growth_provider(idx)
            manager.maxlocks_provider = self.maxlocks.fraction
            manager.refresh_period = cfg.params.refresh_period_requests
            manager.refresh_maxlocks()
        self.controller.on_resize = self.service.refresh_all_maxlocks
        self.service.borrow_return = self.controller.reclaim_transient_blocks

        self.detector = ShardedDeadlockDetector(
            self.service.shards,
            interval_s=cfg.deadlock_interval_s,
            snapshot_lock=self.service._cond,
        )
        self.admission = AdmissionController(
            cfg.max_in_flight,
            cfg.admission_queue_depth,
            clock=self.clock,
        )
        self.broker = None
        if cfg.broker:
            self.broker = build_broker(
                cfg,
                self.registry,
                self.admission,
                used_pages=self.controller.used_pages,
                escalations=self.service.total_escalations,
                metrics=self.metrics,
            )
            self.tuner.broker = self.broker
        if cfg.span_sample_every > 0 and self.metrics is not None:
            for idx, shard in enumerate(self.service.shards):
                shard.span_sampler = RequestSpanSampler(
                    cfg.span_sample_every,
                    self.clock.now,
                    registry=self.metrics,
                    labels={"shard": str(idx)},
                )
        # Incident forensics: one shared ring, one recorder per shard
        # (immediate in-shard deadlocks and escalations), plus the
        # cross-shard sweep's victim captures and the tuner's freeze.
        self.incidents = IncidentLog(capacity=cfg.incident_capacity)
        recorders = [
            IncidentRecorder(self.incidents, shard=idx, audit=self.tuner.audit)
            for idx in range(cfg.shards)
        ]
        for idx, shard in enumerate(self.service.shards):
            shard.manager.incidents = recorders[idx]
        self.detector.on_victim = self._record_sweep_victim
        self.tuner.incidents = recorders[0]
        #: One wait profiler per shard (``{"shard": N}``-labeled series
        #: for lock waits and latch stats) plus an unlabeled profiler
        #: for the stack-level admission gate.
        self.wait_profilers: List[WaitEventProfiler] = []
        if cfg.wait_profile:
            for idx, shard in enumerate(self.service.shards):
                profiler = WaitEventProfiler(
                    self.clock,
                    registry=self.metrics,
                    labels={"shard": str(idx)},
                    capacity=cfg.wait_ring_capacity,
                )
                shard.manager.wait_profiler = profiler
                shard.env.latch_profiler = profiler
                self.wait_profilers.append(profiler)
            admission_profiler = WaitEventProfiler(
                self.clock,
                registry=self.metrics,
                capacity=cfg.wait_ring_capacity,
            )
            self.admission.wait_profiler = admission_profiler
            self.wait_profilers.append(admission_profiler)
        self.ops: Optional[OpsServer] = None
        if cfg.ops_port is not None:
            assert self.metrics is not None  # enforced by the config
            self.ops = OpsServer(
                self.metrics,
                health=self.ops_health,
                stmm_status=self.ops_stmm,
                refresh=self.publish_ops_metrics,
                incidents=self.ops_incidents,
                port=cfg.ops_port,
            )

    def _make_growth_provider(self, shard_idx: int):
        def grow(blocks_wanted: int) -> int:
            with self._growth_lock:
                granted = self.controller.sync_grow(blocks_wanted)
                if granted:
                    self.ledger.record_sync_borrow(shard_idx, granted)
                return granted

        return grow

    def _record_sweep_victim(
        self, idx: int, victim: int, resource: str, cycle: List[int]
    ) -> None:
        manager = self.service.shards[idx].manager
        manager.incidents.record_deadlock(
            manager,
            victim,
            resource,
            cycle,
            f"cross-shard sweep: victim by smallest global "
            f"footprint among cycle {sorted(cycle)}",
        )

    # -- reporting ---------------------------------------------------------

    @property
    def frozen_reason(self) -> Optional[str]:
        return self.service.frozen_reason

    @property
    def manager_stats(self) -> LockManagerStats:
        return self.service.manager_stats()

    # -- the ops plane -----------------------------------------------------

    def publish_ops_metrics(self) -> None:
        """Refresh the point-in-time gauges, per shard and aggregate.

        Called before every ``/metrics`` render; counters update on the
        hot paths, but occupancy/queue-depth readings are state, not
        events, and must be read at scrape time.
        """
        if self.metrics is None:
            return
        reg = self.metrics
        for occ in self.ledger.occupancy():
            labels = {"shard": str(occ.shard)}
            reg.gauge("shard.used_slots", labels=labels).set(
                float(occ.used_slots)
            )
            reg.gauge("shard.capacity_slots", labels=labels).set(
                float(occ.capacity_slots)
            )
            reg.gauge("shard.free_fraction", labels=labels).set(
                occ.free_fraction
            )
            reg.gauge("shard.borrowed_blocks", labels=labels).set(
                float(occ.borrowed_blocks)
            )
        for idx, shard in enumerate(self.service.shards):
            labels = {"shard": str(idx)}
            stats = shard.manager.stats
            reg.gauge("shard.escalations", labels=labels).set(
                float(stats.escalations.count)
            )
            reg.gauge("shard.waiters", labels=labels).set(
                float(len(shard.manager.waiting_apps()))
            )
        publish_stack_gauges(
            self,
            maxlocks_fraction=self.maxlocks.fraction(),
            sessions=self.service.session_count(),
            escalations=self.service.total_escalations(),
            admission=self.admission,
        )

    def ops_health(self) -> dict:
        """The ``/healthz`` body; ``ok`` decides 200 vs 503."""
        tuner = self.tuner
        service = self.service
        return {
            "ok": not tuner.frozen and not service.closed,
            "service": "sharded-lock-service",
            "shards": service.num_shards,
            "closed": service.closed,
            "sessions": service.session_count(),
            "shard_status": [
                {"shard": idx, "open": not shard.closed}
                for idx, shard in enumerate(service.shards)
            ],
            "detector": self.detector.status(),
            "tuner": {**tuner.status(), "frozen_reason": self.frozen_reason},
        }

    def ops_stmm(self) -> dict:
        """The ``/stmm`` body: audit trail + current memory posture."""
        payload = stmm_payload(self, self.maxlocks.fraction())
        payload["spans"] = []
        for shard in self.service.shards:
            sampler = shard.span_sampler
            if sampler is not None:
                payload["spans"].extend(sampler.finished_dicts(limit=16))
        return payload

    # -- consistency -------------------------------------------------------

    def check_invariants(self) -> None:
        """Aggregate accounting across every shard and the registry.

        Holds all shard conditions (via the service's own check) so a
        synchronous grow in flight on some shard cannot be observed
        half-applied.
        """
        self.service.check_invariants()
        with self.service._cond:
            self.controller.check_consistency()
            self.registry.overflow_pages
