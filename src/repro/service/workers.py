"""Multi-process scale-out: worker-process shards under one STMM arbiter.

The sharded stack (:mod:`repro.service.sharded`) splits the lock table
across shards *inside one process*; this module forks each shard group
into its own **worker process**.  Each worker owns a complete
:class:`LockService` (chain, manager, wait queues) and serves the wire
protocol on its own Unix-domain socket, so lock traffic never crosses
the parent.  The parent keeps what the paper centralizes: the database
memory registry, the :class:`LockMemoryController`, adaptive MAXLOCKS,
STMM and the tuning daemon -- one arbiter distributing one pool of lock
memory over many worker processes.

Control plane (parent <-> worker, one pair of pipes per worker):

* ``ctl`` -- parent-initiated request/reply: occupancy sampling, block
  grants and reclaims (STMM resize distribution), MAXLOCKS pushes,
  wait-graph extraction, deadlock victimization, freeze, close.
* ``borrow`` -- worker-initiated synchronous growth (paper section
  3.3): a lock request that finds no free structure blocks, mid-request,
  on a borrow round trip; the parent moves pages from overflow into the
  locklist heap and reserves the granted blocks for that worker.

Locking architecture (the part that is easy to get wrong): a worker
request thread blocks on the borrow pipe *while holding its service
mutex*, and every parent->worker control op may need that same mutex.
If the parent issued control RPCs while borrows queued unserviced, the
system would deadlock (tuner waits for worker reply, worker waits for
borrow grant, borrow waits for tuner).  The arbiter therefore runs as a
single parent thread that owns all registry state and **keeps draining
borrow pipes while it waits** -- for control replies, for lock
acquisition, for the next tuning interval.  No parent-side lock is ever
held across a cross-process wait.

The pool adds no tuning machinery of its own: the arbiter thread is a
:class:`TunerDaemon` whose ``idle`` wait serves the borrow pipes; the
memory ledger and aggregate chain are the sharded stack's
(:mod:`repro.service.ledger`) over one :class:`WorkerChain` view per
worker; and the cross-worker deadlock sweep is the
:class:`~repro.service.sharded.ShardedDeadlockDetector` with its
two-sweep phantom confirmation (per-worker snapshots are not atomic).

Failure semantics mirror the single-process stack exactly: a worker
crash degrades like a tuner crash today -- surviving workers freeze to
a static LOCKLIST (growth providers detached, MAXLOCKS pinned), an
incident record is captured, and ``/healthz`` flips to 503 -- while
surviving workers keep serving.  A clean shutdown reconciles block
accounting byte-exactly: every worker reports its final chain posture,
the parent compares it against its authoritative per-worker mirror, and
transiently borrowed blocks are returned to overflow.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from multiprocessing import get_context
from multiprocessing.connection import Connection, wait as conn_wait
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.errors import (
    ConfigurationError,
    MemoryAccountingError,
    ServiceError,
)
from repro.lockmgr.blocks import LockBlockChain
from repro.net.server import ServiceBackend, ThreadedLockServer
from repro.obs.incidents import IncidentLog, IncidentRecord
from repro.obs.registry import (
    Histogram,
    MetricRegistry,
    labeled_name,
    parse_labeled_name,
)
from repro.obs.tracing import (
    RequestTracer,
    ServerTracer,
    hop_percentiles,
    wire_tax_summary,
)
from repro.service.clock import MonotonicClock
from repro.service.ledger import AggregateLockChain, ShardMemoryLedger
from repro.service.ops import OpsServer
from repro.service.service import LockService
from repro.service.sharded import ShardedDeadlockDetector
from repro.service.stack import (
    ServiceConfig,
    StackSurface,
    build_memory_registry,
    check_scale_out,
    initial_block_split,
    publish_stack_gauges,
    stmm_payload,
)
from repro.units import (
    LOCKS_PER_BLOCK,
    PAGES_PER_BLOCK,
)


class WorkerDiedError(ServiceError):
    """A control-plane round trip hit a dead worker process."""


@dataclass
class WorkerPoolConfig(ServiceConfig):
    """Sizing of a worker-pool stack (extends :class:`ServiceConfig`)."""

    #: Number of worker processes (one complete lock service each).
    workers: int = 2
    #: Cross-worker deadlock sweep cadence (DLCHKTIME analogue).
    deadlock_interval_s: float = 0.25
    #: Directory for the per-worker Unix-domain sockets (default: a
    #: fresh ``tempfile.mkdtemp`` owned and removed by the pool).
    socket_dir: Optional[str] = None
    #: Reader/executor threads of each worker's socket server.
    executor_threads: int = 8
    #: Sample every Nth network request for an end-to-end distributed
    #: trace (0 = off; see :mod:`repro.obs.tracing`).  Off costs one
    #: ``is None`` check.
    trace_sample_every: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.workers <= 0:
            raise ConfigurationError(
                f"workers must be positive, got {self.workers}"
            )
        if self.trace_sample_every < 0:
            raise ConfigurationError(
                f"trace_sample_every must be non-negative, "
                f"got {self.trace_sample_every}"
            )
        # Inherited options the pool does not implement: refuse them
        # rather than build a pool that silently lacks them.
        for name in ("broker", "wait_profile", "span_sample_every"):
            if getattr(self, name):
                raise ConfigurationError(
                    f"the worker pool does not implement {name}"
                )
        check_scale_out(self, self.workers, "workers")


# ---------------------------------------------------------------------------
# The worker process
# ---------------------------------------------------------------------------


@dataclass
class _WorkerSpec:
    """Everything a worker needs to build its service (fork payload)."""

    idx: int
    num_workers: int
    initial_blocks: int
    sock_path: str
    default_timeout_s: Optional[float]
    lock_timeout_s: Optional[float]
    refresh_period: int
    initial_fraction: float
    executor_threads: int
    #: Record server-side child spans for sampled traces (tentpole:
    #: the worker half of the end-to-end request trace).
    trace: bool = False
    #: Build a per-worker metric registry; the parent pulls snapshots
    #: over the control plane and merges them into one ``/metrics``
    #: scrape under a ``worker="N"`` label.
    telemetry: bool = False


def _worker_occupancy(service: LockService, server: ThreadedLockServer) -> dict:
    """Dirty-read posture snapshot (no locks: sampled, not exact)."""
    chain = service.chain
    stats = service.manager.stats
    return {
        "block_count": chain.block_count,
        "used_slots": chain.used_slots,
        "capacity_slots": chain.capacity_slots,
        "free_fraction": chain.free_fraction(),
        "entirely_free_blocks": chain.entirely_free_blocks(),
        "sessions": service.session_count(),
        "has_waiters": service.manager.has_waiters(),
        "maxlocks_fraction": service.manager.maxlocks_fraction,
        "escalations": stats.escalations.count,
        "deadlocks": stats.deadlocks,
        "sync_growth_blocks": stats.sync_growth_blocks,
        "responses": server.responses_written,
        "frozen": service.frozen_reason,
    }


def _worker_main(spec: _WorkerSpec, ctl: Connection, borrow: Connection) -> None:
    """Entry point of one worker process.

    Builds a complete lock service plus its socket server, reports
    readiness, then serves the parent's control ops until ``close`` (or
    until the parent dies, which surfaces as EOF on the control pipe).
    """
    chain = LockBlockChain(initial_blocks=spec.initial_blocks)
    clock = MonotonicClock()
    wmetrics = MetricRegistry() if spec.telemetry else None
    service = LockService(
        chain,
        clock=clock,
        default_timeout_s=spec.default_timeout_s,
        lock_timeout_s=spec.lock_timeout_s,
        metrics=wmetrics,
    )
    # Disjoint arithmetic progressions make app ids globally unique
    # without a parent round trip per session: worker i hands out
    # i+1, i+1+N, i+1+2N, ...  A session opened on one worker is then
    # adoptable on any other (OP_ADOPT_SESSION) without collision.
    service._app_ids = itertools.count(  # noqa: SLF001 - worker wiring
        spec.idx + 1, spec.num_workers
    )
    manager = service.manager

    # MAXLOCKS mirrors the arbiter's adaptive fraction: pushed on every
    # resize (``set_maxlocks``) and piggybacked on every borrow reply.
    fraction_box = [spec.initial_fraction]

    def _borrow_growth(blocks_wanted: int) -> int:
        # Called by the lock manager *under the service mutex*: the
        # requesting transaction stalls on the grant exactly like the
        # paper's synchronous growth.  The arbiter keeps draining this
        # pipe while it waits on anything, so the round trip is bounded.
        try:
            borrow.send(int(blocks_wanted))
            granted, fraction = borrow.recv()
        except (EOFError, OSError):
            return 0  # parent gone: the escalation path answers pressure
        fraction_box[0] = fraction
        return int(granted)

    manager.growth_provider = _borrow_growth
    manager.maxlocks_provider = lambda: fraction_box[0]
    manager.refresh_period = spec.refresh_period
    manager.refresh_maxlocks()

    tracer = ServerTracer() if spec.trace else None
    server = ThreadedLockServer(
        ServiceBackend(service, name=f"worker{spec.idx}", tracer=tracer),
        path=spec.sock_path,
        executor_threads=spec.executor_threads,
        metrics=wmetrics,
    )
    server.start()
    ctl.send(("ready", spec.idx, os.getpid()))

    while True:
        try:
            msg = ctl.recv()
        except (EOFError, OSError):
            break  # parent died: exit, the OS reclaims everything
        op, args = msg[0], msg[1:]
        try:
            closing = False
            if op == "occupancy":
                result: Any = _worker_occupancy(service, server)
            elif op == "add_blocks":
                with service._cond:  # noqa: SLF001
                    chain.add_blocks(args[0])
                result = chain.block_count
            elif op == "release_blocks":
                with service._cond:  # noqa: SLF001
                    result = chain.release_blocks(args[0], partial=True)
            elif op == "set_maxlocks":
                fraction_box[0] = args[0]
                with service._cond:  # noqa: SLF001
                    manager.refresh_maxlocks()
                result = True
            elif op == "freeze":
                service.freeze_tuning(args[0])
                result = True
            elif op == "waiting":
                with service._mutex:  # noqa: SLF001
                    result = sorted(manager.waiting_apps())
            elif op == "graph":
                result = service.graph(set(args[0]))
            elif op == "victimize":
                result = service.victimize(*args)
            elif op == "stats":
                result = server.backend.stats_payload()
            elif op == "traces":
                result = (
                    None
                    if tracer is None
                    else {
                        "spans": tracer.to_dicts(),
                        "summary": tracer.summary(),
                    }
                )
            elif op == "metrics":
                result = None if wmetrics is None else wmetrics.snapshot()
            elif op == "check":
                with service._cond:  # noqa: SLF001
                    chain.check_invariants()
                result = chain.block_count
            elif op == "ping":
                result = "pong"
            elif op == "close":
                server.stop()
                service.close()
                result = {
                    "block_count": chain.block_count,
                    "allocated_pages": chain.allocated_pages,
                    "used_slots": chain.used_slots,
                    "entirely_free_blocks": chain.entirely_free_blocks(),
                    "sessions": service.session_count(),
                }
                closing = True
            else:
                raise ServiceError(f"unknown control op {op!r}")
        except BaseException as exc:  # noqa: BLE001 - report, don't die
            with contextlib.suppress(OSError):
                ctl.send(("error", f"{type(exc).__name__}: {exc}"))
            continue
        with contextlib.suppress(OSError):
            ctl.send(("ok", result))
        if closing:
            break
    with contextlib.suppress(OSError):
        ctl.close()
    with contextlib.suppress(OSError):
        borrow.close()


# ---------------------------------------------------------------------------
# Parent-side mirrors
# ---------------------------------------------------------------------------


@dataclass
class _WorkerHandle:
    """Parent-side bookkeeping for one worker process."""

    idx: int
    process: Any
    ctl: Connection
    borrow: Connection
    sock_path: str
    ctl_lock: threading.Lock = field(default_factory=threading.Lock)
    dead: bool = False
    #: Crash handled by the watcher (freeze + incident).  ``dead`` may
    #: flip first on any thread whose control call hits the broken
    #: pipe; the watcher still owns the (single) degrade response.
    crash_reported: bool = False
    closed: bool = False
    final: Optional[dict] = None


class WorkerChain:
    """One worker's lock chain and wait graph, as the parent sees them.

    Duck-types :class:`LockBlockChain` for the shared
    :class:`ShardMemoryLedger` / :class:`AggregateLockChain`, and the
    shard surface of the :class:`ShardedDeadlockDetector`.  Block counts
    are *authoritative* (every chain mutation flows through the parent:
    the initial split, resize distributions, borrow grants), occupancy
    is *sampled* (refreshed from worker posture snapshots before each
    tuning pass), and writes are control calls that update the mirror.

    The pool-only rules live here: a dead worker has demand weight 0
    (and with no live worker left, asking raises
    :class:`WorkerDiedError`); a grow share a worker cannot take is
    returned undelivered for the aggregate's one redistribution round;
    a live worker keeps at least one block; a cleanly closed worker's
    blocks exist only in the mirror and are released from there; a dead
    worker has no waiters.
    """

    def __init__(self, pool: "WorkerPoolStack", idx: int) -> None:
        self._pool = pool
        self.idx = idx

    @property
    def _handle(self) -> "_WorkerHandle":
        return self._pool._handles[self.idx]

    @property
    def live(self) -> bool:
        return not self._handle.dead and not self._handle.closed

    # -- chain reads -------------------------------------------------------

    @property
    def block_count(self) -> int:
        return self._pool._blocks[self.idx]

    @property
    def capacity_slots(self) -> int:
        return self.block_count * LOCKS_PER_BLOCK

    @property
    def allocated_pages(self) -> int:
        return self.block_count * PAGES_PER_BLOCK

    @property
    def used_slots(self) -> int:
        return self._pool._occ[self.idx]["used_slots"]

    @property
    def free_slots(self) -> int:
        return max(0, self.capacity_slots - self.used_slots)

    def free_fraction(self) -> float:
        capacity = self.capacity_slots
        return self.free_slots / capacity if capacity else 1.0

    def entirely_free_blocks(self) -> int:
        if self._handle.dead:
            return 0  # stranded memory: nothing reclaimable
        if self._handle.closed:
            return self.block_count  # clean close verified used_slots == 0
        occupancy = self._pool._occ[self.idx]
        return min(occupancy["entirely_free_blocks"], self.block_count)

    def demand_weight(self) -> int:
        if self.live:
            return self.used_slots + 1
        if not self._pool._live_workers():
            raise WorkerDiedError("no live workers to fund")
        return 0  # dead or closed: unfundable

    # -- chain writes (control calls; the mirror follows) ------------------

    def add_blocks(self, count: int) -> int:
        try:
            self._pool._call(self.idx, "add_blocks", count, drain=True)
        except (WorkerDiedError, ServiceError):
            return 0  # undelivered: the aggregate redistributes it
        self._pool._blocks[self.idx] += count
        return count

    def release_blocks(self, count: int, partial: bool = False) -> int:
        if self._handle.closed:
            # The worker exited cleanly with used_slots == 0; its
            # blocks exist only in the mirror now.
            freed = min(count, self.block_count)
        else:
            # Keep every live worker at one block minimum so its next
            # request escalates instead of crashing on an empty chain.
            ask = min(count, self.entirely_free_blocks(), self.block_count - 1)
            if ask <= 0 or (ask < count and not partial):
                return 0
            try:
                freed = self._pool._call(
                    self.idx, "release_blocks", ask, drain=True
                )
            except (WorkerDiedError, ServiceError):
                return 0
        self._pool._blocks[self.idx] -= freed
        return freed

    def check_invariants(self) -> None:
        if not self.live:
            return
        reported = self._pool._call(self.idx, "check")
        if reported != self.block_count:
            raise MemoryAccountingError(
                f"worker {self.idx} holds {reported} blocks but the "
                f"arbiter mirror says {self.block_count}"
            )

    # -- deadlock-sweep shard surface --------------------------------------

    def waiting_sessions(self) -> Set[int]:
        return set(self._ask("waiting", default=()))

    def graph(self, waiting: Set[int]) -> Tuple[dict, dict]:
        return self._ask("graph", sorted(waiting), default=({}, {}))

    def victimize(self, app_id: int, message: str) -> Tuple[bool, str]:
        return self._ask("victimize", app_id, message, default=(False, ""))

    def _ask(self, op: str, *args: Any, default: Any) -> Any:
        if not self.live:
            return default
        try:
            return self._pool._call(self.idx, op, *args)
        except WorkerDiedError:
            return default  # the watcher owns crash handling

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WorkerChain(worker={self.idx}, blocks={self.block_count}, "
            f"used={self.used_slots})"
        )


@dataclass
class WorkerReconciliation:
    """Byte-exact shutdown accounting, worker by worker."""

    ok: bool
    workers: List[Dict[str, Any]]
    expected_blocks: int
    reported_blocks: int

    @property
    def expected_pages(self) -> int:
        return self.expected_blocks * PAGES_PER_BLOCK

    @property
    def reported_pages(self) -> int:
        return self.reported_blocks * PAGES_PER_BLOCK


# ---------------------------------------------------------------------------
# The pool stack
# ---------------------------------------------------------------------------


class WorkerPoolStack(StackSurface):
    """A fully wired multi-process lock service (see module docstring).

    Also serves as the *service facade* the :class:`TunerDaemon`
    contract expects: ``_cond``, ``clock``, ``chain`` and
    ``freeze_tuning`` below are the attributes a pass touches.
    """

    def __init__(self, config: Optional[WorkerPoolConfig] = None) -> None:
        cfg = config or WorkerPoolConfig()
        self.config = cfg
        self.clock = MonotonicClock()
        self.metrics: Optional[MetricRegistry] = (
            MetricRegistry() if cfg.telemetry else None
        )
        self.registry = build_memory_registry(cfg)

        #: Authoritative per-worker block counts: every chain mutation
        #: (initial split, resize distribution, borrow grant, shutdown
        #: reclaim) flows through the parent and lands here first.
        self._blocks = initial_block_split(cfg, cfg.workers)
        #: Last sampled posture per worker (refreshed before each pass).
        self._occ: List[dict] = [
            {
                "block_count": self._blocks[idx],
                "used_slots": 0,
                "capacity_slots": self._blocks[idx] * LOCKS_PER_BLOCK,
                "free_fraction": 1.0,
                "entirely_free_blocks": self._blocks[idx],
                "sessions": 0,
                "has_waiters": False,
                "maxlocks_fraction": 0.0,
                "escalations": 0,
                "deadlocks": 0,
                "sync_growth_blocks": 0,
                "responses": 0,
                "frozen": None,
            }
            for idx in range(cfg.workers)
        ]

        self.worker_chains = [
            WorkerChain(self, idx) for idx in range(cfg.workers)
        ]
        self.ledger = ShardMemoryLedger(self.worker_chains)
        self.chain = AggregateLockChain(self.worker_chains, self.ledger)
        #: TunerDaemon facade: passes serialize on this condition (only
        #: the arbiter thread takes it; cross-process safety comes from
        #: the single-mutator arbiter design, not from this lock).
        self._cond = threading.Condition()
        self.frozen_reason: Optional[str] = None
        self._freeze_request: Optional[str] = None
        # The tuner thread is the pool's single borrow consumer: its
        # idle wait keeps granting synchronous borrows (see the module
        # docstring's deadlock note), and worker posture is sampled
        # right before each pass.
        self._wire_tuning(
            self,
            num_applications=lambda: sum(occ["sessions"] for occ in self._occ),
            escalation_count=lambda: sum(
                occ["escalations"] for occ in self._occ
            ),
            idle=self._idle,
            prepare=self._sample_occupancy,
        )
        self.controller.on_resize = self._push_maxlocks
        # Per-worker snapshots are separate round trips, not one atomic
        # snapshot: no snapshot lock, so cycles need two sweeps.
        self.detector = ShardedDeadlockDetector(
            self.worker_chains, interval_s=cfg.deadlock_interval_s
        )
        self.detector.on_victim = self._record_sweep_victim
        self.incidents = IncidentLog(capacity=cfg.incident_capacity)
        self.reconciliation: Optional[WorkerReconciliation] = None
        self.worker_crashes = 0
        #: Client-side request tracers, one per ``client_stack`` built
        #: while tracing is enabled; ``/traces`` merges their rings.
        self.request_tracers: List[RequestTracer] = []

        self._own_socket_dir = cfg.socket_dir is None
        self.socket_dir = cfg.socket_dir or tempfile.mkdtemp(
            prefix="repro-workers-"
        )
        self._handles: List[_WorkerHandle] = []
        self._watch_stop = threading.Event()
        self._watch_thread: Optional[threading.Thread] = None
        self._started = False
        self._stopping = False
        self._stopped = False

        self.ops: Optional[OpsServer] = None
        if cfg.ops_port is not None:
            assert self.metrics is not None  # enforced by the config
            self.ops = OpsServer(
                self.metrics,
                health=self.ops_health,
                stmm_status=self.ops_stmm,
                refresh=self.publish_ops_metrics,
                incidents=self.ops_incidents,
                traces=self.ops_traces,
                port=cfg.ops_port,
            )

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "WorkerPoolStack":
        if self._started:
            raise ConfigurationError("worker pool already started")
        self._started = True
        self._fork_workers()
        self.tuner.start()
        self.detector.start()
        self._watch_thread = threading.Thread(
            target=self._watch_loop, name="worker-watcher", daemon=True
        )
        self._watch_thread.start()
        if self.ops is not None:
            self.ops.start()
        return self

    def _fork_workers(self) -> None:
        # Workers are forked BEFORE any parent thread starts: forking a
        # multi-threaded process can capture locks mid-flight in the
        # child.  The child runs _worker_main and never touches the
        # parent's objects, so the copied registry/controller are inert.
        ctx = get_context("fork")
        cfg = self.config
        initial_fraction = self.maxlocks.fraction()
        for idx in range(cfg.workers):
            ctl_parent, ctl_child = ctx.Pipe()
            borrow_parent, borrow_child = ctx.Pipe()
            sock_path = os.path.join(self.socket_dir, f"worker-{idx}.sock")
            spec = _WorkerSpec(
                idx=idx,
                num_workers=cfg.workers,
                initial_blocks=self._blocks[idx],
                sock_path=sock_path,
                default_timeout_s=cfg.default_timeout_s,
                lock_timeout_s=cfg.lock_timeout_s,
                refresh_period=cfg.params.refresh_period_requests,
                initial_fraction=initial_fraction,
                executor_threads=cfg.executor_threads,
                trace=cfg.trace_sample_every > 0,
                telemetry=cfg.telemetry,
            )
            process = ctx.Process(
                target=_worker_main,
                args=(spec, ctl_child, borrow_child),
                name=f"lock-worker-{idx}",
                daemon=True,
            )
            process.start()
            ctl_child.close()
            borrow_child.close()
            self._handles.append(
                _WorkerHandle(
                    idx=idx,
                    process=process,
                    ctl=ctl_parent,
                    borrow=borrow_parent,
                    sock_path=sock_path,
                )
            )
        for handle in self._handles:
            tag, idx, _pid = handle.ctl.recv()  # ready handshake
            if tag != "ready" or idx != handle.idx:
                raise ServiceError(
                    f"worker {handle.idx} failed its ready handshake: "
                    f"{tag!r}"
                )

    @property
    def endpoints(self) -> List[Tuple[str, int]]:
        """Per-worker data-plane addresses (``("unix:<path>", 0)``)."""
        return [(f"unix:{h.sock_path}", 0) for h in self._handles]

    def client_stack(
        self,
        *,
        pool_size: int = 1,
        max_in_flight: Optional[int] = None,
        max_queue_depth: Optional[int] = None,
    ):
        """A :class:`LoadDriver`-shaped client stack routed over the pool."""
        from repro.net.client import RoutedClientStack

        tracer = None
        if self.config.trace_sample_every > 0:
            tracer = RequestTracer(self.config.trace_sample_every)
            self.request_tracers.append(tracer)
        return RoutedClientStack(
            self.endpoints,
            pool_size=pool_size,
            max_in_flight=max_in_flight or self.config.max_in_flight,
            max_queue_depth=max_queue_depth
            or self.config.admission_queue_depth,
            metrics=self.metrics,
            tracer=tracer,
        )

    # -- control plane -----------------------------------------------------

    def _live_workers(self) -> List[int]:
        return [
            h.idx for h in self._handles if not h.dead and not h.closed
        ]

    def _call(self, idx: int, op: str, *args: Any, drain: bool = False) -> Any:
        """One control round trip to worker ``idx``.

        ``drain=True`` is for the single borrow-consuming thread (the
        arbiter while running; the stop path after the arbiter joined):
        while waiting for the lock or the reply it keeps servicing
        borrow pipes, so a worker blocked mid-request on a borrow grant
        can release its mutex and answer the control op.
        """
        handle = self._handles[idx]
        if handle.dead:
            raise WorkerDiedError(f"worker {idx} is dead")
        if drain:
            while not handle.ctl_lock.acquire(timeout=0.01):
                self._service_borrows(0.0)
        else:
            handle.ctl_lock.acquire()
        try:
            try:
                handle.ctl.send((op, *args))
                if drain:
                    while not handle.ctl.poll(0.01):
                        self._service_borrows(0.0)
                tag, result = handle.ctl.recv()
            except (EOFError, OSError, BrokenPipeError) as exc:
                handle.dead = True
                raise WorkerDiedError(
                    f"worker {idx} died during {op!r}"
                ) from exc
        finally:
            handle.ctl_lock.release()
        if tag == "error":
            raise ServiceError(f"worker {idx} {op!r} failed: {result}")
        return result

    def _broadcast(self, op: str, *args: Any, drain: bool = False) -> None:
        for idx in self._live_workers():
            with contextlib.suppress(WorkerDiedError, ServiceError):
                self._call(idx, op, *args, drain=drain)

    def _service_borrows(self, timeout_s: float) -> None:
        """Grant (or deny) queued synchronous-growth requests.

        Runs only on the borrow-consuming thread.  A grant moves pages
        from overflow into the locklist heap (``sync_grow``), reserves
        the blocks for the requesting worker in the mirror, and replies
        with the grant plus the fresh MAXLOCKS fraction; the worker's
        manager chains the blocks on its side of the pipe.
        """
        conns = {
            h.borrow: h
            for h in self._handles
            if not h.dead and not h.closed
        }
        if not conns:
            if timeout_s > 0:
                time.sleep(min(timeout_s, 0.05))
            return
        try:
            ready = conn_wait(list(conns), timeout_s if timeout_s > 0 else 0)
        except OSError:
            return
        for conn in ready:
            handle = conns[conn]
            try:
                wanted = conn.recv()
            except (EOFError, OSError):
                continue  # the watcher owns death handling
            granted = 0
            if (
                int(wanted) > 0
                and not self._stopping
                and self.frozen_reason is None
                and not handle.dead
            ):
                granted = self.controller.sync_grow(int(wanted))
                if granted:
                    self._blocks[handle.idx] += granted
                    self.ledger.record_sync_borrow(handle.idx, granted)
            with contextlib.suppress(OSError):
                conn.send((granted, self.maxlocks.fraction()))

    def _sample_occupancy(self) -> None:
        """Refresh per-worker posture snapshots (tuner, pre-pass)."""
        for idx in self._live_workers():
            with contextlib.suppress(WorkerDiedError, ServiceError):
                self._occ[idx] = self._call(idx, "occupancy", drain=True)

    def _idle(self, timeout_s: float) -> bool:
        """The tuner's wait between passes (its ``idle`` primitive).

        Serves borrow pipes in slices of at most 50 ms and delivers a
        freeze requested by another thread, until ``timeout_s`` has
        passed (False) or the tuner is asked to stop (True).
        """
        deadline = time.monotonic() + timeout_s
        stop = self.tuner._stop  # noqa: SLF001 - the pool drives its tuner
        while True:
            self._service_borrows(
                min(0.05, max(0.0, deadline - time.monotonic()))
            )
            reason = self._freeze_request
            if reason is not None:
                self._freeze_request = None
                self._broadcast("freeze", reason, drain=True)
            if stop.is_set():
                return True
            if time.monotonic() >= deadline:
                return False

    def _record_sweep_victim(
        self, idx: int, victim: int, resource: str, cycle: List[int]
    ) -> None:
        self.incidents.append(
            IncidentRecord(
                kind="deadlock",
                time=self.clock.now(),
                app_id=victim,
                shard=idx,
                detail=(
                    f"cross-worker sweep: victim by smallest global "
                    f"footprint among cycle {sorted(cycle)} "
                    f"(resource {resource or 'unknown'})"
                ),
                cycle=list(cycle),
                posture=dict(self._occ[idx]),
                data={"workers": self.config.workers},
            )
        )

    def _push_maxlocks(self) -> None:
        """``on_resize`` hook: push the fresh fraction to every worker."""
        fraction = self.maxlocks.fraction()
        self._broadcast("set_maxlocks", fraction, drain=True)

    # -- degraded modes ----------------------------------------------------

    def freeze_tuning(self, reason: str) -> None:
        """Freeze the whole pool to static LOCKLIST (tuner contract).

        Safe from the arbiter thread (broadcasts immediately, draining
        borrows into denials); other threads set the reason and leave
        the broadcast to the arbiter's idle wait (:meth:`_idle`).
        """
        if self.frozen_reason is not None:
            return
        self.frozen_reason = reason
        if threading.current_thread() is self.tuner._thread:  # noqa: SLF001
            self._broadcast("freeze", reason, drain=True)
        else:
            self._freeze_request = reason

    def _watch_loop(self) -> None:
        while not self._watch_stop.wait(0.1):
            for handle in self._handles:
                if handle.crash_reported or handle.closed or self._stopping:
                    continue
                # A control call racing the watcher may have flagged
                # ``dead`` already -- the degrade response (freeze,
                # incident, crash counter) still runs exactly once,
                # here.
                if handle.dead or not handle.process.is_alive():
                    handle.crash_reported = True
                    self._on_worker_death(handle)

    def _on_worker_death(self, handle: _WorkerHandle) -> None:
        """A worker crashed: degrade exactly like a tuner crash.

        Survivors freeze to static LOCKLIST, an incident is recorded,
        ``/healthz`` flips to 503.  The dead worker's blocks stay in
        the mirror (stranded, exactly as a crashed process strands its
        memory) and are reported as such by the shutdown reconcile.
        """
        handle.dead = True
        self.worker_crashes += 1
        reason = (
            f"worker {handle.idx} died "
            f"(exit code {handle.process.exitcode})"
        )
        self.incidents.append(
            IncidentRecord(
                kind="worker-crash",
                time=self.clock.now(),
                app_id=-1,
                shard=handle.idx,
                detail=reason,
                posture={
                    "mirror_blocks": self._blocks[handle.idx],
                    "last_occupancy": dict(self._occ[handle.idx]),
                },
                data={"exit_code": handle.process.exitcode},
            )
        )
        self.freeze_tuning(reason)

    # -- shutdown ----------------------------------------------------------

    def stop(self) -> None:
        """Stop tuning, close every worker, reconcile byte-exactly."""
        if not self._started or self._stopped:
            return
        self._stopped = True
        if self.ops is not None:
            self.ops.stop()
        self.detector.stop()
        self.tuner.stop()
        self._stopping = True
        self._watch_stop.set()
        if self._watch_thread is not None:
            self._watch_thread.join(timeout=5.0)
        # The arbiter has joined: this thread is now the sole borrow
        # consumer.  Workers blocked on a borrow get denials while
        # their close is negotiated.
        reports: List[Dict[str, Any]] = []
        ok = True
        for handle in self._handles:
            expected = self._blocks[handle.idx]
            entry: Dict[str, Any] = {
                "worker": handle.idx,
                "expected_blocks": expected,
                "borrowed_blocks": self.ledger.borrowed_blocks(handle.idx),
            }
            if handle.dead:
                entry.update(state="crashed", reported_blocks=None)
                ok = False
                reports.append(entry)
                continue
            try:
                final = self._call(handle.idx, "close", drain=True)
            except (WorkerDiedError, ServiceError) as exc:
                handle.dead = True
                entry.update(state="crashed", reported_blocks=None)
                entry["error"] = str(exc)
                ok = False
                reports.append(entry)
                continue
            handle.closed = True
            handle.final = final
            matched = (
                final["block_count"] == expected
                and final["used_slots"] == 0
            )
            entry.update(
                state="closed" if matched else "mismatch",
                reported_blocks=final["block_count"],
                reported_used_slots=final["used_slots"],
                sessions=final["sessions"],
            )
            ok = ok and matched
            reports.append(entry)
        self.reconciliation = WorkerReconciliation(
            ok=ok,
            workers=reports,
            expected_blocks=sum(
                entry["expected_blocks"] for entry in reports
            ),
            reported_blocks=sum(
                entry["reported_blocks"] or 0 for entry in reports
            ),
        )
        for handle in self._handles:
            handle.process.join(timeout=5.0)
            if handle.process.is_alive():  # pragma: no cover - watchdog
                handle.process.terminate()
                handle.process.join(timeout=5.0)
        # Return transiently borrowed blocks to overflow, exactly like
        # LockService.close's borrow_return (the mirror stands in for
        # the closed workers' chains).
        if ok:
            self.controller.reclaim_transient_blocks()
        for handle in self._handles:
            with contextlib.suppress(OSError):
                handle.ctl.close()
            with contextlib.suppress(OSError):
                handle.borrow.close()
            with contextlib.suppress(OSError):
                os.unlink(handle.sock_path)
        if self._own_socket_dir:
            shutil.rmtree(self.socket_dir, ignore_errors=True)

    # -- invariants --------------------------------------------------------

    def check_invariants(self) -> None:
        """Registry, controller and mirror must all agree."""
        self.controller.check_consistency()
        if self._started:
            self.chain.check_invariants()
        if self.registry.overflow_pages < 0:  # pragma: no cover
            raise MemoryAccountingError("negative overflow")

    # -- the ops plane -----------------------------------------------------

    def publish_ops_metrics(self) -> None:
        """Per-worker labeled gauges plus the stack-level aggregates."""
        if self.metrics is None:
            return
        reg = self.metrics
        if not self._stopping:
            for idx in self._live_workers():
                with contextlib.suppress(WorkerDiedError, ServiceError):
                    self._occ[idx] = self._call(idx, "occupancy")
                with contextlib.suppress(WorkerDiedError, ServiceError):
                    snapshot = self._call(idx, "metrics")
                    if snapshot is not None:
                        self._install_worker_metrics(idx, snapshot)
        for idx in range(self.config.workers):
            occ = self._occ[idx]
            labels = {"worker": str(idx)}
            reg.gauge("worker.locklist_blocks", labels=labels).set(
                float(self._blocks[idx])
            )
            reg.gauge("worker.used_slots", labels=labels).set(
                float(occ["used_slots"])
            )
            reg.gauge("worker.free_fraction", labels=labels).set(
                occ["free_fraction"]
            )
            reg.gauge("worker.sessions", labels=labels).set(
                float(occ["sessions"])
            )
            reg.gauge("worker.escalations", labels=labels).set(
                float(occ["escalations"])
            )
            reg.gauge("worker.deadlocks", labels=labels).set(
                float(occ["deadlocks"])
            )
            reg.gauge("worker.borrowed_blocks", labels=labels).set(
                float(self.ledger.borrowed_blocks(idx))
            )
            reg.gauge("worker.responses", labels=labels).set(
                float(occ["responses"])
            )
            reg.gauge("worker.maxlocks_fraction", labels=labels).set(
                occ["maxlocks_fraction"]
            )
            reg.gauge("worker.alive", labels=labels).set(
                0.0 if self._handles[idx].dead else 1.0
            )
        publish_stack_gauges(
            self,
            maxlocks_fraction=self.maxlocks.fraction(),
            sessions=sum(occ["sessions"] for occ in self._occ),
            escalations=sum(occ["escalations"] for occ in self._occ),
        )
        reg.gauge("service.workers").set(float(self.config.workers))
        reg.gauge("service.workers_alive").set(
            float(len(self._live_workers()))
        )

    def ops_health(self) -> dict:
        """The ``/healthz`` body; ``ok`` decides 200 vs 503."""
        alive = [not h.dead for h in self._handles]
        return {
            "ok": (
                self.frozen_reason is None
                and not self.tuner.frozen
                and all(alive)
                and not self._stopped
            ),
            "service": "lock-service-workers",
            "workers": self.config.workers,
            "workers_alive": sum(alive),
            "worker_crashes": self.worker_crashes,
            "frozen_reason": self.frozen_reason,
            "tuner": self.tuner.status(),
            "detector": self.detector.status(),
        }

    def ops_stmm(self) -> dict:
        """The ``/stmm`` body: parameters, live posture, audit tail.

        Carries the same top-level posture keys as the single-process
        stack (the ``top`` dashboard reads those), plus a per-worker
        ``posture`` breakdown for remote analysis.
        """
        payload = stmm_payload(self, self.maxlocks.fraction())
        payload["posture"] = {
            "allocated_pages": self.chain.allocated_pages,
            "per_worker_blocks": list(self._blocks),
            "borrowed_blocks": [
                self.ledger.borrowed_blocks(idx)
                for idx in range(self.config.workers)
            ],
            "overflow_pages": self.registry.overflow_pages,
            "maxlocks_fraction": self.maxlocks.fraction(),
        }
        return payload

    def _install_worker_metrics(self, idx: int, snapshot: dict) -> None:
        """Merge one worker's registry snapshot under ``worker="N"``.

        Each worker process keeps its own registry (counters increment
        in its address space, invisible to the parent); a scrape pulls
        every live worker's snapshot over the control plane and lands
        the series here with the worker label added, so one ``/metrics``
        endpoint carries the whole pool.
        """
        reg = self.metrics
        assert reg is not None  # only called with telemetry on

        def _relabel(full: str) -> str:
            base, pairs = parse_labeled_name(full)
            labels = dict(pairs)
            labels["worker"] = str(idx)
            return labeled_name(base, labels)

        for name, value in snapshot.get("counters", {}).items():
            reg.counter(_relabel(name)).value = float(value)
        for name, value in snapshot.get("gauges", {}).items():
            reg.gauge(_relabel(name)).set(float(value))
        for name, hist in snapshot.get("histograms", {}).items():
            renamed = dict(hist)
            renamed["name"] = _relabel(name)
            reg.install(Histogram.from_snapshot(renamed))

    def ops_traces(self) -> dict:
        """The ``/traces`` body: client trace rings + worker span rings.

        Client-side completed traces (with their hop decomposition and
        wire tax) merge across every tracer this pool handed out, time
        ordered; each live worker contributes its server span ring so a
        truncated client trace can still be attributed from the
        surviving side.
        """
        enabled = self.config.trace_sample_every > 0
        traces: List[Dict[str, Any]] = []
        total = 0
        truncated = 0
        for tracer in self.request_tracers:
            traces.extend(tracer.to_dicts())
            counts = tracer.summary()
            total += counts["finished"]
            truncated += counts["truncated"]
        traces.sort(key=lambda trace: trace["t"])
        server_spans: Dict[str, Any] = {}
        if enabled and self._started and not self._stopping:
            for idx in self._live_workers():
                with contextlib.suppress(WorkerDiedError, ServiceError):
                    spans = self._call(idx, "traces")
                    if spans is not None:
                        server_spans[str(idx)] = spans
        summary: Dict[str, Any] = {}
        if traces:
            summary = {
                "hops": hop_percentiles(traces),
                "wire_tax": wire_tax_summary(traces),
            }
        return {
            "enabled": enabled,
            "sample_every": self.config.trace_sample_every,
            "total": total,
            "truncated": truncated,
            "traces": traces,
            "server_spans": server_spans,
            "summary": summary,
        }


__all__ = [
    "WorkerChain",
    "WorkerDiedError",
    "WorkerPoolConfig",
    "WorkerPoolStack",
    "WorkerReconciliation",
]
