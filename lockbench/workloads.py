"""The three closed-loop workloads and the correctness gate.

One driver thread plays one database agent at a time: it waits for
each grant before sending the next request, and for each commit before
starting the next transaction.  Only the pre-built :class:`Stream`
reaches the program.

* ``oltp_local`` -- BASE_MIX transactions on an in-process
  :class:`ServiceStack` (default config).
* ``oltp_wire`` -- the same stream through a one-worker
  :class:`WorkerPoolStack` and a :class:`RoutedLockClient`.
* ``rollout_local`` -- a batch rollout taking X row locks on a private
  table, with BASE_MIX transactions between its chunks and in the gap
  after it commits, on a stack whose LOCKLIST starts at one block.
"""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import time
from array import array
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.errors import (
    AdmissionRejectedError,
    AdmissionTimeoutError,
    RequestCancelledError,
)
from repro.lockmgr.manager import DeadlockError, LockListFullError, LockTimeoutError
from repro.lockmgr.modes import LockMode
from repro.net.client import RoutedClientStack
from repro.obs.tracing import RequestTracer
from repro.service.stack import ServiceConfig, ServiceStack
from repro.service.workers import WorkerPoolConfig, WorkerPoolStack

import hostspeed
from stream import MODES, ROLLOUT_TABLE, Stream

#: A transaction that hits one of these is rolled back and counted as
#: failed; anything else aborts the run.
FAILURES = (
    AdmissionRejectedError,
    AdmissionTimeoutError,
    DeadlockError,
    LockListFullError,
    LockTimeoutError,
    RequestCancelledError,
)

ADMISSION_TIMEOUT_S = 10.0
#: OLTP runs are cut into windows of this length (rollout runs into
#: rollout + gap cycles); each window gets its own host slowdown.
WINDOW_S = 1.0
#: The host's speed is sampled this often (2 ms each, see hostspeed).
SAMPLE_EVERY_S = 0.1


@dataclass(frozen=True)
class Scale:
    """Sizes of one run; FULL is the benchmark, TINY its smoke test."""

    stream_txns: int
    #: Rollout shape: rows in chunks, OLTP transactions after each chunk,
    #: then ``gap_txns`` OLTP transactions alone so the tuner can shrink
    #: before the next rollout.  The gap is counted, not timed, so every
    #: cycle holds the same work and the same mix of transactions that
    #: ran beside a rollout and after it, however fast the host is.
    rollout_rows: int
    rollout_chunk: int
    oltp_per_chunk: int
    gap_txns: int
    #: Untimed traffic on the measured stack before the clock starts.
    warmup_s: float
    #: Cap on the timed set-ups per run (None: the workload's count).
    max_setups: Optional[int]


#: 100k-row rollouts outrun the free LOCKLIST; the 4000-transaction gap
#: takes about 1.1 s here, four to five 0.25 s tuner intervals.
FULL = Scale(16_384, 100_000, 1_000, 4, 4_000, 0.5, None)
TINY = Scale(512, 4_000, 500, 2, 200, 0.1, 2)

#: oltp_wire traced run: one lock request in this many carries a trace.
WIRE_TRACE_EVERY = 16

#: Where spans and the worker sockets go, relative to the checkout root
#: (relative keeps the Unix socket path short wherever the checkout is).
OUT_DIR = ".lockbench_out"


@dataclass
class WorkloadSpec:
    name: str
    kind: str  # "local" or "wire"
    rollout: bool
    #: Timed set-ups per untraced run; setup_s is their median.
    setups: int
    config: Callable[[], ServiceConfig]


WORKLOADS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec("oltp_local", "local", False, 41, ServiceConfig),
        WorkloadSpec(
            "oltp_wire",
            "wire",
            False,
            9,
            lambda: WorkerPoolConfig(workers=1),
        ),
        WorkloadSpec(
            "rollout_local",
            "local",
            True,
            41,
            lambda: ServiceConfig(initial_locklist_pages=32),
        ),
    )
}


# ---------------------------------------------------------------------------
# targets: the program under test, set up and torn down
# ---------------------------------------------------------------------------


class LocalTarget:
    """An in-process :class:`ServiceStack`."""

    def __init__(self, config: ServiceConfig) -> None:
        self.stack = ServiceStack(config).start()
        self.started = time.perf_counter()
        self.service = self.stack.service
        self.admission = self.stack.admission
        self.tuner = self.stack.tuner
        self.controller = self.stack.controller
        self.tracer = None
        self.stopped = False

    def pages(self) -> int:
        return self.stack.chain.allocated_pages

    def escalations(self) -> int:
        return self.stack.service.manager.stats.escalations.count

    def manager_counts(self) -> dict:
        stats = self.stack.service.manager.stats
        return {
            "requests": stats.requests,
            "immediate_grants": stats.immediate_grants,
            "escalations": stats.escalations.count,
            "sync_growth_blocks": stats.sync_growth_blocks,
            "peak_used_slots": stats.peak_used_slots,
        }

    def stop(self) -> None:
        if not self.stopped:
            self.stopped = True
            self.stack.stop()

    def gate(self, driver: "Driver") -> List[str]:
        """Every check of a local run; stops the stack."""
        problems = _tuner_problems(self.tuner, self.service.frozen_reason, self.started)
        try:
            self.stack.check_invariants()
        except Exception as exc:  # noqa: BLE001 - reported as a gate failure
            problems.append(f"check_invariants: {type(exc).__name__}: {exc}")
        stats = self.service.stats
        if (stats.requests, stats.granted) != (driver.requests, driver.granted):
            problems.append(
                f"service counted {stats.requests} requests / {stats.granted} "
                f"grants, driver {driver.requests} / {driver.granted}"
            )
        if stats.sessions_opened != driver.sessions:
            problems.append(
                f"service opened {stats.sessions_opened} sessions, "
                f"driver {driver.sessions}"
            )
        self.stop()
        try:
            self.stack.check_invariants()
        except Exception as exc:  # noqa: BLE001
            problems.append(f"check_invariants after stop: {exc}")
        if self.stack.chain.used_slots:
            problems.append(
                f"{self.stack.chain.used_slots} lock structures leaked after stop"
            )
        if self.service.session_count():
            problems.append(f"{self.service.session_count()} sessions left open")
        return problems


class WireTarget:
    """A :class:`WorkerPoolStack` driven through a routed client."""

    def __init__(self, config: WorkerPoolConfig, tracer: Optional[RequestTracer] = None) -> None:
        self.socket_dir = os.path.join(OUT_DIR, f"sock-{os.getpid()}")
        os.makedirs(self.socket_dir, exist_ok=True)
        config.socket_dir = self.socket_dir
        self.pool = WorkerPoolStack(config).start()
        self.started = time.perf_counter()
        try:
            self.client = RoutedClientStack(
                self.pool.endpoints,
                max_in_flight=config.max_in_flight,
                max_queue_depth=config.admission_queue_depth,
                metrics=self.pool.metrics,
                tracer=tracer,
            )
            self.client.service.ping()
        except BaseException:
            self.pool.stop()
            raise
        self.tracer = tracer
        self.service = self.client.service
        self.admission = self.client.admission
        self.tuner = self.pool.tuner
        self.controller = self.pool.controller
        self.stopped = False
        self.final_stats: Optional[List[dict]] = None

    def pages(self) -> int:
        return self.pool.chain.allocated_pages

    def manager_counts(self) -> dict:
        managers = [payload["manager"] for payload in self.final_stats or ()]
        return {
            "requests": sum(m["requests"] for m in managers),
            "immediate_grants": sum(m["immediate_grants"] for m in managers),
            "escalations": sum(len(m["escalations"]["outcomes"]) for m in managers),
            "sync_growth_blocks": sum(m["sync_growth_blocks"] for m in managers),
            "peak_used_slots": sum(m["peak_used_slots"] for m in managers),
        }

    def stop(self) -> None:
        if not self.stopped:
            self.stopped = True
            try:
                self.client.close()
            finally:
                self.pool.stop()
                shutil.rmtree(self.socket_dir, ignore_errors=True)

    def gate(self, driver: "Driver") -> List[str]:
        """Every check of a wire run; stops the pool."""
        problems = _tuner_problems(self.tuner, self.pool.frozen_reason, self.started)
        try:
            self.pool.check_invariants()
        except Exception as exc:  # noqa: BLE001
            problems.append(f"check_invariants: {type(exc).__name__}: {exc}")
        self.final_stats = self.service.stats()
        requests = sum(p["service"]["requests"] for p in self.final_stats)
        granted = sum(p["service"]["granted"] for p in self.final_stats)
        if (requests, granted) != (driver.requests, driver.granted):
            problems.append(
                f"workers counted {requests} requests / {granted} grants, "
                f"driver {driver.requests} / {driver.granted}"
            )
        self.stop()
        recon = self.pool.reconciliation
        if recon is None or not recon.ok:
            problems.append(f"pool reconciliation not ok: {recon}")
        elif recon.expected_pages != recon.reported_pages:
            problems.append(
                f"pool reconciliation off by "
                f"{recon.expected_pages - recon.reported_pages} pages"
            )
        for worker in recon.workers if recon is not None else ():
            if worker.get("reported_used_slots"):
                problems.append(
                    f"worker {worker['worker']}: {worker['reported_used_slots']} "
                    f"lock structures leaked after stop"
                )
        if self.pool.worker_crashes:
            problems.append(f"{self.pool.worker_crashes} worker crashes")
        return problems


def _tuner_problems(tuner, frozen_reason: Optional[str], started: float) -> List[str]:
    problems = []
    if tuner.crash is not None:
        problems.append(f"tuner crashed: {tuner.crash!r}")
    if frozen_reason is not None:
        problems.append(f"tuning frozen: {frozen_reason}")
    if not tuner.alive:
        problems.append("tuner thread is not running")
    # A tuner that stopped making passes is frozen even without a crash;
    # a quarter of its nominal pass rate leaves room for a busy host.
    interval_s = tuner.interval_override_s or tuner.stmm.current_interval_s
    expected = (time.perf_counter() - started) / interval_s
    if tuner.intervals_run < int(expected / 4):
        problems.append(
            f"tuner ran {tuner.intervals_run} passes, expected about {expected:.0f}"
        )
    return problems


def build_target(spec: WorkloadSpec, tracer: Optional[RequestTracer] = None):
    config = spec.config()
    if spec.kind == "wire":
        if tracer is not None:
            config.trace_sample_every = tracer.every
        return WireTarget(config, tracer)
    return LocalTarget(config)


def timed_setups(
    spec: WorkloadSpec, count: int, speed: hostspeed.HostSpeed
) -> "tuple[object, List[float]]":
    """Set the workload's stack up ``count`` times; keep the last one.

    Each set-up time is divided by the host slowdown sampled just
    before it (see hostspeed).
    """
    times: List[float] = []
    target = None
    for _ in range(count):
        if target is not None:
            target.stop()
        slowdown = speed.sample()
        started = time.perf_counter()
        target = build_target(spec)
        times.append((time.perf_counter() - started) / slowdown)
    return target, times


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------


@dataclass
class Window:
    """One measurement window: an OLTP second or a rollout cycle."""

    seconds: float  # wall time minus host-speed sampling
    txns: int
    granted: int
    slowdown: float  # median host slowdown sampled in the window
    full: bool  # partial windows scale latencies but give no rate
    lat_start: int
    lat_end: int


@dataclass
class Driver:
    """Closed-loop client state; all counts are the driver's own."""

    target: object
    stream: Stream
    speed: hostspeed.HostSpeed
    scale: Scale = FULL
    txn_scope: Optional[Callable] = None
    next_txn: int = 0
    attempted: int = 0
    committed: int = 0
    failed: int = 0
    requests: int = 0
    granted: int = 0
    sessions: int = 0
    page_sum: int = 0
    page_samples: int = 0
    #: Raw admission-to-commit latencies of timed OLTP transactions.
    latencies: array = field(default_factory=lambda: array("d"))
    windows: List[Window] = field(default_factory=list)
    #: (wall seconds minus sampling, slowdown) per complete rollout.
    rollouts: List[tuple] = field(default_factory=list)
    rollout_escalations: List[int] = field(default_factory=list)
    sampling_s: float = 0.0

    def __post_init__(self) -> None:
        self._next_sample = 0.0
        self._begin_window()

    # -- host-speed sampling and windows -----------------------------------

    def _sample(self) -> None:
        started = time.perf_counter()
        self._slowdowns.append(self.speed.sample())
        now = time.perf_counter()
        self.sampling_s += now - started
        self._next_sample = now + SAMPLE_EVERY_S

    def _begin_window(self) -> None:
        self._w_start = time.perf_counter()
        self._w_sampling = self.sampling_s
        self._w_txns = self.committed
        self._w_granted = self.granted
        self._w_lat = len(self.latencies)
        self._slowdowns: List[float] = []

    def _end_window(self, full: bool) -> None:
        if not self._slowdowns:
            self._sample()
        self.windows.append(
            Window(
                seconds=time.perf_counter() - self._w_start
                - (self.sampling_s - self._w_sampling),
                txns=self.committed - self._w_txns,
                granted=self.granted - self._w_granted,
                slowdown=statistics.median(self._slowdowns),
                full=full,
                lat_start=self._w_lat,
                lat_end=len(self.latencies),
            )
        )
        self._begin_window()

    def rate(self, column: str, *, scaled: bool = True) -> float:
        """``txns`` or ``granted`` per second over the full windows.

        Each window's count is scaled by its own host slowdown, so a
        slow minute of the host does not read as a slow program.
        """
        full = [w for w in self.windows if w.full]
        work = sum(getattr(w, column) * (w.slowdown if scaled else 1.0) for w in full)
        return work / sum(w.seconds for w in full)

    def scaled_latencies(self) -> List[float]:
        """Every timed latency divided by its window's host slowdown."""
        scaled: List[float] = []
        for w in self.windows:
            scaled.extend(x / w.slowdown for x in self.latencies[w.lat_start:w.lat_end])
        return scaled

    # -- transactions --------------------------------------------------------

    def txn(self, timed: bool = True) -> None:
        """Run the next stream transaction, admission to commit."""
        if self.txn_scope is None:
            self._txn(timed)
        else:
            with self.txn_scope():
                self._txn(timed)
        if time.perf_counter() >= self._next_sample:
            self._sample()

    def _txn(self, timed: bool) -> None:
        stream = self.stream
        index = self.next_txn
        self.next_txn = (index + 1) % stream.transactions
        lo, hi = stream.offsets[index], stream.offsets[index + 1]
        tables, rows, modes = stream.tables, stream.rows, stream.modes
        service = self.target.service
        admission = self.target.admission
        self.attempted += 1
        granted = 0
        perf = time.perf_counter
        started = perf()
        try:
            admission.acquire(timeout_s=ADMISSION_TIMEOUT_S)
            try:
                self.sessions += 1
                with service.session() as app_id:
                    lock_row = service.lock_row
                    for k in range(lo, hi):
                        self.requests += 1
                        lock_row(app_id, tables[k], rows[k], MODES[modes[k]])
                        granted += 1
            finally:
                admission.release()
        except FAILURES:
            self.failed += 1
            return
        finally:
            self.granted += granted
        if timed:
            self.latencies.append(perf() - started)
            self.committed += 1
            self.page_sum += self.target.pages()
            self.page_samples += 1

    def rollout(self, deadline: float) -> Optional[float]:
        """One batch rollout with OLTP between its chunks.

        Returns its wall time (less host-speed sampling) when it
        committed before ``deadline``; a rollout cut short by the
        deadline still commits, but is not counted (None).
        """
        target = self.target
        service = target.service
        scale = self.scale
        perf = time.perf_counter
        started, sampling = perf(), self.sampling_s
        escalations = target.escalations()
        self.attempted += 1
        complete = True
        target.admission.acquire(timeout_s=ADMISSION_TIMEOUT_S)
        try:
            app_id = service.open_session()
            self.sessions += 1
            try:
                lock_row = service.lock_row
                mode = LockMode.X
                rows = self.stream.rollout_rows
                for chunk in range(0, rows, scale.rollout_chunk):
                    for row in range(chunk, min(chunk + scale.rollout_chunk, rows)):
                        self.requests += 1
                        lock_row(app_id, ROLLOUT_TABLE, row, mode)
                        self.granted += 1
                    for _ in range(scale.oltp_per_chunk):
                        self.txn()
                    if perf() >= deadline:
                        complete = False
                        break
            except FAILURES:
                self.failed += 1
                complete = False
            finally:
                service.close_session(app_id)
        finally:
            target.admission.release()
        if not complete:
            return None
        self.rollout_escalations.append(target.escalations() - escalations)
        return perf() - started - (self.sampling_s - sampling)

    def leak(self) -> None:
        """Take one lock and never release it (checks the leak gate)."""
        service = self.target.service
        app_id = service.open_session()
        self.sessions += 1
        self.requests += 1
        service.lock_row(app_id, ROLLOUT_TABLE + 1, 0, LockMode.X)
        self.granted += 1

    # -- measured loops ----------------------------------------------------

    def warm_up(self) -> None:
        until = time.perf_counter() + self.scale.warmup_s
        while time.perf_counter() < until:
            self.txn(timed=False)

    def run_oltp(self, seconds: float) -> None:
        """OLTP transactions back to back; one window per WINDOW_S."""
        perf = time.perf_counter
        self._begin_window()
        started = perf()
        deadline = started + seconds
        boundary = started + WINDOW_S
        while True:
            self.txn()
            now = perf()
            if now >= deadline:
                break
            if now >= boundary:
                self._end_window(full=True)
                while boundary <= now:
                    boundary += WINDOW_S
        self._end_window(full=now >= boundary)

    def run_rollouts(self, seconds: float) -> None:
        """Rollout + gap cycles; each cycle is one window."""
        perf = time.perf_counter
        deadline = perf() + seconds
        while perf() < deadline:
            self._begin_window()
            rollout_s = self.rollout(deadline)
            gap_done = 0
            while gap_done < self.scale.gap_txns and perf() < deadline:
                self.txn()
                gap_done += 1
            self._end_window(full=rollout_s is not None and gap_done == self.scale.gap_txns)
            if rollout_s is not None:
                self.rollouts.append((rollout_s, self.windows[-1].slowdown))

    def rollout_s(self) -> float:
        """Median host-scaled wall time of one complete rollout."""
        return statistics.median(s / slow for s, slow in self.rollouts) if self.rollouts else 0.0


def rss_peak_mib(include_children: bool) -> float:
    """Peak resident memory of this process (plus reaped children)."""
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak_kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak_kib / 1024.0
