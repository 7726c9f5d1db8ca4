"""One-call assembly of the live lock service and its tuning stack.

:class:`ServiceStack` is the service-world analogue of
:class:`repro.engine.database.Database`: it wires the memory registry,
the block chain, the thread-safe :class:`LockService`, the paper's
:class:`LockMemoryController` + adaptive MAXLOCKS, STMM, the
:class:`TunerDaemon` and the :class:`AdmissionController` together,
exactly the way the simulation assembly does -- same providers, same
``on_resize`` hook, same overflow plumbing -- so the live system runs
the identical tuning algorithm, just on wall-clock intervals.

The memory model is deliberately smaller than the full simulated
database: one bufferpool heap (the PMC donor STMM trades against) plus
the locklist FMC heap and the overflow area.  That is all the lock
memory algorithm of the paper interacts with.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Sequence

from repro.core.controller import LockMemoryController
from repro.core.maxlocks import AdaptiveMaxlocks
from repro.core.params import TuningParameters
from repro.errors import ConfigurationError
from repro.lockmgr.blocks import LockBlockChain
from repro.memory.bufferpool import BufferpoolModel
from repro.memory.heaps import HeapCategory, MemoryHeap
from repro.memory.registry import DatabaseMemoryRegistry
from repro.memory.stmm import Stmm, StmmConfig
from repro.obs.incidents import IncidentLog, IncidentRecorder
from repro.obs.registry import MetricRegistry
from repro.obs.spans import RequestSpanSampler
from repro.obs.waits import WaitEventProfiler, merged_class_totals
from repro.service.admission import AdmissionController
from repro.service.broker import (
    BrokerConfig,
    MemoryBroker,
    RateMeter,
    WorkloadProfile,
    default_estimators,
)
from repro.service.clock import Clock, MonotonicClock
from repro.service.ops import OpsServer
from repro.service.service import LockService
from repro.service.tuner import TunerDaemon
from repro.units import PAGES_PER_BLOCK, round_pages_to_blocks


@dataclass
class ServiceConfig:
    """Sizing of a live service stack (defaults: 64 MB, demo scale)."""

    #: databaseMemory in 4 KB pages.  16384 pages = 64 MB.
    total_memory_pages: int = 16_384
    #: Initial LOCKLIST size in pages (rounded up to whole blocks).
    initial_locklist_pages: int = 128
    #: Share of databaseMemory the bufferpool (the STMM donor) starts with.
    bufferpool_fraction: float = 0.70
    #: STMM overflow-area goal as a fraction of databaseMemory.
    overflow_goal_fraction: float = 0.05
    #: Tuning parameters of the paper's algorithm.
    params: TuningParameters = field(default_factory=TuningParameters)
    #: STMM scheduling (interval, adaptivity).
    stmm: StmmConfig = field(default_factory=StmmConfig)
    #: Wall-clock seconds between tuner passes (None = STMM's interval;
    #: demos and tests want something far shorter than DB2's 30 s).
    tuner_interval_s: Optional[float] = 0.25
    #: Concurrency bound and wait-queue depth at the front door.
    max_in_flight: int = 64
    admission_queue_depth: int = 128
    #: Default per-request deadline (None = wait forever).
    default_timeout_s: Optional[float] = None
    #: Manager-level LOCKTIMEOUT (DB2's -1 default = wait forever).
    lock_timeout_s: Optional[float] = None
    #: Record service.* / tuner.* metrics into a registry.
    telemetry: bool = True
    #: TCP port of the live ops plane (/metrics, /healthz, /stmm).
    #: None = no HTTP server; 0 = ephemeral port (tests/CI).
    ops_port: Optional[int] = None
    #: Sample every Nth request's admission->grant->release span
    #: (0 = off, keeping hot paths at the one-None-check contract).
    span_sample_every: int = 0
    #: Ring-buffer bound of the STMM decision audit log.
    audit_capacity: int = 256
    #: Enable the wait-event profiler (lock waits with blocker
    #: attribution, latch gets/misses, admission waits, sync-growth
    #: stalls).  Off keeps every hot path at one ``is None`` check.
    wait_profile: bool = False
    #: Ring-buffer bound of raw wait events per profiler (per shard).
    wait_ring_capacity: int = 512
    #: Ring-buffer bound of the incident forensics log.
    incident_capacity: int = 128
    #: Enable the whole-memory broker: sort/hashjoin/pkgcache heaps join
    #: the registry, benefit-driven block trading runs each tuning pass,
    #: and memory pressure drives the admission posture state machine.
    broker: bool = False
    #: Starting shares of databaseMemory for the brokered PMC heaps
    #: (only used when ``broker`` is on; bufferpool_fraction above is
    #: the fourth).  Each is floored at one 128 KB block.
    sortheap_fraction: float = 0.06
    hashjoin_fraction: float = 0.04
    pkgcache_fraction: float = 0.05
    #: Broker knobs (None = BrokerConfig defaults).
    broker_config: Optional[BrokerConfig] = None
    #: The modelled workload rates the estimators assume (None =
    #: WorkloadProfile defaults; fields accept callables for scripted
    #: demand sequences).
    broker_profile: Optional[WorkloadProfile] = None

    def __post_init__(self) -> None:
        if self.initial_locklist_pages < PAGES_PER_BLOCK:
            raise ConfigurationError(
                f"initial_locklist_pages must be at least one block "
                f"({PAGES_PER_BLOCK} pages)"
            )
        locklist = round_pages_to_blocks(self.initial_locklist_pages)
        bufferpool = int(self.bufferpool_fraction * self.total_memory_pages)
        initial = locklist + bufferpool
        if self.broker:
            for fraction in (
                self.sortheap_fraction,
                self.hashjoin_fraction,
                self.pkgcache_fraction,
            ):
                if fraction < 0:
                    raise ConfigurationError(
                        f"broker heap fractions must be non-negative, "
                        f"got {fraction}"
                    )
                initial += max(
                    PAGES_PER_BLOCK, int(fraction * self.total_memory_pages)
                )
        if initial >= self.total_memory_pages:
            raise ConfigurationError(
                "initial heaps oversubscribe database memory"
            )
        if self.ops_port is not None and not self.telemetry:
            raise ConfigurationError(
                "ops_port requires telemetry: /metrics serves the registry"
            )
        if self.ops_port is not None and self.ops_port < 0:
            raise ConfigurationError(
                f"ops_port must be non-negative, got {self.ops_port}"
            )
        if self.span_sample_every < 0:
            raise ConfigurationError(
                f"span_sample_every must be non-negative, "
                f"got {self.span_sample_every}"
            )
        if self.audit_capacity <= 0:
            raise ConfigurationError(
                f"audit_capacity must be positive, got {self.audit_capacity}"
            )
        if self.wait_ring_capacity <= 0:
            raise ConfigurationError(
                f"wait_ring_capacity must be positive, "
                f"got {self.wait_ring_capacity}"
            )
        if self.incident_capacity <= 0:
            raise ConfigurationError(
                f"incident_capacity must be positive, "
                f"got {self.incident_capacity}"
            )


def initial_block_split(cfg: ServiceConfig, parts: int) -> List[int]:
    """The initial LOCKLIST in whole blocks, split round-robin over
    ``parts`` lock tables (early tables take the remainder)."""
    blocks = round_pages_to_blocks(cfg.initial_locklist_pages) // PAGES_PER_BLOCK
    base, extra = divmod(blocks, parts)
    return [base + (1 if idx < extra else 0) for idx in range(parts)]


def check_scale_out(cfg, parts: int, what: str) -> None:
    """Validation shared by the sharded and the worker-pool configs."""
    if cfg.deadlock_interval_s <= 0:
        raise ConfigurationError(
            f"deadlock_interval_s must be positive, "
            f"got {cfg.deadlock_interval_s}"
        )
    split = initial_block_split(cfg, parts)
    if split[-1] == 0:
        raise ConfigurationError(
            f"initial locklist of {sum(split)} blocks cannot seed "
            f"{parts} {what} with one block each"
        )


def build_memory_registry(cfg: ServiceConfig) -> DatabaseMemoryRegistry:
    """The service memory model: bufferpool (PMC donor) + locklist + overflow.

    Shared by the unsharded and sharded stacks so both run the paper's
    tuning algorithm against the identical registry layout.
    """
    registry = DatabaseMemoryRegistry(
        total_pages=cfg.total_memory_pages,
        overflow_goal_pages=int(
            cfg.overflow_goal_fraction * cfg.total_memory_pages
        ),
    )
    bp_model = BufferpoolModel()
    registry.register(
        MemoryHeap(
            "bufferpool",
            HeapCategory.PMC,
            size_pages=int(cfg.bufferpool_fraction * cfg.total_memory_pages),
            min_pages=int(0.10 * cfg.total_memory_pages),
            benefit=lambda heap: bp_model.marginal_benefit(heap.size_pages),
        )
    )
    registry.register(
        MemoryHeap(
            "locklist",
            HeapCategory.FMC,
            size_pages=round_pages_to_blocks(cfg.initial_locklist_pages),
            min_pages=0,
        )
    )
    if getattr(cfg, "broker", False):
        # The remaining PMC consumers the paper's section 2.1 names;
        # each keeps at least one block so it can always re-enter the
        # trading ranking as a receiver.
        for name, fraction in (
            ("sortheap", cfg.sortheap_fraction),
            ("hashjoin", cfg.hashjoin_fraction),
            ("pkgcache", cfg.pkgcache_fraction),
        ):
            registry.register(
                MemoryHeap(
                    name,
                    HeapCategory.PMC,
                    size_pages=max(
                        PAGES_PER_BLOCK, int(fraction * cfg.total_memory_pages)
                    ),
                    min_pages=PAGES_PER_BLOCK,
                )
            )
    return registry


def build_broker(
    cfg: ServiceConfig,
    registry: DatabaseMemoryRegistry,
    admission: AdmissionController,
    *,
    used_pages,
    escalations,
    metrics=None,
) -> MemoryBroker:
    """Assemble the whole-memory broker over a built registry.

    Shared by the unsharded and sharded stacks: both hand in their
    registry, their admission front door and two live LOCKLIST signals
    (used pages and the cumulative escalation count, differentiated
    into a rate by a :class:`RateMeter`).
    """
    profile = cfg.broker_profile or WorkloadProfile()
    estimators = default_estimators(
        registry,
        profile,
        locklist_used_pages=used_pages,
        locklist_escalation_rate=RateMeter(escalations),
        locklist_min_free_fraction=cfg.params.min_free_fraction,
    )
    return MemoryBroker(
        registry,
        estimators,
        admission=admission,
        config=cfg.broker_config,
        metrics=metrics,
    )


def controller_params(cfg, tuner) -> dict:
    """The controller constants in effect, for ``/stmm`` consumers.

    ``analyze`` and ``top`` label their reports with these instead of
    guessing the paper's defaults (C1, the free band, delta_reduce and
    the tuning interval are all configurable).
    """
    params = cfg.params
    return {
        "c1_overflow_fraction": params.c1_overflow_fraction,
        "min_free_fraction": params.min_free_fraction,
        "max_free_fraction": params.max_free_fraction,
        "delta_reduce": params.delta_reduce,
        "interval_s": (
            tuner.interval_override_s
            if tuner.interval_override_s is not None
            else tuner.stmm.current_interval_s
        ),
    }


def wait_class_payload(profilers) -> Optional[dict]:
    """``{class: {count, seconds}}`` over the stack's profilers.

    None when wait profiling is disabled, so consumers can tell "off"
    apart from "on but idle".
    """
    if not profilers:
        return None
    return {
        cls: {"count": count, "seconds": seconds}
        for cls, (count, seconds) in merged_class_totals(profilers).items()
    }


def stmm_payload(stack, maxlocks_fraction: float) -> dict:
    """The ``/stmm`` body every stack serves: audit trail + posture.

    Stacks add their topology's extras (span samples, per-worker
    blocks) to the returned dict.
    """
    tuner = stack.tuner
    return {
        "audit": tuner.audit.to_dicts(),
        "audit_total": tuner.audit.total_recorded,
        "intervals": tuner.intervals_run,
        "locklist_pages": stack.chain.allocated_pages,
        "locklist_free_fraction": stack.chain.free_fraction(),
        "maxlocks_fraction": maxlocks_fraction,
        "overflow_pages": stack.registry.overflow_pages,
        "frozen_reason": stack.frozen_reason,
        "params": controller_params(stack.config, tuner),
        "incident_total": stack.incidents.total_recorded,
        "wait_classes": wait_class_payload(stack.wait_profilers),
        "broker": None if stack.broker is None else stack.broker.status(),
    }


def publish_stack_gauges(
    stack,
    *,
    maxlocks_fraction: float,
    sessions: int,
    escalations: int,
    admission: Optional[AdmissionController] = None,
) -> None:
    """The stack-level point-in-time gauges every stack publishes.

    LOCKLIST posture, sessions and escalations, the admission gate
    (when the stack has one), the broker's gauges and one labeled set
    of latch gauges per wait profiler.
    """
    reg = stack.metrics
    chain = stack.chain
    reg.gauge("service.locklist_pages").set(float(chain.allocated_pages))
    reg.gauge("service.locklist_used_slots").set(float(chain.used_slots))
    reg.gauge("service.locklist_free_fraction").set(chain.free_fraction())
    reg.gauge("service.maxlocks_fraction").set(maxlocks_fraction)
    reg.gauge("service.sessions").set(float(sessions))
    reg.gauge("service.escalations").set(float(escalations))
    if admission is not None:
        reg.gauge("service.admission.in_flight").set(
            float(admission.in_flight())
        )
        reg.gauge("service.admission.queue_depth").set(
            float(admission.queue_depth())
        )
    if stack.broker is not None:
        stack.broker.publish_metrics()
    for prof in stack.wait_profilers:
        latch = prof.latch
        labels = prof.labels
        reg.gauge("latch.gets", labels=labels).set(float(latch.gets))
        reg.gauge("latch.misses", labels=labels).set(float(latch.misses))
        reg.gauge("latch.spins", labels=labels).set(float(latch.spins))
        reg.gauge("latch.sleeps", labels=labels).set(float(latch.sleeps))
        reg.gauge("latch.sleep_seconds", labels=labels).set(
            latch.sleep_time_s
        )


class StackSurface:
    """What every stack shape declares, and the wiring they share.

    The single-manager stack, the sharded stack and the worker pool all
    carry the same reporting surface, so callers read it plainly
    instead of probing: ``ops``, ``broker`` and ``detector`` (the
    cross-shard deadlock sweep) are ``None`` where a topology lacks
    them, ``wait_profilers`` and ``request_tracers`` are empty.  Every
    stack also sets ``incidents``, ``frozen_reason``, ``tuner`` and the
    tuning objects :meth:`_wire_tuning` builds.
    """

    ops: Optional[OpsServer] = None
    broker: Optional[MemoryBroker] = None
    detector = None
    wait_profilers: Sequence[WaitEventProfiler] = ()
    request_tracers: Sequence = ()
    _started = False

    def _wire_tuning(
        self,
        service,
        *,
        num_applications: Callable[[], int],
        escalation_count: Callable[[], int],
        **tuner_kwargs,
    ) -> None:
        """The paper's controller, adaptive MAXLOCKS, STMM and tuner.

        Tunes ``self.chain`` against ``self.registry``, wired exactly
        as AdaptiveLockMemoryPolicy.attach does for the simulation; the
        :class:`TunerDaemon` serializes its passes on ``service``.
        """
        cfg = self.config
        self.controller = LockMemoryController(
            registry=self.registry,
            chain=self.chain,
            params=cfg.params,
            num_applications=num_applications,
            escalation_count=escalation_count,
            clock=self.clock.now,
        )
        self.maxlocks = AdaptiveMaxlocks(
            params=cfg.params,
            allocated_pages=lambda: self.chain.allocated_pages,
            max_lock_memory_pages=self.controller.max_lock_memory_pages,
        )
        stmm_cfg = cfg.stmm
        if cfg.broker and stmm_cfg.pmc_rebalance_fraction:
            # All PMC movement goes through the broker's audited
            # trading pass; STMM's unaudited 2% rebalance would fight
            # it (and leave page moves with no trade-benefit record).
            stmm_cfg = replace(stmm_cfg, pmc_rebalance_fraction=0.0)
        self.stmm = Stmm(self.registry, stmm_cfg)
        self.stmm.register_deterministic_tuner(self.controller)
        self.tuner = TunerDaemon(
            service,
            self.stmm,
            interval_override_s=cfg.tuner_interval_s,
            metrics=self.metrics,
            controller=self.controller,
            audit_capacity=cfg.audit_capacity,
            **tuner_kwargs,
        )

    def start(self):
        """Launch the tuner, then the deadlock sweep and the ops plane
        when the stack has them (the worker pool overrides this)."""
        if self._started:
            raise ConfigurationError("service stack already started")
        self._started = True
        self.tuner.start()
        if self.detector is not None:
            self.detector.start()
        if self.ops is not None:
            self.ops.start()
        return self

    def stop(self) -> None:
        """Stop tuning and sweeping, close the doors, cancel pending
        waits (the worker pool overrides this)."""
        if self.ops is not None:
            self.ops.stop()
        self.tuner.stop()
        if self.detector is not None:
            self.detector.stop()
        self.admission.close()
        self.service.close()

    def ops_incidents(self) -> dict:
        """The ``/incidents`` body: the forensics ring, oldest first."""
        return {
            "total": self.incidents.total_recorded,
            "counts": self.incidents.kind_counts(),
            "incidents": self.incidents.to_dicts(),
        }

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


class ServiceStack(StackSurface):
    """A fully wired live lock service (see module docstring)."""

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        *,
        clock: Optional[Clock] = None,
    ) -> None:
        cfg = config or ServiceConfig()
        self.config = cfg
        self.clock = clock or MonotonicClock()
        self.metrics: Optional[MetricRegistry] = (
            MetricRegistry() if cfg.telemetry else None
        )

        locklist_pages = round_pages_to_blocks(cfg.initial_locklist_pages)
        self.registry = build_memory_registry(cfg)

        self.chain = LockBlockChain(
            initial_blocks=locklist_pages // PAGES_PER_BLOCK
        )
        self.service = LockService(
            self.chain,
            clock=self.clock,
            default_timeout_s=cfg.default_timeout_s,
            lock_timeout_s=cfg.lock_timeout_s,
            metrics=self.metrics,
        )

        self._wire_tuning(
            self.service,
            num_applications=self.service.session_count,
            escalation_count=lambda: self.service.manager.stats.escalations.count,
        )
        manager = self.service.manager
        manager.growth_provider = self.controller.sync_grow
        manager.maxlocks_provider = self.maxlocks.fraction
        manager.refresh_period = cfg.params.refresh_period_requests
        manager.refresh_maxlocks()
        self.controller.on_resize = manager.refresh_maxlocks
        self.service.borrow_return = self.controller.reclaim_transient_blocks
        self.admission = AdmissionController(
            cfg.max_in_flight,
            cfg.admission_queue_depth,
            clock=self.clock,
        )
        self.broker: Optional[MemoryBroker] = None
        if cfg.broker:
            self.broker = build_broker(
                cfg,
                self.registry,
                self.admission,
                used_pages=self.controller.used_pages,
                escalations=lambda: self.service.manager.stats.escalations.count,
                metrics=self.metrics,
            )
            self.tuner.broker = self.broker
        if cfg.span_sample_every > 0 and self.metrics is not None:
            self.service.span_sampler = RequestSpanSampler(
                cfg.span_sample_every,
                self.clock.now,
                registry=self.metrics,
            )
        # Incident forensics is always on (capture only runs when a
        # deadlock / escalation / freeze actually fires).
        self.incidents = IncidentLog(capacity=cfg.incident_capacity)
        recorder = IncidentRecorder(
            self.incidents, shard=0, audit=self.tuner.audit
        )
        manager.incidents = recorder
        self.tuner.incidents = recorder
        #: Wait-event profilers feeding telemetry (one per lock domain;
        #: a single shared instance here -- manager, latch and admission
        #: classes are disjoint, and the sharded stack mirrors the
        #: attribute with one profiler per shard).
        self.wait_profilers = []
        if cfg.wait_profile:
            profiler = WaitEventProfiler(
                self.clock,
                registry=self.metrics,
                capacity=cfg.wait_ring_capacity,
            )
            manager.wait_profiler = profiler
            self.service.env.latch_profiler = profiler
            self.admission.wait_profiler = profiler
            self.wait_profilers = [profiler]
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

    # -- reporting ---------------------------------------------------------

    @property
    def frozen_reason(self) -> Optional[str]:
        return self.service.frozen_reason

    @property
    def manager_stats(self):
        """Lock-manager counters (one manager here; aggregated when
        sharded)."""
        return self.service.manager.stats

    # -- the ops plane -----------------------------------------------------

    def publish_ops_metrics(self) -> None:
        """Refresh the point-in-time gauges a scrape should see live.

        Counters update on the hot paths; these are *state* readings
        (sizes, fractions, queue depths) that would otherwise lag one
        tuning interval behind.
        """
        if self.metrics is None:
            return
        manager = self.service.manager
        publish_stack_gauges(
            self,
            maxlocks_fraction=manager.maxlocks_fraction,
            sessions=self.service.session_count(),
            escalations=manager.stats.escalations.count,
            admission=self.admission,
        )

    def ops_health(self) -> dict:
        """The ``/healthz`` body; ``ok`` decides 200 vs 503."""
        tuner = self.tuner
        return {
            "ok": not tuner.frozen and not self.service.closed,
            "service": "lock-service",
            "shards": 1,
            "closed": self.service.closed,
            "sessions": self.service.session_count(),
            "tuner": {**tuner.status(), "frozen_reason": self.frozen_reason},
        }

    def ops_stmm(self) -> dict:
        """The ``/stmm`` body: audit trail + current memory posture."""
        payload = stmm_payload(self, self.service.manager.maxlocks_fraction)
        sampler = self.service.span_sampler
        payload["spans"] = (
            [] if sampler is None else sampler.finished_dicts(limit=64)
        )
        return payload

    # -- consistency -------------------------------------------------------

    def check_invariants(self) -> None:
        """Byte-exact accounting across every layer.

        The locklist heap in the registry, the physical block chain and
        the manager's per-application slot charges must all agree --
        after any amount of concurrent traffic, growth, escalation and
        tuning.
        """
        self.service.check_invariants()
        self.controller.check_consistency()
        # Registry-wide: overflow_pages raises if heaps oversubscribe.
        self.registry.overflow_pages
