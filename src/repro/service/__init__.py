"""repro.service: the lock manager as a live, thread-safe service.

Everything below runs the *same* lock manager and tuning controller the
discrete-event simulation uses, on wall-clock time under real thread
concurrency:

* :mod:`repro.service.clock` -- the virtual/wall time seam;
* :mod:`repro.service.wallenv` -- the DES environment surface on a
  condition variable;
* :mod:`repro.service.service` -- :class:`LockService`, the thread-safe
  facade (deadlines, cancellation, sessions);
* :mod:`repro.service.tuner` -- :class:`TunerDaemon`, STMM on a real
  interval with crash-to-frozen degradation;
* :mod:`repro.service.admission` -- bounded in-flight sessions with
  queue shedding;
* :mod:`repro.service.broker` -- the whole-memory broker: per-heap
  marginal-benefit estimators, benefit-driven block trading and
  memory-pressure admission postures;
* :mod:`repro.service.stack` -- one-call assembly of the whole stack;
* :mod:`repro.service.ledger` -- the shard memory ledger and the
  aggregate chain the controller tunes when sharded (in-process or
  over worker processes);
* :mod:`repro.service.sharded` -- per-shard lock tables with global
  STMM arbitration and the cross-shard deadlock sweep;
* :mod:`repro.service.workers` -- the same ledger, sweep and tuner
  loop over forked worker processes (imported on demand: it pulls in
  the wire protocol, which imports this package);
* :mod:`repro.service.driver` -- closed-loop multi-threaded load;
* :mod:`repro.service.capture` -- demand-trace capture for offline
  replay through :mod:`repro.workloads.replay`.
"""

from repro.service.admission import AdmissionController, AdmissionStats
from repro.service.broker import (
    BrokerConfig,
    MemoryBroker,
    PressureConfig,
    PressureMonitor,
    WorkloadProfile,
)
from repro.service.capture import DemandTraceRecorder, load_trace_jsonl
from repro.service.clock import Clock, ManualClock, MonotonicClock, VirtualClock
from repro.service.driver import DriverReport, LoadDriver
from repro.service.ledger import (
    AggregateLockChain,
    ShardMemoryLedger,
    ShardOccupancy,
)
from repro.service.service import LockService, ServiceStats
from repro.service.sharded import (
    ShardedDeadlockDetector,
    ShardedLockService,
    ShardedServiceConfig,
    ShardedServiceStack,
    shard_of,
)
from repro.service.stack import ServiceConfig, ServiceStack
from repro.service.tuner import TunerDaemon

__all__ = [
    "AdmissionController",
    "AdmissionStats",
    "AggregateLockChain",
    "BrokerConfig",
    "Clock",
    "DemandTraceRecorder",
    "DriverReport",
    "LoadDriver",
    "LockService",
    "ManualClock",
    "MemoryBroker",
    "MonotonicClock",
    "PressureConfig",
    "PressureMonitor",
    "ServiceConfig",
    "ServiceStack",
    "ServiceStats",
    "ShardMemoryLedger",
    "ShardOccupancy",
    "ShardedDeadlockDetector",
    "ShardedLockService",
    "ShardedServiceConfig",
    "ShardedServiceStack",
    "TunerDaemon",
    "VirtualClock",
    "WorkloadProfile",
    "load_trace_jsonl",
    "shard_of",
]
