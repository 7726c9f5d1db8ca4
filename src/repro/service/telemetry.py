"""Collect a finished service run into a :class:`RunTelemetry` stream.

The DES runner has had a ``--telemetry out.jsonl`` round trip since the
observability PR; this module gives the *live* stacks the same exit:
:func:`service_telemetry` gathers the shared metric registry (including
the per-shard labeled series), the controller's tuning decisions and
the tuner's audit trail into one :class:`~repro.obs.events.RunTelemetry`
that ``write_jsonl`` serializes and the standard ``repro.obs`` readers
load back.

Call it after :meth:`stop` (or inside the ``with stack:`` exit) so the
final counter values and the complete audit ring are captured.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Union

from repro.obs.events import RunTelemetry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.sharded import ShardedServiceStack
    from repro.service.stack import ServiceStack
    from repro.service.workers import WorkerPoolStack

    AnyStack = Union[ServiceStack, ShardedServiceStack, WorkerPoolStack]


def service_telemetry(stack: "AnyStack", label: str = "service") -> RunTelemetry:
    """One telemetry object for a finished (or quiesced) service run.

    Works for every stack shape: all expose ``metrics`` (the shared
    registry), ``controller.decisions``, ``tuner.audit`` and the common
    reporting surface (``wait_profilers``, ``request_tracers``,
    ``incidents``, ``broker``).  When the stack ran without telemetry
    the stream still carries the decisions and audit trail over an
    empty registry.
    """
    # Final state of the point-in-time gauges (occupancy, sessions).
    stack.publish_ops_metrics()
    waits = []
    for profiler in stack.wait_profilers:
        waits.extend(profiler.to_dicts())
    waits.sort(key=lambda w: w["t"])
    traces = []
    for tracer in stack.request_tracers:
        traces.extend(tracer.to_dicts())
    traces.sort(key=lambda tr: tr["t"])
    broker = stack.broker
    telemetry = RunTelemetry(
        label=label,
        decisions=list(stack.controller.decisions),
        registry=stack.metrics,
        audit=stack.tuner.audit.records(),
        waits=waits,
        incidents=stack.incidents.records(),
        broker=[] if broker is None else broker.audit.records(),
        traces=traces,
    )
    return telemetry


__all__ = ["service_telemetry"]
