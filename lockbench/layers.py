"""Per-layer metrics of the traced run.

:func:`install` wraps the public entry points of each layer on the live
instances of one target; :func:`per_layer` turns the recorded spans,
plus the program's own counters, into the per-layer metrics of
BENCHMARK.json.  A layer that does no work on a workload reports 0.
On ``oltp_wire`` the lock manager and the service run in the worker
process, out of reach of in-process wrappers: their time shows up in
the seven ``net.hop.*`` hops of the program's own RequestTracer, and
only their counters (read over the wire) are reported.
"""

from __future__ import annotations

from repro.obs.tracing import HOP_NAMES, hop_percentiles, wire_tax_summary

from spans import SpanRecorder
from workloads import LocalTarget

_GROW_REASONS = ("grow-to-min-free", "escalation-doubling")
_SHRINK_REASONS = ("shrink-delta-reduce",)


def _units() -> dict:
    units = {
        "lockmgr.lock_row_fast.mean_us": "us",
        "lockmgr.fast_path_hit_ratio": "ratio",
        "lockmgr.release_all.mean_us": "us",
        "lockmgr.busy_s": "s",
        "lockmgr.immediate_grant_ratio": "ratio",
        "lockmgr.escalations": "count",
        "lockmgr.sync_growth_blocks": "count",
        "lockmgr.peak_used_slots": "count",
        "service.lock_row.p50_us": "us",
        "service.lock_row.p99_us": "us",
        "service.lock_row.self_us": "us",
        "service.session.mean_us": "us",
        "service.admission_acquire.mean_us": "us",
        "service.busy_s": "s",
        "tuner.passes": "count",
        "tuner.pass.p50_us": "us",
        "tuner.pass.p99_us": "us",
        "tuner.busy_s": "s",
        "core.sync_grow.calls": "count",
        "core.sync_grow.p99_us": "us",
        "core.grow_decisions": "count",
        "core.shrink_decisions": "count",
        "net.lock_row.p50_us": "us",
        "net.lock_row.p99_us": "us",
        "net.session.mean_us": "us",
    }
    for hop in HOP_NAMES:
        units[f"net.hop.{hop}.p50_us"] = "us"
        units[f"net.hop.{hop}.p99_us"] = "us"
    units["net.wire_tax"] = "ratio"
    units["bench.trace_overhead"] = "ratio"
    return units


#: Every per-layer metric with its unit, in report order.
PER_LAYER_UNITS = _units()


def install(recorder: SpanRecorder, target) -> None:
    """Wrap each layer's entry points on ``target``'s live instances."""
    wrap = recorder.wrap
    if isinstance(target, LocalTarget):
        stack = target.stack
        service = stack.service
        manager = service.manager
        service.lock_row = wrap("service.lock_row", service.lock_row)
        service.session = recorder.wrap_session("service.session", service.session)
        manager.lock_row_fast = wrap(
            "lockmgr.lock_row_fast", manager.lock_row_fast, count_true=True
        )
        manager.lock_row = recorder.wrap_generator("lockmgr.lock_row", manager.lock_row)
        manager.release_all = wrap("lockmgr.release_all", manager.release_all)
        manager.growth_provider = wrap("core.sync_grow", manager.growth_provider)
        stack.stmm.tune = wrap("tuner.pass", stack.stmm.tune)
    else:
        pool = target.pool
        client = target.service
        client.lock_row = wrap("net.lock_row", client.lock_row)
        client.session = recorder.wrap_session("net.session", client.session)
        target.controller.sync_grow = wrap("core.sync_grow", target.controller.sync_grow)
        pool.stmm.tune = wrap("tuner.pass", pool.stmm.tune)
    target.admission.acquire = wrap("service.admission_acquire", target.admission.acquire)


def per_layer(recorder: SpanRecorder, target) -> dict:
    """The per-layer metrics (all of :data:`PER_LAYER_UNITS` but the overhead)."""
    us = 1e6
    rec = recorder
    counts = target.manager_counts()
    decisions = [d.reason for d in target.controller.decisions]
    fast_calls = rec.count("lockmgr.lock_row_fast")
    metrics = {
        "lockmgr.lock_row_fast.mean_us": rec.mean("lockmgr.lock_row_fast") * us,
        "lockmgr.fast_path_hit_ratio": (
            rec.true_results["lockmgr.lock_row_fast"] / fast_calls if fast_calls else 0.0
        ),
        "lockmgr.release_all.mean_us": rec.mean("lockmgr.release_all") * us,
        "lockmgr.busy_s": sum(
            rec.self_total(name)
            for name in ("lockmgr.lock_row_fast", "lockmgr.lock_row", "lockmgr.release_all")
        ),
        "lockmgr.immediate_grant_ratio": (
            counts["immediate_grants"] / counts["requests"] if counts["requests"] else 0.0
        ),
        "lockmgr.escalations": counts["escalations"],
        "lockmgr.sync_growth_blocks": counts["sync_growth_blocks"],
        "lockmgr.peak_used_slots": counts["peak_used_slots"],
        "service.lock_row.p50_us": rec.quantile("service.lock_row", 0.50) * us,
        "service.lock_row.p99_us": rec.quantile("service.lock_row", 0.99) * us,
        "service.lock_row.self_us": rec.mean("service.lock_row", self_time=True) * us,
        "service.session.mean_us": (
            rec.mean("service.session.open") + rec.mean("service.session.close")
        ) * us,
        "service.admission_acquire.mean_us": rec.mean("service.admission_acquire") * us,
        "service.busy_s": sum(
            rec.self_total(name)
            for name in (
                "service.lock_row",
                "service.session.open",
                "service.session.close",
                "service.admission_acquire",
            )
        ),
        "tuner.passes": rec.count("tuner.pass"),
        "tuner.pass.p50_us": rec.quantile("tuner.pass", 0.50) * us,
        "tuner.pass.p99_us": rec.quantile("tuner.pass", 0.99) * us,
        "tuner.busy_s": rec.total("tuner.pass"),
        "core.sync_grow.calls": rec.count("core.sync_grow"),
        "core.sync_grow.p99_us": rec.quantile("core.sync_grow", 0.99) * us,
        "core.grow_decisions": sum(reason in _GROW_REASONS for reason in decisions),
        "core.shrink_decisions": sum(reason in _SHRINK_REASONS for reason in decisions),
        "net.lock_row.p50_us": rec.quantile("net.lock_row", 0.50) * us,
        "net.lock_row.p99_us": rec.quantile("net.lock_row", 0.99) * us,
        "net.session.mean_us": (
            rec.mean("net.session.open") + rec.mean("net.session.close")
        ) * us,
    }
    traces = target.tracer.to_dicts() if target.tracer is not None else []
    hops = hop_percentiles(traces)
    for hop in HOP_NAMES:
        metrics[f"net.hop.{hop}.p50_us"] = hops.get(hop, {}).get("p50", 0.0) * us
        metrics[f"net.hop.{hop}.p99_us"] = hops.get(hop, {}).get("p99", 0.0) * us
    metrics["net.wire_tax"] = wire_tax_summary(traces)["fraction"] if traces else 0.0
    return metrics
