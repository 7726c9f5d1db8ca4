"""Lock-service benchmark: seeded closed-loop workloads, one command.

Usage (from the repository root)::

    python3 lockbench/run.py --workload oltp_local --seed 1 --seconds 30 --trace 0
    python3 lockbench/run.py --all --seconds 30          # every workload

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json;
``--trace 1`` runs the workload untraced and then traced, half of
``--seconds`` each, and reports the per-layer metrics plus
``bench.trace_overhead``.  The last line of standard output is one JSON
object (``correct``, ``attempted``, ``failed``, ``metrics``); the lines
before it repeat every metric with its unit, the run metadata, the
metrics left out of the JSON and the raw figures before host-speed
scaling.  Any failed correctness gate exits with status 1 and prints no
result.  See lockbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _import_program():
    """Put the checkout's ``src`` on the path and import the benchmark."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    global hostspeed, workloads, layers, spans, stream, tracing
    import hostspeed  # noqa: F401  (lockbench/)
    import layers  # noqa: F401
    import spans  # noqa: F401
    import stream  # noqa: F401
    import workloads  # noqa: F401
    from repro.obs import tracing  # noqa: F401


END_TO_END_UNITS = {
    "setup_s": "s",
    "txn_per_s": "1/s",
    "txn_p50_ms": "ms",
    "txn_p99_ms": "ms",
    "lock_req_per_s": "1/s",
    "lock_mem_mean_pages": "pages",
    "rss_peak_mib": "MiB",
}


WORKLOAD_UNITS = {
    "failed_txn_share": "ratio",
    "rollout_s": "s",
    "escalations_per_rollout": "count",
}


def run_metadata(seed: int, digest: str) -> dict:
    rev = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            rev = "unknown"
    src = hashlib.sha256()
    src_root = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src_root):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                src.update(os.path.relpath(path, src_root).encode())
                with open(path, "rb") as handle:
                    src.update(handle.read())
    return {
        "git_rev": rev,
        "src_digest": src.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "stream_digest": digest,
    }


def end_to_end(driver, setup_times, rss) -> dict:
    """The end-to-end metrics, timings scaled to the reference host."""
    lat = sorted(driver.scaled_latencies())
    return {
        "setup_s": statistics.median(setup_times),
        "txn_per_s": driver.rate("txns"),
        "txn_p50_ms": spans.percentile(lat, 0.50) * 1e3,
        "txn_p99_ms": spans.percentile(lat, 0.99) * 1e3,
        "lock_req_per_s": driver.rate("granted"),
        "lock_mem_mean_pages": driver.page_sum / driver.page_samples,
        "rss_peak_mib": rss,
    }


def measure(spec, scale, speed, seed_stream, seconds, *, setups, recorder=None, leak=False):
    """Set up, warm up, run and gate one segment.

    Returns (driver, target, setup times, gate problems).
    """
    tracer = None
    if recorder is not None and spec.kind == "wire":
        tracer = tracing.RequestTracer(workloads.WIRE_TRACE_EVERY, capacity=1 << 15)
    if tracer is None:
        target, setup_times = workloads.timed_setups(spec, setups, speed)
    else:
        target = workloads.build_target(spec, tracer)
        setup_times = []
    try:
        if recorder is not None:
            layers.install(recorder, target)
        driver = workloads.Driver(
            target,
            seed_stream,
            speed,
            scale,
            txn_scope=recorder.transaction if recorder else None,
        )
        driver.warm_up()
        if spec.rollout:
            driver.run_rollouts(seconds)
        else:
            driver.run_oltp(seconds)
        if leak:
            driver.leak()
        problems = target.gate(driver)
    finally:
        target.stop()
    if not any(w.full for w in driver.windows) or not driver.latencies:
        problems.append("the run completed no measurement window")
    return driver, target, setup_times, problems


def print_metrics(metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        print(f"  {name:<34} {value:>14.6g} {units[name]}")


def report_failure(spec, problems) -> int:
    for problem in problems:
        print(f"  GATE FAILED: {problem}", file=sys.stderr)
    print(f"lockbench {spec.name}: correctness gate failed", file=sys.stderr)
    return 1


def run_one(args) -> int:
    spec = workloads.WORKLOADS[args.workload]
    scale = workloads.TINY if args.tiny else workloads.FULL
    load_before = os.getloadavg()[0]
    built = stream.build_stream(
        args.seed, scale.stream_txns, scale.rollout_rows if spec.rollout else 0
    )
    speed = hostspeed.HostSpeed()
    print(
        f"lockbench {spec.name} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace} stream={built.transactions} txns/"
        f"{built.accesses} accesses"
    )
    if args.trace:
        # Half the time untraced, half traced, each on a fresh stack: the
        # overhead ratio needs both, and the run keeps its length.
        half = args.seconds / 2
        base, _, _, untraced_problems = measure(spec, scale, speed, built, half, setups=1)
        recorder = spans.SpanRecorder()
        driver, target, _, traced_problems = measure(
            spec, scale, speed, built, half, setups=1, recorder=recorder, leak=args.leak
        )
        problems = untraced_problems + traced_problems
        if problems:
            return report_failure(spec, problems)
        attempted = base.attempted + driver.attempted
        failed = base.failed + driver.failed
        metrics = layers.per_layer(recorder, target)
        metrics["bench.trace_overhead"] = base.rate("txns") / driver.rate("txns")
        units = layers.PER_LAYER_UNITS
        os.makedirs(workloads.OUT_DIR, exist_ok=True)
        span_file = os.path.join(
            workloads.OUT_DIR, f"spans-{spec.name}-seed{args.seed}.jsonl"
        )
        kept = recorder.write(span_file)
        print(f"  spans: {kept} kept span records -> {span_file}")
    else:
        setups = min(spec.setups, scale.max_setups or spec.setups)
        driver, target, setup_times, problems = measure(
            spec, scale, speed, built, args.seconds, setups=setups, leak=args.leak
        )
        if problems:
            return report_failure(spec, problems)
        attempted, failed = driver.attempted, driver.failed
        rss = workloads.rss_peak_mib(include_children=spec.kind == "wire")
        metrics = end_to_end(driver, setup_times, rss)
        units = END_TO_END_UNITS
    load_after = os.getloadavg()[0]
    meta = run_metadata(args.seed, built.digest)
    meta.update(load_1m_before=load_before, load_1m_after=load_after)
    print(f"  meta: {json.dumps(meta, sort_keys=True)}")
    print_metrics(metrics, units)
    # End-to-end figures left out of the JSON: 0 by design, or defined
    # on rollout_local only (the JSON carries every metric on every run).
    workload_metrics = {"failed_txn_share": failed / attempted}
    if spec.rollout:
        workload_metrics["rollout_s"] = driver.rollout_s()
        workload_metrics["escalations_per_rollout"] = (
            statistics.mean(driver.rollout_escalations) if driver.rollout_escalations else 0.0
        )
    print_metrics(workload_metrics, WORKLOAD_UNITS)
    raw = sorted(driver.latencies)
    detail = {
        "txn_samples": len(driver.latencies),
        "full_windows": sum(w.full for w in driver.windows),
        "rollouts": len(driver.rollouts),
        "host_slowdown_median": statistics.median(w.slowdown for w in driver.windows),
        "raw_txn_per_s": driver.rate("txns", scaled=False),
        "raw_txn_p50_ms": spans.percentile(raw, 0.50) * 1e3,
        "raw_txn_p99_ms": spans.percentile(raw, 0.99) * 1e3,
    }
    print(f"  detail: {json.dumps(detail, sort_keys=True)}")
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process (RSS and forks stay separate)."""
    status = 0
    for name in workloads.WORKLOADS:
        command = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), *(["--tiny"] if args.tiny else []),
        ]
        proc = subprocess.run(command, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1] if proc.returncode == 0 else lines))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"lockbench {name}: exit {proc.returncode}")
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=("oltp_local", "oltp_wire", "rollout_local"))
    which.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="smoke-test sizes: short stream, 4k-row rollouts, short warm-up",
    )
    parser.add_argument(
        "--leak", action="store_true",
        help="leave one lock held at stop (checks that the leak gate fires)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    os.chdir(ROOT)
    try:
        _import_program()
    except ImportError as exc:
        print(f"lockbench: cannot import the program from {ROOT}/src: {exc}", file=sys.stderr)
        return 2
    return run_all(args) if args.all else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
