#!/usr/bin/env python3
"""Interleaved A/B runs of the lockbench benchmark across two checkouts.

Runs the benchmark command declared in ``BENCHMARK.json`` from a base
checkout (the parent commit) and a change checkout, pair by pair, with
the same workload and seed on both sides and the run length the base's
``BENCHMARK.json`` fixes (``run_seconds``), alternating which
side runs first (the host's speed drifts, so back-to-back blocks of one
side would bias the comparison).  For every workload and metric it
prints each side's median and quartiles, the change's win count (ties
count for neither side), whether the median moved by more than the
base's interquartile range, and -- for end-to-end metrics -- the change
against the regression bound ``BENCHMARK.json`` fixes.

Usage (from the repository root)::

    git archive <parent> | tar -x -C /tmp/parent
    python3 scripts/lockbench_ab.py --base /tmp/parent --change . \\
        --workload oltp_local --pairs 10 --seed 7 --seed 11

``--trace 1`` compares the per-layer metrics instead (no bounds apply).
A run that fails its correctness gate counts as a lost pair for the
change and voids its claim (and as neither a win nor a loss when only
the base failed).
Exit status is 1 when a run fails its correctness gate or an
end-to-end median is worse than its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

WORKLOADS = ("oltp_local", "oltp_wire", "rollout_local")


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile) of ``values``."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0], ordered[0], ordered[0]
    q1, median, q3 = statistics.quantiles(ordered, n=4, method="inclusive")
    return q1, median, q3


@dataclass
class Verdict:
    """How one metric moved between paired base and change runs."""

    #: Pairs run, including those with a failed run.
    pairs: int
    wins: int
    losses: int
    base: Tuple[float, float, float]
    change: Tuple[float, float, float]
    #: change median / base median.
    ratio: float
    #: The median's move in the better direction (metric units).
    gain: float
    #: ``gain`` exceeds the base runs' interquartile range.
    beyond_iqr: bool
    #: At least nine tenths of the pairs won, ``beyond_iqr``, and no
    #: change run failed: the rule a claimed gain must meet.
    claim_met: bool
    bound: Optional[float]
    #: Relative worsening of the median (negative when it improved).
    worse_by: float
    #: "regression" (worse than the bound), "unresolved" (the base
    #: spread is wider than the bound and the change does not beat
    #: every base run), "ok", or "no bound".
    status: str


def verdict(
    base: Sequence[Optional[float]],
    change: Sequence[Optional[float]],
    better: str,
    bound: Optional[float],
) -> Verdict:
    """Judge ``change`` against ``base``; runs pair up by position.

    ``None`` marks a run that failed its correctness gate.  A pair whose
    change run failed is a loss and voids the claim; one where only the
    base failed counts for neither side.  Either way the pair stays in
    ``pairs``, so the claim rule is a share of every pair run.
    Quartiles are over the passing runs.
    """
    if len(base) != len(change) or not base:
        raise ValueError("base and change need the same, non-zero number of runs")
    if better not in ("higher", "lower"):
        raise ValueError(f"better must be 'higher' or 'lower', got {better!r}")
    base_ok = [b for b in base if b is not None]
    change_ok = [c for c in change if c is not None]
    if not base_ok or not change_ok:
        raise ValueError("each side needs at least one passing run")
    sign = 1.0 if better == "higher" else -1.0
    both = [(b, c) for b, c in zip(base, change) if b is not None and c is not None]
    wins = sum(1 for b, c in both if sign * (c - b) > 0)
    losses = sum(1 for b, c in both if sign * (c - b) < 0)
    losses += sum(1 for c in change if c is None)
    bq = quartiles(base_ok)
    cq = quartiles(change_ok)
    gain = sign * (cq[1] - bq[1])
    beyond_iqr = gain > bq[2] - bq[0]
    worse_by = -gain / abs(bq[1]) if bq[1] else 0.0
    if bound is None:
        status = "no bound"
    elif worse_by > bound:
        status = "regression"
    elif bq[1] and (bq[2] - bq[0]) / abs(bq[1]) > bound and not (
        min(sign * c for c in change_ok) > max(sign * b for b in base_ok)
    ):
        status = "unresolved"
    else:
        status = "ok"
    return Verdict(
        pairs=len(base),
        wins=wins,
        losses=losses,
        base=bq,
        change=cq,
        ratio=cq[1] / bq[1] if bq[1] else float("nan"),
        gain=gain,
        beyond_iqr=beyond_iqr,
        claim_met=(
            10 * wins >= 9 * len(base) and beyond_iqr and len(change_ok) == len(change)
        ),
        bound=bound,
        worse_by=worse_by,
        status=status,
    )


def load_metric_specs(benchmark_json: str) -> Dict[str, dict]:
    """Metric name -> its BENCHMARK.json entry (end-to-end and per-layer)."""
    with open(benchmark_json) as fh:
        spec = json.load(fh)
    metrics = {m["name"]: m for m in spec.get("per_layer", [])}
    metrics.update({m["name"]: m for m in spec.get("end_to_end", [])})
    return metrics


def run_once(
    checkout: str, command: List[str], workload: str, seed: int,
    seconds: float, trace: int,
) -> dict:
    """One benchmark run; returns its result JSON (``correct`` False on failure)."""
    argv = [
        *command, "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(
        argv, cwd=checkout, capture_output=True, text=True,
        timeout=max(900.0, 10 * seconds),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    return json.loads(lines[-1])


def judge(runs: List[Tuple[dict, dict]], specs: Dict[str, dict]) -> Dict[str, Verdict]:
    """Verdict per declared metric over every pair (see :func:`verdict`)."""
    sides = [[run[i] if run[i]["correct"] else None for run in runs] for i in (0, 1)]
    if not any(sides[0]) or not any(sides[1]):
        return {}  # a side with no passing run: nothing to compare
    names = next(run for run in sides[0] if run)["metrics"]
    return {
        name: verdict(
            [run["metrics"][name]["value"] if run else None for run in sides[0]],
            [run["metrics"][name]["value"] if run else None for run in sides[1]],
            specs[name]["better"],
            specs[name].get("bound"),
        )
        for name in names
        if name in specs
    }


def report(workload: str, runs: List[Tuple[dict, dict]], verdicts: Dict[str, Verdict]) -> bool:
    """Print one workload's table; returns False on a failure or regression."""
    ok = bool(verdicts)
    print(f"\n== {workload}: {len(runs)} pairs ==")
    for side, index in (("base", 0), ("change", 1)):
        failed = sum(run[index].get("failed", 0) for run in runs)
        broken = sum(1 for run in runs if not run[index]["correct"])
        print(f"  {side}: failed operations {failed}, failed runs {broken}")
        if failed or broken:
            ok = False
    print(
        f"  {'metric':<36} {'base median [q1, q3]':>30} "
        f"{'change median [q1, q3]':>30} {'ratio':>7} {'wins':>6} "
        f"{'>IQR':>5} {'claim':>5}  status"
    )
    for name, v in verdicts.items():
        if v.status == "regression":
            ok = False
        bound = f" (bound {v.bound:.0%}, worse by {v.worse_by:+.1%})" if v.bound is not None else ""
        print(
            f"  {name:<36} {_fmt(v.base):>30} {_fmt(v.change):>30} "
            f"{v.ratio:>7.3f} {v.wins:>3}/{v.pairs:<2} "
            f"{'yes' if v.beyond_iqr else 'no':>5} {'yes' if v.claim_met else 'no':>5}"
            f"  {v.status}{bound}"
        )
    return ok


def _fmt(q: Tuple[float, float, float]) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument(
        "--workload", action="append", choices=WORKLOADS,
        help="workload to run (repeatable; default: all three)",
    )
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument(
        "--seed", type=int, action="append",
        help="seed (repeatable; pair i uses the i-th seed, cycling; default 1)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.pairs <= 0:
        parser.error("--pairs must be positive")
    base_json = os.path.join(args.base, "BENCHMARK.json")
    with open(base_json) as fh:
        spec = json.load(fh)
    command, seconds = spec["command"], spec["run_seconds"]
    specs = load_metric_specs(base_json)
    seeds = args.seed or [1]
    checkouts = {"base": os.path.abspath(args.base), "change": os.path.abspath(args.change)}
    ok = True
    for workload in args.workload or WORKLOADS:
        runs: List[Tuple[dict, dict]] = []
        for i in range(args.pairs):
            seed = seeds[i % len(seeds)]
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            pair: Dict[str, dict] = {}
            for side in order:
                pair[side] = run_once(
                    checkouts[side], command, workload, seed, seconds, args.trace,
                )
                value = pair[side]["metrics"].get("txn_per_s", {}).get("value")
                print(
                    f"  {workload} pair {i + 1}/{args.pairs} seed {seed} {side}: "
                    f"{'txn_per_s %.1f' % value if value is not None else 'done'}",
                    file=sys.stderr, flush=True,
                )
            runs.append((pair["base"], pair["change"]))
        ok = report(workload, runs, judge(runs, specs)) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
