#!/usr/bin/env python3
"""Run one benchmark workload for a fixed time and print every metric.

    python3 perfbench/run.py --workload kv_zipf --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The workload is repeated with the same seed until ``--seconds`` have
passed, each repetition on a fresh deployment, and every repetition's
outputs are checked against an oracle. Before each repetition the
process moves to whichever CPU runs a short probe fastest.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics, the tracing overhead and the share of traced wall
time the layer spans cover; the first spans of the last traced
repetition are written to ``perfbench/out/``.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. A run whose outputs fail a check reports ``correct: false``
with every metric value ``null`` and exits with status 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOAD_NAMES = ("kv_zipf", "rpc_shuffle", "tenant_replay")
#: Spans written out per traced run (the full set stays in memory).
SPANS_WRITTEN = 50_000
#: Items per timed chunk of a throughput (about a millisecond of work).
CHUNK = 100


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _probe() -> float:
    """Seconds for a fixed slice of interpreter work (best of three)."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        table: Dict[int, int] = {}
        for i in range(20_000):
            table[i & 1023] = table.get(i & 1023, 0) + i
        best = min(best, time.perf_counter() - start)
    return best


def pin_to_fastest_cpu(cpus) -> None:
    """Run the next repetition on whichever allowed CPU is fastest now.

    On a shared host each virtual CPU slows down for seconds at a time
    when its neighbour is busy, and not always both at once.
    """
    if len(cpus) < 2:
        return
    speeds = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        speeds[cpu] = _probe()
    os.sched_setaffinity(0, {min(speeds, key=speeds.get)})


def chunk_seconds(stream, size: int) -> List[float]:
    """Wall seconds of consecutive chunks of at least ``size`` items.

    ``stream`` is one repetition's marks, starting with a mark of 0
    items; a last, shorter chunk is kept.
    """
    seconds = []
    start, items = stream[0][0], 0
    for at, count in stream[1:]:
        items += count
        if items >= size:
            seconds.append(at - start)
            start, items = at, 0
    if items:
        seconds.append(stream[-1][0] - start)
    return seconds


def fastest(columns: List[List[float]]) -> List[float]:
    """Per position, the smallest value any repetition recorded."""
    if len({len(c) for c in columns}) != 1:
        raise RuntimeError("repetitions did different amounts of work")
    return [min(values) for values in zip(*columns)]


def end_to_end(reps) -> Dict[str, float]:
    """The run's end-to-end metrics from its untraced repetitions.

    Every repetition does the same work in the same order, so each chunk
    of ``CHUNK`` items, and each single op, is timed once per repetition.
    A wall metric takes each chunk's or op's fastest time across the
    repetitions: on a shared 2-vCPU host a CPU slows down by up to about
    1.7x for seconds at a time when a neighbour is busy, which a median
    carries into the result whenever a run is unlucky, while the fastest
    time of every piece of work keeps costs that recur in every
    repetition, such as a split migration or a collector pass, and drops
    the slowdowns.
    Set-up time is the median over repetitions; sim metrics are the same
    in every repetition.
    """
    from perfbench.metrics import percentile

    values = {
        "setup_s": statistics.median(r.setup_s for r in reps),
        "sim_s": statistics.median(r.sim_s for r in reps),
        "utilization": statistics.median(r.utilization for r in reps),
    }
    for name, stream, items in (
        ("bulk_items_per_s", "bulk", reps[0].bulk_items),
        ("ops_per_s", "ops", reps[0].ops),
    ):
        chunks = fastest([chunk_seconds(r.marks[stream], CHUNK) for r in reps])
        values[name] = items / sum(chunks)
    for kind in ("read", "write"):
        latencies = fastest([r.latencies[kind] for r in reps])
        for q in (50, 99):
            values[f"{kind}_p{q}_us"] = percentile(latencies, q) * 1e6
    return values


def layer_values(rep, recorder) -> Dict[str, float]:
    """One traced repetition's per-layer metrics, before the overhead."""
    from perfbench.metrics import LAYER_COUNTS
    from perfbench.tracing import LAYERS, layer_totals, root_coverage

    spans = recorder.spans()
    totals = layer_totals(spans)
    values = {m.name: 0.0 for m in LAYER_COUNTS}
    values.update(rep.counts)
    for layer in LAYERS:
        calls, self_s = totals.get(layer, (0, 0.0))
        values[f"{layer}.calls"] = calls
        values[f"{layer}.self_s"] = self_s
    values["blocks.peak_allocated"] = recorder.peak_allocated
    values["replication.writes_acked"] = recorder.writes_acked
    values["telemetry.lookups_per_op"] = recorder.lookups / rep.attempted
    values["trace.coverage"] = root_coverage(spans, rep.measured_s)
    return values


def layers(plain, traced, per_rep: List[Dict[str, float]]) -> Dict[str, float]:
    """Medians over traced repetitions, plus the tracing overhead."""
    values = {name: statistics.median(v[name] for v in per_rep) for name in per_rep[0]}
    values["trace.overhead_frac"] = (
        statistics.median(rep.measured_s for rep in traced)
        / statistics.median(rep.measured_s for rep in plain)
        - 1.0
    )
    return values


def report(workload: str, reps, values: Dict[str, float], metrics, extra=()) -> None:
    """Print every metric by name with unit, clock and meaning."""
    from perfbench.metrics import MEANING

    meaning = MEANING.get(workload, {})
    print(f"workload {workload}: {len(reps)} repetition(s)")
    for kind in ("read", "write"):
        n = sum(len(r.latencies[kind]) for r in reps)
        print(f"  {kind} latency samples: {n}, {n // len(reps)} per repetition")
    for title, group in (("", metrics), ("  printed, not gated:", extra)):
        if group and title:
            print(title)
        for metric in group:
            print(
                f"  {metric.name:40s} {values[metric.name]:14.6g} {metric.unit:6s} "
                f"[{metric.clock}] {meaning.get(metric.name, '')}"
            )


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("error: src/repro is not in this checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.metrics import END_TO_END, TAILS, per_layer
    from perfbench.tracing import Instrumentation, SpanRecorder
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    plain, traced, traced_values = [], [], []
    recorder = None
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    deadline = time.perf_counter() + args.seconds
    while True:
        # Start every repetition without the previous one's garbage.
        gc.collect()
        pin_to_fastest_cpu(cpus)
        plain.append(workload(args.seed))
        if args.trace:
            recorder = None  # free the previous traced repetition's spans
            gc.collect()
            pin_to_fastest_cpu(cpus)
            recorder = SpanRecorder()
            with Instrumentation(recorder):
                traced.append(workload(args.seed, recorder))
            traced_values.append(layer_values(traced[-1], recorder))
        if time.perf_counter() >= deadline:
            break

    reps = plain + traced
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    correct = all(not r.errors for r in reps)
    metrics = per_layer() if args.trace else list(END_TO_END)
    if correct:
        if args.trace:
            values = layers(plain, traced, traced_values)
            report(args.workload, plain, values, metrics)
        else:
            values = end_to_end(plain)
            report(args.workload, plain, values, metrics, TAILS)
    else:
        for rep in reps:
            for error in rep.errors:
                print(f"check failed: {error}", file=sys.stderr)
    if recorder is not None:
        out = os.path.join(ROOT, "perfbench", "out")
        os.makedirs(out, exist_ok=True)
        path = os.path.join(out, f"spans-{args.workload}-{args.seed}.jsonl")
        written = recorder.write_jsonl(path, SPANS_WRITTEN)
        print(f"  wrote {written} spans to {os.path.relpath(path, ROOT)}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m.name: {"value": values[m.name] if correct else None, "unit": m.unit}
            for m in metrics
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
