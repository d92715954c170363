"""End-to-end benchmark of the ``repro serve`` solve service.

Run from the root of a checkout::

    python3 servebench/run.py --workload hot_fleet --seed 1 --seconds 30 --trace 0

It launches ``python -m repro serve`` from the checkout's ``src`` tree
as a separate process, primes it, drives the workload's traffic for
``--seconds`` seconds, checks every answer, and prints each metric by
name with its unit.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` reports the per-layer metrics from
``/metrics`` counters over a shorter window plus a traced in-process
replay of the same bodies.  See ``servebench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Server launches per end-to-end run; ``setup_s`` is their median.
SETUP_LAUNCHES = 3


def _percentile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def machine() -> dict:
    import numpy as np

    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpus": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def _span_totals(snapshot: dict, phase: str) -> tuple[int, float]:
    """``(count, sum_s)`` of one span histogram, summed over the process
    and, for a fleet, over every worker."""
    docs = [snapshot, *snapshot.get("workers", {}).values()]
    count, total = 0, 0.0
    for doc in docs:
        for entry in doc.get("spans", {}).values():
            if entry["phase"] == phase:
                count += entry["count"]
                total += entry["sum_s"]
    return count, total


def counter_metrics(before: dict, after: dict, samples) -> dict[str, tuple[float, str]]:
    """Per-layer metrics read as ``/metrics`` deltas over the window and
    from the client's own samples."""

    def delta(section: str, field: str) -> float:
        return float(after[section].get(field, 0) - before[section].get(field, 0))

    def span_mean_ms(phase: str) -> float:
        c0, s0 = _span_totals(before, phase)
        c1, s1 = _span_totals(after, phase)
        return (s1 - s0) / (c1 - c0) * 1e3 if c1 > c0 else 0.0

    router_before = before.get("router", {})
    router_after = after.get("router", {})
    retries = sum(
        router_after.get(field, 0) - router_before.get(field, 0)
        for field in ("retries", "request_retries")
    )
    hits, misses = delta("cache", "hits"), delta("cache", "misses")
    batches = delta("queue", "batches")
    answered = [s for s in samples if s.status == 200]
    return {
        "router.forward_ms": (span_mean_ms("router.forward"), "ms"),
        "router.retries": (float(retries), "count"),
        "cache.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "1"),
        "cache.evictions": (delta("cache", "evictions"), "count"),
        "warmstart.accept_ratio": (
            sum(s.cache == "warm" for s in answered) / len(answered) if answered else 0.0,
            "1",
        ),
        "queue.mean_batch": (delta("queue", "completed") / batches if batches else 0.0, "count"),
        "queue.wait_ms": (span_mean_ms("queue.wait"), "ms"),
        "queue.rejected": (delta("queue", "rejected"), "count"),
        "client.lateness_max_ms": (max((s.lateness_s for s in samples), default=0.0) * 1e3, "ms"),
        "client.request_kb": (statistics.fmean(s.request_bytes for s in samples) / 1e3, "kB"),
        "client.response_kb": (
            statistics.fmean(len(s.payload) for s in answered) / 1e3 if answered else 0.0,
            "kB",
        ),
    }


def end_to_end_metrics(samples, outcomes, wall_s, cpu_s, rss_mib, setups):
    answered = [s for s in samples if s.status == 200]
    interactive = [s.latency_s * 1e3 for s in answered if s.stream == "interactive"]
    bulk = [s.latency_s * 1e3 for s in answered if s.stream == "bulk"] or interactive
    ratios = [ratio for ok, ratio, _ in outcomes if ratio is not None]
    return {
        "throughput_rps": (len(answered) / wall_s, "req/s"),
        "latency_p50_ms": (_percentile(interactive, 50), "ms"),
        "latency_p99_ms": (_percentile(interactive, 99), "ms"),
        "bulk_latency_p50_ms": (_percentile(bulk, 50), "ms"),
        "server_cpu_ms_per_req": (cpu_s * 1e3 / max(1, len(answered)), "ms"),
        "peak_rss_mb": (rss_mib, "MiB"),
        "height_ratio_mean": (statistics.fmean(ratios) if ratios else 0.0, "1"),
        "setup_s": (statistics.median(setups), "s"),
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    import replay as replay_mod
    from service import ServerProcess
    from workloads import WORKLOADS

    # A traced run splits its time between a window read for /metrics
    # deltas and the replay.
    window_s = seconds / 2 if trace else seconds
    workload = WORKLOADS[workload_name](seed, window_s)
    setups = []
    server = None
    try:
        for launch in range(1 if trace else SETUP_LAUNCHES):
            if server is not None:
                server.stop()
            server = ServerProcess(ROOT, workload.serve_args)
            start = time.perf_counter()
            server.start()
            workload.prime(server)
            setups.append(time.perf_counter() - start)
        before = server.metrics()
        cpu0 = server.cpu_s()
        samples, wall_s = workload.window(server)
        cpu_s = server.cpu_s() - cpu0
        rss_mib = server.peak_rss_mib()
        after = server.metrics()
    finally:
        if server is not None:
            server.stop()

    outcomes = workload.check(samples, processes=os.cpu_count() or 1)
    failures = [(s, reason) for s, (ok, _, reason) in zip(samples, outcomes) if not ok]
    for sample, reason in failures[:5]:
        print(f"check failed: {sample.stream} request {sample.index}: {reason}")
    latencies = [s.latency_s for s in samples if s.stream == "interactive" and s.status == 200]
    p99 = _percentile(latencies, 99)
    print(f"samples: {len(samples)} in a {wall_s:.2f} s window, {len(latencies)} interactive "
          f"answered, {sum(latency > p99 for latency in latencies)} beyond their p99")

    if trace:
        metrics = counter_metrics(before, after, samples)
        tracer = replay_mod.replay(
            workload.replay_requests(), fleet=workload.fleet,
            warm_delta=workload.warm_delta, seconds=seconds - window_s,
        )
        tracer.write(HERE / "runs" / f"{workload_name}-seed{seed}.spans.json",
                     {"workload": workload_name, "seed": seed, "machine": machine()})
        metrics.update(tracer.layer_metrics())
    else:
        metrics = end_to_end_metrics(samples, outcomes, wall_s, cpu_s, rss_mib, setups)
    return {
        "correct": not failures,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("hot_fleet", "cold_mixed", "stall_mix", "session_warm"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from service import ServerError

    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ServerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"machine: {json.dumps(machine(), sort_keys=True)}")
    print(f"attempted = {result['attempted']}, failed = {result['failed']}")
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
