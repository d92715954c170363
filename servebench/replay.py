"""Traced replay: each layer's public functions on the workload's bodies.

The replay feeds a workload's generated bodies, in the order the server
saw them, through the same public calls the server makes for a
``/solve`` -- inside this process, with one span per call.  A span is
``(layer, start, end, parent)`` where ``parent`` is the request's
position in the replay; all spans of one request share it.  Every
replayed call is a leaf, so a layer's self time is its span's duration.
Spans stay in memory and are written out when the replay ends.

The server's own request tracing is always on and has no switch, so the
end-to-end runs measure the program as shipped; this replay is separate
from them and its timings never enter an end-to-end metric.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
import time
from pathlib import Path
from typing import Iterable

from repro.core.placement import validate_placement
from repro.core.serialize import (
    instance_from_dict,
    instance_sketch,
    instance_to_dict,
    placement_from_dict,
    result_key,
)
from repro.engine import bound_components, default_algorithm, get_spec, run
from repro.engine.warmstart import try_warm
from repro.service.cache import NeighborIndex, ResultCache
from repro.service.router import HashRing
from repro.service.server import encode_report, parse_json_body

import traffic

#: Timed layers: (span name, metric name, scale to the metric's unit, unit).
TIMED_LAYERS = (
    ("server.parse", "server.parse_ms", 1e3, "ms"),
    ("serialize.instance", "serialize.instance_ms", 1e3, "ms"),
    ("serialize.key", "serialize.key_ms", 1e3, "ms"),
    ("router.ring", "router.ring_us", 1e6, "us"),
    ("cache.get", "cache.get_us", 1e6, "us"),
    ("cache.put", "cache.put_us", 1e6, "us"),
    ("warmstart.sketch", "warmstart.sketch_ms", 1e3, "ms"),
    ("warmstart.nearest", "warmstart.nearest_us", 1e6, "us"),
    ("warmstart.repair", "warmstart.repair_ms", 1e3, "ms"),
    *(
        (f"engine.solve.{name}", f"engine.solve_ms.{name}", 1e3, "ms")
        for name in traffic.COLD_ALGORITHMS
    ),
    ("engine.bounds", "engine.bounds_ms", 1e3, "ms"),
    ("placement.validate", "placement.validate_ms", 1e3, "ms"),
    ("server.encode", "server.encode_ms", 1e3, "ms"),
)

#: Number of workers the replay routes over (``hot_fleet`` runs two).
FLEET_WORKERS = 2


class Tracer:
    """In-memory span list."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []

    def call(self, layer: str, parent: int, fn, *args, **kwargs):
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        self.spans.append((layer, start, time.perf_counter(), parent))
        return out

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(header, spans=[
            {"layer": layer, "start": start, "end": end, "parent": parent}
            for layer, start, end, parent in self.spans
        ])
        path.write_text(json.dumps(doc))

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per timed layer: the median duration per call, the call count,
        and the busy time per replayed request (``0`` for a layer this
        workload's path never calls).  Busy time keeps a few large calls
        visible that the median hides, such as ``stall_mix`` bulk parses."""
        durations: dict[str, list[float]] = {}
        for layer, start, end, _ in self.spans:
            durations.setdefault(layer, []).append(end - start)
        requests = len({parent for *_, parent in self.spans}) or 1
        out = {}
        for layer, metric, scale, unit in TIMED_LAYERS:
            calls = durations.get(layer, [])
            out[metric] = (statistics.median(calls) * scale if calls else 0.0, unit)
            out[f"{layer}.calls"] = (float(len(calls)), "count")
            out[f"{layer}.busy_ms"] = (sum(calls) * 1e3 / requests, "ms")
        return out


def _resolve(tracer: Tracer, rid: int, body: bytes):
    data = tracer.call("server.parse", rid, parse_json_body, body)
    instance = tracer.call("serialize.instance", rid, instance_from_dict, data["instance"])
    algorithm = data.get("algorithm")
    name = get_spec(algorithm).name if algorithm is not None else default_algorithm(instance)
    params = data.get("params")
    key = tracer.call("serialize.key", rid, result_key, instance, name, params)
    return key, name, params, instance


def _warm(tracer, rid, cache, neighbors, key, name, params, instance, delta, state):
    """The server's warm-start attempt; the payload, or ``None``."""
    sketch = tracer.call("warmstart.sketch", rid, instance_sketch, instance)
    bucket = key.split("|", 1)[1]
    state.update(sketch=sketch, bucket=bucket)
    found = tracer.call(
        "warmstart.nearest", rid, neighbors.nearest, bucket=bucket, sketch=sketch, exclude=key
    )
    if found is None:
        return None
    neighbor_key, neighbor_dict = found
    cached = cache.get_memory(neighbor_key)
    if cached is None:
        return None
    neighbor = instance_from_dict(neighbor_dict)
    placement = placement_from_dict(json.loads(cached)["placement"], neighbor)
    report = tracer.call(
        "warmstart.repair", rid, try_warm, instance, name, params=params,
        neighbor=(neighbor, placement), delta=delta,
    )
    if report is None:
        return None
    return tracer.call("server.encode", rid, encode_report, report)


def replay(bodies: Iterable[bytes], *, fleet: bool, warm_delta: float | None,
           seconds: float) -> Tracer:
    """Replay ``bodies`` in order until they run out or ``seconds`` pass."""
    tracer = Tracer()
    cache = ResultCache()
    ring = HashRing(range(FLEET_WORKERS))
    neighbors = NeighborIndex() if warm_delta is not None else None
    deadline = time.perf_counter() + seconds
    for rid, body in enumerate(bodies):
        if time.perf_counter() >= deadline:
            break
        if fleet:
            # The router resolves the body to route it; the worker resolves it again.
            key, *_ = _resolve(tracer, rid, body)
            tracer.call("router.ring", rid, ring.preference, key)
        key, name, params, instance = _resolve(tracer, rid, body)
        if tracer.call("cache.get", rid, cache.get, key) is not None:
            continue
        state: dict = {}
        payload = None
        if neighbors is not None:
            payload = _warm(tracer, rid, cache, neighbors, key, name, params,
                            instance, warm_delta, state)
        if payload is None:
            report = tracer.call(
                f"engine.solve.{name}", rid, run, instance, name, params=params,
                validate=False, compute_bounds=False,
            )
            bounds = tracer.call("engine.bounds", rid, bound_components, instance)
            tracer.call("placement.validate", rid, validate_placement, instance, report.placement)
            report = dataclasses.replace(
                report, lower_bound=max(bounds.values()), bounds=bounds, valid=True
            )
            payload = tracer.call("server.encode", rid, encode_report, report)
        tracer.call("cache.put", rid, cache.put, key, payload)
        if neighbors is not None:
            neighbors.add(key, bucket=state["bucket"], sketch=state["sketch"],
                          instance=instance_to_dict(instance))
    return tracer
