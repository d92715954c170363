"""Async JSON-over-HTTP solve server (stdlib only).

One :class:`SolveServer` wires the serving layers together: requests come
in over a hand-rolled HTTP/1.1 front-end (``asyncio.start_server`` — no
third-party web framework, per the repo's no-new-deps rule), solve traffic
flows ``client → queue → micro-batcher → Executor → cache → response``,
and operational state is always one ``GET /metrics`` away.

The HTTP machinery lives in :class:`HttpServerBase` so the sharded
front-end (:class:`repro.service.router.RouterServer`) speaks the same
wire protocol with the same error mapping and the same metrics shapes —
``SolveServer`` is "the worker" and the router is "the fleet", but a
client cannot tell them apart.

Endpoints
---------
``POST /solve``
    Body ``{"instance": {...}, "algorithm"?: str, "params"?: {...}}``
    (instance format: :mod:`repro.core.serialize`).  Responds with the
    serialised :class:`~repro.engine.report.SolveReport` + placement.  The
    ``X-Repro-Cache: hit | coalesced | warm | miss`` header says whether
    the content-addressed cache served it, a concurrent in-flight solve of
    the same key was joined, a warm-start repair of a cached neighbor
    placement answered (``warm_delta`` opt-in, see
    :mod:`repro.engine.warmstart`), or this request triggered a cold
    solve; ``hit``/``coalesced`` return the exact bytes of the original
    answer.
``POST /portfolio``
    Body ``{"instance": {...}, "algorithms"?: [str], "params"?: {...}}``.
    Races the entrants via :func:`repro.engine.portfolio` off the event
    loop and responds with the winner plus every entrant's summary.
``POST /session`` / ``POST /session/{id}/step`` / ``DELETE /session/{id}``
    Long-lived solve sessions for online traffic.  ``POST /session``
    (body ``{"algorithm"?: str, "params"?: {...}}``) registers per-session
    solve defaults and returns ``{"session": {...}}``; each *step* posts
    ``{"instance": {...}}`` and is answered exactly like ``/solve`` with
    the session's defaults merged in.  Session state is *soft*: a step
    for an unknown id (re)creates it from the step body, which is what
    lets the router migrate a session to a ring successor mid-stream
    after a worker crash without losing a step.  Creating sessions is
    refused with 503 once a drain began (teardown-aware), existing
    sessions may finish their in-flight steps.
``GET /healthz``
    Liveness: ``{"status": "ok", "version": ..., "uptime_s": ...}``.
``GET /metrics``
    Queue depth and batch counters, cache hit/miss/eviction counters,
    request counts by endpoint/status/algorithm, and p50/p95/mean
    latency.  JSON by default; ``Accept: text/plain`` negotiates the
    Prometheus text exposition format instead.

Error mapping: malformed JSON → 400; invalid instance, unknown algorithm,
or a failed solve → 422; full request queue → 503 (with ``Retry-After``);
unknown path → 404; unsupported method → 405; oversized body → 413.  The
body of every error is ``{"error": "..."}``.

:class:`InProcessServer` runs any server with the ``start``/``close``
lifecycle on a daemon thread with its own event loop — the harness behind
``repro loadtest``'s default target, the ``service_throughput`` /
``service_scaling`` benches, and the test suite.
"""

from __future__ import annotations

import asyncio
import hmac
import json
import re
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from http import HTTPStatus
from pathlib import Path
from typing import Any, Mapping

from ..core.errors import InvalidInstanceError, ReproError
from ..core.serialize import (
    instance_from_dict,
    instance_sketch,
    instance_to_dict,
    placement_from_dict,
    placement_to_dict,
    result_key,
)
from ..obs import get_logger, recorder
from ..obs.spans import histogram_samples
from ..obs.trace import (
    TENANT_HEADER,
    TRACE_HEADER,
    current_trace,
    parse_trace_header,
    reset_current,
    set_current,
)
from .cache import DEFAULT_CACHE_BYTES, NeighborIndex, ResultCache
from .faults import FaultInjector, FaultPlan, as_injector
from .queue import BackpressureError, MicroBatcher

__all__ = [
    "HttpServerBase",
    "SolveServer",
    "InProcessServer",
    "ServiceMetrics",
    "encode_report",
    "prometheus_samples",
    "render_prometheus",
]

#: Largest accepted request body (a ~100k-rect instance is ~10 MB).
MAX_BODY_BYTES = 32 * 1024 * 1024

#: Most header lines one request may carry (no legitimate client nears it).
MAX_HEADERS = 128

_JSON_HEADERS = {"Content-Type": "application/json"}

#: Content type of the Prometheus text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Internal-hop headers: the router's resolved ``result_key`` for a
#: ``/solve`` or ``/portfolio`` body, and the per-fleet token that makes a
#: worker trust it.  A request without the right token is resolved as if
#: it came from any other client.
KEY_HEADER = "X-Repro-Key"
TOKEN_HEADER = "X-Repro-Route-Token"


def encode_report(report) -> bytes:
    """Serialise one ``SolveReport`` (+ placement) into response bytes.

    This is the cache value and the wire format in one: deterministic JSON
    (sorted keys, no whitespace), so repeated cache hits are byte-identical
    and every deterministic field matches a direct ``engine.run()`` —
    ``wall_time`` alone is measured per solve rather than derived.
    """
    payload = {
        "report": report.to_dict(),
        "placement": (
            placement_to_dict(report.placement) if report.placement is not None else None
        ),
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


class _BadRequest(Exception):
    """Maps to an HTTP error response (status + one-line message)."""

    def __init__(self, status: HTTPStatus, message: str) -> None:
        super().__init__(message)
        self.status = status


class ServiceMetrics:
    """Request counters and latency reservoirs for ``GET /metrics``.

    Latencies are kept in bounded deques (last ``maxlen`` requests) per
    endpoint; percentiles are computed on read with the bench subsystem's
    :func:`~repro.bench.runner.percentile`, so ``/metrics`` and
    ``BENCH_*.json`` artifacts report the same statistic.
    """

    def __init__(self, maxlen: int = 2048) -> None:
        self._lock = threading.Lock()
        self._started = time.monotonic()
        self._by_endpoint: dict[str, int] = {}
        self._by_status: dict[str, int] = {}
        self._by_algorithm: dict[str, int] = {}
        self._latencies: dict[str, deque[float]] = {}
        self._maxlen = maxlen

    def record(self, endpoint: str, status: int, latency_s: float | None) -> None:
        """Count one response; ``latency_s=None`` counts without a sample
        (unparseable requests have no meaningful latency, and zeros would
        drag the aggregate percentiles toward 0)."""
        with self._lock:
            self._by_endpoint[endpoint] = self._by_endpoint.get(endpoint, 0) + 1
            key = str(int(status))
            self._by_status[key] = self._by_status.get(key, 0) + 1
            if latency_s is not None:
                self._latencies.setdefault(endpoint, deque(maxlen=self._maxlen)).append(
                    latency_s
                )

    def count_algorithm(self, name: str) -> None:
        """Count one resolved ``/solve`` by algorithm (Prometheus label)."""
        with self._lock:
            self._by_algorithm[name] = self._by_algorithm.get(name, 0) + 1

    @property
    def uptime_s(self) -> float:
        return time.monotonic() - self._started

    @staticmethod
    def _latency_summary(samples: list[float]) -> dict[str, float | int]:
        from ..bench.runner import percentile

        if not samples:
            return {"count": 0}
        return {
            "count": len(samples),
            "p50_ms": percentile(samples, 50.0) * 1e3,
            "p95_ms": percentile(samples, 95.0) * 1e3,
            "mean_ms": sum(samples) / len(samples) * 1e3,
            "max_ms": max(samples) * 1e3,
        }

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            by_endpoint = dict(self._by_endpoint)
            by_status = dict(self._by_status)
            by_algorithm = dict(self._by_algorithm)
            per_endpoint = {k: list(v) for k, v in self._latencies.items()}
        all_samples = [s for samples in per_endpoint.values() for s in samples]
        return {
            "uptime_s": self.uptime_s,
            "requests": {
                "total": sum(by_endpoint.values()),
                "by_endpoint": by_endpoint,
                "by_status": by_status,
                "by_algorithm": by_algorithm,
            },
            "latency": self._latency_summary(all_samples),
            "endpoints": {
                name: self._latency_summary(samples)
                for name, samples in sorted(per_endpoint.items())
            },
        }


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------

#: (metric name, type) pairs the snapshot converter can emit.
_PROM_TYPES = {
    "repro_uptime_seconds": "gauge",
    "repro_requests_total": "counter",
    "repro_responses_total": "counter",
    "repro_solves_total": "counter",
    "repro_request_latency_milliseconds": "gauge",
    "repro_queue_depth": "gauge",
    "repro_queue_submitted_total": "counter",
    "repro_queue_completed_total": "counter",
    "repro_queue_rejected_total": "counter",
    "repro_queue_batches_total": "counter",
    "repro_cache_hits_total": "counter",
    "repro_cache_misses_total": "counter",
    "repro_cache_evictions_total": "counter",
    "repro_cache_spills_total": "counter",
    "repro_cache_spill_hits_total": "counter",
    "repro_cache_corruptions_total": "counter",
    "repro_cache_entries": "gauge",
    "repro_cache_bytes": "gauge",
    "repro_cache_warm_hits_total": "counter",
    "repro_sessions_active": "gauge",
    "repro_sessions_created_total": "counter",
    "repro_session_steps_total": "counter",
    "repro_workers_total": "gauge",
    "repro_workers_alive": "gauge",
    "repro_worker_restarts_total": "counter",
    "repro_router_retries_total": "counter",
    "repro_retries_total": "counter",
    "repro_faults_injected_total": "counter",
    # Span-duration histograms (repro.obs.spans): the conventional
    # histogram series emitted as three explicit counter families.
    "repro_span_duration_seconds_bucket": "counter",
    "repro_span_duration_seconds_sum": "counter",
    "repro_span_duration_seconds_count": "counter",
}

#: One metrics sample: (metric name, labels, value).
Sample = tuple[str, dict, float]


def prometheus_samples(
    snapshot: Mapping[str, Any], labels: Mapping[str, str] | None = None
) -> list[Sample]:
    """Flatten one server metrics snapshot into Prometheus samples.

    ``labels`` (e.g. ``{"worker": "0"}``) are merged into every sample so
    the router can expose per-worker series next to its own aggregates.
    """
    base = dict(labels or {})
    out: list[Sample] = []

    def add(name: str, value, **extra) -> None:
        if value is not None:
            out.append((name, {**base, **extra}, float(value)))

    add("repro_uptime_seconds", snapshot.get("uptime_s"))
    kernel = snapshot.get("kernel")
    if kernel:
        # Info-pattern gauge: constant 1, the tier rides in the labels.
        add(
            "repro_kernel_tier",
            1,
            tier=kernel.get("active", "array"),
            requested=kernel.get("requested", "auto"),
        )
    requests = snapshot.get("requests", {})
    for endpoint, count in sorted(requests.get("by_endpoint", {}).items()):
        add("repro_requests_total", count, endpoint=endpoint)
    for status, count in sorted(requests.get("by_status", {}).items()):
        add("repro_responses_total", count, status=status)
    for algorithm, count in sorted(requests.get("by_algorithm", {}).items()):
        add("repro_solves_total", count, algorithm=algorithm)
    for endpoint, summary in sorted(snapshot.get("endpoints", {}).items()):
        for quantile, key in (("0.5", "p50_ms"), ("0.95", "p95_ms")):
            add(
                "repro_request_latency_milliseconds",
                summary.get(key),
                endpoint=endpoint,
                quantile=quantile,
            )
    queue = snapshot.get("queue", {})
    add("repro_queue_depth", queue.get("depth"))
    for field in ("submitted", "completed", "rejected", "batches"):
        add(f"repro_queue_{field}_total", queue.get(field))
    cache = snapshot.get("cache", {})
    for field in ("hits", "misses", "evictions", "spills", "spill_hits", "corruptions"):
        add(f"repro_cache_{field}_total", cache.get(field))
    add("repro_cache_entries", cache.get("entries"))
    add("repro_cache_bytes", cache.get("bytes"))
    add("repro_cache_warm_hits_total", cache.get("warm_hits"))
    sessions = snapshot.get("sessions", {})
    add("repro_sessions_active", sessions.get("active"))
    add("repro_sessions_created_total", sessions.get("created"))
    add("repro_session_steps_total", sessions.get("steps"))
    add("repro_faults_injected_total", snapshot.get("faults", {}).get("injected"))
    spans = snapshot.get("spans")
    if spans:
        out.extend(histogram_samples(spans, base))
    return out


def render_prometheus(samples: list[Sample]) -> bytes:
    """Render samples into the text exposition format (one ``# TYPE`` line
    per metric name, emitted before its first sample)."""
    lines: list[str] = []
    typed: set[str] = set()
    for name, labels, value in samples:
        if name not in typed:
            lines.append(f"# TYPE {name} {_PROM_TYPES.get(name, 'gauge')}")
            typed.add(name)
        if labels:
            rendered = ",".join(
                f'{k}="{str(v).replace(chr(92), chr(92) * 2).replace(chr(34), chr(92) + chr(34))}"'
                for k, v in sorted(labels.items())
            )
            lines.append(f"{name}{{{rendered}}} {value:g}")
        else:
            lines.append(f"{name} {value:g}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def _wants_prometheus(headers: Mapping[str, str]) -> bool:
    """Content negotiation for ``GET /metrics``: JSON unless the client
    asks for ``text/plain`` (the Prometheus scrape default)."""
    accept = headers.get("accept", "")
    return "text/plain" in accept and "application/json" not in accept.split(";")[0]


# ----------------------------------------------------------------------
# request resolution (shared by the worker server and the router)
# ----------------------------------------------------------------------

def request_span(name: str, **labels: str):
    """Time a ``with`` block as span ``name`` of the ambient request trace."""
    ctx = current_trace()
    return recorder().span(
        ctx.trace_id if ctx else None,
        name,
        tenant=ctx.tenant if ctx else "default",
        **labels,
    )


def parse_json_body(body: bytes) -> dict[str, Any]:
    try:
        data = json.loads(body or b"null")
    except json.JSONDecodeError as exc:
        raise _BadRequest(HTTPStatus.BAD_REQUEST, f"malformed JSON body: {exc}")
    except RecursionError:
        # ``[[[[...`` deeper than the interpreter's recursion limit.
        raise _BadRequest(HTTPStatus.BAD_REQUEST, "malformed JSON body: nested too deeply")
    if not isinstance(data, dict):
        raise _BadRequest(HTTPStatus.BAD_REQUEST, "request body must be a JSON object")
    return data


def _parse_instance(data: dict[str, Any]):
    if "instance" not in data:
        raise _BadRequest(HTTPStatus.BAD_REQUEST, "missing 'instance' field")
    try:
        return instance_from_dict(data["instance"])
    except (ReproError, KeyError, TypeError, ValueError, OverflowError) as exc:
        # OverflowError: a dimension or K too large for a float or an int.
        raise _BadRequest(HTTPStatus.UNPROCESSABLE_ENTITY, f"invalid instance: {exc}")


def resolve_solve_request(data: dict[str, Any]):
    """Validate a ``/solve`` body into ``(key, name, params, instance)``.

    The router and the worker both run this, so the content-addressed
    ``result_key`` that routes a request over the hash ring is the same
    key the worker's cache and in-flight coalescing use — routing is
    key-affine by construction.
    """
    instance = _parse_instance(data)
    algorithm = data.get("algorithm")
    if algorithm is not None and not isinstance(algorithm, str):
        raise _BadRequest(HTTPStatus.BAD_REQUEST, "'algorithm' must be a string")
    params = data.get("params")
    if params is not None and not isinstance(params, dict):
        raise _BadRequest(HTTPStatus.BAD_REQUEST, "'params' must be an object")
    from ..engine import default_algorithm, get_spec

    try:
        # Resolve the per-variant default up front so explicit and
        # defaulted requests for the same solve share one cache entry.
        # Only an *absent* algorithm means "default": an explicit ""
        # is a client bug and must fail loudly, not solve silently.
        name = (
            get_spec(algorithm).name
            if algorithm is not None
            else default_algorithm(instance)
        )
        key = result_key(instance, name, params)
    except ReproError as exc:
        raise _BadRequest(HTTPStatus.UNPROCESSABLE_ENTITY, str(exc))
    return key, name, params, instance


def resolve_portfolio_request(data: dict[str, Any]):
    """Validate a ``/portfolio`` body into ``(key, instance, algorithms,
    params)`` — same contract as :func:`resolve_solve_request`."""
    instance = _parse_instance(data)
    algorithms = data.get("algorithms")
    params = data.get("params")
    if algorithms is not None and (
        not isinstance(algorithms, list)
        or not all(isinstance(a, str) for a in algorithms)
    ):
        raise _BadRequest(HTTPStatus.BAD_REQUEST, "'algorithms' must be a list of names")
    if params is not None and not isinstance(params, dict):
        raise _BadRequest(HTTPStatus.BAD_REQUEST, "'params' must be an object")
    key = result_key(instance, "portfolio", {"algorithms": algorithms, "params": params})
    return key, instance, algorithms, params


class HttpServerBase:
    """The stdlib HTTP/1.1 front-end shared by worker and router servers.

    Subclasses define ``ROUTES``/``ENDPOINTS`` plus the handler
    coroutines (``handler(body, headers) -> (status, extra_headers,
    payload)``) and may hook the lifecycle:

    * :meth:`_before_bind` — async setup that must precede accepting
      traffic (the router spawns its worker fleet here);
    * :meth:`_after_bind` — sync setup tied to a successful bind (the
      worker server starts its micro-batcher here, so a failed bind
      leaks no thread).

    Graceful drain support: :meth:`begin_drain` stops keep-alive reuse,
    and :meth:`drain_requests` awaits in-flight dispatches.
    """

    #: (method, path) -> handler name; also the metrics cardinality bound.
    ROUTES: dict[tuple[str, str], str] = {}
    ENDPOINTS: frozenset[str] = frozenset()
    #: Path-parameterised routes: (method, compiled pattern, handler name,
    #: endpoint label).  The label replaces the raw path in metrics, so
    #: ``/session/<anything>/step`` is one bounded series, not one per id.
    DYNAMIC_ROUTES: tuple[tuple[str, "re.Pattern[str]", str, str], ...] = ()

    #: Name of the per-request root span (the router overrides it, so a
    #: merged trace distinguishes the front-door hop from the worker hop).
    SPAN_ROOT = "server.request"

    def __init__(self) -> None:
        self.metrics = ServiceMetrics()
        self.host: str | None = None
        self.port: int | None = None
        self._active_requests = 0
        self._draining = False

    # -- lifecycle ------------------------------------------------------

    async def _before_bind(self) -> None:
        """Async setup that must complete before the listener binds."""

    def _after_bind(self) -> None:
        """Sync setup tied to a successful bind."""

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> asyncio.Server:
        """Bind and start serving; returns the listening ``asyncio.Server``.

        ``port=0`` binds an ephemeral port; the chosen one is on
        ``self.port``.  Bind failures (port in use, bad host) propagate as
        ``OSError`` for the CLI to map to exit code 2.
        """
        await self._before_bind()
        server = await asyncio.start_server(self._handle_client, host, port)
        self._after_bind()
        sockname = server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return server

    async def serve(
        self, host: str = "127.0.0.1", port: int = 8080, *, ready=None
    ) -> None:
        """Run until cancelled (the ``repro serve`` entry point)."""
        server = await self.start(host, port)
        if ready is not None:
            ready(self)
        try:
            async with server:
                await server.serve_forever()
        finally:
            self.close()

    def close(self) -> None:
        """Release resources (idempotent); overridden by subclasses."""

    def close_connections(self) -> None:
        """Close outbound pooled connections (idempotent; loop thread).

        Runs while the event loop is still alive, so the transports
        actually shut; :meth:`close` may run after the loop is gone.
        """

    def begin_drain(self) -> None:
        """Stop keep-alive reuse: every in-flight response closes its
        connection, so drained clients reconnect elsewhere (or get
        connection-refused once the listener is down)."""
        self._draining = True

    async def drain_requests(self, timeout: float = 30.0) -> None:
        """Wait until no request is inside a handler (or ``timeout``)."""
        deadline = time.monotonic() + timeout
        while self._active_requests > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.01)

    # -- HTTP front-end --------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one connection, keep-alive until EOF or ``Connection: close``."""
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _BadRequest as exc:
                    # The request head itself is unacceptable (garbled
                    # line, oversized body): answer once, then close —
                    # the stream position is no longer trustworthy.
                    status, headers, payload = self._error(exc.status, str(exc))
                    self.metrics.record("unparsed", status, None)
                    await self._write_response(writer, status, payload, headers, False)
                    break
                if request is None:
                    break
                method, path, headers, body = request
                t0 = time.monotonic()
                # Front door of the trace: adopt the propagated context
                # (router -> worker) or mint a fresh one, and make it
                # ambient for everything _dispatch awaits or executes.
                ctx = parse_trace_header(
                    headers.get(TRACE_HEADER.lower()),
                    tenant=headers.get(TENANT_HEADER.lower()),
                )
                token = set_current(ctx)
                self._active_requests += 1
                try:
                    status, extra_headers, payload = await self._dispatch(
                        method, path, headers, body
                    )
                finally:
                    self._active_requests -= 1
                    reset_current(token)
                latency_s = time.monotonic() - t0
                # Unmatched paths share one metrics key, so a client
                # probing random URLs cannot grow the endpoint table.
                endpoint = self._endpoint_label(path)
                self.metrics.record(endpoint, status, latency_s)
                recorder().record(
                    ctx.trace_id,
                    self.SPAN_ROOT,
                    t0,
                    latency_s,
                    tenant=ctx.tenant,
                    endpoint=endpoint,
                )
                extra_headers = {**extra_headers, TRACE_HEADER: ctx.header_value()}
                event_fields = {
                    "trace": ctx.trace_id,
                    "endpoint": endpoint,
                    "status": int(status),
                    "latency_ms": round(latency_s * 1e3, 3),
                    "tenant": ctx.tenant,
                }
                cache_disposition = extra_headers.get("X-Repro-Cache")
                if cache_disposition is not None:
                    event_fields["cache"] = cache_disposition
                get_logger().event(
                    "request", logger="repro.service.request", **event_fields
                )
                keep_alive = (
                    headers.get("connection", "keep-alive").lower() != "close"
                    and not self._draining
                )
                await self._write_response(
                    writer, status, payload, extra_headers, keep_alive
                )
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            # A truncated request or a vanished client: drop the
            # connection; there is no well-formed request to answer.
            # (Handler-side failures never reach here — _dispatch maps
            # them to 4xx/500 responses.)
            pass
        except asyncio.CancelledError:
            # Only server teardown cancels connection handlers; finish
            # normally so the streams machinery doesn't log the cancel.
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (
                ConnectionResetError,
                BrokenPipeError,
                asyncio.CancelledError,
            ):  # pragma: no cover
                pass

    @staticmethod
    async def _readline(reader: asyncio.StreamReader) -> bytes:
        """One protocol line; an over-limit line (StreamReader raises
        ``ValueError`` past its 64 KiB default) becomes a 400."""
        try:
            return await reader.readline()
        except ValueError:
            raise _BadRequest(HTTPStatus.BAD_REQUEST, "header line too long")

    @classmethod
    async def _read_request(
        cls, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict[str, str], bytes] | None:
        line = await cls._readline(reader)
        if not line or line in (b"\r\n", b"\n"):
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3:
            raise _BadRequest(HTTPStatus.BAD_REQUEST, "malformed request line")
        method, target, _version = parts
        headers: dict[str, str] = {}
        while True:
            header = await cls._readline(reader)
            if header in (b"\r\n", b"\n", b""):
                break
            if len(headers) >= MAX_HEADERS:
                raise _BadRequest(
                    HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                    f"more than {MAX_HEADERS} header fields",
                )
            name, _, value = header.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        if "chunked" in headers.get("transfer-encoding", "").lower():
            # No chunked decoding here; misparsing the chunk stream as the
            # next request would desync the connection, so say what we need.
            raise _BadRequest(
                HTTPStatus.LENGTH_REQUIRED,
                "chunked transfer encoding is not supported; send Content-Length",
            )
        raw_length = headers.get("content-length", "0") or "0"
        try:
            length = int(raw_length)
        except ValueError:
            raise _BadRequest(HTTPStatus.BAD_REQUEST, f"bad Content-Length: {raw_length!r}")
        if length < 0:
            raise _BadRequest(HTTPStatus.BAD_REQUEST, f"bad Content-Length: {raw_length!r}")
        if length > MAX_BODY_BYTES:
            raise _BadRequest(
                HTTPStatus.REQUEST_ENTITY_TOO_LARGE,
                f"body of {length} bytes exceeds the {MAX_BODY_BYTES} limit",
            )
        body = await reader.readexactly(length) if length else b""
        return method.upper(), target.split("?", 1)[0], headers, body

    @staticmethod
    async def _write_response(
        writer: asyncio.StreamWriter,
        status: int,
        payload: bytes,
        extra_headers: Mapping[str, str],
        keep_alive: bool,
    ) -> None:
        reason = HTTPStatus(status).phrase
        headers = {
            **_JSON_HEADERS,
            "Content-Length": str(len(payload)),
            "Connection": "keep-alive" if keep_alive else "close",
            **extra_headers,
        }
        head = f"HTTP/1.1 {status} {reason}\r\n" + "".join(
            f"{k}: {v}\r\n" for k, v in headers.items()
        )
        writer.write(head.encode("latin-1") + b"\r\n" + payload)
        await writer.drain()

    # -- routing ----------------------------------------------------------

    def _endpoint_label(self, path: str) -> str:
        """The bounded metrics key for ``path`` (dynamic routes collapse
        onto their label, everything unknown onto ``"unmatched"``)."""
        if path in self.ENDPOINTS:
            return path
        for _method, pattern, _handler, label in self.DYNAMIC_ROUTES:
            if pattern.fullmatch(path):
                return label
        return "unmatched"

    def _match_dynamic(
        self, method: str, path: str
    ) -> tuple[str | None, dict[str, str], bool]:
        """Resolve ``path`` against :data:`DYNAMIC_ROUTES`: returns
        ``(handler_name, path_args, path_known)`` where ``path_known``
        distinguishes a 405 (path exists, wrong method) from a 404."""
        path_known = False
        for route_method, pattern, handler_name, _label in self.DYNAMIC_ROUTES:
            match = pattern.fullmatch(path)
            if match is None:
                continue
            path_known = True
            if route_method == method:
                return handler_name, match.groupdict(), True
        return None, {}, path_known

    async def _dispatch(
        self, method: str, path: str, headers: Mapping[str, str], body: bytes
    ) -> tuple[int, dict[str, str], bytes]:
        handler_name = self.ROUTES.get((method, path))
        path_args: dict[str, str] = {}
        if handler_name is None:
            handler_name, path_args, path_known = self._match_dynamic(method, path)
            if handler_name is None:
                if path in self.ENDPOINTS or path_known:
                    return self._error(
                        HTTPStatus.METHOD_NOT_ALLOWED, f"{method} not allowed on {path}"
                    )
                return self._error(HTTPStatus.NOT_FOUND, f"no such endpoint: {path}")
        try:
            return await getattr(self, handler_name)(body, headers, **path_args)
        except _BadRequest as exc:
            return self._error(exc.status, str(exc))
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            # A handler bug must answer 500, not silently drop the
            # connection — invisible failures are unoperable failures.
            return self._error(
                HTTPStatus.INTERNAL_SERVER_ERROR, f"{type(exc).__name__}: {exc}"
            )

    @staticmethod
    def _error(status: HTTPStatus, message: str) -> tuple[int, dict[str, str], bytes]:
        payload = json.dumps({"error": message}).encode("utf-8")
        headers = {"Retry-After": "1"} if status == HTTPStatus.SERVICE_UNAVAILABLE else {}
        return int(status), headers, payload


class SolveServer(HttpServerBase):
    """The single-process serving stack: HTTP + batcher + cache + metrics.

    Constructor knobs mirror the ``repro serve`` flags; all have serving-
    friendly defaults.  ``backend``/``jobs`` select the engine executor
    micro-batches fan out over (the same seam as ``repro batch``).  With
    ``repro serve --workers N`` this class is the per-worker shard behind
    :class:`~repro.service.router.RouterServer`; a shared ``cache_dir``
    then acts as the common L2 cache tier under each worker's L1 memory.
    """

    def __init__(
        self,
        *,
        backend: str | None = None,
        jobs: int | None = None,
        max_batch: int = 16,
        max_wait_s: float = 0.002,
        queue_size: int = 512,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        cache_dir: Path | str | None = None,
        warm_delta: float | None = None,
        faults: "FaultInjector | FaultPlan | Mapping[str, Any] | None" = None,
        route_token: str | None = None,
    ) -> None:
        super().__init__()
        if warm_delta is not None and warm_delta < 0:
            raise InvalidInstanceError(
                f"warm_delta must be >= 0, got {warm_delta}"
            )
        # One injector is shared with the cache and the batcher, so a
        # plan's per-site counters see every seam of this process.
        self.faults = as_injector(faults)
        self.cache = ResultCache(cache_bytes, spill_dir=cache_dir, faults=self.faults)
        self.batcher = MicroBatcher(
            backend=backend,
            jobs=jobs,
            max_batch=max_batch,
            max_wait_s=max_wait_s,
            maxsize=queue_size,
            faults=self.faults,
        )
        # Portfolio races block a worker thread (they fan out internally
        # through their own executor); two workers keep /portfolio off the
        # event loop without competing with the batcher for cores.
        self._pool = ThreadPoolExecutor(max_workers=2, thread_name_prefix="repro-portfolio")
        # In-flight coalescing: result-key -> future payload of the request
        # currently solving it.  Only the event loop touches this dict, so
        # no lock is needed; concurrent identical misses join the leader's
        # solve instead of duplicating it.
        self._inflight: dict[str, asyncio.Future] = {}
        self._backend = backend
        self._jobs = jobs
        # Warm-start delta solving is opt-in (warm_delta=None keeps every
        # answer byte-identical to a cold engine run, which the chaos and
        # differential suites pin).  When enabled, the neighbor index maps
        # LSH sketches to cached instances so a near-duplicate request is
        # answered by repairing the neighbor's placement instead of
        # re-solving from scratch (see repro.engine.warmstart).
        self.warm_delta = warm_delta
        self.neighbors = NeighborIndex() if warm_delta is not None else None
        self._warm_hits = 0
        # Long-lived sessions: id -> {"algorithm", "params", "steps"}.
        # Soft state touched only on the event loop — a step for an
        # unknown id recreates it, so losing this dict (worker crash)
        # costs nothing but the recreate.
        self._sessions: dict[str, dict[str, Any]] = {}
        self._session_seq = 0
        self._sessions_created = 0
        self._session_steps = 0
        # Set only by repro.service.worker: the owning router's per-fleet
        # token, which lets it forward its resolved key (KEY_HEADER).
        self._route_token = route_token

    # -- lifecycle ------------------------------------------------------

    def _after_bind(self) -> None:
        # The batcher thread only starts once the bind succeeded, so a
        # failed start leaves no thread behind.
        self.batcher.start()

    def close(self) -> None:
        """Stop the batcher and the portfolio pool (idempotent)."""
        self.batcher.stop()
        self._pool.shutdown(wait=False, cancel_futures=True)

    async def drain(self, bound: asyncio.Server, timeout: float = 30.0) -> None:
        """Graceful shutdown: stop accepting, flush queued solves, close.

        The contract behind SIGTERM on ``repro serve``: every request the
        listener accepted is answered (in-flight handlers finish, the
        micro-batcher drains its queue) before resources are torn down.
        """
        get_logger().event("drain", logger="repro.service", stage="begin")
        self.begin_drain()
        bound.close()
        await bound.wait_closed()
        await self.drain_requests(timeout)
        await asyncio.get_running_loop().run_in_executor(
            None, lambda: self.batcher.drain(timeout)
        )
        self.close()
        get_logger().event("drain", logger="repro.service", stage="complete")

    # -- request resolution -----------------------------------------------

    def _forwarded_key(self, headers: Mapping[str, str]) -> str | None:
        """The router's key for this request, if the fleet token vouches
        for it; ``None`` sends the request down the ordinary resolve."""
        key = headers.get(KEY_HEADER.lower())
        token = headers.get(TOKEN_HEADER.lower())
        if self._route_token is None or key is None or token is None:
            return None
        if not hmac.compare_digest(
            token.encode("latin-1"), self._route_token.encode("latin-1")
        ):
            return None
        return key

    @staticmethod
    def _resolve(resolver, body: bytes, expected: str | None = None) -> tuple:
        """Parse ``body`` and run ``resolver`` on it (one ``server.resolve``
        span).  With ``expected`` — a forwarded key — an own key that
        disagrees raises a 500, so nothing is cached under either key."""
        with request_span("server.resolve"):
            resolved = resolver(parse_json_body(body))
        if expected is not None and resolved[0] != expected:
            raise _BadRequest(
                HTTPStatus.INTERNAL_SERVER_ERROR,
                "forwarded key disagrees with the worker's own key",
            )
        return resolved

    def _request_key(self, headers, body: bytes, resolver) -> tuple[str, Any]:
        """``(key, resolve)`` for one ``/solve`` or ``/portfolio`` body.

        A forwarded key is used as-is, and ``resolve()`` parses the body
        only when called (on a miss).  Otherwise the body is resolved now
        and ``resolve()`` returns that result.  Either way the request
        takes one path through :meth:`_coalesced`.
        """
        key = self._forwarded_key(headers)
        if key is not None:
            return key, lambda: self._resolve(resolver, body, key)
        resolved = self._resolve(resolver, body)
        return resolved[0], lambda: resolved

    # -- caching helpers --------------------------------------------------

    async def _coalesced(self, key: str, produce) -> tuple[bytes, str]:
        """Serve ``key`` from cache, a joined in-flight solve, or ``produce``.

        Returns ``(payload, "hit" | "coalesced" | "miss")``.  The leader
        (first miss) registers a future, runs ``produce`` (an async
        callable returning payload bytes), caches, and resolves the future;
        followers await it shielded, so one slow client's disconnect never
        cancels work others are waiting on.  A failed leader resolves the
        future with ``None`` and each follower retries independently —
        errors are never coalesced into unrelated requests.

        In-flight is probed *before* the cache: a follower that will be
        answered ``coalesced`` must not also count a cache miss, or the
        ``X-Repro-Cache`` headers and the ``/metrics`` cache counters
        disagree for the whole coalescing window.  Header↔counter
        consistency is pinned by tests; keep the probe order.
        """
        existing = self._inflight.get(key)
        if existing is not None:
            payload = await asyncio.shield(existing)
            if payload is not None:
                return payload, "coalesced"
        cached = await self._cache_get(key)
        if cached is not None:
            return cached, "hit"
        # The spill-tier lookup awaited: someone may have become leader
        # meanwhile.  Join them rather than racing a duplicate solve.
        existing = self._inflight.get(key)
        if existing is not None:
            payload = await asyncio.shield(existing)
            if payload is not None:
                return payload, "coalesced"
        leader: asyncio.Future = asyncio.get_running_loop().create_future()
        self._inflight[key] = leader
        payload = None
        try:
            payload = await produce()
            await self._cache_put(key, payload)
            return payload, "miss"
        finally:
            if self._inflight.get(key) is leader:
                del self._inflight[key]
            if not leader.done():
                leader.set_result(payload)

    async def _cache_get(self, key: str) -> bytes | None:
        """Cache lookup that keeps spill-tier disk reads off the event loop.

        Without a spill directory ``get`` is a pure in-memory operation —
        call it inline.  With one, the memory tier is still probed inline
        (a lock + dict lookup; the hot path must not pay executor
        scheduling per hit) and only the possible-disk-read miss path
        moves to the default thread-pool executor.
        """
        with request_span("cache.lookup"):
            if self.cache.spill_dir is None:
                return self.cache.get(key)
            payload = self.cache.get_memory(key)
            if payload is not None:
                return payload
            return await asyncio.get_running_loop().run_in_executor(
                None, self.cache.get, key
            )

    async def _cache_put(self, key: str, payload: bytes) -> None:
        """Cache insert; eviction may spill to disk, so same treatment."""
        with request_span("cache.store"):
            if self.cache.spill_dir is None:
                self.cache.put(key, payload)
                return
            await asyncio.get_running_loop().run_in_executor(
                None, self.cache.put, key, payload
            )

    # -- endpoints ---------------------------------------------------------

    ROUTES = {
        ("GET", "/healthz"): "_healthz",
        ("GET", "/metrics"): "_metrics",
        ("POST", "/solve"): "_solve",
        ("POST", "/portfolio"): "_portfolio",
        ("POST", "/session"): "_session_create",
    }
    ENDPOINTS = frozenset(path for _, path in ROUTES)
    DYNAMIC_ROUTES = (
        (
            "POST",
            re.compile(r"/session/(?P<session_id>[^/]+)/step"),
            "_session_step",
            "/session/{id}/step",
        ),
        (
            "DELETE",
            re.compile(r"/session/(?P<session_id>[^/]+)"),
            "_session_delete",
            "/session/{id}",
        ),
        (
            "GET",
            re.compile(r"/debug/trace/(?P<trace_id>[^/]+)"),
            "_debug_trace",
            "/debug/trace/{id}",
        ),
    )

    async def _debug_trace(
        self, body: bytes, headers, trace_id: str
    ) -> tuple[int, dict[str, str], bytes]:
        """This process's recorded spans for ``trace_id`` (an unknown id
        answers an empty span list, not a 404 — the ring may simply have
        evicted it)."""
        doc = recorder().trace_document(trace_id)
        return 200, {}, json.dumps(doc, sort_keys=True).encode("utf-8")

    async def _healthz(self, body: bytes, headers) -> tuple[int, dict[str, str], bytes]:
        from .. import __version__

        payload = json.dumps(
            {"status": "ok", "version": __version__, "uptime_s": self.metrics.uptime_s}
        ).encode("utf-8")
        return 200, {}, payload

    def metrics_snapshot(self) -> dict[str, Any]:
        """The full ``/metrics`` document (also read by the router)."""
        from .. import kernels

        snapshot = self.metrics.snapshot()
        snapshot["kernel"] = kernels.tier_info()
        snapshot["queue"] = self.batcher.stats().to_dict()
        snapshot["cache"] = self.cache.stats().to_dict()
        snapshot["cache"]["warm_hits"] = self._warm_hits
        snapshot["sessions"] = {
            "active": len(self._sessions),
            "created": self._sessions_created,
            "steps": self._session_steps,
        }
        snapshot["spans"] = recorder().histogram_snapshot()
        if self.faults is not None:
            snapshot["faults"] = {
                "injected": self.faults.fired,
                "sites": self.faults.stats(),
            }
        return snapshot

    async def _metrics(self, body: bytes, headers) -> tuple[int, dict[str, str], bytes]:
        snapshot = self.metrics_snapshot()
        if _wants_prometheus(headers):
            payload = render_prometheus(prometheus_samples(snapshot))
            return 200, {"Content-Type": PROMETHEUS_CONTENT_TYPE}, payload
        return 200, {}, json.dumps(snapshot, sort_keys=True).encode("utf-8")

    # -- warm-start plumbing ----------------------------------------------

    def _warm_attempt(
        self,
        key: str,
        name: str,
        params,
        instance,
        state: dict[str, Any],
    ) -> bytes | None:
        """Try to answer ``key`` by repairing a cached neighbor placement.

        Runs on the executor (sketching + repair are CPU work).  Returns
        the encoded payload on an accepted repair, ``None`` otherwise —
        the caller then takes the normal cold path.  ``state`` receives
        the computed sketch/bucket so the cold path can register the
        instance without re-sketching.
        """
        assert self.neighbors is not None
        sketch = instance_sketch(instance)
        bucket = key.split("|", 1)[1]  # spec|params: same-solver scope
        state["sketch"], state["bucket"] = sketch, bucket
        found = self.neighbors.nearest(bucket=bucket, sketch=sketch, exclude=key)
        if found is None:
            return None
        neighbor_key, neighbor_dict = found
        # Memory tier only: a neighbor whose payload already left L1 is
        # not worth a disk read on the hot path — solve cold instead.
        cached = self.cache.get_memory(neighbor_key)
        if cached is None:
            return None
        from ..engine.warmstart import try_warm

        try:
            neighbor_instance = instance_from_dict(neighbor_dict)
            doc = json.loads(cached)
            if doc.get("placement") is None:
                return None
            neighbor_placement = placement_from_dict(doc["placement"], neighbor_instance)
        except (ReproError, KeyError, TypeError, ValueError):
            return None
        report = try_warm(
            instance,
            name,
            params=params,
            neighbor=(neighbor_instance, neighbor_placement),
            delta=self.warm_delta,
        )
        if report is None:
            return None
        self.neighbors.add(
            key, bucket=bucket, sketch=sketch, instance=instance_to_dict(instance)
        )
        return encode_report(report)

    def _remember_neighbor(self, key: str, instance, state: dict[str, Any]) -> None:
        """Register a cold-solved instance in the neighbor index."""
        assert self.neighbors is not None
        sketch = state.get("sketch") or instance_sketch(instance)
        bucket = state.get("bucket") or key.split("|", 1)[1]
        self.neighbors.add(
            key, bucket=bucket, sketch=sketch, instance=instance_to_dict(instance)
        )

    async def _solve_payload(self, key: str, resolve) -> tuple[bytes, str]:
        """The shared ``/solve`` + session-step engine path: cache →
        coalesce → warm-start (opt-in) → micro-batched cold solve.

        ``resolve()`` returns ``(key, name, params, instance)``; it runs
        only on a miss.  Returns ``(payload, "hit" | "coalesced" | "warm"
        | "miss")``.
        """
        warmed = {}
        state: dict[str, Any] = {}

        async def produce() -> bytes:
            _key, name, params, instance = resolve()
            # The pre/post-solve seams run on the executor so an injected
            # `slow`/`hang` stalls this request without blocking the loop
            # (a `crash` hard-kills the process from any thread anyway).
            loop = asyncio.get_running_loop()
            if self.faults is not None:
                await loop.run_in_executor(
                    None, self.faults.fire_sync, "worker.pre_solve"
                )
            if self.neighbors is not None:
                payload = await loop.run_in_executor(
                    None, self._warm_attempt, key, name, params, instance, state
                )
                if payload is not None:
                    warmed["warm"] = True
                    if self.faults is not None:
                        await loop.run_in_executor(
                            None, self.faults.fire_sync, "worker.post_solve"
                        )
                    return payload
            try:
                future = self.batcher.submit(instance, name, params)
                # The queue can also shed this request *after* accepting
                # it (shutdown drains pending futures) — still 503.
                report = await asyncio.wrap_future(future)
            except BackpressureError as exc:
                raise _BadRequest(HTTPStatus.SERVICE_UNAVAILABLE, str(exc))
            if report.placement is None:
                raise _BadRequest(
                    HTTPStatus.UNPROCESSABLE_ENTITY, report.error or "solve failed"
                )
            if self.faults is not None:
                await loop.run_in_executor(
                    None, self.faults.fire_sync, "worker.post_solve"
                )
            if self.neighbors is not None:
                await loop.run_in_executor(
                    None, self._remember_neighbor, key, instance, state
                )
            return encode_report(report)

        payload, source = await self._coalesced(key, produce)
        if source == "miss" and warmed:
            source = "warm"
            self._warm_hits += 1
        return payload, source

    async def _solve(self, body: bytes, headers) -> tuple[int, dict[str, str], bytes]:
        key, resolve = self._request_key(headers, body, resolve_solve_request)
        self.metrics.count_algorithm(key.split("|", 2)[1])  # hash|name|params
        payload, source = await self._solve_payload(key, resolve)
        return 200, {"X-Repro-Cache": source}, payload

    # -- sessions ----------------------------------------------------------

    @staticmethod
    def _session_defaults(data: dict[str, Any]) -> tuple[str | None, dict | None]:
        """Validate the per-session solve defaults out of a JSON body."""
        algorithm = data.get("algorithm")
        if algorithm is not None and not isinstance(algorithm, str):
            raise _BadRequest(HTTPStatus.BAD_REQUEST, "'algorithm' must be a string")
        params = data.get("params")
        if params is not None and not isinstance(params, dict):
            raise _BadRequest(HTTPStatus.BAD_REQUEST, "'params' must be an object")
        if algorithm is not None:
            from ..engine import get_spec

            try:
                get_spec(algorithm)
            except ReproError as exc:
                raise _BadRequest(HTTPStatus.UNPROCESSABLE_ENTITY, str(exc))
        return algorithm, params

    @staticmethod
    def _session_payload(session_id: str, session: Mapping[str, Any]) -> bytes:
        return json.dumps(
            {
                "session": {
                    "id": session_id,
                    "algorithm": session["algorithm"],
                    "params": session["params"],
                    "steps": session["steps"],
                }
            },
            sort_keys=True,
            separators=(",", ":"),
        ).encode("utf-8")

    async def _session_create(
        self, body: bytes, headers
    ) -> tuple[int, dict[str, str], bytes]:
        if self._draining:
            raise _BadRequest(
                HTTPStatus.SERVICE_UNAVAILABLE,
                "draining: not accepting new sessions",
            )
        data = parse_json_body(body)
        if self.faults is not None:
            await asyncio.get_running_loop().run_in_executor(
                None, self.faults.fire_sync, "session.create"
            )
        algorithm, params = self._session_defaults(data)
        session_id = data.get("id")
        if session_id is None:
            self._session_seq += 1
            session_id = f"s{self._session_seq:06d}"
        elif not isinstance(session_id, str) or not session_id or "/" in session_id:
            raise _BadRequest(
                HTTPStatus.BAD_REQUEST, "'id' must be a non-empty string without '/'"
            )
        session = {"algorithm": algorithm, "params": params, "steps": 0}
        self._sessions[session_id] = session
        self._sessions_created += 1
        return 200, {}, self._session_payload(session_id, session)

    async def _session_step(
        self, body: bytes, headers, session_id: str
    ) -> tuple[int, dict[str, str], bytes]:
        data = parse_json_body(body)
        if self.faults is not None:
            await asyncio.get_running_loop().run_in_executor(
                None, self.faults.fire_sync, "session.step"
            )
        session = self._sessions.get(session_id)
        if session is None:
            # Soft state: recreate the session from the step body.  The
            # router enriches forwarded steps with the session's solve
            # defaults, so after a worker crash the ring successor picks
            # the stream up mid-flight without losing a step.
            algorithm, params = self._session_defaults(data)
            session = {"algorithm": algorithm, "params": params, "steps": 0}
            self._sessions[session_id] = session
            self._sessions_created += 1
        merged = dict(data)
        if "algorithm" not in merged and session["algorithm"] is not None:
            merged["algorithm"] = session["algorithm"]
        if "params" not in merged and session["params"] is not None:
            merged["params"] = session["params"]
        resolved = resolve_solve_request(merged)
        key, name, *_ = resolved
        self.metrics.count_algorithm(name)
        payload, source = await self._solve_payload(key, lambda: resolved)
        session["steps"] += 1
        self._session_steps += 1
        return 200, {"X-Repro-Cache": source}, payload

    async def _session_delete(
        self, body: bytes, headers, session_id: str
    ) -> tuple[int, dict[str, str], bytes]:
        session = self._sessions.pop(session_id, None)
        if session is None:
            raise _BadRequest(HTTPStatus.NOT_FOUND, f"no such session: {session_id}")
        payload = json.dumps(
            {"deleted": session_id, "steps": session["steps"]},
            sort_keys=True,
            separators=(",", ":"),
        ).encode("utf-8")
        return 200, {}, payload

    async def _portfolio(self, body: bytes, headers) -> tuple[int, dict[str, str], bytes]:
        key, resolve = self._request_key(headers, body, resolve_portfolio_request)

        async def produce() -> bytes:
            from ..engine import portfolio

            _key, instance, algorithms, params = resolve()
            loop = asyncio.get_running_loop()
            try:
                result = await loop.run_in_executor(
                    self._pool,
                    lambda: portfolio(
                        instance,
                        algorithms,
                        params=params,
                        backend=self._backend,
                        jobs=self._jobs,
                    ),
                )
            except ReproError as exc:
                raise _BadRequest(HTTPStatus.UNPROCESSABLE_ENTITY, str(exc))
            best = result.best
            return json.dumps(
                {
                    "winner": json.loads(encode_report(best)) if best is not None else None,
                    "entrants": [r.to_dict() for r in result.reports],
                },
                sort_keys=True,
                separators=(",", ":"),
            ).encode("utf-8")

        payload, source = await self._coalesced(key, produce)
        return 200, {"X-Repro-Cache": source}, payload


class InProcessServer:
    """A server on a daemon thread with its own event loop.

    The context-manager harness behind ``repro loadtest`` (default
    target), the ``service_throughput`` / ``service_scaling`` benches, and
    the server tests.  ``server`` is any object with the
    :class:`HttpServerBase` lifecycle — a :class:`SolveServer` (default)
    or a :class:`~repro.service.router.RouterServer`::

        with InProcessServer() as srv:
            conn = http.client.HTTPConnection(srv.host, srv.port)
            ...

    Startup errors inside the thread (port in use, a worker that fails to
    spawn) re-raise in the entering thread, so failures surface at
    ``__enter__`` time.
    """

    def __init__(
        self,
        server=None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        startup_timeout: float = 60.0,
    ) -> None:
        self.server = server if server is not None else SolveServer()
        self._host_arg = host
        self._port_arg = port
        self._startup_timeout = startup_timeout
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    @property
    def host(self) -> str:
        return self.server.host or self._host_arg

    @property
    def port(self) -> int:
        assert self.server.port is not None, "server not started"
        return self.server.port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def __enter__(self) -> "InProcessServer":
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=self._startup_timeout)
        if self._startup_error is not None:
            raise self._startup_error
        if not self._ready.is_set():  # pragma: no cover - defensive
            raise RuntimeError(
                f"in-process server failed to start within {self._startup_timeout}s"
            )
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            bound = loop.run_until_complete(
                self.server.start(self._host_arg, self._port_arg)
            )
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            self.server.close()  # nothing to leave running after a failed bind
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            bound.close()
            loop.run_until_complete(bound.wait_closed())
            self.server.close_connections()
            # Unwind whatever is still running (keep-alive connection
            # handlers, the router's supervisor) before the loop closes,
            # so teardown doesn't spray "Task was destroyed" warnings.
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    def __exit__(self, *exc_info) -> None:
        loop, thread = self._loop, self._thread
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(loop.stop)
        if thread is not None:
            thread.join(timeout=10)
        self.server.close()
        self._loop = None
        self._thread = None
