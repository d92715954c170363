"""Consistent-hash router: the sharded front-end of the solve service.

``repro serve --workers N`` puts this in front of N worker processes
(each a full :class:`~repro.service.server.SolveServer`, see
:mod:`repro.service.worker`).  Every ``/solve`` and ``/portfolio`` body is
resolved to its canonical content-addressed ``result_key`` — the *same*
resolution a solo server performs — and the key is consistent-hashed over
a :class:`HashRing` of workers.  The key then rides the internal hop in
``X-Repro-Key``, vouched for by a per-fleet token, so the worker looks it
up without parsing the body again: each request is resolved once.  Key
affinity is the whole game: one key
always lands on one worker, so that worker's in-memory LRU is an
effective L1 cache and its in-flight coalescing still collapses
concurrent identical misses, even though the fleet shares nothing but a
disk-spill directory (the L2 tier).

Failure handling is ring-shaped, and it distinguishes *dead* from
*slow*.  A connection-level failure (refused, reset, truncated response)
marks the worker dead, removes it from the ring, and retries the request
on the key's ring successor — an accepted request is never dropped just
because its shard died mid-solve.  A per-request timeout
(``request_timeout``, off by default) instead means the worker is merely
slow: the router retries the *same* worker with seeded exponential
backoff + jitter up to ``retries`` times, and only then walks to the
successor — without de-ringing a worker that is still computing.  Every
failover logs one structured line (``repro.service.router`` logger) with
the worker id and the classified reason.  A supervisor task respawns
dead workers (bounded by ``max_restarts``), splices them back into the
ring, and re-rings live workers that transient connection faults
wrongly benched; ``/healthz`` reports ``degraded`` while the fleet is
short-handed and ``ok`` again after recovery, with the restart count
alongside.

For chaos testing, a :class:`~repro.service.faults.FaultPlan` passed as
``fault_plan`` arms deterministic injection seams on both sides of the
wire: the router's client send/recv and worker spawn (this module), and
the worker's pre/post-solve, cache-spill, and queue-drain seams (the
plan is forwarded inside ``worker_config``).

The router adds a second coalescing layer above the workers: concurrent
identical misses collapse at the front door too, so a worker respawn
storm or a hot key never multiplies into duplicate solves downstream.

Sessions ride the same ring: ``POST /session`` registers the session's
solve defaults in the router and creates mirror state on the worker that
owns the affinity key ``session|{id}``, and every ``POST
/session/{id}/step`` forwards to that owner — so one session's stream of
near-duplicate instances keeps hitting one worker's L1 and neighbor
index (the warm-start locality story).  Steps bypass the front-door
coalescing on purpose: distinct steps of one session are distinct
solves that merely share an affinity key.  The router enriches each
forwarded step with the session's defaults, so when the owning worker
dies mid-session the ring successor rebuilds the session from the step
body itself — failover loses zero steps.  While draining, new sessions
are refused (503); registered sessions keep stepping until the listener
closes.

``/metrics`` aggregates the fleet — summed queue/cache counters keep the
single-process document shape, with per-worker detail nested under
``"workers"`` and router-level counters under ``"router"`` (in Prometheus
form: the same metric names with a ``worker="i"`` label).
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import json
import logging
import multiprocessing
import random
import re
import secrets
import time
from http import HTTPStatus
from typing import Any, Iterable, Mapping

from ..core.errors import InvalidInstanceError
from ..obs import get_logger, recorder
from ..obs.trace import TRACE_HEADER, current_trace
from .faults import FaultInjector, FaultPlan
from .server import (
    KEY_HEADER,
    HttpServerBase,
    PROMETHEUS_CONTENT_TYPE,
    TOKEN_HEADER,
    _BadRequest,
    _wants_prometheus,
    parse_json_body,
    prometheus_samples,
    render_prometheus,
    request_span,
    resolve_portfolio_request,
    resolve_solve_request,
)
from .worker import worker_main

__all__ = ["HashRing", "WorkerHandle", "RouterServer"]

#: Stdlib logger name the structured events fall back to when no explicit
#: sink is configured (``repro serve --log-format/--log-file``); kept so
#: embedding applications and caplog keep seeing router events here.
LOG_NAME = "repro.service.router"

# Retained for callers that attach handlers to the router's logger.
log = logging.getLogger(LOG_NAME)


def _event(event: str, **fields) -> None:
    """One structured line per failover / rejoin / respawn decision —
    every operational event goes through the obs logger (single path)."""
    get_logger().event(event, logger=LOG_NAME, **fields)

#: Virtual nodes per worker: enough to spread the key space within a few
#: percent of even at N <= 16 workers while keeping ring edits cheap.
DEFAULT_REPLICAS = 64

#: Longest key forwarded in ``X-Repro-Key``.  Keys embed the canonical
#: params, so a huge ``params`` object could push the header past the
#: worker's 64 KiB line limit; such a request is resolved by the worker.
MAX_FORWARDED_KEY = 4096


class HashRing:
    """Consistent hashing over a small set of nodes with virtual replicas.

    Each node owns ``replicas`` pseudo-random points on a 64-bit circle
    (SHA-256 of ``"{node}#{i}"``); a key routes to the first node point at
    or after its own hash, wrapping around.  Adding or removing one node
    therefore only moves the keys in that node's arcs — the property that
    keeps per-worker L1 caches warm across fleet changes.
    """

    def __init__(self, nodes: Iterable[Any] = (), replicas: int = DEFAULT_REPLICAS) -> None:
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self._replicas = replicas
        self._points: list[tuple[int, Any]] = []
        self._hashes: list[int] = []
        self._nodes: set[Any] = set()
        for node in nodes:
            self.add(node)

    @staticmethod
    def _hash(value: str) -> int:
        return int.from_bytes(hashlib.sha256(value.encode("utf-8")).digest()[:8], "big")

    def _rebuild(self) -> None:
        self._points.sort()
        self._hashes = [h for h, _ in self._points]

    def add(self, node: Any) -> None:
        """Splice a node's replica points into the ring (idempotent)."""
        if node in self._nodes:
            return
        self._nodes.add(node)
        self._points.extend((self._hash(f"{node}#{i}"), node) for i in range(self._replicas))
        self._rebuild()

    def remove(self, node: Any) -> None:
        """Drop a node's points; its arcs fall to ring successors."""
        if node not in self._nodes:
            return
        self._nodes.discard(node)
        self._points = [(h, n) for h, n in self._points if n != node]
        self._hashes = [h for h, _ in self._points]

    def __contains__(self, node: Any) -> bool:
        return node in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def nodes(self) -> frozenset:
        return frozenset(self._nodes)

    def node_for(self, key: str) -> Any | None:
        """The node owning ``key`` (``None`` on an empty ring)."""
        if not self._points:
            return None
        index = bisect.bisect_right(self._hashes, self._hash(key)) % len(self._points)
        return self._points[index][1]

    def preference(self, key: str) -> list[Any]:
        """Every node in ring order starting at ``key``'s owner.

        The failover order: index 0 is the primary, the rest are the
        successors a router walks when shards die faster than the
        supervisor revives them.
        """
        if not self._points:
            return []
        start = bisect.bisect_right(self._hashes, self._hash(key)) % len(self._points)
        seen: list[Any] = []
        for offset in range(len(self._points)):
            node = self._points[(start + offset) % len(self._points)][1]
            if node not in seen:
                seen.append(node)
                if len(seen) == len(self._nodes):
                    break
        return seen


class WorkerHandle:
    """One worker process: spawn, liveness, restart accounting.

    Uses the ``spawn`` start method unconditionally — the router may run
    on a thread inside a larger process (tests, benches), where ``fork``
    would snapshot foreign locks in unknown states.  Spawned children are
    daemonic, so a crashed router can never leak solver processes.
    """

    def __init__(
        self,
        worker_id: int,
        config: Mapping[str, Any],
        faults: FaultInjector | None = None,
    ) -> None:
        self.worker_id = worker_id
        self.config = dict(config)
        self.port: int | None = None
        self.process = None
        self.restarts = 0
        self._faults = faults
        self._closed = False
        self._ctx = multiprocessing.get_context("spawn")

    def spawn(self, timeout: float = 60.0) -> "WorkerHandle":
        """Start the process and wait for its bind handshake (blocking —
        callers run this in an executor to keep the event loop free)."""
        if self._faults is not None:
            # The worker.spawn seam: an injected `error` makes this
            # attempt fail exactly like a child that died during startup.
            self._faults.fire_sync("worker.spawn", worker=self.worker_id)
        recv, send = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=worker_main,
            args=(self.worker_id, send, self.config),
            name=f"repro-worker-{self.worker_id}",
            daemon=True,
        )
        process.start()
        send.close()
        try:
            if not recv.poll(timeout):
                process.terminate()
                process.join(timeout=5)
                raise RuntimeError(
                    f"worker {self.worker_id} did not report its port within {timeout}s"
                )
            message = recv.recv()
        except EOFError:
            # Child died before the handshake (import error, OOM, ...).
            process.join(timeout=5)
            raise RuntimeError(
                f"worker {self.worker_id} died during startup"
                f" (exit code {process.exitcode})"
            ) from None
        finally:
            recv.close()
        if "error" in message:
            process.join(timeout=5)
            raise RuntimeError(f"worker {self.worker_id} failed to start: {message['error']}")
        self.port = message["port"]
        self.process = process
        if self._closed:
            # shutdown() raced this spawn (SIGTERM mid-respawn): reap the
            # fresh child instead of leaking it past the fleet teardown.
            self.shutdown(timeout=5)
            raise RuntimeError(f"worker {self.worker_id} was shut down during spawn")
        return self

    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def shutdown(self, timeout: float = 10.0) -> None:
        """Terminate (SIGTERM → the worker's graceful drain) and reap;
        escalate to SIGKILL only past ``timeout``."""
        self._closed = True
        process = self.process
        if process is None:
            return
        if process.is_alive():
            process.terminate()
        process.join(timeout=timeout)
        if process.is_alive():  # pragma: no cover - stuck worker
            process.kill()
            process.join(timeout=5)
        self.process = None


class _WorkerClient:
    """Minimal async HTTP/1.1 client for one worker, with keep-alive reuse.

    Holds a small pool of idle loopback connections; a request that fails
    on a pooled connection is retried once on a fresh one (the worker may
    simply have closed an idle socket), and only a fresh-connection
    failure propagates — that is the router's signal the worker is gone.
    """

    MAX_IDLE = 32

    def __init__(
        self,
        host: str,
        port: int,
        *,
        worker_id: int | None = None,
        faults: FaultInjector | None = None,
    ) -> None:
        self._host = host
        self._port = port
        self._worker_id = worker_id
        self._faults = faults
        self._idle: list[tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []

    async def request(
        self,
        method: str,
        path: str,
        body: bytes = b"",
        headers: Mapping[str, str] | None = None,
    ) -> tuple[int, dict[str, str], bytes]:
        if self._faults is not None:
            for spec in self._faults.check("router.send", worker=self._worker_id):
                if spec.kind == "slow":
                    await asyncio.sleep(spec.delay_s)
                elif spec.kind == "conn_reset":
                    raise ConnectionResetError(
                        f"injected connection reset at router.send"
                        f" (worker {self._worker_id})"
                    )
        while self._idle:
            conn = self._idle.pop()
            try:
                return await self._round_trip(conn, method, path, body, headers)
            except asyncio.CancelledError:
                # A wait_for timeout cancels us mid-round-trip; the popped
                # connection is half-used and must not return to the pool.
                self._discard(conn)
                raise
            except (ConnectionError, asyncio.IncompleteReadError, OSError):
                self._discard(conn)
        conn = await asyncio.open_connection(self._host, self._port)
        try:
            return await self._round_trip(conn, method, path, body, headers)
        except BaseException:
            self._discard(conn)
            raise

    async def _round_trip(
        self,
        conn,
        method: str,
        path: str,
        body: bytes,
        headers: Mapping[str, str] | None = None,
    ):
        reader, writer = conn
        extra = "".join(f"{k}: {v}\r\n" for k, v in (headers or {}).items())
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self._host}:{self._port}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: keep-alive\r\n"
            f"{extra}\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()
        status_line = await reader.readline()
        if not status_line:
            raise ConnectionResetError("worker closed the connection")
        parts = status_line.split(None, 2)
        status = int(parts[1])
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        payload = await reader.readexactly(int(headers.get("content-length", "0")))
        if self._faults is not None:
            for spec in self._faults.check("router.recv", worker=self._worker_id):
                if spec.kind == "slow":
                    await asyncio.sleep(spec.delay_s)
                elif spec.kind == "conn_reset":
                    self._discard(conn)
                    raise ConnectionResetError(
                        f"injected connection reset at router.recv"
                        f" (worker {self._worker_id})"
                    )
                elif spec.kind == "truncate":
                    # The bytes a half-written response would have left us.
                    self._discard(conn)
                    raise asyncio.IncompleteReadError(
                        payload[: len(payload) // 2], len(payload)
                    )
        if headers.get("connection", "keep-alive").lower() == "close":
            self._discard(conn)
        elif len(self._idle) < self.MAX_IDLE:
            self._idle.append(conn)
        else:
            self._discard(conn)
        return status, headers, payload

    @staticmethod
    def _discard(conn) -> None:
        try:
            conn[1].close()
        except Exception:  # pragma: no cover - transport already dead
            pass

    def close(self) -> None:
        while self._idle:
            self._discard(self._idle.pop())


class RouterServer(HttpServerBase):
    """The fleet front-end: N worker processes behind one listener.

    ``worker_config`` is the per-worker
    :class:`~repro.service.server.SolveServer` constructor kwargs.  Point
    every worker at one ``cache_dir`` to give the fleet a shared L2 cache
    tier under the key-affine per-worker L1s.

    Speaks exactly the single-process server's protocol (same routes,
    same error mapping, same ``X-Repro-Cache`` header), so clients and
    the load generator cannot tell one worker from eight.
    """

    #: The front-door hop's root span (vs the worker's ``server.request``).
    SPAN_ROOT = "router.request"

    #: How long a request keeps walking the ring before giving up with 503.
    FAILOVER_TIMEOUT_S = 10.0

    #: Supervisor poll interval — the respawn detection latency bound.
    SUPERVISE_INTERVAL_S = 0.25

    def __init__(
        self,
        *,
        workers: int = 2,
        worker_config: Mapping[str, Any] | None = None,
        replicas: int = DEFAULT_REPLICAS,
        max_restarts: int = 5,
        spawn_timeout: float = 60.0,
        request_timeout: float | None = None,
        retries: int = 2,
        backoff_ms: float = 50.0,
        fault_plan: "FaultPlan | Mapping[str, Any] | None" = None,
    ) -> None:
        super().__init__()
        if workers < 1:
            raise InvalidInstanceError(f"workers must be >= 1, got {workers}")
        if request_timeout is not None and request_timeout <= 0:
            raise InvalidInstanceError(
                f"request_timeout must be > 0, got {request_timeout}"
            )
        if retries < 0:
            raise InvalidInstanceError(f"retries must be >= 0, got {retries}")
        if backoff_ms < 0:
            raise InvalidInstanceError(f"backoff_ms must be >= 0, got {backoff_ms}")
        self.n_workers = int(workers)
        self.worker_config = dict(worker_config or {})
        self.max_restarts = int(max_restarts)
        self.request_timeout = None if request_timeout is None else float(request_timeout)
        self.retries = int(retries)
        self.backoff_s = float(backoff_ms) / 1e3
        plan = FaultPlan.from_dict(fault_plan) if fault_plan is not None else None
        # The router keeps one injector for its own seams (client send/
        # recv, worker spawn) and forwards the plan dict to every worker,
        # where a second, worker-scoped injector drives the in-process
        # seams.  The plan's seed also fixes the retry jitter, so a chaos
        # run's backoff schedule replays exactly.
        self.faults = FaultInjector(plan) if plan is not None else None
        if plan is not None:
            self.worker_config.setdefault("fault_plan", plan.to_dict())
        self._retry_rng = random.Random(plan.seed if plan is not None else 0)
        # Vouches for the key this router forwards with a /solve or
        # /portfolio body, so a worker can serve a hit without parsing it.
        # It reaches the workers inside their spawn config (over the spawn
        # pipe), never on argv or in the environment, and is never logged.
        self._route_token = secrets.token_hex(16)
        self._spawn_timeout = float(spawn_timeout)
        self._handles: dict[int, WorkerHandle] = {}
        self._clients: dict[int, _WorkerClient] = {}
        self._ring = HashRing(replicas=replicas)
        self._inflight: dict[str, asyncio.Future] = {}
        # Session registry: id -> {"algorithm", "params"}.  The router is
        # the source of truth; worker-side session state is a soft mirror
        # rebuilt on failover from the enriched step bodies.
        self._sessions: dict[str, dict[str, Any]] = {}
        self._session_seq = 0
        self._session_steps = 0
        self._retries = 0
        self._request_retries = 0
        self._respawns_inflight: set[int] = set()
        self._supervisor: asyncio.Task | None = None
        self._closed = False

    # -- lifecycle ------------------------------------------------------

    async def _before_bind(self) -> None:
        """Spawn the whole fleet (in parallel) before accepting traffic."""
        loop = asyncio.get_running_loop()
        config = {**self.worker_config, "route_token": self._route_token}
        handles = [
            WorkerHandle(i, config, faults=self.faults) for i in range(self.n_workers)
        ]
        try:
            await asyncio.gather(
                *(
                    loop.run_in_executor(None, handle.spawn, self._spawn_timeout)
                    for handle in handles
                )
            )
        except BaseException:
            for handle in handles:
                handle.shutdown(timeout=2)
            raise
        for handle in handles:
            self._handles[handle.worker_id] = handle
            self._clients[handle.worker_id] = self._make_client(handle)
            self._ring.add(handle.worker_id)
        self._supervisor = loop.create_task(self._supervise())

    def _make_client(self, handle: WorkerHandle) -> _WorkerClient:
        return _WorkerClient(
            "127.0.0.1", handle.port, worker_id=handle.worker_id, faults=self.faults
        )

    async def _supervise(self) -> None:
        """Detect dead workers, respawn them, splice them back in."""
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self.SUPERVISE_INTERVAL_S)
            for worker_id, handle in self._handles.items():
                if worker_id in self._respawns_inflight:
                    continue
                if handle.alive():
                    if worker_id not in self._ring:
                        # A transient connection fault (e.g. an injected
                        # reset) benched a worker whose process is fine —
                        # the liveness probe puts it back in rotation.
                        self._ring.add(worker_id)
                        _event("rejoin", worker=worker_id, reason="alive")
                    continue
                self._mark_dead(worker_id)
                if handle.restarts >= self.max_restarts:
                    continue
                handle.restarts += 1
                self._respawns_inflight.add(worker_id)
                try:
                    await loop.run_in_executor(None, handle.spawn, self._spawn_timeout)
                except Exception as exc:
                    # Spawn failed; the next tick retries (up to the cap).
                    _event(
                        "respawn_failed",
                        worker=worker_id,
                        attempt=handle.restarts,
                        error=str(exc),
                    )
                    continue
                finally:
                    self._respawns_inflight.discard(worker_id)
                self._clients[worker_id] = self._make_client(handle)
                self._ring.add(worker_id)
                _event(
                    "respawn",
                    worker=worker_id,
                    restarts=handle.restarts,
                    port=handle.port,
                )

    def _mark_dead(self, worker_id: int) -> None:
        """Take a worker out of rotation (idempotent, loop-thread only)."""
        self._ring.remove(worker_id)
        client = self._clients.get(worker_id)
        if client is not None:
            client.close()

    async def drain(self, bound: asyncio.Server, timeout: float = 30.0) -> None:
        """Graceful fleet shutdown: stop accepting, finish in-flight
        requests, SIGTERM every worker (each drains its own queue), reap.
        """
        _event("drain", stage="begin")
        self.begin_drain()
        bound.close()
        await bound.wait_closed()
        await self.drain_requests(timeout)
        if self._supervisor is not None:
            self._supervisor.cancel()
            self._supervisor = None
        loop = asyncio.get_running_loop()
        await asyncio.gather(
            *(
                loop.run_in_executor(None, handle.shutdown, timeout)
                for handle in self._handles.values()
            )
        )
        self.close()
        _event("drain", stage="complete")

    def close(self) -> None:
        """Tear the fleet down hard (idempotent; safe off the loop).

        The graceful path is :meth:`drain`; this is the unconditional
        cleanup behind ``finally:`` blocks and test harness exits.
        """
        if self._closed:
            return
        self._closed = True
        self.close_connections()
        supervisor = self._supervisor
        if supervisor is not None:
            self._supervisor = None
            try:
                supervisor.cancel()
            except RuntimeError:
                # Called after the event loop already closed (harness
                # teardown); the task died with the loop.
                pass
        for handle in self._handles.values():
            handle.shutdown(timeout=2)

    def close_connections(self) -> None:
        """Close every worker client's keep-alive pool."""
        for client in self._clients.values():
            client.close()

    # -- routing ----------------------------------------------------------

    @staticmethod
    def _failure_reason(exc: BaseException) -> str:
        """Classify one transport failure for the structured failover log."""
        if isinstance(exc, ConnectionRefusedError):
            return "connection-refused"
        if isinstance(exc, ConnectionResetError):
            return "connection-reset"
        if isinstance(exc, asyncio.IncompleteReadError):
            return "truncated-response"
        return type(exc).__name__

    async def _forward(
        self, key: str, path: str, body: bytes, *, forward_key: bool = False
    ):
        """Send one request to ``key``'s shard, failing over around the ring.

        With ``forward_key`` (``/solve`` and ``/portfolio``, where ``key``
        is the body's ``result_key``) the key rides along in
        :data:`KEY_HEADER` with the fleet token, so the worker looks it up
        without parsing the body.

        Returns ``(status, headers, payload)`` from the first worker that
        answers.  Failures are classified, not pooled:

        * a **connection-level** failure (refused, reset, truncated
          response — the worker process is gone or its socket is broken)
          marks the worker dead, logs the reason, and walks to the ring
          successor immediately;
        * a **timeout** (``request_timeout`` elapsed — the worker is
          alive but slow, possibly mid-solve) retries the *same* worker
          up to ``retries`` times with seeded exponential backoff +
          jitter, then steps to the successor for this request only —
          the slow worker stays in the ring.

        Only an empty ring (or unbroken timeouts) past the failover
        deadline surfaces as 503.
        """
        # Propagate the ambient trace to the owning worker: the worker's
        # front door adopts it, so one trace id spans both hops.
        ctx = current_trace()
        headers = {TRACE_HEADER: ctx.child().header_value()} if ctx is not None else {}
        if forward_key and len(key) <= MAX_FORWARDED_KEY:
            headers[KEY_HEADER] = key
            headers[TOKEN_HEADER] = self._route_token
        deadline = time.monotonic() + self.FAILOVER_TIMEOUT_S
        timed_out: set[int] = set()
        while True:
            order = self._ring.preference(key)
            if not order:
                if time.monotonic() >= deadline:
                    raise _BadRequest(
                        HTTPStatus.SERVICE_UNAVAILABLE, "no workers available"
                    )
                # The supervisor may be mid-respawn; give it a beat.
                await asyncio.sleep(0.05)
                continue
            candidates = [w for w in order if w not in timed_out]
            if not candidates:
                # Every live worker exhausted its timeout budget for this
                # request; start a fresh pass rather than 503 a fleet
                # that is merely slow.
                timed_out.clear()
                candidates = order
            worker_id = candidates[0]
            client = self._clients[worker_id]
            attempt = 0
            while True:
                try:
                    with request_span("router.forward", worker=str(worker_id)):
                        if self.request_timeout is not None:
                            return await asyncio.wait_for(
                                client.request("POST", path, body, headers),
                                self.request_timeout,
                            )
                        return await client.request("POST", path, body, headers)
                except asyncio.TimeoutError:
                    # NB: must precede the OSError family — TimeoutError
                    # is an OSError subclass on 3.11+.
                    self._request_retries += 1
                    if time.monotonic() >= deadline:
                        raise _BadRequest(
                            HTTPStatus.SERVICE_UNAVAILABLE,
                            f"worker {worker_id} timed out past the failover deadline",
                        )
                    if attempt >= self.retries:
                        self._retries += 1
                        timed_out.add(worker_id)
                        _event(
                            "failover",
                            worker=worker_id,
                            reason="timeout",
                            path=path,
                            attempts=attempt + 1,
                        )
                        break
                    delay = self.backoff_s * (2**attempt) * (0.5 + self._retry_rng.random())
                    attempt += 1
                    await asyncio.sleep(delay)
                except (ConnectionError, asyncio.IncompleteReadError, OSError) as exc:
                    self._retries += 1
                    self._mark_dead(worker_id)
                    _event(
                        "failover",
                        worker=worker_id,
                        reason=self._failure_reason(exc),
                        path=path,
                        error=str(exc),
                    )
                    if time.monotonic() >= deadline:
                        raise _BadRequest(
                            HTTPStatus.SERVICE_UNAVAILABLE,
                            f"worker {worker_id} unavailable: {exc}",
                        )
                    break

    async def _routed(self, key: str, path: str, body: bytes):
        """Route with front-door coalescing: concurrent identical keys
        ride the leader's forward instead of hitting the worker N times.

        Returns ``(status, headers, payload, source)`` where ``source``
        is the worker's ``X-Repro-Cache`` verdict for the leader and
        ``"coalesced"`` for followers.  Error responses (non-200) resolve
        the leader future empty, so each follower retries independently —
        same contract as the worker-level coalescing.
        """
        existing = self._inflight.get(key)
        if existing is not None:
            result = await asyncio.shield(existing)
            if result is not None:
                status, headers, payload = result
                return status, headers, payload, "coalesced"
        leader: asyncio.Future = asyncio.get_running_loop().create_future()
        self._inflight[key] = leader
        result = None
        try:
            status, headers, payload = await self._forward(
                key, path, body, forward_key=True
            )
            if status == 200:
                result = (status, headers, payload)
            return status, headers, payload, headers.get("x-repro-cache", "miss")
        finally:
            if self._inflight.get(key) is leader:
                del self._inflight[key]
            if not leader.done():
                leader.set_result(result)

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
        """The fleet-merged span tree of one trace: the router's own spans
        plus every live worker's, sorted into one document."""
        doc = recorder().trace_document(trace_id)
        spans = list(doc["spans"])

        async def fetch(worker_id: int):
            try:
                status, _headers, payload = await self._clients[worker_id].request(
                    "GET", f"/debug/trace/{trace_id}"
                )
            except (ConnectionError, asyncio.IncompleteReadError, OSError):
                return []
            if status != 200:
                return []
            try:
                return json.loads(payload).get("spans", [])
            except (json.JSONDecodeError, AttributeError):
                return []

        order = sorted(
            worker_id
            for worker_id, handle in self._handles.items()
            if handle.alive() and worker_id in self._ring
        )
        for worker_spans in await asyncio.gather(*(fetch(w) for w in order)):
            spans.extend(worker_spans)
        spans.sort(key=lambda s: s.get("start_s", 0.0))
        merged = {"trace": trace_id, "spans": spans}
        return 200, {}, json.dumps(merged, sort_keys=True).encode("utf-8")

    @staticmethod
    def _session_key(session_id: str) -> str:
        """The ring affinity key of one session: every create/step/delete
        of the session routes to the same worker (until it dies)."""
        return f"session|{session_id}"

    async def _session_create(
        self, body: bytes, headers
    ) -> tuple[int, dict[str, str], bytes]:
        if self._draining:
            raise _BadRequest(
                HTTPStatus.SERVICE_UNAVAILABLE,
                "draining: not accepting new sessions",
            )
        data = parse_json_body(body)
        algorithm = data.get("algorithm")
        if algorithm is not None and not isinstance(algorithm, str):
            raise _BadRequest(HTTPStatus.BAD_REQUEST, "'algorithm' must be a string")
        params = data.get("params")
        if params is not None and not isinstance(params, dict):
            raise _BadRequest(HTTPStatus.BAD_REQUEST, "'params' must be an object")
        self._session_seq += 1
        session_id = f"s{self._session_seq:06d}"
        # Forward with an explicit id so the owning worker mirrors the
        # session under the same name the client will step it by.
        forwarded = dict(data)
        forwarded["id"] = session_id
        status, _resp_headers, payload = await self._forward(
            self._session_key(session_id),
            "/session",
            json.dumps(forwarded).encode("utf-8"),
        )
        if status == 200:
            self._sessions[session_id] = {"algorithm": algorithm, "params": params}
        return status, {}, payload

    async def _session_step(
        self, body: bytes, headers, session_id: str
    ) -> tuple[int, dict[str, str], bytes]:
        session = self._sessions.get(session_id)
        if session is None:
            raise _BadRequest(HTTPStatus.NOT_FOUND, f"no such session: {session_id}")
        data = parse_json_body(body)
        # Enrich with the session's solve defaults: the worker resolves
        # the step exactly like a one-shot /solve, and — crucially — a
        # failover successor can rebuild the session from this body alone.
        enriched = dict(data)
        if "algorithm" not in enriched and session["algorithm"] is not None:
            enriched["algorithm"] = session["algorithm"]
        if "params" not in enriched and session["params"] is not None:
            enriched["params"] = session["params"]
        # No front-door coalescing here: distinct steps of one session
        # share the affinity key, and coalescing them would wrongly serve
        # one step's placement for another.
        status, resp_headers, payload = await self._forward(
            self._session_key(session_id),
            f"/session/{session_id}/step",
            json.dumps(enriched).encode("utf-8"),
        )
        self._session_steps += 1
        extra = (
            {"X-Repro-Cache": resp_headers.get("x-repro-cache", "miss")}
            if status == 200
            else {}
        )
        return status, extra, payload

    async def _session_delete(
        self, body: bytes, headers, session_id: str
    ) -> tuple[int, dict[str, str], bytes]:
        session = self._sessions.pop(session_id, None)
        if session is None:
            raise _BadRequest(HTTPStatus.NOT_FOUND, f"no such session: {session_id}")
        try:
            status, _resp_headers, payload = await self._forward_delete(session_id)
        except _BadRequest:
            # The owner is gone and its soft state with it — the registry
            # removal above already completed the teardown.
            status, payload = 0, b""
        if status != 200:
            payload = json.dumps(
                {"deleted": session_id, "steps": None},
                sort_keys=True,
                separators=(",", ":"),
            ).encode("utf-8")
        return 200, {}, payload

    async def _forward_delete(self, session_id: str):
        """DELETE has no retry semantics to honour — one attempt at the
        owner is enough (soft state dies with the worker anyway)."""
        key = self._session_key(session_id)
        order = self._ring.preference(key)
        if not order:
            raise _BadRequest(HTTPStatus.SERVICE_UNAVAILABLE, "no workers available")
        client = self._clients[order[0]]
        try:
            return await client.request("DELETE", f"/session/{session_id}")
        except (ConnectionError, asyncio.IncompleteReadError, OSError) as exc:
            raise _BadRequest(
                HTTPStatus.SERVICE_UNAVAILABLE, f"worker unavailable: {exc}"
            )

    @staticmethod
    def _resolve(resolver, body: bytes) -> tuple:
        """The router's one resolve of a body: ``router.parse`` times the
        JSON decode, ``router.key`` the instance build and the key."""
        with request_span("router.parse"):
            data = parse_json_body(body)
        with request_span("router.key"):
            return resolver(data)

    async def _solve(self, body: bytes, headers) -> tuple[int, dict[str, str], bytes]:
        key, name, _params, _instance = self._resolve(resolve_solve_request, body)
        self.metrics.count_algorithm(name)
        status, _resp_headers, payload, source = await self._routed(key, "/solve", body)
        extra = {"X-Repro-Cache": source} if status == 200 else {}
        return status, extra, payload

    async def _portfolio(self, body: bytes, headers) -> tuple[int, dict[str, str], bytes]:
        key, *_ = self._resolve(resolve_portfolio_request, body)
        status, _resp_headers, payload, source = await self._routed(key, "/portfolio", body)
        extra = {"X-Repro-Cache": source} if status == 200 else {}
        return status, extra, payload

    def _fleet_counts(self) -> dict[str, int]:
        alive = sum(1 for handle in self._handles.values() if handle.alive())
        return {
            "total": self.n_workers,
            "alive": alive,
            "restarts": sum(handle.restarts for handle in self._handles.values()),
        }

    async def _healthz(self, body: bytes, headers) -> tuple[int, dict[str, str], bytes]:
        from .. import __version__

        counts = self._fleet_counts()
        payload = json.dumps(
            {
                "status": "ok" if counts["alive"] == counts["total"] else "degraded",
                "version": __version__,
                "uptime_s": self.metrics.uptime_s,
                "workers": counts,
            }
        ).encode("utf-8")
        return 200, {}, payload

    async def _worker_snapshots(self) -> dict[str, dict]:
        """Fetch ``/metrics`` from every live worker concurrently."""
        order = sorted(
            worker_id
            for worker_id, handle in self._handles.items()
            if handle.alive() and worker_id in self._ring
        )

        async def fetch(worker_id: int):
            try:
                status, _headers, payload = await self._clients[worker_id].request(
                    "GET", "/metrics"
                )
            except (ConnectionError, asyncio.IncompleteReadError, OSError):
                return None
            return json.loads(payload) if status == 200 else None

        snapshots = await asyncio.gather(*(fetch(worker_id) for worker_id in order))
        return {
            str(worker_id): snap
            for worker_id, snap in zip(order, snapshots)
            if snap is not None
        }

    @staticmethod
    def _aggregate(workers: dict[str, dict]) -> tuple[dict, dict]:
        """Sum the fleet's queue/cache counters into the single-process
        document shape (``max_batch`` maxes, ``mean_batch`` recomputes)."""
        queue: dict[str, float] = {
            "depth": 0, "submitted": 0, "completed": 0,
            "rejected": 0, "batches": 0, "max_batch": 0,
        }
        cache: dict[str, float] = {
            "hits": 0, "misses": 0, "evictions": 0, "spills": 0,
            "spill_hits": 0, "corruptions": 0, "entries": 0, "bytes": 0,
            "warm_hits": 0,
        }
        for snap in workers.values():
            wq, wc = snap.get("queue", {}), snap.get("cache", {})
            for field in ("depth", "submitted", "completed", "rejected", "batches"):
                queue[field] += wq.get(field, 0)
            queue["max_batch"] = max(queue["max_batch"], wq.get("max_batch", 0))
            for field in cache:
                cache[field] += wc.get(field, 0)
        queue["mean_batch"] = (
            queue["completed"] / queue["batches"] if queue["batches"] else 0.0
        )
        return queue, cache

    async def _metrics(self, body: bytes, headers) -> tuple[int, dict[str, str], bytes]:
        from .. import kernels

        workers = await self._worker_snapshots()
        queue, cache = self._aggregate(workers)
        snapshot = self.metrics.snapshot()
        # The router's own process tier; workers report theirs per-worker
        # (identical by construction — serve passes --kernel-tier through
        # the worker config before any worker resolves it).
        snapshot["kernel"] = kernels.tier_info()
        snapshot["queue"] = queue
        snapshot["cache"] = cache
        snapshot["router"] = {
            "workers": self._fleet_counts(),
            "retries": self._retries,
            "request_retries": self._request_retries,
            "sessions": {
                "active": len(self._sessions),
                "created": self._session_seq,
                "steps": self._session_steps,
            },
        }
        snapshot["sessions"] = snapshot["router"]["sessions"]
        snapshot["spans"] = recorder().histogram_snapshot()
        if self.faults is not None:
            snapshot["router"]["faults_injected"] = self.faults.fired + sum(
                snap.get("faults", {}).get("injected", 0) for snap in workers.values()
            )
        snapshot["workers"] = workers
        if _wants_prometheus(headers):
            samples = prometheus_samples(snapshot)
            counts = snapshot["router"]["workers"]
            samples.append(("repro_workers_total", {}, float(counts["total"])))
            samples.append(("repro_workers_alive", {}, float(counts["alive"])))
            samples.append(("repro_worker_restarts_total", {}, float(counts["restarts"])))
            samples.append(("repro_router_retries_total", {}, float(self._retries)))
            samples.append(("repro_retries_total", {}, float(self._request_retries)))
            if self.faults is not None:
                samples.append((
                    "repro_faults_injected_total",
                    {"scope": "fleet"},
                    float(snapshot["router"]["faults_injected"]),
                ))
            for worker_id, snap in workers.items():
                samples.extend(prometheus_samples(snap, labels={"worker": worker_id}))
            # Stable output: group samples by metric name so each # TYPE
            # header precedes all of its series, fleet and per-worker.
            rank: dict[str, int] = {}
            for name, _, _ in samples:
                rank.setdefault(name, len(rank))
            samples.sort(key=lambda s: (rank[s[0]], str(s[1])))
            return 200, {"Content-Type": PROMETHEUS_CONTENT_TYPE}, render_prometheus(samples)
        return 200, {}, json.dumps(snapshot, sort_keys=True).encode("utf-8")
