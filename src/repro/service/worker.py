"""Worker-process entry point for the sharded solve service.

One worker is simply a :class:`~repro.service.server.SolveServer` — the
full single-process stack (HTTP front-end, micro-batcher, two-tier result
cache) — bound to an ephemeral loopback port and owned by a
:class:`~repro.service.router.RouterServer` parent.  The router speaks
plain HTTP to it, which keeps the shard protocol identical to the public
one: every worker is independently curl-able, and the differential tests
can compare a worker's bytes against the single-process path directly.

The handshake is one message on a one-way multiprocessing pipe: the child
binds first, then sends ``{"port": ..., "pid": ...}`` (or ``{"error":
...}`` if startup failed) and closes its end.  Everything after that
happens over HTTP.  The spawn config carries the router's per-fleet
token, so the token travels over the spawn pipe only; with it the worker
trusts the ``X-Repro-Key`` the router forwards on ``/solve`` and
``/portfolio`` (see :data:`repro.service.server.KEY_HEADER`).

:func:`worker_main` must stay module-level and import-light so the
``spawn`` start method can pickle it by reference — the router uses
``spawn`` (never ``fork``) because it may itself live on a thread inside
a test harness or bench runner, and forking a threaded parent is a
deadlock lottery.

Lifecycle: the worker serves until SIGTERM/SIGINT, then drains — stops
accepting, answers every request its listener and queue already accepted
— and exits 0.  A worker killed hard (SIGKILL, OOM) is detected by the
router's supervisor and respawned; its shard of the key space re-routes
to ring successors in the meantime.
"""

from __future__ import annotations

import asyncio
import os
import signal
from typing import Any, Mapping

__all__ = ["worker_main"]


async def _serve(worker_id: int, conn, config: Mapping[str, Any]) -> None:
    from ..obs import configure_logging, set_identity
    from .faults import FaultInjector
    from .server import SolveServer

    config = dict(config)
    # The requested kernel tier rides in the config too — worker processes
    # start from a fresh interpreter, so the parent's tier selection must
    # be re-applied here (each worker then resolves/falls back on its own).
    tier = config.pop("kernel_tier", None)
    if tier is not None:
        from .. import kernels

        kernels.set_tier(tier)
    # Observability config rides the same way: every span this process
    # records is stamped worker=<id>, and the structured-log sink matches
    # the parent's --log-format/--log-file (workers append to one file;
    # whole-line writes interleave cleanly).
    set_identity(worker_id)
    log_format = config.pop("log_format", None)
    log_file = config.pop("log_file", None)
    if log_format is not None or log_file is not None:
        import sys

        configure_logging(log_format, log_file, stream=sys.stderr if log_file is None else None)
    # A chaos plan rides inside the (picklable) worker config as a plain
    # dict; each worker builds its own injector scoped to its id, so a
    # spec with "worker": K fires only in worker K.
    plan = config.pop("fault_plan", None)
    faults = FaultInjector(plan, worker=worker_id) if plan is not None else None
    # The router's per-fleet token: with it the worker trusts the key the
    # router forwards and serves a hit without parsing the body.
    route_token = config.pop("route_token", None)
    server = SolveServer(faults=faults, route_token=route_token, **config)
    try:
        bound = await server.start("127.0.0.1", 0)
    except BaseException as exc:
        conn.send({"error": f"{type(exc).__name__}: {exc}"})
        conn.close()
        server.close()
        raise SystemExit(1)

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        # The router's graceful drain sends SIGTERM; an interactive Ctrl-C
        # delivers SIGINT to the whole process group.  Either way: drain.
        loop.add_signal_handler(sig, stop.set)

    conn.send({"port": server.port, "pid": os.getpid()})
    conn.close()
    try:
        await stop.wait()
    finally:
        await server.drain(bound)


def worker_main(worker_id: int, conn, config: Mapping[str, Any]) -> None:
    """Run one solve worker until told to drain; the spawn target.

    ``conn`` is the write end of the startup pipe; ``config`` is the
    :class:`~repro.service.server.SolveServer` constructor kwargs (every
    worker of one fleet gets the same config, so a shared ``cache_dir``
    becomes the fleet's common L2 cache tier).
    """
    asyncio.run(_serve(worker_id, conn, config))
