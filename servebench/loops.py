"""Closed-loop, open-loop and session clients, one thread per connection.

Every sample keeps its response bytes so the answers are checked after
the window, outside the timing.  Open-loop requests are timed from their
*due* time on the benchmark's own schedule, so a request that waits
behind a stalled one is charged for the wait.
"""

from __future__ import annotations

import http.client
import itertools
import json
import threading
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from service import ServerProcess, delete, post

#: A connection-level failure is recorded with this status.
CONNECTION_FAILED = 599


@dataclass
class Sample:
    """One request of the measured window."""

    stream: str  # "interactive" | "bulk"
    index: int  # which body (the workload knows how to rebuild it)
    request_bytes: int
    due: float  # when it was due (closed loop: when it was sent)
    sent: float
    done: float
    status: int
    cache: str
    payload: bytes

    @property
    def latency_s(self) -> float:
        return self.done - self.due

    @property
    def lateness_s(self) -> float:
        return self.sent - self.due


def _timed_post(conn, path: str, body: bytes, stream: str, index: int,
                due: float) -> tuple[Sample, bool]:
    sent = time.perf_counter()
    try:
        status, cache, payload = post(conn, path, body)
        broken = False
    except (OSError, http.client.HTTPException):
        status, cache, payload, broken = CONNECTION_FAILED, "", b"", True
    done = time.perf_counter()
    return Sample(stream, index, len(body), due, sent, done, status, cache, payload), broken


def _run_threads(targets: Sequence[Callable[[], None]]) -> None:
    errors: list[BaseException] = []

    def guarded(target):
        def run() -> None:
            try:
                target()
            except BaseException as exc:  # re-raised in the caller below
                errors.append(exc)
        return run

    threads = [threading.Thread(target=guarded(t), daemon=True) for t in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def closed_loop(server: ServerProcess, body_for: Callable[[int], bytes],
                connections: int, seconds: float) -> tuple[list[Sample], float]:
    """``connections`` clients, each sending its next ``/solve`` when the
    previous answer lands, until ``seconds`` have passed.  Returns the
    samples and the window's wall time."""
    samples: list[Sample] = []
    counter = itertools.count()
    start = time.perf_counter()
    end = start + seconds

    def client() -> None:
        conn = server.connect()
        try:
            while time.perf_counter() < end:
                index = next(counter)
                body = body_for(index)
                sample, broken = _timed_post(
                    conn, "/solve", body, "interactive", index, time.perf_counter()
                )
                samples.append(sample)
                if broken:
                    conn.close()
                    conn = server.connect()
        finally:
            conn.close()

    _run_threads([client] * connections)
    return samples, time.perf_counter() - start


def open_loop(server: ServerProcess,
              streams: Sequence[tuple[str, Sequence[float], Sequence[bytes]]],
              ) -> tuple[list[Sample], float]:
    """One connection per stream; each stream is ``(name, dues, bodies)``
    with dues in seconds from the window start.  A request is sent at its
    due time, or as soon as its connection is free when it is late."""
    samples: list[Sample] = []
    start = time.perf_counter()

    def stream_client(name: str, dues: Sequence[float], bodies: Sequence[bytes]):
        def client() -> None:
            conn = server.connect()
            try:
                for index, (offset, body) in enumerate(zip(dues, bodies)):
                    due = start + offset
                    wait = due - time.perf_counter()
                    if wait > 0:
                        time.sleep(wait)
                    sample, broken = _timed_post(conn, "/solve", body, name, index, due)
                    samples.append(sample)
                    if broken:
                        conn.close()
                        conn = server.connect()
            finally:
                conn.close()
        return client

    _run_threads([stream_client(*stream) for stream in streams])
    return samples, time.perf_counter() - start


def session_loop(server: ServerProcess, session_for: Callable[[int], object],
                 connections: int, seconds: float) -> tuple[list[Sample], float]:
    """``connections`` concurrent sessions, each stepping through its
    stream as fast as answers land; a finished session is replaced by the
    next one.  ``Sample.index`` is ``session * 10**6 + step``."""
    samples: list[Sample] = []
    counter = itertools.count()
    start = time.perf_counter()
    end = start + seconds

    def client() -> None:
        conn = server.connect()
        try:
            while time.perf_counter() < end:
                number = next(counter)
                steps = session_for(number)
                created, broken = _timed_post(
                    conn, "/session", b"{}", "interactive", number * 10**6, time.perf_counter()
                )
                if created.status != 200:
                    # A refused session is a failed request, not a sample of
                    # the step latency the workload measures.
                    samples.append(created)
                    if broken:
                        conn.close()
                        conn = server.connect()
                    continue
                path = f"/session/{json.loads(created.payload)['session']['id']}"
                for step in range(steps.steps):
                    if time.perf_counter() >= end:
                        break
                    sample, broken = _timed_post(
                        conn, path + "/step", steps.body(step), "interactive",
                        number * 10**6 + step, time.perf_counter(),
                    )
                    samples.append(sample)
                    if broken:
                        conn.close()
                        conn = server.connect()
                try:
                    delete(conn, path)
                except (OSError, http.client.HTTPException):
                    conn.close()  # teardown is best-effort; the steps are recorded
                    conn = server.connect()
        finally:
            conn.close()

    _run_threads([client] * connections)
    return samples, time.perf_counter() - start
