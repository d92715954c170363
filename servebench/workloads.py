"""The four workloads: server flags, priming, traffic and answer checks.

Why each exists (see README.md for the full map):

* ``hot_fleet`` -- every measured request is a cache hit through the
  2-worker router, so only the front door works: HTTP read, JSON parse,
  instance build and canonical key (twice: router and worker), the ring
  forward and the L1 lookup.
* ``cold_mixed`` -- every request is a distinct instance on a solo
  server, round-robin over seven algorithms: micro-batcher, kernels,
  bounds, validation, encode and cache writes dominate.
* ``stall_mix`` -- cached 20-rect requests at a fixed 100/s while a
  distinct 10 000-rect ``nfdh`` request arrives every 3 s: bulk parse and
  encode on the event loop stall the interactive stream.
* ``session_warm`` -- two sessions replay growing-prefix release streams
  against ``--warm-delta 0.75``: every step is answered by repairing the
  nearest cached neighbour.
"""

from __future__ import annotations

import itertools
import json
from typing import Iterator

import traffic
from checks import check, check_all
from loops import Sample, closed_loop, open_loop, session_loop
from service import ServerError, ServerProcess, delete, post

#: Client threads and connections: one per CPU of the 2-CPU target box.
CONNECTIONS = 2


def _prime(server: ServerProcess, path: str, body: bytes) -> bytes:
    conn = server.connect()
    try:
        status, _, payload = post(conn, path, body)
    finally:
        conn.close()
    if status != 200:
        raise ServerError(f"priming POST {path} answered {status}: {payload[:200]!r}")
    return payload


class Workload:
    """One traffic mix.  Subclasses fill in the hooks below."""

    name = ""
    serve_args: tuple[str, ...] = ()
    #: Whether requests pass the router (replayed as two resolves + ring).
    fleet = False
    warm_delta: float | None = None

    def __init__(self, seed: int, seconds: float) -> None:
        """``seconds`` is the length of the measured window."""
        self.seed = seed
        self.seconds = seconds

    def prime(self, server: ServerProcess) -> None:
        """Send every priming request; raises :class:`ServerError`."""
        raise NotImplementedError

    def window(self, server: ServerProcess) -> tuple[list[Sample], float]:
        """Drive the measured window: ``(samples, wall seconds)``."""
        raise NotImplementedError

    def check(self, samples: list[Sample], processes: int) -> list[tuple[bool, float | None, str]]:
        """One ``(ok, ratio, reason)`` per sample, in order."""
        raise NotImplementedError

    def replay_requests(self) -> Iterator[bytes]:
        """The bodies in the order the server saw them: priming, then
        the window's traffic (endless for closed loops)."""
        raise NotImplementedError


def _byte_check(sample: Sample, primed: list[bytes], verdicts: list) -> tuple:
    """A cached answer must be byte-identical to the primed answer."""
    slot = sample.index % len(primed)
    ok, ratio, _ = verdicts[slot]
    if sample.status != 200:
        return False, None, f"status {sample.status}"
    if sample.payload != primed[slot]:
        return False, None, "answer differs from the primed answer"
    return ok, ratio, "" if ok else "primed answer failed its check"


def _pooled_checks(samples: list[Sample], job_of, processes: int) -> list:
    """:func:`check` every answered sample in the pool; the rest fail on
    their status."""
    results = iter(check_all([job_of(s) for s in samples if s.status == 200], processes))
    return [
        next(results) if s.status == 200 else (False, None, f"status {s.status}")
        for s in samples
    ]


class HotFleet(Workload):
    name = "hot_fleet"
    serve_args = ("--workers", "2")
    fleet = True

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(seed, seconds)
        self.bodies = traffic.hot_bodies(seed)
        self.primed: list[bytes] = []

    def prime(self, server):
        self.primed = [_prime(server, "/solve", body) for body in self.bodies]

    def window(self, server):
        return closed_loop(
            server, lambda i: self.bodies[i % len(self.bodies)], CONNECTIONS, self.seconds
        )

    def check(self, samples, processes):
        verdicts = [check("valid", b, p) for b, p in zip(self.bodies, self.primed)]
        return [_byte_check(sample, self.primed, verdicts) for sample in samples]

    def replay_requests(self):
        # Priming sent each body once, in order: the first cycle.
        return itertools.cycle(self.bodies)


class ColdMixed(Workload):
    name = "cold_mixed"

    #: Bodies built before the launch, per second of window: about 1.3x
    #: the fastest rate seen on 2 CPUs.  Later indices are built on demand.
    POOL_PER_SECOND = 110

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(seed, seconds)
        self.priming = traffic.cold_priming_bodies(seed)
        self.pool = [
            traffic.cold_body(seed, i) for i in range(int(seconds * self.POOL_PER_SECOND))
        ]

    def body(self, index: int) -> bytes:
        if index < len(self.pool):
            return self.pool[index]
        return traffic.cold_body(self.seed, index)

    def prime(self, server):
        for body in self.priming:
            _prime(server, "/solve", body)

    def window(self, server):
        return closed_loop(server, self.body, CONNECTIONS, self.seconds)

    def check(self, samples, processes):
        return _pooled_checks(
            samples, lambda s: ("cold", self.body(s.index), s.payload), processes
        )

    def replay_requests(self):
        return itertools.chain(self.priming, map(self.body, itertools.count()))


class StallMix(Workload):
    name = "stall_mix"

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(seed, seconds)
        self.interactive = traffic.stall_interactive_bodies()
        self.interactive_dues = traffic.stall_interactive_dues(seconds)
        self.bulk_dues = traffic.stall_bulk_dues(seconds)
        self.bulk = traffic.stall_bulk_bodies(seed, len(self.bulk_dues))
        self.priming = traffic.stall_priming_bodies(seed)
        self.primed: list[bytes] = []

    def prime(self, server):
        self.primed = [_prime(server, "/solve", body) for body in self.interactive]
        for body in self.priming:
            _prime(server, "/solve", body)

    def _interactive_body(self, index: int) -> bytes:
        return self.interactive[index % len(self.interactive)]

    def window(self, server):
        return open_loop(server, [
            ("interactive", self.interactive_dues,
             [self._interactive_body(i) for i in range(len(self.interactive_dues))]),
            ("bulk", self.bulk_dues, self.bulk),
        ])

    def check(self, samples, processes):
        verdicts = [check("valid", b, p) for b, p in zip(self.interactive, self.primed)]
        bulk = iter(_pooled_checks(
            [s for s in samples if s.stream == "bulk"],
            lambda s: ("valid", self.bulk[s.index], s.payload),
            processes,
        ))
        return [
            _byte_check(s, self.primed, verdicts) if s.stream == "interactive" else next(bulk)
            for s in samples
        ]

    def replay_requests(self):
        yield from self.interactive
        yield from self.priming
        schedule = sorted(
            [(due, 0, i) for i, due in enumerate(self.interactive_dues)]
            + [(due, 1, j) for j, due in enumerate(self.bulk_dues)]
        )
        for _, stream, index in schedule:
            yield self._interactive_body(index) if stream == 0 else self.bulk[index]


class SessionWarm(Workload):
    name = "session_warm"
    warm_delta = traffic.WARM_DELTA
    serve_args = ("--warm-delta", str(traffic.WARM_DELTA))

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(seed, seconds)
        self.priming = traffic.session_priming_steps(seed)
        self._sessions: dict[int, traffic.SessionSteps] = {
            n: traffic.SessionSteps(seed, n) for n in range(CONNECTIONS)
        }

    def session(self, number: int) -> traffic.SessionSteps:
        if number not in self._sessions:
            self._sessions[number] = traffic.SessionSteps(self.seed, number)
        return self._sessions[number]

    def body(self, index: int) -> bytes:
        return self.session(index // 10**6).body(index % 10**6)

    def prime(self, server):
        conn = server.connect()
        try:
            status, _, raw = post(conn, "/session", b"{}")
            if status != 200:
                raise ServerError(f"priming POST /session answered {status}")
            path = f"/session/{json.loads(raw)['session']['id']}"
            for step in range(self.priming.steps):
                status, _, payload = post(conn, path + "/step", self.priming.body(step))
                if status != 200:
                    raise ServerError(f"priming session step answered {status}: {payload[:200]!r}")
            delete(conn, path)
        finally:
            conn.close()

    def window(self, server):
        return session_loop(server, self.session, CONNECTIONS, self.seconds)

    def check(self, samples, processes):
        return _pooled_checks(
            samples,
            lambda s: ("warm", self.body(s.index), s.payload, s.cache, self.warm_delta),
            processes,
        )

    def replay_requests(self):
        for step in range(self.priming.steps):
            yield self.priming.body(step)
        # The window runs CONNECTIONS sessions side by side: interleave them.
        first = 0
        while True:
            for step in range(traffic.SESSION_STEPS):
                for number in range(first, first + CONNECTIONS):
                    yield self.session(number).body(step)
            first += CONNECTIONS


WORKLOADS = {cls.name: cls for cls in (HotFleet, ColdMixed, StallMix, SessionWarm)}
