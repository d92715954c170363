"""Seeded request bodies for the four workloads.

Everything the server receives is built here from the run's ``--seed``;
the same seed gives byte-identical bodies.  Instances come from the
project's own generators (:mod:`repro.workloads`, :mod:`repro.sim.stream`)
so the traffic follows the models the paper's experiments use.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

from repro.core.instance import ReleaseInstance, StripPackingInstance
from repro.core.serialize import instance_to_dict
from repro.sim.stream import poisson_stream
from repro.workloads import (
    poisson_release_instance,
    powerlaw_rects,
    random_precedence_instance,
    uniform_height_precedence_instance,
)

#: ``cold_mixed`` cycles these in order: plain, precedence, release.
COLD_ALGORITHMS = (
    "ffdh", "nfdh", "bottom_left", "dc", "shelf_next_fit", "aptas", "release_bl",
)

HOT_DISTINCT = 16
HOT_RECTS = 1000
COLD_RECTS = 200
STALL_INTERACTIVE_DISTINCT = 4
STALL_INTERACTIVE_RECTS = 20
STALL_INTERACTIVE_RATE = 100.0
STALL_BULK_RECTS = 10_000
STALL_BULK_PERIOD_S = 3.0
STALL_BULK_FIRST_S = 0.5
SESSION_BASE = 100
SESSION_STEP = 2
SESSION_STEPS = 300
SESSION_K = 6
SESSION_RATE = 4.0
WARM_DELTA = 0.75

# Seed-stream namespaces, so no two roles ever draw the same instance.
_HOT, _COLD, _COLD_PRIME, _STALL, _BULK, _SESSION, _SESSION_PRIME = range(7)


def solve_body(instance, algorithm: str | None = None) -> bytes:
    doc: dict = {"instance": instance_to_dict(instance)}
    if algorithm is not None:
        doc["algorithm"] = algorithm
    return json.dumps(doc).encode("utf-8")


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def plain_bodies(seed: int, role: int, count: int, n: int, algorithm: str) -> list[bytes]:
    rng = _rng(seed, role)
    return [
        solve_body(StripPackingInstance(powerlaw_rects(n, rng)), algorithm)
        for _ in range(count)
    ]


def hot_bodies(seed: int) -> list[bytes]:
    """``hot_fleet``: the 16 cached 1000-rect ``ffdh`` bodies."""
    return plain_bodies(seed, _HOT, HOT_DISTINCT, HOT_RECTS, "ffdh")


def _mixed_instance(algorithm: str, rng: np.random.Generator):
    if algorithm in ("ffdh", "nfdh", "bottom_left"):
        return StripPackingInstance(powerlaw_rects(COLD_RECTS, rng))
    if algorithm == "dc":
        return random_precedence_instance(COLD_RECTS, 0.02, rng)
    if algorithm == "shelf_next_fit":
        # Theorem 2.6's regime: shelf next-fit is stated for uniform heights.
        return uniform_height_precedence_instance(COLD_RECTS, 0.02, rng)
    return poisson_release_instance(COLD_RECTS, SESSION_K, rng, rate=SESSION_RATE)


def cold_body(seed: int, index: int) -> bytes:
    """``cold_mixed`` request ``index``: a fresh 200-rect instance, with
    the algorithm taken round-robin from :data:`COLD_ALGORITHMS`."""
    algorithm = COLD_ALGORITHMS[index % len(COLD_ALGORITHMS)]
    return solve_body(_mixed_instance(algorithm, _rng(seed, _COLD, index)), algorithm)


def cold_priming_bodies(seed: int) -> list[bytes]:
    """One body per ``cold_mixed`` algorithm, never repeated in the window."""
    return [
        solve_body(_mixed_instance(algorithm, _rng(seed, _COLD_PRIME, i)), algorithm)
        for i, algorithm in enumerate(COLD_ALGORITHMS)
    ]


def stall_interactive_bodies() -> list[bytes]:
    """The 4 cached interactive bodies.  They are the same for every seed:
    four random 20-rect packings would make ``height_ratio_mean`` swing
    from seed to seed, and cached answers carry no other seed effect."""
    return plain_bodies(
        0, _STALL, STALL_INTERACTIVE_DISTINCT, STALL_INTERACTIVE_RECTS, "ffdh"
    )


def stall_bulk_dues(seconds: float) -> list[float]:
    """Due times (s from window start) of the bulk stream."""
    count = max(0, math.ceil((seconds - STALL_BULK_FIRST_S) / STALL_BULK_PERIOD_S))
    return [STALL_BULK_FIRST_S + j * STALL_BULK_PERIOD_S for j in range(count)]


def stall_interactive_dues(seconds: float) -> list[float]:
    return [k / STALL_INTERACTIVE_RATE for k in range(int(seconds * STALL_INTERACTIVE_RATE))]


def stall_bulk_bodies(seed: int, count: int) -> list[bytes]:
    """Distinct 10 000-rect ``nfdh`` bodies (cache misses by construction)."""
    return plain_bodies(seed, _BULK, count, STALL_BULK_RECTS, "nfdh")


def stall_priming_bodies(seed: int) -> list[bytes]:
    """A small ``nfdh`` body that primes the bulk stream's algorithm
    without caching any bulk answer."""
    return plain_bodies(seed, _BULK + 100, 1, STALL_INTERACTIVE_RECTS, "nfdh")


class SessionSteps:
    """The growing-prefix step bodies of one replayed release stream.

    Step ``j`` is the release instance over the first
    ``SESSION_BASE + j * SESSION_STEP`` arrivals of a seeded Poisson
    stream, so consecutive steps differ by an add-only delta.  Each rect
    is serialised once; a step body is a join of a prefix of those, which
    keeps body building out of the client's measured time.
    """

    def __init__(self, seed: int, session: int, *, role: int = _SESSION,
                 steps: int = SESSION_STEPS) -> None:
        total = SESSION_BASE + (steps - 1) * SESSION_STEP
        stream = poisson_stream(SESSION_K, _rng(seed, role, session), rate=SESSION_RATE)
        tasks = list(itertools.islice(iter(stream), total))
        rects = instance_to_dict(ReleaseInstance(tasks, SESSION_K))["rects"]
        self._fragments = [json.dumps(rect) for rect in rects]
        self.steps = steps

    def body(self, step: int) -> bytes:
        prefix = ", ".join(self._fragments[: SESSION_BASE + step * SESSION_STEP])
        return (
            f'{{"instance": {{"type": "release", "K": {SESSION_K}, "rects": [{prefix}]}}}}'
        ).encode("utf-8")


def session_priming_steps(seed: int) -> SessionSteps:
    """Two steps of a stream the window never replays: a cold ``aptas``
    solve, then a warm repair of it."""
    return SessionSteps(seed, 0, role=_SESSION_PRIME, steps=2)
