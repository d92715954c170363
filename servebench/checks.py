"""Answer checks, run after the window and outside the timing.

Each check takes the request body and the answer bytes and returns
``(ok, ratio, reason)``: ``ratio`` is the answer's height over its lower
bound (the report's own ``ratio``), ``reason`` says what failed.  The
checks run in a small process pool, since re-solving every ``cold_mixed``
request costs about as much CPU as serving it.
"""

from __future__ import annotations

import json
import multiprocessing
from typing import Sequence

from repro.core.errors import ReproError
from repro.core.placement import validate_placement
from repro.core.serialize import instance_from_dict, placement_from_dict
from repro.engine import bound_components, default_algorithm, run

#: Slack on the warm-start gate, for float rounding in the bound sums.
GATE_RTOL = 1e-9


def _decode(body: bytes, payload: bytes):
    request = json.loads(body)
    instance = instance_from_dict(request["instance"])
    answer = json.loads(payload)
    placement = placement_from_dict(answer["placement"], instance)
    validate_placement(instance, placement)
    report = answer["report"]
    if placement.height != report["height"]:
        raise ValueError(
            f"report height {report['height']} != placement height {placement.height}"
        )
    algorithm = request.get("algorithm") or default_algorithm(instance)
    return instance, algorithm, report


def check(kind: str, body: bytes, payload: bytes, cache: str = "",
          delta: float = 0.0) -> tuple[bool, float | None, str]:
    """``kind`` is ``valid`` (placement only), ``cold`` (plus the height a
    direct ``engine.run`` gives) or ``warm`` (a warm answer within
    ``(1 + delta)`` of the lower bound, any other answer as ``cold``)."""
    try:
        instance, algorithm, report = _decode(body, payload)
        if kind == "warm" and cache == "warm":
            lower = max(bound_components(instance).values())
            if report["height"] > (1.0 + delta) * lower * (1.0 + GATE_RTOL):
                return False, report["ratio"], (
                    f"warm height {report['height']} above (1+{delta})*{lower}"
                )
        elif kind in ("cold", "warm"):
            direct = run(instance, algorithm, validate=False, compute_bounds=False)
            if direct.height != report["height"]:
                return False, report["ratio"], (
                    f"{algorithm}: served height {report['height']} != direct {direct.height}"
                )
        return True, report["ratio"], ""
    except (ReproError, KeyError, TypeError, ValueError) as exc:
        return False, None, f"{type(exc).__name__}: {exc}"


def _check_star(args):
    return check(*args)


def check_all(jobs: Sequence[tuple], processes: int) -> list[tuple[bool, float | None, str]]:
    """:func:`check` over ``jobs`` (argument tuples), in order."""
    if processes <= 1 or len(jobs) < 8:
        return [check(*job) for job in jobs]
    # Fork, not spawn: a spawned pool also starts multiprocessing's
    # resource tracker, which is left to outlive the benchmark process.
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(processes) as pool:
        results = pool.map(_check_star, jobs, chunksize=max(1, len(jobs) // (8 * processes)))
        pool.close()
        pool.join()
    return results
