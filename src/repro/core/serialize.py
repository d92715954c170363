"""JSON (de)serialization for instances and placements.

The on-disk format is deliberately plain so downstream users can generate
instances from any tooling::

    {
      "type": "precedence",            # "plain" | "precedence" | "release"
      "K": 8,                          # release instances only
      "rects": [
        {"id": "dct:0", "width": 0.25, "height": 2.0, "release": 0.0},
        ...
      ],
      "edges": [["tile_split", "dct:0"], ...]   # precedence only
    }

Placements serialise as ``{"placements": [{"id":..., "x":..., "y":...}]}``.
Round-tripping is exact for ids and floats (no quantisation is applied).

The module also owns the **canonical fingerprint** used by the serving
layer's content-addressed result cache (:mod:`repro.service`):
:func:`canonical_hash` is a SHA-256 over the instance's dimension columns
quantised to the shared geometric tolerance (:data:`repro.core.tol.ATOL`)
and sorted by rect id, so it ignores rectangle order and float noise, and
:func:`result_key` combines the hash with an algorithm name and its
parameter overrides into the cache key for one solve.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Mapping

import numpy as np

from .arrays import RectArrays
from .errors import InvalidInstanceError
from .instance import PrecedenceInstance, ReleaseInstance, StripPackingInstance
from .placement import Placement
from .rectangle import Rect
from .tol import ATOL

__all__ = [
    "instance_to_dict",
    "instance_from_dict",
    "dumps_instance",
    "loads_instance",
    "placement_to_dict",
    "placement_from_dict",
    "canonical_hash",
    "canonical_params",
    "result_key",
    "instance_sketch",
    "instance_delta",
    "SKETCH_HASHES",
    "SKETCH_BANDS",
]


def instance_to_dict(instance: StripPackingInstance) -> dict[str, Any]:
    """Serialise any instance variant to a JSON-ready dict."""
    rects = [
        {"id": r.rid, "width": r.width, "height": r.height, "release": r.release}
        for r in instance.rects
    ]
    if isinstance(instance, ReleaseInstance):
        return {"type": "release", "K": instance.K, "rects": rects}
    if isinstance(instance, PrecedenceInstance):
        return {
            "type": "precedence",
            "rects": rects,
            "edges": [[u, v] for u, v in instance.dag.edges()],
        }
    return {"type": "plain", "rects": rects}


def instance_from_dict(data: dict[str, Any]) -> StripPackingInstance:
    """Rebuild an instance from :func:`instance_to_dict` output.

    A clean body decodes straight into columns (:func:`_rect_columns`);
    the instance then builds its ``Rect`` objects only if a caller reads
    them.  Any other body takes the ``Rect``-by-``Rect`` path, so every
    rejection raises exactly the error that path has always raised.
    """
    if not isinstance(data, dict):
        raise InvalidInstanceError(
            f"instance JSON must be an object, got {type(data).__name__}"
        )
    kind = data.get("type")
    if kind not in ("plain", "precedence", "release"):
        raise InvalidInstanceError(f"unknown instance type {kind!r}")
    rects = _rect_columns(data.get("rects"))
    if rects is None:
        try:
            rects = [
                Rect(
                    rid=entry["id"],
                    width=float(entry["width"]),
                    height=float(entry["height"]),
                    release=float(entry.get("release", 0.0)),
                )
                for entry in data["rects"]
            ]
        except KeyError as exc:
            raise InvalidInstanceError(f"rect entry missing field {exc}") from exc
    if kind == "plain":
        return StripPackingInstance(rects)
    if kind == "release":
        if "K" not in data:
            raise InvalidInstanceError("release instance requires 'K'")
        return ReleaseInstance(rects, int(data["K"]))
    from ..dag.graph import TaskDAG

    edges = [tuple(e) for e in data.get("edges", [])]
    ids = rects.rids if isinstance(rects, RectArrays) else [r.rid for r in rects]
    return PrecedenceInstance(rects, TaskDAG(ids, edges))


def _rect_columns(entries: Any) -> RectArrays | None:
    """Decode a list of rect entries into :class:`RectArrays` columns.

    One pass with the ``Rect`` path's own ``float()`` coercion; the
    columns are then accepted only if every row is valid
    (:meth:`RectArrays.from_columns`).  Anything else — a missing field,
    a value ``float()`` refuses, a bad row, a non-list — returns ``None``
    and leaves the body to the ``Rect`` path, which raises its error.
    """
    if type(entries) is not list:
        return None
    rids: list[Any] = []
    width: list[float] = []
    height: list[float] = []
    release: list[float] = []
    try:
        for entry in entries:
            rids.append(entry["id"])
            width.append(float(entry["width"]))
            height.append(float(entry["height"]))
            release.append(float(entry.get("release", 0.0)))
    except (LookupError, TypeError, ValueError, ArithmeticError, AttributeError):
        # Whatever indexing an entry or float() can raise.  The Rect path
        # raises the first faulty row's error, which may be an earlier
        # row the mask would have caught.
        return None
    return RectArrays.from_columns(
        tuple(rids),
        np.array(width, dtype=np.float64),
        np.array(height, dtype=np.float64),
        np.array(release, dtype=np.float64),
    )


def dumps_instance(instance: StripPackingInstance, **json_kwargs: Any) -> str:
    """Instance -> JSON string."""
    return json.dumps(instance_to_dict(instance), **json_kwargs)


def loads_instance(text: str) -> StripPackingInstance:
    """JSON string -> instance."""
    return instance_from_dict(json.loads(text))


def placement_to_dict(placement: Placement) -> dict[str, Any]:
    """Serialise a placement (sorted by id string for stable output)."""
    return {
        "height": placement.height,
        "placements": sorted(
            ({"id": rid, "x": pr.x, "y": pr.y} for rid, pr in placement.items()),
            key=lambda e: str(e["id"]),
        ),
    }


# ----------------------------------------------------------------------
# canonical fingerprinting (the serving layer's cache identity)
# ----------------------------------------------------------------------

def _ticks(value: float, atol: float) -> int:
    """Quantise ``value`` onto the ``atol`` grid (integer tick count).

    Two dimensions that differ by less than half a tolerance step land on
    the same tick, so float noise far below any geometric decision
    threshold never splits the cache; genuinely different dimensions are
    many ticks apart (see :mod:`repro.core.tol` for why ``ATOL`` separates
    the two regimes).  Non-finite values (``json.loads`` accepts NaN and
    Infinity) have no tick and are rejected.
    """
    value = float(value)
    if not math.isfinite(value):
        raise InvalidInstanceError(f"cannot canonicalise non-finite value {value!r}")
    return int(round(value / atol))


#: Quotients at or beyond 2^63 have no int64 tick.
_TICK_LIMIT = 2.0**63


def _canonical_json(value: Any) -> str:
    """Deterministic JSON used for hashing."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _tick_columns(
    instance: StripPackingInstance, atol: float
) -> tuple[tuple[Any, ...], np.ndarray]:
    """``(rids, ticks)``: the ids and an ``(n, 3)`` int64 array of the
    ``width``/``height``/``release`` columns on the ``atol`` grid, both in
    row order.

    ``np.rint`` rounds half to even exactly like :func:`_ticks`, so every
    entry equals ``_ticks`` of its value.  A quotient with no tick (non-
    finite, or beyond the int64 range: dimensions above ~9.2e9 at the
    default ``ATOL``) is rejected.
    """
    arrays = instance.arrays()
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = np.rint(np.stack((arrays.width, arrays.height, arrays.release), axis=1) / atol)
    if scaled.size and not (np.abs(scaled).max() < _TICK_LIMIT):
        raise InvalidInstanceError(
            "cannot canonicalise a non-finite or out-of-range dimension"
        )
    return arrays.rids, scaled.astype("<i8")


def _id_order(rids: tuple[Any, ...]) -> list[int]:
    """Row positions sorted by id: natural order when the ids are all
    ints or all strs (the JSON cases), else by ``(type name, repr)``.
    Ids are unique (``check_rects``), so either order is total."""
    kinds = set(map(type, rids))
    if kinds <= {int} or kinds == {str}:
        return sorted(range(len(rids)), key=rids.__getitem__)
    return sorted(range(len(rids)), key=lambda i: (type(rids[i]).__name__, repr(rids[i])))


def canonical_hash(instance: StripPackingInstance, *, atol: float = ATOL) -> str:
    """SHA-256 hex digest of the canonical (``v:2``) form of ``instance``.

    The form is an ASCII JSON header — version, type, ``n``, ``K``
    (release), the precedence edges as sorted pairs of id positions, and
    the ids in :func:`_id_order` — followed by the rects' ``(w, h, r)``
    ticks as little-endian int64, in the same order.  ``n`` fixes the
    tick buffer's length, so the encoding is unambiguous.  Properties the
    serving cache relies on:

    * **order-insensitive** — rects (and edges) are sorted by id, so
      permuting ``instance.rects`` does not change the digest;
    * **tolerance-aware** — dimensions are quantised to integer ticks on
      the ``atol`` grid, so float noise below the library's geometric
      tolerance maps to the same digest;
    * **variant-complete** — the type, ``K`` and the edges are part of
      the form, so instances that would solve differently never collide.

    Ids are kept verbatim (placements and edges refer to them), which
    makes the digest intentionally *not* invariant under id renaming.
    """
    rids, ticks = _tick_columns(instance, atol)
    order = _id_order(rids)
    header: dict[str, Any] = {"v": 2, "type": "plain", "n": len(rids)}
    if isinstance(instance, ReleaseInstance):
        header["type"] = "release"
        header["K"] = instance.K
    elif isinstance(instance, PrecedenceInstance):
        position = {rids[row]: pos for pos, row in enumerate(order)}
        header["type"] = "precedence"
        header["edges"] = sorted([position[u], position[v]] for u, v in instance.dag.edges())
    header["ids"] = [rids[row] for row in order]
    digest = hashlib.sha256(_canonical_json(header).encode("ascii"))
    digest.update(ticks[order].tobytes())
    return digest.hexdigest()


def canonical_params(
    params: Mapping[str, Any] | None, *, atol: float = ATOL
) -> str:
    """Parameter overrides as deterministic JSON (``None`` == no overrides).

    Numbers (ints and floats alike) are quantised to the same ``atol``
    grid as geometry and rendered as tagged ``"n:<ticks>"`` strings: an
    ``eps`` that differs by float noise does not split the cache, and
    ``4`` and ``4.0`` (JSON clients emit either) share one key.  String
    values get an ``"s:"`` tag so no string can ever alias a number's
    canonical form.  Nested lists/dicts are canonicalised recursively;
    bools and ``None`` pass through (JSON keeps them distinct from every
    tagged string).
    """

    def canon(value: Any) -> Any:
        if isinstance(value, bool) or value is None:
            return value
        if isinstance(value, str):
            return f"s:{value}"
        if isinstance(value, (int, float)):
            return f"n:{_ticks(value, atol)}"
        if isinstance(value, Mapping):
            return {str(k): canon(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [canon(v) for v in value]
        raise InvalidInstanceError(
            f"parameter value {value!r} is not JSON-canonicalisable"
        )

    return _canonical_json(canon(dict(params) if params else {}))


def result_key(
    instance: StripPackingInstance,
    spec_name: str,
    params: Mapping[str, Any] | None = None,
    *,
    atol: float = ATOL,
) -> str:
    """The content-addressed cache key for one ``(instance, spec, params)``.

    ``spec_name`` must be the *resolved* algorithm name (callers that let
    the engine pick a per-variant default resolve it first, via
    :func:`repro.engine.default_algorithm`), so an explicit request and a
    defaulted request for the same solve share one cache entry.  Two solves
    with the same key are the same solve: same canonical instance, same
    algorithm, same (quantised) parameter overrides.
    """
    if not spec_name:
        raise InvalidInstanceError("result_key needs a non-empty spec name")
    return "|".join(
        (canonical_hash(instance, atol=atol), spec_name, canonical_params(params, atol=atol))
    )


# ----------------------------------------------------------------------
# locality-sensitive sketching (the serving layer's neighbor index)
# ----------------------------------------------------------------------

#: MinHash signature length; grouped into bands of ``SKETCH_HASHES //
#: SKETCH_BANDS`` rows each for LSH banding.
SKETCH_HASHES = 16
SKETCH_BANDS = 4

# 2^64 - 1: the identity of ``min`` over 8-byte hash values.
_SKETCH_MAX = (1 << 64) - 1

# One odd multiplier + offset per MinHash row (derived once from SHA-256 of
# the row index).  Each token is SHA-256-hashed a single time; row ``i``'s
# hash is the affine mix ``(a_i * h + b_i) mod 2^64`` of that digest — the
# standard universal-hashing trick that keeps the sketch O(tokens) instead
# of O(rows * tokens) sha256 calls.
def _row_mixers(rows: int) -> tuple[tuple[int, int], ...]:
    out = []
    for row in range(rows):
        digest = hashlib.sha256(f"sketch-row|{row}".encode("ascii")).digest()
        a = int.from_bytes(digest[:8], "big") | 1  # odd => bijective mod 2^64
        b = int.from_bytes(digest[8:16], "big")
        out.append((a, b))
    return tuple(out)


_SKETCH_MIXERS = _row_mixers(SKETCH_HASHES)


def instance_sketch(
    instance: StripPackingInstance, *, atol: float = ATOL
) -> tuple[str, ...]:
    """Locality-sensitive sketch of ``instance``: a tuple of LSH band keys.

    The sketch is a banded MinHash over one token per rect, ``id`` plus
    its quantised ``(w, h, r)`` ticks (so the token set changes by exactly
    the rects a delta touches).  Two instances that share *any* band key
    are near-duplicate candidates: with ``SKETCH_HASHES=16`` hashes in
    ``SKETCH_BANDS=4`` bands of 4 rows, a pair at Jaccard similarity ``s``
    collides on at least one band with probability ``1-(1-s^4)^4`` — ~97%
    at ``s=0.9`` (a small delta on a mid-size instance), ~4% at ``s=0.4``
    (mostly different rect sets).

    Band keys embed the instance type (and ``K`` for release variants), so
    instances of different variants never collide by construction.  The
    minimum over tokens ignores their order, and the ticks are the ones
    :func:`canonical_hash` reads, so the sketch is order-insensitive and
    tolerance-aware exactly like the hash.
    """
    rids, ticks = _tick_columns(instance, atol)
    # Tokens are hashed once each; rows come from the affine mixers.
    hashes = np.fromiter(
        (
            int.from_bytes(
                hashlib.blake2b(
                    f"{rid!r}|{w}|{h}|{r}".encode("utf-8"), digest_size=8
                ).digest(),
                "big",
            )
            for rid, (w, h, r) in zip(rids, ticks.tolist())
        ),
        dtype=np.uint64,
        count=len(rids),
    )
    if hashes.size:
        signature = [
            int((hashes * np.uint64(a) + np.uint64(b)).min()) for a, b in _SKETCH_MIXERS
        ]
    else:
        signature = [_SKETCH_MAX] * SKETCH_HASHES
    if isinstance(instance, ReleaseInstance):
        variant = f"release/{instance.K}"
    else:
        variant = "precedence" if isinstance(instance, PrecedenceInstance) else "plain"
    rows = SKETCH_HASHES // SKETCH_BANDS
    bands = []
    for band in range(SKETCH_BANDS):
        chunk = ",".join(str(v) for v in signature[band * rows : (band + 1) * rows])
        digest = hashlib.sha256(chunk.encode("ascii")).hexdigest()[:16]
        bands.append(f"{variant}|{band}:{digest}")
    return tuple(bands)


def instance_delta(
    old: StripPackingInstance,
    new: StripPackingInstance,
    *,
    atol: float = ATOL,
) -> dict[str, Any]:
    """Rect-level diff between two instances, keyed by rect id.

    Returns ``{"compatible", "added", "removed", "resized", "unchanged"}``
    where the id lists are sorted (by string form) and disjoint:

    * ``added``     — ids present only in ``new``;
    * ``removed``   — ids present only in ``old``;
    * ``resized``   — ids in both whose quantised ``width``/``height``/
      ``release`` ticks differ (sub-tolerance float noise is *not* a
      resize, matching the cache's equality notion);
    * ``unchanged`` — ids in both with identical ticks.

    ``compatible`` is ``False`` when the variants differ (or two release
    instances disagree on ``K``) — a warm-start repair across variants is
    meaningless, but the rect lists are still reported for diagnostics.
    """

    def entries(instance: StripPackingInstance) -> dict[Any, tuple[int, int, int]]:
        rids, ticks = _tick_columns(instance, atol)
        return dict(zip(rids, map(tuple, ticks.tolist())))

    old_entries, new_entries = entries(old), entries(new)
    added = sorted(set(new_entries) - set(old_entries), key=str)
    removed = sorted(set(old_entries) - set(new_entries), key=str)
    shared = set(old_entries) & set(new_entries)
    resized = sorted((rid for rid in shared if old_entries[rid] != new_entries[rid]), key=str)
    unchanged = sorted((rid for rid in shared if old_entries[rid] == new_entries[rid]), key=str)
    compatible = type(old) is type(new) and not (
        isinstance(old, ReleaseInstance)
        and isinstance(new, ReleaseInstance)
        and old.K != new.K
    )
    return {
        "compatible": compatible,
        "added": added,
        "removed": removed,
        "resized": resized,
        "unchanged": unchanged,
    }


def placement_from_dict(
    data: dict[str, Any], instance: StripPackingInstance
) -> Placement:
    """Rebuild a placement against ``instance`` (ids must match)."""
    by_id = instance.by_id()
    placement = Placement()
    for entry in data["placements"]:
        rid = entry["id"]
        if rid not in by_id:
            raise InvalidInstanceError(f"placement references unknown rect {rid!r}")
        placement.place(by_id[rid], float(entry["x"]), float(entry["y"]))
    return placement
