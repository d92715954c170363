"""Columnar (structure-of-arrays) view of a rectangle collection.

The object model (:class:`~repro.core.rectangle.Rect`, frozen dataclasses)
is the right interface for algorithms that reason about individual tasks,
but the offline subroutines the paper's reductions call repeatedly —
NFDH/FFDH/BFDH and the uniform-height algorithm F — iterate over *every*
rectangle of an instance thousands of times.  Per-object attribute access
dominates their runtime long before the algorithmic work does.

:class:`RectArrays` is the columnar twin: parallel numpy ``float64``
columns (``width``/``height``/``release``) plus the ``rids`` column and
the rectangle tuple for materialisation at the boundary.  Kernels address
rectangles by *position* (an integer row index), not by object, and only
convert back to the object world once, through :class:`PlacementBuilder`.

The columns can also come first: :meth:`RectArrays.from_columns` adopts
already-decoded columns (the JSON decode of
:func:`repro.core.serialize.instance_from_dict`), and the ``Rect`` tuple
is then built only when something first reads ``rects`` — a request that
is only keyed and routed never builds one.

Discipline shared with the skyline kernel (:mod:`repro.geometry.skyline`):
columnar compute must be *observationally identical* to the object-based
reference — numpy ``float64`` arithmetic is IEEE-754 double arithmetic, so
an elementwise ``used + w`` equals the scalar Python sum bit for bit, and
the differential suite (``tests/test_levels_differential.py``) holds the
kernels to that standard placement-for-placement.
"""

from __future__ import annotations

from typing import Hashable, Sequence

import numpy as np

from .errors import InvalidPlacementError
from .placement import PlacedRect, Placement
from .rectangle import Rect

__all__ = [
    "RectArrays",
    "StackedRectArrays",
    "PlacementBuilder",
    "decreasing_order",
    "stacked_decreasing_order",
]

Node = Hashable


class RectArrays:
    """Parallel columns over a fixed rectangle collection.

    ``width``/``height``/``release`` are read-only ``float64`` arrays and
    ``rids`` a tuple, with row ``i`` describing ``rects[i]``; :meth:`index`
    maps ids back to row positions.  Instances are immutable —
    :meth:`repro.core.instance.StripPackingInstance.arrays` builds one per
    instance and caches it, so every kernel run over the same instance
    shares one copy of the columns.
    """

    __slots__ = ("rids", "width", "height", "release", "_rects", "_index", "_sids")

    def __init__(self, rects: Sequence[Rect]):
        rects = tuple(rects)
        n = len(rects)
        self._set_columns(
            tuple(r.rid for r in rects),
            np.fromiter((r.width for r in rects), np.float64, n),
            np.fromiter((r.height for r in rects), np.float64, n),
            np.fromiter((r.release for r in rects), np.float64, n),
        )
        self._rects: tuple[Rect, ...] | None = rects

    def _set_columns(
        self,
        rids: tuple[Node, ...],
        width: np.ndarray,
        height: np.ndarray,
        release: np.ndarray,
    ) -> None:
        width.setflags(write=False)
        height.setflags(write=False)
        release.setflags(write=False)
        self.rids = rids
        self.width = width
        self.height = height
        self.release = release
        self._index: dict[Node, int] | None = None
        self._sids: np.ndarray | None = None

    # -- construction ---------------------------------------------------
    @classmethod
    def from_rects(cls, rects: Sequence[Rect]) -> "RectArrays":
        """Columnar view of a plain rectangle sequence."""
        return cls(rects)

    @classmethod
    def from_columns(
        cls,
        rids: tuple[Node, ...],
        width: np.ndarray,
        height: np.ndarray,
        release: np.ndarray,
    ) -> "RectArrays | None":
        """Adopt decoded ``float64`` columns, or ``None`` if a row is bad.

        One mask applies :class:`~repro.core.rectangle.Rect`'s field rules
        to every row at once (``0 < width <= 1``, ``0 < height``,
        ``0 <= release``, all finite; NaN fails every comparison).  It only
        decides whether the columns are clean: on ``None`` the caller
        builds the ``Rect`` objects instead, so their constructor stays
        the one place that words the error.  Id uniqueness is the
        instance's check, not this one.
        """
        clean = (
            (width > 0.0) & (width <= 1.0)
            & (height > 0.0) & (height < np.inf)
            & (release >= 0.0) & (release < np.inf)
        )
        if not clean.all():
            return None
        arrays = cls.__new__(cls)
        arrays._set_columns(rids, width, height, release)
        arrays._rects = None
        return arrays

    @classmethod
    def coerce(cls, rects) -> "RectArrays":
        """Adapt any packer input to columns.

        Accepts a :class:`RectArrays` (returned as-is), anything with an
        ``arrays()`` method (instances, which cache the columns), or a
        plain rectangle sequence (columns built on the spot).
        """
        if isinstance(rects, RectArrays):
            return rects
        arrays = getattr(rects, "arrays", None)
        if callable(arrays):
            return arrays()
        return cls(rects)

    # -- queries ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self.rids)

    @property
    def rects(self) -> tuple[Rect, ...]:
        """The rectangles, in row order (built from the columns on first
        access when the columns came first)."""
        if self._rects is None:
            self._rects = tuple(
                map(
                    Rect,
                    self.rids,
                    self.width.tolist(),
                    self.height.tolist(),
                    self.release.tolist(),
                )
            )
        return self._rects

    def index(self) -> dict[Node, int]:
        """Mapping rid -> row position (built lazily, then reused)."""
        if self._index is None:
            self._index = {rid: i for i, rid in enumerate(self.rids)}
        return self._index

    def sid_column(self) -> np.ndarray:
        """String form of the ids, in row order (the lexicographic
        tie-break key of :func:`decreasing_order`; built lazily, then
        reused — instances cache their ``RectArrays``, so repeated
        solves skip the per-rect ``str()`` pass)."""
        if self._sids is None:
            self._sids = np.array([str(rid) for rid in self.rids])
        return self._sids

    def __getstate__(self):
        # Drop the lazy caches; numpy columns pickle fine (process
        # backend).  Built ``Rect``s travel as they are, so a rectangle
        # built with an int width unpickles with its int width.
        if self._rects is not None:
            return (self._rects,)
        return (self.rids, self.width, self.height, self.release)

    def __setstate__(self, state) -> None:
        if len(state) == 1:
            self.__init__(state[0])
        else:
            self._set_columns(*state)
            self._rects = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RectArrays(n={len(self)})"


def decreasing_order(arrays: RectArrays) -> np.ndarray:
    """Row permutation sorting by non-increasing height.

    The array-native twin of
    :func:`repro.core.rectangle.decreasing_height_order`: ties in height
    break by wider-first, then by the *lexicographic string form* of the
    id (same intentional tie-break — see that function's docstring).
    ``np.lexsort`` is stable, exactly like ``sorted``, so rows that tie on
    all three keys keep their input order and the two orderings agree
    permutation-for-permutation.
    """
    if not len(arrays):
        return np.empty(0, dtype=np.intp)
    # lexsort sorts by the *last* key first: height desc, width desc, sid asc.
    return np.lexsort((arrays.sid_column(), -arrays.width, -arrays.height))


class StackedRectArrays:
    """K instances' columns concatenated into one arena.

    The batched solve path (:mod:`repro.engine.stacked`) stacks every
    instance of a batch into single ``width``/``height`` columns with
    ``offsets`` marking the K+1 segment bounds, so one stacked sort and
    one kernel invocation replace K independent dispatches.  Row
    ``offsets[k] + i`` of the stack is row ``i`` of ``parts[k]``; the
    per-part :class:`RectArrays` are kept for materialising placements
    at the object boundary.
    """

    __slots__ = ("parts", "width", "height", "offsets")

    def __init__(self, parts: Sequence):
        self.parts: tuple[RectArrays, ...] = tuple(
            RectArrays.coerce(p) for p in parts
        )
        counts = np.array([len(p) for p in self.parts], dtype=np.int64)
        offsets = np.zeros(len(self.parts) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        self.offsets = offsets
        if self.parts and offsets[-1]:
            self.width = np.concatenate([p.width for p in self.parts])
            self.height = np.concatenate([p.height for p in self.parts])
        else:
            self.width = np.empty(0, dtype=np.float64)
            self.height = np.empty(0, dtype=np.float64)

    def __len__(self) -> int:
        """Total stacked row count (sum over parts)."""
        return int(self.offsets[-1])

    def segment(self, k: int) -> tuple[int, int]:
        """Global row bounds ``[lo, hi)`` of part ``k``."""
        return int(self.offsets[k]), int(self.offsets[k + 1])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StackedRectArrays(parts={len(self.parts)}, n={len(self)})"


def stacked_decreasing_order(stacked: StackedRectArrays) -> np.ndarray:
    """Stacked row permutation: per-part decreasing-height order, parts
    kept contiguous and in input order.

    One ``lexsort`` with the part index as the *major* key; the minor
    keys are exactly :func:`decreasing_order`'s.  ``np.lexsort`` is
    stable, so slicing the result at ``stacked.offsets`` yields, segment
    by segment, the same permutation :func:`decreasing_order` computes
    for each part alone (shifted by the part's row offset) — the
    stacked-order differential test pins this equivalence.
    """
    n = len(stacked)
    if not n:
        return np.empty(0, dtype=np.intp)
    # Empty parts are skipped: their sid column is a float64 empty array
    # (numpy's default for ``np.array([])``) and would poison the
    # concatenated string dtype while contributing no rows.
    sids = np.concatenate([p.sid_column() for p in stacked.parts if len(p)])
    part_idx = np.repeat(
        np.arange(len(stacked.parts), dtype=np.int64), np.diff(stacked.offsets)
    )
    return np.lexsort((sids, -stacked.width, -stacked.height, part_idx))


class PlacementBuilder:
    """Array-native placement accumulator.

    Kernels append ``(row, x, y)`` triples — plain Python floats, already
    clamped — and :meth:`build` materialises the one
    :class:`~repro.core.placement.Placement` at the object boundary.  The
    accumulation order is preserved, so the built placement iterates in
    exactly the order the kernel placed (the object-based packers place
    into a dict in the same order, which keeps the two worlds
    byte-comparable).
    """

    __slots__ = ("arrays", "_rows", "_xs", "_ys")

    def __init__(self, arrays: RectArrays):
        self.arrays = arrays
        self._rows: list[int] = []
        self._xs: list[float] = []
        self._ys: list[float] = []

    def put(self, row: int, x: float, y: float) -> None:
        """Record the rectangle at row ``row`` with lower-left ``(x, y)``."""
        self._rows.append(row)
        self._xs.append(x)
        self._ys.append(y)

    def __len__(self) -> int:
        return len(self._rows)

    def build(self, dy: float = 0.0) -> Placement:
        """Materialise the accumulated columns into a :class:`Placement`,
        optionally shifting every ``y`` up by ``dy``."""
        rects = self.arrays.rects
        placed: dict[Node, PlacedRect] = {}
        if dy:
            for row, x, y in zip(self._rows, self._xs, self._ys):
                r = rects[row]
                placed[r.rid] = PlacedRect(r, x, y + dy)
        else:
            for row, x, y in zip(self._rows, self._xs, self._ys):
                r = rects[row]
                placed[r.rid] = PlacedRect(r, x, y)
        if len(placed) != len(self._rows):
            raise InvalidPlacementError("placement builder saw a rectangle twice")
        return Placement(placed)
