"""Columns-first decode of instance JSON.

:func:`repro.core.serialize.instance_from_dict` decodes a clean body
straight into :class:`~repro.core.arrays.RectArrays` columns; the
instance builds its ``Rect`` objects only when something reads
``instance.rects``.  Pinned here:

* a columns-first instance is indistinguishable from the ``Rect``-first
  one it was serialised from: ``==``, ``hash``, pickling, bit-identical
  columns, ``result_key`` and ``instance_sketch``, over all three
  variants and int, str and mixed ids;
* every spec places a columns-first instance byte for byte like the
  ``Rect``-first one;
* every rejected body raises the same error, and gets the same status and
  message from the service, as when every body was decoded ``Rect`` by
  ``Rect``.
"""

from __future__ import annotations

import http.client
import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.arrays import RectArrays
from repro.core.instance import PrecedenceInstance, ReleaseInstance, StripPackingInstance
from repro.core.rectangle import Rect
from repro.core.serialize import (
    instance_from_dict,
    instance_sketch,
    instance_to_dict,
    placement_to_dict,
    result_key,
)
from repro.dag.graph import TaskDAG
from repro.engine import all_specs, default_algorithm, run
from repro.service import InProcessServer, SolveServer
from repro.workloads.dags import (
    random_precedence_instance,
    uniform_height_precedence_instance,
)
from repro.workloads.random_rects import powerlaw_rects
from repro.workloads.releases import poisson_release_instance

from .conftest import heights, widths


def _relabel(i: int, style: str):
    if style == "int":
        return i
    if style == "str":
        return f"t{i}"
    return i if i % 2 else f"t{i}"


@st.composite
def instances(draw):
    """Any variant, with int, str or mixed ids."""
    variant = draw(st.sampled_from(["plain", "precedence", "release"]))
    style = draw(st.sampled_from(["int", "str", "mixed"]))
    K = 4
    rows = draw(
        st.lists(
            st.tuples(
                widths() if variant != "release" else st.integers(1, K).map(lambda c: c / K),
                heights(1.0 if variant == "release" else 4.0),
                st.floats(min_value=0.0, max_value=3.0, allow_nan=False)
                if variant == "release"
                else st.just(0.0),
            ),
            max_size=16,
        )
    )
    rects = [
        Rect(rid=_relabel(i, style), width=w, height=h, release=r)
        for i, (w, h, r) in enumerate(rows)
    ]
    if variant == "release":
        return ReleaseInstance(rects, K)
    if variant == "precedence":
        pairs = [(i, j) for i in range(len(rects)) for j in range(i + 1, len(rects))]
        edges = draw(st.lists(st.sampled_from(pairs), max_size=24, unique=True)) if pairs else []
        ids = [r.rid for r in rects]
        return PrecedenceInstance(rects, TaskDAG(ids, [(ids[u], ids[v]) for u, v in edges]))
    return StripPackingInstance(rects)


def _decoded(instance):
    """The columns-first twin: the instance through JSON and back."""
    return instance_from_dict(json.loads(json.dumps(instance_to_dict(instance))))


def _assert_same_columns(got: RectArrays, want: RectArrays) -> None:
    assert got.rids == want.rids
    assert [type(rid) for rid in got.rids] == [type(rid) for rid in want.rids]
    for column in ("width", "height", "release"):
        a, b = getattr(got, column), getattr(want, column)
        assert a.dtype == b.dtype == np.float64
        assert a.tobytes() == b.tobytes()
        assert not a.flags.writeable


class TestColumnsFirstEqualsRectFirst:
    @settings(deadline=None, max_examples=150)
    @given(instances())
    def test_equal_in_every_observable(self, original):
        decoded = _decoded(original)
        assert type(decoded) is type(original)
        assert "rects" not in vars(decoded)  # columns first

        # The key path reads only columns.
        _assert_same_columns(decoded.arrays(), original.arrays())
        assert len(decoded) == len(original)
        name = default_algorithm(decoded)
        assert name == default_algorithm(original)
        assert result_key(decoded, name) == result_key(original, name)
        assert instance_sketch(decoded) == instance_sketch(original)
        assert "rects" not in vars(decoded)

        # Pickling a columns-first instance keeps it columns-first.
        restored = pickle.loads(pickle.dumps(decoded))
        assert "rects" not in vars(restored)
        _assert_same_columns(restored.arrays(), original.arrays())

        # TaskDAG compares by identity, so a precedence twin is compared
        # with a Rect-first instance over the same DAG object.
        for twin in (decoded, restored):
            want = (
                PrecedenceInstance(original.rects, twin.dag)
                if isinstance(original, PrecedenceInstance)
                else original
            )
            assert twin == want
            assert hash(twin) == hash(want)
            assert twin.rects == original.rects
            assert [type(r.width) for r in twin.rects] == [float] * len(original)
            again = pickle.loads(pickle.dumps(twin))  # now with its Rects
            assert again.rects == original.rects
            _assert_same_columns(again.arrays(), original.arrays())

    def test_rects_are_built_once_and_cached(self):
        decoded = _decoded(StripPackingInstance([Rect(i, 0.5, 1.0) for i in range(3)]))
        first = decoded.rects
        assert decoded.rects is first is decoded.arrays().rects

    def test_clean_rows_of_any_json_number_shape(self):
        body = {
            "type": "plain",
            "rects": [
                {"id": 0, "width": 1, "height": 2},
                {"id": 1, "width": "0.25", "height": True},
                {"id": 2, "width": 0.5, "height": 1e-300, "release": -0.0},
            ],
        }
        decoded = instance_from_dict(body)
        assert "rects" not in vars(decoded)
        assert decoded.rects == (
            Rect(0, 1.0, 2.0), Rect(1, 0.25, 1.0), Rect(2, 0.5, 1e-300, -0.0),
        )

    def test_missing_attribute_is_still_an_attribute_error(self):
        decoded = _decoded(StripPackingInstance([Rect(0, 0.5, 1.0)]))
        with pytest.raises(AttributeError):
            decoded.no_such_attribute  # noqa: B018
        assert not hasattr(decoded, "dag")


def _spec_instances():
    """Instances of every variant, decoded once per spec run."""
    rng = np.random.default_rng(2024)
    plain = StripPackingInstance(powerlaw_rects(40, rng))
    uniform = uniform_height_precedence_instance(30, 0.1, rng)
    general = random_precedence_instance(30, 0.1, rng)
    release = poisson_release_instance(30, 4, rng, rate=2.0)
    mixed = StripPackingInstance(
        [Rect(rid=i if i % 3 else f"{i}", width=0.05 + (i % 7) / 10, height=1.0 + i % 4)
         for i in range(25)]
    )
    return {"plain": [plain, mixed], "precedence": [uniform, general], "release": [release]}


def _outcome(instance, name):
    try:
        report = run(instance, name)
    except Exception as exc:  # both sides must fail alike
        return ("raised", type(exc).__name__, str(exc))
    placement = placement_to_dict(report.placement) if report.placement is not None else None
    return (report.height, report.error, json.dumps(placement))


@pytest.mark.parametrize("spec", all_specs(), ids=lambda s: s.name)
def test_every_spec_places_columns_first_instances_identically(spec):
    by_variant = _spec_instances()
    for variant in spec.variants:
        for original in by_variant[variant]:
            assert _outcome(_decoded(original), spec.name) == _outcome(original, spec.name)


# ----------------------------------------------------------------------
# rejections: same error, same status, same message
# ----------------------------------------------------------------------

def _r(i, w=0.5, h=1.0, **extra):
    return {"id": i, "width": w, "height": h, **extra}


_OK = _r(1)

#: name -> instance document.  The strings "NaN", "Infinity" and
#: "-Infinity" are written as bare JSON constants (see ``_raw``).
BAD_INSTANCES = {
    "nan-width": {"type": "plain", "rects": [_OK, _r(2, w="NaN")]},
    "inf-height": {"type": "plain", "rects": [_OK, _r(2, h="Infinity")]},
    "neg-inf-release": {"type": "plain", "rects": [_r(0, release="-Infinity")]},
    "inf-release": {"type": "release", "K": 2, "rects": [_r(0, release="Infinity")]},
    "zero-width": {"type": "plain", "rects": [_r(0, w=0)]},
    "wide": {"type": "plain", "rects": [_r(0, w=1.5)]},
    "negative-height": {"type": "plain", "rects": [_r(0, h=-1)]},
    "zero-height": {"type": "plain", "rects": [_r(0, h=0.0)]},
    "negative-release": {"type": "release", "K": 2, "rects": [_r(0, release=-0.5)]},
    "string-width": {"type": "plain", "rects": [_OK, _r(2, w="abc")]},
    "none-height": {"type": "plain", "rects": [_OK, _r(2, h=None)]},
    "list-width": {"type": "plain", "rects": [_r(0, w=[0.5])]},
    "dict-release": {"type": "plain", "rects": [_r(0, release={})]},
    "huge-int-width": {"type": "plain", "rects": [_r(0, w=10**400)]},
    "missing-width": {"type": "plain", "rects": [_OK, {"id": 2, "height": 1.0}]},
    "missing-id": {"type": "plain", "rects": [{"width": 0.5, "height": 1.0}]},
    "missing-height": {"type": "precedence", "rects": [{"id": 0, "width": 0.5}], "edges": []},
    "missing-rects": {"type": "plain"},
    "rects-object": {"type": "plain", "rects": {"a": 1}},
    "rects-string": {"type": "plain", "rects": "abc"},
    "rects-number": {"type": "plain", "rects": 5},
    "rects-null": {"type": "plain", "rects": None},
    "entry-number": {"type": "plain", "rects": [_OK, 5]},
    "entry-string": {"type": "plain", "rects": ["abc"]},
    "entry-list": {"type": "plain", "rects": [[1, 0.5, 1.0]]},
    "entry-null": {"type": "plain", "rects": [None]},
    "duplicate-ids": {"type": "plain", "rects": [_OK, _r(2), _r(1, w=0.25)]},
    "duplicate-int-float-ids": {"type": "plain", "rects": [_r(1), _r(1.0)]},
    "unhashable-list-id": {"type": "plain", "rects": [_OK, _r([1])]},
    "unhashable-dict-id": {"type": "release", "K": 2, "rects": [_r({"a": 1})]},
    "unhashable-precedence-id": {"type": "precedence", "rects": [_r([1])], "edges": []},
    "multi-nan-then-string": {"type": "plain", "rects": [_r(0, w="NaN"), _r(1, w="abc")]},
    "multi-string-then-nan": {"type": "plain", "rects": [_r(0, w="abc"), _r(1, w="NaN")]},
    "multi-missing-then-nan": {"type": "plain", "rects": [{"id": 0, "height": 1}, _r(1, h="NaN")]},
    "multi-nan-then-missing": {"type": "plain", "rects": [_r(0, h="NaN"), {"id": 1, "height": 1}]},
    "multi-dup-then-nan": {"type": "plain", "rects": [_r(0), _r(0), _r(1, w="NaN")]},
    "multi-dup-and-bad-K": {"type": "release", "K": 0, "rects": [_r(0), _r(0)]},
    "multi-bad-rect-and-no-K": {"type": "release", "rects": [_r(0, w=2.0)]},
    "multi-dup-and-bad-edges": {"type": "precedence", "rects": [_r(0), _r(0)], "edges": 5},
    "multi-dup-and-unknown-edge": {"type": "precedence", "rects": [_r(0), _r(0)], "edges": [[0, 9]]},
    "release-missing-K": {"type": "release", "rects": [_OK]},
    "release-zero-K": {"type": "release", "K": 0, "rects": [_OK]},
    "release-negative-K": {"type": "release", "K": -3, "rects": [_OK]},
    "release-string-K": {"type": "release", "K": "abc", "rects": [_OK]},
    "release-null-K": {"type": "release", "K": None, "rects": [_OK]},
    "release-nan-K": {"type": "release", "K": "NaN", "rects": [_OK]},
    "release-inf-K": {"type": "release", "K": "Infinity", "rects": [_OK]},
    "release-list-K": {"type": "release", "K": [2], "rects": [_OK]},
    "edges-number": {"type": "precedence", "rects": [_OK], "edges": 5},
    "edges-short-pair": {"type": "precedence", "rects": [_OK, _r(2)], "edges": [[1]]},
    "edges-long-pair": {"type": "precedence", "rects": [_OK, _r(2)], "edges": [[1, 2, 3]]},
    "edges-not-pairs": {"type": "precedence", "rects": [_OK, _r(2)], "edges": [5]},
    "edges-unknown-node": {"type": "precedence", "rects": [_OK], "edges": [[1, 7]]},
    "edges-self-loop": {"type": "precedence", "rects": [_OK], "edges": [[1, 1]]},
    "edges-cycle": {"type": "precedence", "rects": [_OK, _r(2)], "edges": [[1, 2], [2, 1]]},
    "edges-unhashable": {"type": "precedence", "rects": [_OK], "edges": [[[1], 1]]},
    "unknown-type": {"type": "circle", "rects": []},
    "missing-type": {"rects": []},
    "instance-list": [1, 2],
}

_TYPE = "TypeError"
_FLOAT_ARG = "float() argument must be a string or a real number, not "
_INT_ARG = "int() argument must be a string, a bytes-like object or a real number, not "

#: name -> (exception, message), recorded when every body was decoded
#: ``Rect`` by ``Rect``.  The service answers ``422 invalid instance:
#: <message>`` for each.  The two ``OverflowError`` bodies used to escape
#: as a 500; they are now a 422 like every other bad instance.
EXPECTED = {
    "nan-width": ("InvalidInstanceError", "rect 2: width must be finite, got nan"),
    "inf-height": ("InvalidInstanceError", "rect 2: height must be finite, got inf"),
    "neg-inf-release": ("InvalidInstanceError", "rect 0: release must be finite, got -inf"),
    "inf-release": ("InvalidInstanceError", "rect 0: release must be finite, got inf"),
    "zero-width": ("InvalidInstanceError", "rect 0: width must be in (0, 1], got 0.0"),
    "wide": ("InvalidInstanceError", "rect 0: width must be in (0, 1], got 1.5"),
    "negative-height": ("InvalidInstanceError", "rect 0: height must be positive, got -1.0"),
    "zero-height": ("InvalidInstanceError", "rect 0: height must be positive, got 0.0"),
    "negative-release": (
        "InvalidInstanceError", "rect 0: release must be non-negative, got -0.5",
    ),
    "string-width": ("ValueError", "could not convert string to float: 'abc'"),
    "none-height": (_TYPE, _FLOAT_ARG + "'NoneType'"),
    "list-width": (_TYPE, _FLOAT_ARG + "'list'"),
    "dict-release": (_TYPE, _FLOAT_ARG + "'dict'"),
    "huge-int-width": ("OverflowError", "int too large to convert to float"),
    "missing-width": ("InvalidInstanceError", "rect entry missing field 'width'"),
    "missing-id": ("InvalidInstanceError", "rect entry missing field 'id'"),
    "missing-height": ("InvalidInstanceError", "rect entry missing field 'height'"),
    "missing-rects": ("InvalidInstanceError", "rect entry missing field 'rects'"),
    "rects-object": (_TYPE, "string indices must be integers, not 'str'"),
    "rects-string": (_TYPE, "string indices must be integers, not 'str'"),
    "rects-number": (_TYPE, "'int' object is not iterable"),
    "rects-null": (_TYPE, "'NoneType' object is not iterable"),
    "entry-number": (_TYPE, "'int' object is not subscriptable"),
    "entry-string": (_TYPE, "string indices must be integers, not 'str'"),
    "entry-list": (_TYPE, "list indices must be integers or slices, not str"),
    "entry-null": (_TYPE, "'NoneType' object is not subscriptable"),
    "duplicate-ids": ("InvalidInstanceError", "duplicate rectangle id 1"),
    "duplicate-int-float-ids": ("InvalidInstanceError", "duplicate rectangle id 1.0"),
    "unhashable-list-id": (_TYPE, "unhashable type: 'list'"),
    "unhashable-dict-id": (_TYPE, "unhashable type: 'dict'"),
    "unhashable-precedence-id": (_TYPE, "unhashable type: 'list'"),
    "multi-nan-then-string": ("InvalidInstanceError", "rect 0: width must be finite, got nan"),
    "multi-string-then-nan": ("ValueError", "could not convert string to float: 'abc'"),
    "multi-missing-then-nan": ("InvalidInstanceError", "rect entry missing field 'width'"),
    "multi-nan-then-missing": ("InvalidInstanceError", "rect 0: height must be finite, got nan"),
    "multi-dup-then-nan": ("InvalidInstanceError", "rect 1: width must be finite, got nan"),
    "multi-dup-and-bad-K": ("InvalidInstanceError", "K must be a positive integer, got 0"),
    "multi-bad-rect-and-no-K": (
        "InvalidInstanceError", "rect 0: width must be in (0, 1], got 2.0",
    ),
    "multi-dup-and-bad-edges": (_TYPE, "'int' object is not iterable"),
    "multi-dup-and-unknown-edge": ("InvalidInstanceError", "edge (0, 9) references unknown node"),
    "release-missing-K": ("InvalidInstanceError", "release instance requires 'K'"),
    "release-zero-K": ("InvalidInstanceError", "K must be a positive integer, got 0"),
    "release-negative-K": ("InvalidInstanceError", "K must be a positive integer, got -3"),
    "release-string-K": ("ValueError", "invalid literal for int() with base 10: 'abc'"),
    "release-null-K": (_TYPE, _INT_ARG + "'NoneType'"),
    "release-nan-K": ("ValueError", "cannot convert float NaN to integer"),
    "release-inf-K": ("OverflowError", "cannot convert float infinity to integer"),
    "release-list-K": (_TYPE, _INT_ARG + "'list'"),
    "edges-number": (_TYPE, "'int' object is not iterable"),
    "edges-short-pair": ("ValueError", "not enough values to unpack (expected 2, got 1)"),
    "edges-long-pair": ("ValueError", "too many values to unpack (expected 2)"),
    "edges-not-pairs": (_TYPE, "'int' object is not iterable"),
    "edges-unknown-node": ("InvalidInstanceError", "edge (1, 7) references unknown node"),
    "edges-self-loop": ("InvalidInstanceError", "self-loop on node 1"),
    "edges-cycle": ("InvalidInstanceError", "precedence graph contains a cycle"),
    "edges-unhashable": (_TYPE, "unhashable type: 'list'"),
    "unknown-type": ("InvalidInstanceError", "unknown instance type 'circle'"),
    "missing-type": ("InvalidInstanceError", "unknown instance type None"),
    "instance-list": ("InvalidInstanceError", "instance JSON must be an object, got list"),
}


def _raw(name: str) -> bytes:
    text = json.dumps(BAD_INSTANCES[name])
    for token in ("-Infinity", "Infinity", "NaN"):
        text = text.replace(f'"{token}"', token)
    return text.encode()


def test_corpus_and_expectations_cover_the_same_bodies():
    assert set(BAD_INSTANCES) == set(EXPECTED)


@pytest.mark.parametrize("name", sorted(BAD_INSTANCES))
def test_rejection_raises_the_rect_path_error(name):
    exception, message = EXPECTED[name]
    with pytest.raises(Exception) as info:
        instance_from_dict(json.loads(_raw(name)))
    assert (type(info.value).__name__, str(info.value)) == (exception, message)


@pytest.fixture(scope="module")
def solo():
    with InProcessServer(SolveServer()) as srv:
        yield srv


def test_service_rejections_keep_status_and_message(solo):
    conn = http.client.HTTPConnection(solo.host, solo.port, timeout=60)
    try:
        for name in sorted(BAD_INSTANCES):
            conn.request(
                "POST", "/solve",
                body=b'{"instance": ' + _raw(name) + b', "algorithm": "ffdh"}',
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            payload = json.loads(response.read())
            want = f"invalid instance: {EXPECTED[name][1]}"
            assert (response.status, payload["error"]) == (422, want), name
    finally:
        conn.close()
