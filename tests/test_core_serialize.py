"""Tests for JSON serialization of instances and placements."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import InvalidInstanceError
from repro.core.instance import PrecedenceInstance, ReleaseInstance, StripPackingInstance
from repro.core.placement import validate_placement
from repro.core.rectangle import Rect
from repro.core.serialize import (
    _tick_columns,
    _ticks,
    canonical_hash,
    canonical_params,
    dumps_instance,
    instance_from_dict,
    instance_to_dict,
    loads_instance,
    placement_from_dict,
    instance_sketch,
    placement_to_dict,
    result_key,
)
from repro.core.tol import ATOL
from repro.dag.graph import TaskDAG

from .conftest import precedence_instances, rect_lists, release_instances


def rects3():
    return [
        Rect(rid="a", width=0.5, height=1.0),
        Rect(rid="b", width=0.25, height=0.5, release=1.0),
        Rect(rid="c", width=0.75, height=0.25),
    ]


class TestInstanceRoundTrip:
    def test_plain(self):
        inst = StripPackingInstance(rects3())
        out = loads_instance(dumps_instance(inst))
        assert type(out) is StripPackingInstance
        assert [r.rid for r in out.rects] == ["a", "b", "c"]
        assert out.rects[1].release == 1.0

    def test_precedence(self):
        inst = PrecedenceInstance(rects3(), TaskDAG(["a", "b", "c"], [("a", "b")]))
        out = loads_instance(dumps_instance(inst))
        assert isinstance(out, PrecedenceInstance)
        assert out.dag.edges() == [("a", "b")]

    def test_release(self):
        inst = ReleaseInstance(rects3(), K=4)
        out = loads_instance(dumps_instance(inst))
        assert isinstance(out, ReleaseInstance)
        assert out.K == 4

    def test_unknown_type(self):
        with pytest.raises(InvalidInstanceError):
            instance_from_dict({"type": "quantum", "rects": []})

    def test_missing_K(self):
        with pytest.raises(InvalidInstanceError):
            instance_from_dict({"type": "release", "rects": []})

    def test_missing_field(self):
        with pytest.raises(InvalidInstanceError):
            instance_from_dict({"type": "plain", "rects": [{"id": 0, "width": 0.5}]})

    def test_dict_shape(self):
        inst = PrecedenceInstance(rects3(), TaskDAG(["a", "b", "c"], [("a", "c")]))
        d = instance_to_dict(inst)
        assert d["type"] == "precedence"
        assert d["edges"] == [["a", "c"]]
        json.dumps(d)  # JSON-ready


class TestPlacementRoundTrip:
    def test_round_trip(self):
        inst = StripPackingInstance(rects3())
        from repro.core.registry import solve

        p = solve(inst, "nfdh")
        d = placement_to_dict(p)
        q = placement_from_dict(d, inst)
        validate_placement(inst, q)
        assert q.height == p.height

    def test_unknown_id_rejected(self):
        inst = StripPackingInstance(rects3())
        with pytest.raises(InvalidInstanceError):
            placement_from_dict({"placements": [{"id": "ghost", "x": 0, "y": 0}]}, inst)

    def test_sorted_output(self):
        inst = StripPackingInstance(rects3())
        from repro.core.registry import solve

        d = placement_to_dict(solve(inst, "nfdh"))
        ids = [e["id"] for e in d["placements"]]
        assert ids == sorted(ids)


# ----------------------------------------------------------------------
# canonical fingerprinting (the serving cache's identity function)
# ----------------------------------------------------------------------

def _permuted(instance, seed):
    """The same instance with its rectangle tuple reordered (ids kept)."""
    import numpy as np

    rects = list(instance.rects)
    order = np.random.default_rng(seed).permutation(len(rects))
    rects = [rects[i] for i in order]
    if isinstance(instance, ReleaseInstance):
        return ReleaseInstance(rects, instance.K)
    if isinstance(instance, PrecedenceInstance):
        return PrecedenceInstance(rects, instance.dag)
    return StripPackingInstance(rects)


def _tick_table(instance):
    """Everything the canonical form of a plain instance reads: per-id ticks."""
    rids, ticks = _tick_columns(instance, ATOL)
    return sorted(zip(map(repr, rids), map(tuple, ticks.tolist())))


def _fixtures():
    """One plain, one precedence and one release instance (the pins below)."""
    plain = StripPackingInstance(rects3())
    prec_rects = [Rect(rid=i, width=0.1 + 0.07 * i, height=0.3 + 0.11 * i) for i in range(6)]
    prec = PrecedenceInstance(
        prec_rects, TaskDAG(list(range(6)), [(0, 2), (1, 2), (2, 5), (3, 4)])
    )
    release = ReleaseInstance(
        [
            Rect(rid=f"t{i}", width=0.25 + 0.05 * i, height=0.2 + 0.1 * i, release=0.5 * (i % 3))
            for i in range(5)
        ],
        K=4,
    )
    return plain, prec, release


class TestCanonicalHash:
    @given(rects=rect_lists(min_size=1, max_size=12), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_rect_reordering(self, rects, seed):
        inst = StripPackingInstance(rects)
        shuffled = _permuted(inst, seed)
        assert canonical_hash(inst) == canonical_hash(shuffled)
        assert instance_sketch(inst) == instance_sketch(shuffled)

    @given(inst=precedence_instances(max_size=8), seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_precedence_invariant_under_reordering(self, inst, seed):
        shuffled = _permuted(inst, seed)
        assert canonical_hash(inst) == canonical_hash(shuffled)
        assert instance_sketch(inst) == instance_sketch(shuffled)

    @given(inst=release_instances(max_size=8), seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_release_invariant_under_reordering(self, inst, seed):
        shuffled = _permuted(inst, seed)
        assert canonical_hash(inst) == canonical_hash(shuffled)
        assert instance_sketch(inst) == instance_sketch(shuffled)

    @given(
        ids=st.lists(
            st.one_of(st.integers(-(2**70), 2**70), st.text(max_size=4)),
            min_size=1,
            max_size=10,
            unique_by=lambda rid: (type(rid), rid),
        ),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_mixed_int_and_str_ids_order_totally(self, ids, seed):
        rects = [Rect(rid=rid, width=0.5, height=1.0 + i) for i, rid in enumerate(ids)]
        inst = StripPackingInstance(rects)
        assert canonical_hash(inst) == canonical_hash(_permuted(inst, seed))

    @given(rects=rect_lists(min_size=1, max_size=10), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_hash_is_a_function_of_the_tick_table(self, rects, seed):
        """Equal tick tables hash equal; unequal hashes mean unequal tables."""
        a = StripPackingInstance(rects)
        b = _permuted(a, seed)
        if _tick_table(a) == _tick_table(b):
            assert canonical_hash(a) == canonical_hash(b)
        if canonical_hash(a) != canonical_hash(b):
            assert _tick_table(a) != _tick_table(b)

    @given(
        values=st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=8
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_columnar_ticks_equal_scalar_ticks(self, values):
        """np.rint and round() both round half to even: bit-identical ticks."""
        values = values + [2.5e-9, 3.5e-9, 0.5e-9]  # exact half-tick ties
        rects = [
            Rect(rid=i, width=min(1.0, max(v, 1e-6)), height=v + 1e-6, release=v)
            for i, v in enumerate(values)
        ]
        _rids, ticks = _tick_columns(StripPackingInstance(rects), ATOL)
        expected = [
            [_ticks(r.width, ATOL), _ticks(r.height, ATOL), _ticks(r.release, ATOL)]
            for r in rects
        ]
        assert ticks.tolist() == expected

    @given(
        ticks=st.lists(st.integers(1, 10**9), min_size=1, max_size=8),
        noise=st.floats(min_value=-0.25, max_value=0.25),
    )
    @settings(max_examples=60, deadline=None)
    def test_subtolerance_noise_collapses_on_the_grid(self, ticks, noise):
        exact = [Rect(rid=i, width=0.5, height=k * ATOL) for i, k in enumerate(ticks)]
        noisy = [Rect(rid=i, width=0.5, height=(k + noise) * ATOL) for i, k in enumerate(ticks)]
        a, b = StripPackingInstance(exact), StripPackingInstance(noisy)
        assert canonical_hash(a) == canonical_hash(b)
        assert instance_sketch(a) == instance_sketch(b)

    def test_subtolerance_noise_collapses(self):
        a = StripPackingInstance([Rect(rid=0, width=0.5, height=1.0)])
        b = StripPackingInstance(
            [Rect(rid=0, width=0.5 + ATOL / 10, height=1.0 - ATOL / 10)]
        )
        assert canonical_hash(a) == canonical_hash(b)
        assert instance_sketch(a) == instance_sketch(b)

    def test_super_tolerance_difference_separates(self):
        a = StripPackingInstance([Rect(rid=0, width=0.5, height=1.0)])
        b = StripPackingInstance([Rect(rid=0, width=0.5 + 1e4 * ATOL, height=1.0)])
        assert canonical_hash(a) != canonical_hash(b)

    def test_ids_are_part_of_the_identity(self):
        a = StripPackingInstance([Rect(rid="a", width=0.5, height=1.0)])
        b = StripPackingInstance([Rect(rid="b", width=0.5, height=1.0)])
        assert canonical_hash(a) != canonical_hash(b)
        # an int id and its string form are different ids
        c = StripPackingInstance([Rect(rid=1, width=0.5, height=1.0)])
        d = StripPackingInstance([Rect(rid="1", width=0.5, height=1.0)])
        assert canonical_hash(c) != canonical_hash(d)

    def test_variant_and_structure_separate(self):
        rects = rects3()
        plain = StripPackingInstance(rects)
        release = ReleaseInstance(rects, K=4)
        release8 = ReleaseInstance(rects, K=8)
        chain = PrecedenceInstance(rects, TaskDAG(["a", "b", "c"], [("a", "b")]))
        loose = PrecedenceInstance(rects, TaskDAG(["a", "b", "c"], []))
        hashes = [canonical_hash(i) for i in (plain, release, release8, chain, loose)]
        assert len(set(hashes)) == 5

    def test_edge_order_is_canonicalised(self):
        a = PrecedenceInstance(rects3(), TaskDAG(["a", "b", "c"], [("a", "b"), ("b", "c")]))
        b = PrecedenceInstance(rects3(), TaskDAG(["a", "b", "c"], [("b", "c"), ("a", "b")]))
        assert canonical_hash(a) == canonical_hash(b)

    def test_edge_direction_is_part_of_the_identity(self):
        a = PrecedenceInstance(rects3(), TaskDAG(["a", "b", "c"], [("a", "b")]))
        b = PrecedenceInstance(rects3(), TaskDAG(["a", "b", "c"], [("b", "a")]))
        assert canonical_hash(a) != canonical_hash(b)

    def test_hash_is_hex_sha256(self):
        digest = canonical_hash(StripPackingInstance(rects3()))
        assert len(digest) == 64 and int(digest, 16) >= 0

    @pytest.mark.parametrize("height", [float("inf"), float("nan"), 1e300])
    def test_dimension_without_a_tick_is_rejected(self, height):
        rect = Rect(rid=0, width=0.5, height=1.0)
        object.__setattr__(rect, "height", height)  # bypass Rect's own check
        with pytest.raises(InvalidInstanceError):
            canonical_hash(StripPackingInstance([rect]))

    def test_v2_digest_is_pinned(self):
        """The canonical form is the spill tier's file identity: changing
        it silently turns every spilled entry into a miss, so it may only
        change together with its version tag."""
        assert canonical_hash(StripPackingInstance(rects3())) == (
            "df5d9e6754695863b72b7f864eab280d8162614b18a3830c8698c4a4caf93309"
        )


class TestSketchPins:
    """Literal band keys recorded before the sketch moved onto the shared
    tick columns: warm-start neighbour matching must not change."""

    def test_band_keys_are_byte_identical(self):
        plain, prec, release = _fixtures()
        assert instance_sketch(plain) == (
            "plain|0:1855d7b1224524b2",
            "plain|1:4b8913e90e433721",
            "plain|2:09889e3037196d58",
            "plain|3:e31faee73e737d71",
        )
        assert instance_sketch(prec) == (
            "precedence|0:e15d0820e3829697",
            "precedence|1:014d00c6ca1838b1",
            "precedence|2:fa0a2fc0e1355e9e",
            "precedence|3:9d71325d8fc5ce43",
        )
        assert instance_sketch(release) == (
            "release/4|0:247c2e8f46b8f7fe",
            "release/4|1:c0fdf4132f65e2c9",
            "release/4|2:691967ae386f6278",
            "release/4|3:5aaa88866fa55715",
        )


class TestResultKey:
    def test_key_structure_and_determinism(self):
        inst = StripPackingInstance(rects3())
        key = result_key(inst, "nfdh", {"x": 1})
        assert key == result_key(inst, "nfdh", {"x": 1})
        assert key.split("|")[0] == canonical_hash(inst)
        assert key.split("|")[1] == "nfdh"

    def test_spec_and_params_separate_keys(self):
        inst = StripPackingInstance(rects3())
        keys = {
            result_key(inst, "nfdh"),
            result_key(inst, "ffdh"),
            result_key(inst, "aptas", {"eps": 0.5}),
            result_key(inst, "aptas", {"eps": 0.25}),
        }
        assert len(keys) == 4

    def test_none_and_empty_params_share_a_key(self):
        inst = StripPackingInstance(rects3())
        assert result_key(inst, "nfdh", None) == result_key(inst, "nfdh", {})

    def test_param_floats_are_tolerance_aware(self):
        inst = StripPackingInstance(rects3())
        assert result_key(inst, "aptas", {"eps": 0.5}) == result_key(
            inst, "aptas", {"eps": 0.5 + ATOL / 10}
        )

    def test_param_key_order_is_canonical(self):
        assert canonical_params({"a": 1, "b": 2}) == canonical_params({"b": 2, "a": 1})

    def test_nested_and_scalar_param_values(self):
        out = canonical_params({"names": ("a", "b"), "flag": True, "depth": 2})
        parsed = json.loads(out)
        assert parsed["names"] == ["s:a", "s:b"] and parsed["flag"] is True
        assert parsed["depth"].startswith("n:")  # numbers are tagged ticks

    def test_params_never_alias_across_types(self):
        # 4 and 4.0 are the same parameter value (JSON clients emit either)
        assert canonical_params({"K": 4}) == canonical_params({"K": 4.0})
        # a float never collides with the raw integer equal to its tick
        # count (both quantise, so 0.5 -> n:5e8 but 500000000 -> n:5e17)
        assert canonical_params({"eps": 0.5}) != canonical_params({"eps": 500000000})
        # a string can't forge a number's canonical form (the "s:" tag)
        assert canonical_params({"eps": 0.5}) != canonical_params({"eps": "n:500000000"})
        # and bools stay bools, never numbers
        assert canonical_params({"x": True}) != canonical_params({"x": 1})

    def test_empty_spec_name_rejected(self):
        with pytest.raises(InvalidInstanceError):
            result_key(StripPackingInstance(rects3()), "")

    def test_unserialisable_param_rejected(self):
        with pytest.raises(InvalidInstanceError):
            canonical_params({"fn": object()})
