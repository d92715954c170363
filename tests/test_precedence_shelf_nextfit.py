"""Tests for Algorithm F (shelf Next-Fit, Theorem 2.6) and Lemma 2.5."""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import InvalidInstanceError
from repro.core.instance import PrecedenceInstance
from repro.core.placement import validate_placement
from repro.core.rectangle import Rect
from repro.dag.generators import layered_dag, random_order_dag
from repro.dag.graph import TaskDAG
from repro.precedence.shelf_nextfit import shelf_next_fit
from repro.workloads.random_rects import unit_height_rects

from .conftest import dags_over


def unit_instance(widths, edges=()):
    rects = [Rect(rid=i, width=w, height=1.0) for i, w in enumerate(widths)]
    return PrecedenceInstance(rects, TaskDAG(range(len(widths)), edges))


class TestBasics:
    def test_empty(self):
        run = shelf_next_fit(unit_instance([]))
        assert run.height == 0.0 and run.n_skips == 0

    def test_non_uniform_rejected(self):
        rs = [Rect(rid=0, width=0.5, height=1.0), Rect(rid=1, width=0.5, height=2.0)]
        inst = PrecedenceInstance.without_constraints(rs)
        with pytest.raises(InvalidInstanceError):
            shelf_next_fit(inst)

    def test_single_shelf(self):
        run = shelf_next_fit(unit_instance([0.3, 0.3, 0.3]))
        assert run.height == 1.0 and len(run.shelves) == 1

    def test_width_close_opens_new_shelf(self):
        run = shelf_next_fit(unit_instance([0.6, 0.6]))
        assert run.height == 2.0
        assert not run.shelves[0].closed_by_skip  # queue non-empty at close

    def test_chain_forces_one_per_shelf(self):
        inst = unit_instance([0.1, 0.1, 0.1], edges=[(0, 1), (1, 2)])
        run = shelf_next_fit(inst)
        assert run.height == 3.0
        assert run.n_skips == 3  # every shelf closes on an empty queue

    def test_placement_valid(self, rng):
        from repro.workloads.dags import uniform_height_precedence_instance

        inst = uniform_height_precedence_instance(40, 0.05, rng)
        run = shelf_next_fit(inst)
        validate_placement(inst, run.placement)

    def test_non_unit_common_height(self):
        rs = [Rect(rid=i, width=0.4, height=0.5) for i in range(3)]
        inst = PrecedenceInstance(rs, TaskDAG.chain([0, 1, 2]))
        run = shelf_next_fit(inst)
        assert math.isclose(run.height, 1.5)
        validate_placement(inst, run.placement)


class TestLemma25:
    """#skips <= OPT — tested against the longest-chain lower bound and,
    on small instances, the exact optimum."""

    @pytest.mark.parametrize("seed", range(6))
    def test_skips_at_most_chain_plus_area_bound(self, seed):
        from repro.core.bounds import combined_lower_bound
        from repro.workloads.dags import uniform_height_precedence_instance

        rng = np.random.default_rng(seed)
        inst = uniform_height_precedence_instance(30, 0.1, rng)
        run = shelf_next_fit(inst)
        # Lemma 2.5's proof constructs a chain through the skip shelves, so
        # skips <= longest chain length <= OPT; the chain length equals the
        # critical-path bound here (all heights 1).
        from repro.core.bounds import critical_path_bound

        assert run.n_skips <= critical_path_bound(inst) + 1e-9


class TestTheorem26:
    @pytest.mark.parametrize("seed", range(6))
    def test_three_approximation_vs_lower_bound(self, seed):
        from repro.core.bounds import combined_lower_bound
        from repro.workloads.dags import uniform_height_precedence_instance

        rng = np.random.default_rng(seed)
        inst = uniform_height_precedence_instance(36, 0.08, rng)
        run = shelf_next_fit(inst)
        validate_placement(inst, run.placement)
        assert run.height <= 3.0 * combined_lower_bound(inst) + 1e-7

    def test_ratio3_construction_is_tight(self):
        from repro.workloads.adversarial import ratio3_instance

        adv = ratio3_instance(4, eps=1e-4)
        run = shelf_next_fit(adv.instance)
        validate_placement(adv.instance, run.placement)
        # The construction's optimum is n; Algorithm F also achieves it here
        # (the instance shows lower-bound weakness, not algorithm weakness).
        assert run.height <= adv.analytic["opt"] + 1e-9


@settings(deadline=None)
@given(
    st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=1, max_size=12),
    st.data(),
)
def test_shelf_next_fit_valid_and_3_approx(widths, data):
    dag = data.draw(dags_over(len(widths)))
    rects = [Rect(rid=i, width=w, height=1.0) for i, w in enumerate(widths)]
    inst = PrecedenceInstance(rects, dag)
    run = shelf_next_fit(inst)
    validate_placement(inst, run.placement)
    from repro.core.bounds import combined_lower_bound

    assert run.height <= 3.0 * combined_lower_bound(inst) + 1e-7


def _pinned_instance(shape, n, seed):
    rng = np.random.default_rng([seed, n])
    rects = unit_height_rects(n, rng)
    if shape == "gnp":
        dag = random_order_dag(n, 4.0 / n, rng)
    else:
        dag = layered_dag(n, max(2, n // 25), 0.05, rng)
    return PrecedenceInstance(rects, dag)


def _trace_digest(run):
    """SHA-256 over the shelf trace and the placement, in placement order,
    with every float written exactly (``float.hex``)."""
    doc = {
        "shelves": [
            [s.index, list(s.ids), s.used_width.hex(), s.closed_by_skip]
            for s in run.shelves
        ],
        "placements": [
            [rid, p.x.hex(), p.y.hex()] for rid, p in run.placement.items()
        ],
    }
    return hashlib.sha256(json.dumps(doc).encode("ascii")).hexdigest()


#: (shape, n, seed, shelves, skips, digest), recorded with the original
#: implementation, which rescanned every waiting rectangle and all its
#: predecessors after each shelf closed.
PINNED_TRACES = [
    ("gnp", 50, 0, 36, 2, "8bcb59e7847af38add680fe45bd75f94924bf42a959acdb09a8c336170446545"),
    ("gnp", 50, 1, 36, 2, "1c6a590f9a48f70492161d46f11d2d9392232a92856147bda1e0149e66af3c57"),
    ("gnp", 200, 0, 147, 1, "e955e7522d4b814b631d1ae05ca4c53c4b2f19110b316d3b78f41f44fb7419c8"),
    ("gnp", 200, 1, 142, 3, "d0f87f57c10a97af1c694e165b1550f778aab2941ba0690aed8af0d52198ced4"),
    ("gnp", 1000, 0, 686, 3, "b81eac5b50f88a8dbf2994f87df81c64ae27634b42a46725abdeddecf69bc679"),
    ("gnp", 1000, 1, 671, 2, "cb11cde4f6df5b1d0f973b630b4aa4e6b0f533a31eab1ec75adaeba2c6ca33c0"),
    ("layered", 50, 0, 34, 1, "9c1395748d03a6b90a9cfdcc07013997153dcc5cf02c0f87b88a3a3e8c5aa8eb"),
    ("layered", 50, 1, 34, 1, "124ea9fc6e0f94136ca97184c9728e9dafe411ccca0ac734648c04b603b81a90"),
    ("layered", 200, 0, 139, 1, "aeec799c1376b128d6fb4c796d41126312be80a0f67836c7e8c35557db156ebb"),
    ("layered", 200, 1, 138, 1, "442209147a123e71a9cfa59b0b0ba7248c2d3ec167c305e5933c2ac22ed19a49"),
    ("layered", 1000, 0, 681, 1, "61c3572cdb8bdc0203a537cd55d823923ce1900b7ba7e8754f6a63b2b54cf191"),
    ("layered", 1000, 1, 675, 1, "779e9ed8dc0354bddb1cc6a432eb4e8a66b53dfadee946663ee71c4719a56b36"),
]


@pytest.mark.parametrize("shape,n,seed,shelves,skips,digest", PINNED_TRACES)
def test_shelf_trace_and_placement_are_pinned(shape, n, seed, shelves, skips, digest):
    """The pending-predecessor queue admits exactly the rectangles the
    original full rescan did, in the same order, shelf for shelf."""
    run = shelf_next_fit(_pinned_instance(shape, n, seed))
    assert (len(run.shelves), run.n_skips) == (shelves, skips)
    assert _trace_digest(run) == digest
