"""Unit tests for the vectorized census engine (repro.kernels)."""

import numpy as np
import pytest

from repro.geometry import Point, Rect
from repro.kernels import LeafPartition, vector_census
from repro.obs import Tracer, tracing
from repro.quadtree import PRQuadtree


class TestVectorCensusBasics:
    def test_empty_tree_is_one_empty_leaf(self):
        partition = vector_census([], capacity=4)
        assert partition.leaf_count == 1
        assert partition.size == 0
        assert partition.occupancy_census().counts == (1, 0, 0, 0, 0)

    def test_single_point(self):
        partition = vector_census([Point(0.5, 0.5)], capacity=1)
        assert partition.leaf_count == 1
        assert partition.height() == 0
        assert partition.occupancy_census().counts == (0, 1)

    def test_under_capacity_never_splits(self):
        pts = [Point(0.1, 0.1), Point(0.9, 0.9)]
        partition = vector_census(pts, capacity=2)
        assert partition.leaf_count == 1
        assert partition.occupancy_census().counts == (0, 0, 1)

    def test_one_split_counts_empty_siblings(self):
        # two points in opposite quadrants: 4 leaves, 2 of them empty
        pts = [Point(0.1, 0.1), Point(0.9, 0.9)]
        partition = vector_census(pts, capacity=1)
        assert partition.leaf_count == 4
        assert partition.occupancy_census().counts == (2, 2)
        assert partition.depth_census().by_depth == {1: (2, 2)}

    def test_accepts_coordinate_array(self):
        arr = np.array([[0.1, 0.1], [0.9, 0.9], [0.2, 0.7]])
        from_array = vector_census(arr, capacity=1)
        from_points = vector_census(
            [Point(*row) for row in arr], capacity=1
        )
        assert from_array.occupancy_census() == from_points.occupancy_census()

    def test_duplicates_collapse_like_tree_insert(self):
        p = Point(0.3, 0.4)
        partition = vector_census([p, p, p, Point(0.8, 0.8)], capacity=2)
        assert partition.size == 2
        assert partition.leaf_count == 1

    def test_negative_zero_is_a_duplicate_of_zero(self):
        bounds = Rect(Point(-1.0, -1.0), Point(1.0, 1.0))
        pts = [Point(0.0, 0.5), Point(-0.0, 0.5)]
        partition = vector_census(pts, capacity=8, bounds=bounds)
        assert partition.size == 1

    def test_max_depth_zero_pins_the_root(self):
        pts = [Point(0.1, 0.2), Point(0.6, 0.7), Point(0.9, 0.1)]
        partition = vector_census(pts, capacity=1, max_depth=0)
        assert partition.leaf_count == 1
        assert int(partition.occupancies[0]) == 3


class TestValidation:
    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            vector_census([], capacity=0)

    def test_max_depth_validated(self):
        with pytest.raises(ValueError, match="max_depth"):
            vector_census([], capacity=1, max_depth=-1)

    def test_point_outside_bounds(self):
        with pytest.raises(ValueError, match="outside tree bounds"):
            vector_census([Point(1.5, 0.5)], capacity=1)

    def test_hi_edge_is_exclusive(self):
        # half-open bounds, exactly like PRQuadtree.insert
        with pytest.raises(ValueError, match="outside tree bounds"):
            vector_census([Point(1.0, 0.5)], capacity=1)

    def test_dim_bounds_conflict(self):
        with pytest.raises(ValueError, match="conflicts"):
            vector_census([], capacity=1, bounds=Rect.unit(3), dim=4)

    def test_dim_mismatch_in_points(self):
        with pytest.raises(ValueError):
            vector_census([Point(0.5, 0.5, 0.5)], capacity=1, dim=2)

    def test_dim_defaults_to_bounds(self):
        # dim=2 default defers to explicit 3-d bounds, like the tree
        partition = vector_census(
            [Point(0.5, 0.5, 0.5)], capacity=1, bounds=Rect.unit(3)
        )
        assert partition.leaf_count == 1


class TestLeafPartition:
    def test_clamp_overflow(self):
        part = LeafPartition(
            capacity=2,
            depths=np.array([0]),
            occupancies=np.array([5]),
        )
        assert part.occupancy_census().counts == (0, 0, 1)
        with pytest.raises(ValueError, match="exceeds capacity"):
            part.occupancy_census(clamp_overflow=False)
        with pytest.raises(ValueError, match="exceeds capacity"):
            part.depth_census(clamp_overflow=False)

    def test_depth_census_skips_absent_depths(self):
        part = LeafPartition(
            capacity=2,
            depths=np.array([3, 1, 3, 3]),
            occupancies=np.array([0, 2, 1, 7]),
        )
        census = part.depth_census()
        assert census.by_depth == {1: (0, 0, 1), 3: (1, 1, 1)}
        assert list(census.by_depth) == [1, 3]
        empty = LeafPartition(
            capacity=4,
            depths=np.empty(0, dtype=np.int64),
            occupancies=np.empty(0, dtype=np.int64),
        )
        assert empty.depth_census().by_depth == {}

    def test_census_counts_are_plain_ints(self):
        partition = vector_census(
            [Point(0.1, 0.1), Point(0.9, 0.9)], capacity=1
        )
        assert all(
            type(c) is int for c in partition.occupancy_census().counts
        )
        for row in partition.depth_census().by_depth.values():
            assert all(type(c) is int for c in row)


class TestObservability:
    def test_kernel_spans_and_counters(self):
        tracer = Tracer()
        pts = [Point(x / 40.0, (x * 7 % 40) / 40.0) for x in range(40)]
        with tracing(tracer):
            partition = vector_census(pts, capacity=2)
        spans = tracer.to_dict()["spans"]
        assert "kernel.census" in spans
        children = spans["kernel.census"]["children"]
        assert "kernel.codes" in children
        assert "kernel.sort" in children
        assert "kernel.partition" in children
        assert tracer.counters["kernel.census"] == 1
        assert tracer.counters["kernel.points"] == 40
        assert tracer.counters["kernel.leaves"] == partition.leaf_count
        assert tracer.gauges["kernel.depth"].max == partition.height()

    def test_untraced_runs_free(self):
        # no tracer installed: kernel must not blow up on obs calls
        partition = vector_census([Point(0.2, 0.3)], capacity=1)
        assert partition.leaf_count == 1


class TestAgainstTree:
    def test_leaf_records_match_tree_shape(self):
        pts = [Point(x / 50.0, (x * 13 % 50) / 50.0) for x in range(50)]
        tree = PRQuadtree(capacity=2)
        tree.insert_many(pts)
        partition = vector_census(pts, capacity=2)
        assert partition.leaf_count == tree.leaf_count()
        assert partition.height() == tree.height()
        assert partition.size == len(tree)
