"""Sorted bulk-load: the fast cold-start path must be indistinguishable
from an incremental build of the same point set."""

import numpy as np
import pytest

from repro.geometry import Point, Rect
from repro.obs import Tracer, tracing
from repro.storage import PagedPRQuadtree, bulk_load_paged
from repro.storage.cli import main as storage_main
from repro.workloads import GaussianPoints, UniformPoints


def build_incremental(path, points, **kwargs):
    tree = PagedPRQuadtree.create(str(path), **kwargs)
    tree.insert_many(points)
    tree.checkpoint()
    return tree


def assert_equivalent(bulk, incr):
    """Same point set, same censuses, same page-level shape."""
    assert len(bulk) == len(incr)
    assert bulk.occupancy_census().counts == incr.occupancy_census().counts
    assert bulk.leaf_count() == incr.leaf_count()
    assert bulk.height() == incr.height()
    assert sorted(tuple(p) for p in bulk.points()) == sorted(
        tuple(p) for p in incr.points()
    )
    bulk.validate()


class TestParity:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("capacity", [1, 4])
    def test_uniform(self, tmp_path, dim, capacity):
        points = UniformPoints(dim=dim, seed=5).generate(500)
        bulk = bulk_load_paged(
            tmp_path / "bulk.pf", points, capacity=capacity, dim=dim
        )
        incr = build_incremental(
            tmp_path / "incr.pf", points, capacity=capacity, dim=dim
        )
        try:
            assert_equivalent(bulk, incr)
        finally:
            bulk.close()
            incr.close()

    def test_gaussian_cluster(self, tmp_path):
        points = GaussianPoints(seed=9).generate(800)
        bulk = bulk_load_paged(tmp_path / "bulk.pf", points, capacity=8)
        incr = build_incremental(
            tmp_path / "incr.pf", points, capacity=8
        )
        try:
            assert_equivalent(bulk, incr)
        finally:
            bulk.close()
            incr.close()

    def test_queries_after_reopen(self, tmp_path):
        points = UniformPoints(seed=12).generate(400)
        tree = bulk_load_paged(tmp_path / "t.pf", points, capacity=4)
        tree.close()
        with PagedPRQuadtree.open(tmp_path / "t.pf") as tree:
            hits = tree.range_search(
                Rect(Point(0.2, 0.2), Point(0.6, 0.6))
            )
            expected = [
                p for p in points
                if 0.2 <= p.x < 0.6 and 0.2 <= p.y < 0.6
            ]
            assert sorted(tuple(p) for p in hits) == sorted(
                tuple(p) for p in expected
            )
            assert tree.nearest(Point(0.5, 0.5), 3) is not None

    def test_duplicates_dropped(self, tmp_path):
        points = UniformPoints(seed=3).generate(100)
        tree = bulk_load_paged(
            tmp_path / "t.pf", points + points[:20], capacity=4
        )
        try:
            assert len(tree) == 100
        finally:
            tree.close()

    def test_empty_and_single(self, tmp_path):
        tree = bulk_load_paged(tmp_path / "e.pf", [], capacity=4)
        try:
            assert len(tree) == 0
            tree.validate()
        finally:
            tree.close()
        tree = bulk_load_paged(
            tmp_path / "s.pf", [Point(0.3, 0.7)], capacity=4
        )
        try:
            assert len(tree) == 1
            tree.validate()
        finally:
            tree.close()


class TestFallback:
    def test_near_coincident_points_take_incremental_path(self, tmp_path):
        # a cluster spaced ~2 ulp apart: the tree splits deeper than
        # the 62-bit Morton budget can discriminate, so the bulk path
        # must hand off wholesale — and still match the honest build
        base = 0.3
        cluster = [
            Point(base + i * 1e-16, base + i * 1e-16) for i in range(4)
        ]
        points = cluster + UniformPoints(seed=8).generate(50)
        tracer = Tracer()
        with tracing(tracer):
            bulk = bulk_load_paged(
                tmp_path / "bulk.pf", points, capacity=1
            )
        assert tracer.counters.get("storage.bulk.fallback") == 1
        incr = build_incremental(
            tmp_path / "incr.pf", points, capacity=1
        )
        try:
            assert_equivalent(bulk, incr)
        finally:
            bulk.close()
            incr.close()

    def test_validation_errors(self, tmp_path):
        with pytest.raises(ValueError):
            bulk_load_paged(tmp_path / "x.pf", [], capacity=0)
        with pytest.raises(ValueError):
            bulk_load_paged(
                tmp_path / "x.pf", [], capacity=64, page_size=64
            )
        with pytest.raises(ValueError):
            bulk_load_paged(
                tmp_path / "x.pf", [Point(1.5, 0.5)], capacity=4
            )
        # a failed load must not leave a partial file behind
        assert not (tmp_path / "x.pf").exists()

    def test_existing_file_refused(self, tmp_path):
        path = tmp_path / "dup.pf"
        tree = bulk_load_paged(path, [Point(0.5, 0.5)], capacity=4)
        tree.close()
        with pytest.raises(Exception):
            bulk_load_paged(path, [Point(0.5, 0.5)], capacity=4)


class TestObservability:
    def test_counters(self, tmp_path):
        points = UniformPoints(seed=4).generate(200)
        tracer = Tracer()
        with tracing(tracer):
            tree = bulk_load_paged(tmp_path / "t.pf", points, capacity=4)
        tree.close()
        assert tracer.counters["storage.bulk.points"] == 200
        assert tracer.counters["storage.bulk.pages"] >= 1
        assert "storage.bulk_load" in tracer.to_dict()["spans"]


class TestServePreload:
    def test_preload_then_open_state(self, tmp_path):
        import argparse

        from repro.service.cli import _preload
        from repro.service.server import open_state

        path = tmp_path / "state.pf"
        args = argparse.Namespace(
            path=str(path), dim=2, preload=500, preload_seed=7,
            capacity=4, page_size=4096, pool_pages=64,
        )
        _preload(args)
        assert path.exists()
        tree, wal, replayed = open_state(
            str(path), create=True, capacity=4, dim=2,
            page_size=4096, pool_pages=64,
        )
        try:
            assert len(tree) == 500
            assert replayed == 0
            tree.validate()
        finally:
            tree.close()
            wal.close()

    def test_preload_matches_list_built_state(self, tmp_path):
        """The preload draws its points with ``generate_array``; the
        state must equal one bulk-loaded from the ``generate`` list."""
        import argparse

        from repro.service.cli import _preload

        path = tmp_path / "state.pf"
        _preload(argparse.Namespace(
            path=str(path), dim=2, preload=800, preload_seed=11,
            capacity=4, page_size=4096, pool_pages=64,
        ))
        listed = bulk_load_paged(
            tmp_path / "listed.pf",
            UniformPoints(dim=2, seed=11).generate(800),
            capacity=4, dim=2,
        )
        with PagedPRQuadtree.open(str(path)) as preloaded:
            try:
                assert_equivalent(preloaded, listed)
            finally:
                listed.close()


class TestCli:
    def test_build_bulk_flag(self, tmp_path, capsys):
        path = str(tmp_path / "cli.pf")
        assert storage_main(
            ["build", path, "--n", "300", "--bulk", "--capacity", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "bulk-loaded" in out
        assert "300 points" in out
        # the bulk file validates and matches an incremental build
        assert storage_main(["validate", path]) == 0
        incr_path = str(tmp_path / "cli-incr.pf")
        assert storage_main(
            ["build", incr_path, "--n", "300", "--capacity", "4"]
        ) == 0
        with PagedPRQuadtree.open(path) as bulk, \
                PagedPRQuadtree.open(incr_path) as incr:
            assert_equivalent(bulk, incr)

    def test_build_bulk_gaussian_matches_incremental(self, tmp_path):
        path = str(tmp_path / "gauss.pf")
        incr_path = str(tmp_path / "gauss-incr.pf")
        common = ["--n", "400", "--capacity", "4",
                  "--distribution", "gaussian"]
        assert storage_main(["build", path, "--bulk"] + common) == 0
        assert storage_main(["build", incr_path] + common) == 0
        with PagedPRQuadtree.open(path) as bulk, \
                PagedPRQuadtree.open(incr_path) as incr:
            assert_equivalent(bulk, incr)
