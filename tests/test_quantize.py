"""The Morton quantizer: closed form on dyadic roots vs the replay.

:func:`repro.kernels.quantize.morton_cells` takes a closed form
``floor(p · 2^(levels − e))`` when the root box is ``[0, 2^e)`` on
every axis and replays the tree's midpoint descent otherwise.  These
tests pin the closed form to the replay (called directly, not through
the switch) on the inputs where a rounding slip would show: one ulp
either side of every dyadic block boundary, signed zeros, subnormals,
the last double below the root's ``hi``, and out-of-root query corners.
They also pin :func:`repro.geometry.interleave_many`'s table-driven
layout to the scalar :func:`interleave` at the full 62-bit budget, and
the ``kernel.codes.replay`` counter to the path actually taken.
"""

import numpy as np
import pytest

from repro.experiments.harness import run_trials
from repro.experiments.tables import run_table4, run_table5
from repro.geometry import Point, Rect, interleave, interleave_many
from repro.kernels import vector_census
from repro.kernels.quantize import (
    _dyadic_exponents,
    _replay_cells,
    cell_bounds,
    morton_cells,
)
from repro.obs import Tracer, tracing
from repro.runtime import RuntimeConfig

_CODE_BITS = 62


def boundary_values(hi, levels, rng, per_level=6):
    """Block boundaries of ``[0, hi)`` at every depth down to
    ``levels``, each with its two neighbouring doubles."""
    values = [0.0, -0.0, hi, np.nextafter(hi, 0.0)]
    for depth in range(1, levels + 1):
        step = hi / float(1 << depth)
        picks = {1, (1 << depth) - 1}
        picks.update(
            int(j) | 1 for j in rng.integers(0, 1 << depth, size=per_level)
        )
        for j in sorted(picks):
            b = j * step
            values += [np.nextafter(b, -np.inf), b, np.nextafter(b, np.inf)]
    return np.array(values, dtype=np.float64)


def odd_values(hi):
    """Signed zeros, subnormals and out-of-root corners."""
    tiny = np.finfo(np.float64).tiny
    return np.array([
        0.0, -0.0, 5e-324, -5e-324, tiny / 2, np.nextafter(tiny, 0.0),
        tiny, np.nextafter(hi, 0.0), hi, np.nextafter(hi, np.inf),
        2 * hi, -1.0, -hi, -np.inf, np.inf, 1e308,
    ])


def quantize_both(arr, root_lo, root_hi, levels):
    tracer = Tracer()
    with tracing(tracer):
        fast = morton_cells(arr, root_lo, root_hi, levels)
    assert "kernel.codes.replay" not in tracer.counters
    slow = _replay_cells(arr, root_lo, root_hi, levels)
    return fast, slow


class TestClosedFormParity:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("hi", [1.0, 0.5, 4.0])
    def test_dyadic_boundaries(self, dim, hi):
        levels = _CODE_BITS // dim
        rng = np.random.default_rng(dim * 10 + int(hi * 4))
        values = np.concatenate(
            [boundary_values(hi, levels, rng), odd_values(hi)]
        )
        # every value on axis 0 (so each appears), shuffled on the rest
        cols = [values] + [rng.permutation(values) for _ in range(dim - 1)]
        arr = np.stack(cols, axis=1)
        root_lo = np.zeros(dim)
        root_hi = np.full(dim, hi)
        (cells, pin), (want_cells, want_pin) = quantize_both(
            arr, root_lo, root_hi, levels
        )
        assert cells.dtype == np.uint64
        np.testing.assert_array_equal(cells, want_cells)
        np.testing.assert_array_equal(pin, want_pin)
        assert (pin == levels + 1).all()

    @pytest.mark.parametrize("levels", [1, 5, 15, 31])
    def test_shallow_levels_and_mixed_axes(self, levels):
        # depth-limited trees quantize with fewer levels; each axis may
        # have its own power-of-two side
        rng = np.random.default_rng(levels)
        root_hi = np.array([1.0, 4.0, 0.5])
        cols = [
            rng.permutation(np.concatenate([
                boundary_values(h, levels, rng), odd_values(h),
                rng.random(200) * h,
            ]))
            for h in root_hi
        ]
        rows = min(c.size for c in cols)
        arr = np.stack([c[:rows] for c in cols], axis=1)
        (cells, pin), (want_cells, want_pin) = quantize_both(
            arr, np.zeros(3), root_hi, levels
        )
        np.testing.assert_array_equal(cells, want_cells)
        np.testing.assert_array_equal(pin, want_pin)

    def test_nan_lands_in_cell_zero(self):
        arr = np.array([[np.nan, 0.75]])
        (cells, _), (want, _) = quantize_both(
            arr, np.zeros(2), np.ones(2), 31
        )
        np.testing.assert_array_equal(cells, want)
        assert cells[0, 0] == 0

    def test_extreme_exponents(self):
        # the largest finite power of two and a root just above the
        # normal range's floor both stay exact
        for hi in (2.0 ** 1023, 2.0 ** -990):
            rng = np.random.default_rng(3)
            values = np.concatenate(
                [boundary_values(hi, 31, rng), odd_values(hi)]
            )
            arr = np.stack([values, values[::-1]], axis=1)
            (cells, pin), (want, want_pin) = quantize_both(
                arr, np.zeros(2), np.full(2, hi), 31
            )
            np.testing.assert_array_equal(cells, want)
            np.testing.assert_array_equal(pin, want_pin)

    def test_block_bounds_match_the_replay(self):
        rng = np.random.default_rng(5)
        for root_lo, root_hi in (
            (np.zeros(2), np.ones(2)),
            (np.array([0.1, 0.2]), np.array([0.9, 1.7])),
        ):
            pts = root_lo + rng.random((50, 2)) * (root_hi - root_lo)
            levels = 12
            cells, _ = _replay_cells(pts, root_lo, root_hi, levels)
            lo, hi = cell_bounds(cells, root_lo, root_hi, levels)
            assert ((pts >= lo) & (pts < hi)).all()
            # the corners are the tree's own floats: re-descending a
            # corner lands in its own block
            again, _ = _replay_cells(lo, root_lo, root_hi, levels)
            np.testing.assert_array_equal(again, cells)


class TestPathSelection:
    @pytest.mark.parametrize("root_lo, root_hi, levels", [
        ([0.0, 0.0], [1.0, 1.0], 31),
        ([0.0, -0.0], [0.5, 4.0], 31),
        ([0.0], [1.0], 52),
        ([0.0, 0.0], [2.0 ** 1023, 1.0], 31),
    ])
    def test_closed_form_roots(self, root_lo, root_hi, levels):
        assert _dyadic_exponents(
            np.array(root_lo), np.array(root_hi), levels
        ) is not None

    # the first three roots are the bounds of test_kernel_parity's
    # non-dyadic census cases, which must stay on the replay
    @pytest.mark.parametrize("root_lo, root_hi, levels", [
        ([0.1, 0.2], [0.9, 1.7], 31),      # non-dyadic bounds
        ([-3.0, 0.25], [1.5, 1.75], 31),
        ([-3.7, -0.01, 2.2], [-1.1, 0.93, 9.0], 20),
        ([0.0, 0.0], [3.0, 1.0], 31),      # side not a power of two
        ([-1.0, 0.0], [1.0, 1.0], 31),     # lo not zero
        ([0.0], [1.0], 62),                # 1-d: deeper than a double
        ([0.0], [1.0], 53),
        ([0.0, 0.0], [2.0 ** -1000, 1.0], 31),  # midpoints go subnormal
        ([0.0, 0.0], [np.inf, 1.0], 31),
    ])
    def test_replay_roots(self, root_lo, root_hi, levels):
        root_lo, root_hi = np.array(root_lo), np.array(root_hi)
        assert _dyadic_exponents(root_lo, root_hi, levels) is None
        rng = np.random.default_rng(1)
        finite_hi = np.where(np.isfinite(root_hi), root_hi, 1.0)
        arr = root_lo + rng.random((64, root_lo.size)) * (finite_hi - root_lo)
        tracer = Tracer()
        with tracing(tracer):
            cells, pin = morton_cells(arr, root_lo, root_hi, levels)
        assert tracer.counters["kernel.codes.replay"] == 1
        want_cells, want_pin = _replay_cells(arr, root_lo, root_hi, levels)
        np.testing.assert_array_equal(cells, want_cells)
        np.testing.assert_array_equal(pin, want_pin)


class TestInterleaveMany:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
    def test_matches_scalar_at_full_budget(self, dim):
        bits = _CODE_BITS // dim
        rng = np.random.default_rng(dim)
        top = (1 << bits) - 1
        rows = [[0] * dim, [top] * dim]
        rows += [[1 << b] * dim for b in range(bits)]
        rows += [[top if a == axis else 0 for a in range(dim)]
                 for axis in range(dim)]
        rows += rng.integers(0, top + 1, size=(200, dim)).tolist()
        arr = np.array(rows, dtype=np.int64)
        want = [interleave(tuple(int(v) for v in row), bits) for row in rows]
        assert interleave_many(arr, bits).tolist() == want
        # unsigned input (the quantizer's dtype) gives the same codes
        assert interleave_many(arr.astype(np.uint64), bits).tolist() == want

    @pytest.mark.parametrize("dim", [7, 10, 31, 62])
    def test_high_dims(self, dim):
        bits = _CODE_BITS // dim
        rng = np.random.default_rng(dim)
        rows = rng.integers(0, 1 << bits, size=(40, dim)).tolist()
        codes = interleave_many(np.array(rows), bits)
        assert codes.tolist() == [interleave(r, bits) for r in rows]


class TestReplayCounter:
    def test_paper_tables_never_replay(self):
        runtime = RuntimeConfig(
            workers=1, engine="vector", use_cache=False, db_path=None
        )
        tracer = Tracer()
        with tracing(tracer):
            run_table4(trials=2, sizes=[64, 1000], runtime=runtime)
            run_table5(trials=2, sizes=[64, 1000], runtime=runtime)
        assert tracer.counters["kernel.census"] > 0
        assert "kernel.codes.replay" not in tracer.counters

    def test_non_dyadic_bounds_replay(self):
        bounds = Rect(Point(0.1, 0.2), Point(0.9, 1.7))
        tracer = Tracer()
        with tracing(tracer):
            run_trials(
                4, n_points=200, trials=2, seed=3, bounds=bounds,
                runtime=RuntimeConfig(
                    workers=1, engine="vector", use_cache=False,
                    db_path=None,
                ),
            )
        assert tracer.counters["kernel.codes.replay"] >= 1

    def test_unit_census_takes_closed_form(self):
        rng = np.random.default_rng(0)
        tracer = Tracer()
        with tracing(tracer):
            vector_census(rng.random((500, 2)), capacity=4)
            vector_census(rng.random((100, 1)), capacity=2, dim=1)
        # only the 1-d census (62 levels) replays
        assert tracer.counters["kernel.codes.replay"] == 1
