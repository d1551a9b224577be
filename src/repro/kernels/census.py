"""The vectorized Morton-code census engine.

The experiment pipeline spends ~99% of its time *building* Python
object trees it only ever reduces to an occupancy histogram.  But the
PR quadtree's quadrant path is exactly the prefix of a Morton code
(Orenstein's bit-interleaved tries [Oren82] — see
:mod:`repro.geometry.morton`), so the steady-state census can be
computed straight from the point coordinates:

1. **codes** — quantize every point to its grid cell at the code's
   full depth (:func:`repro.kernels.quantize.morton_cells`: one quadrant
   bit per axis per level) and pack the per-axis bit strings into
   Morton codes with :func:`repro.geometry.interleave_many`;
2. **sort** — one ``argsort`` puts every depth-``k`` block's points
   into a contiguous run, for every ``k`` simultaneously;
3. **partition** — apply the PR splitting rule ("split while a block
   holds more than ``capacity`` points") to the sorted codes: walk the
   prefix depths, splitting only the still-overfull runs, and read leaf
   occupancies off the run lengths.  Empty sibling blocks of each split
   are counted too — they are leaves of the real tree.

Exactness.  The engine is *bit-identical* to
``PRQuadtree(...).occupancy_census()`` / ``.depth_census()`` for any
dimension, capacity, depth limit, bounds, and duplicate-containing
input, which the parity suite (``tests/test_kernel_parity.py``)
enforces.  Two details make that work:

- Quantization gives exactly the cells the tree's own float descent
  reaches.  On a dyadic root — ``[0, 2^e)`` on every axis, as for the
  unit square of every paper table — every midpoint
  ``(lo + hi) / 2.0`` is an exact binary fraction with at most
  ``levels`` significant bits, so the descent reads off the binary
  digits of ``p / 2^e`` and the cells are the closed form
  ``floor(p · 2^(levels − e))``: one exact power-of-two scale and one
  truncation per coordinate, with no block ever unsplittable.  Any
  other root (non-dyadic bounds, or 1-d's 62 levels, deeper than a
  double's 53 bits) replays the arithmetic itself — ``mid = (lo +
  hi) / 2.0`` per axis per level, exactly :meth:`Point.midpoint`
  inside :meth:`Rect.child` — because there an affine
  ``(p - lo) / side * 2**bits`` map rounds differently and would
  misplace points within one ulp of a block boundary.  Replayed calls
  count ``kernel.codes.replay``.
- The tree's two overflow floors are reproduced: a block pins (stops
  splitting, keeps its overflow) at ``max_depth`` and wherever float
  precision makes its rect unsplittable (``Rect.is_splittable``), and
  near-coincident points that need more resolution than one 62-bit
  code are handled by re-running the engine inside their block with a
  fresh code budget (the ``deep group`` path).

The object tree remains the parity oracle; this engine is the fast
path for census-only workloads (it cannot answer point queries and
does not materialize blocks, so ``collect_area`` experiments still use
the object engine).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import obs
from ..geometry import Point, Rect, interleave_many
from ..quadtree import DepthCensus, OccupancyCensus
from .quantize import cell_bounds, morton_cells

#: Morton codes must stay exact in int64/uint64 arithmetic.
_CODE_BITS = 62

PointInput = Union[Sequence[Point], np.ndarray]


@dataclass(frozen=True)
class LeafPartition:
    """The leaf census of a PR quadtree, without the tree.

    One entry per leaf block: its depth and its occupancy (which may
    exceed ``capacity`` for blocks pinned by a depth limit or float
    precision, exactly like the object tree's leaves).
    """

    capacity: int
    depths: np.ndarray
    occupancies: np.ndarray

    @property
    def leaf_count(self) -> int:
        """Number of leaf blocks (matches ``PRQuadtree.leaf_count``)."""
        return int(self.depths.size)

    @property
    def size(self) -> int:
        """Number of stored (distinct) points."""
        return int(self.occupancies.sum())

    def height(self) -> int:
        """Depth of the deepest leaf (matches ``PRQuadtree.height``)."""
        return int(self.depths.max())

    def _clamped(self, clamp_overflow: bool) -> np.ndarray:
        if not clamp_overflow:
            over = self.occupancies > self.capacity
            if over.any():
                occ = int(self.occupancies[over][0])
                raise ValueError(
                    f"leaf occupancy {occ} exceeds capacity {self.capacity}"
                )
        return np.minimum(self.occupancies, self.capacity)

    def occupancy_census(self, clamp_overflow: bool = True) -> OccupancyCensus:
        """Census of leaves by occupancy — bit-identical to
        ``PRQuadtree.occupancy_census`` on the same points."""
        return OccupancyCensus.from_occupancies(
            self._clamped(clamp_overflow), self.capacity
        )

    def depth_census(self, clamp_overflow: bool = True) -> DepthCensus:
        """Census of leaves by (depth, occupancy) — bit-identical to
        ``PRQuadtree.depth_census`` on the same points."""
        occ = self._clamped(clamp_overflow)
        width = self.capacity + 1
        n_depths = int(self.depths.max()) + 1 if self.depths.size else 0
        # one bincount over (depth, occupancy) cells; a depth is present
        # iff its row counts at least one leaf
        table = np.bincount(
            self.depths * width + occ, minlength=n_depths * width
        ).reshape(n_depths, width)
        by_depth = {
            int(depth): tuple(table[depth].tolist())
            for depth in np.flatnonzero(table.any(axis=1))
        }
        return DepthCensus(by_depth, self.capacity)


def _as_coord_array(points: PointInput, dim: int) -> np.ndarray:
    """Lower a point sequence (or a ready array) to ``(n, dim)`` floats."""
    if isinstance(points, np.ndarray):
        arr = np.asarray(points, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1) if dim == 1 else arr.reshape(1, -1)
    else:
        seq = list(points)
        if not seq:
            return np.empty((0, dim), dtype=np.float64)
        arr = np.array([tuple(p) for p in seq], dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise ValueError(
            f"points have dimension {arr.shape[1:] or '?'}, expected {dim}"
        )
    return arr


def _splittable(lo: np.ndarray, hi: np.ndarray) -> bool:
    """``Rect.is_splittable`` on raw corner arrays."""
    mid = (lo + hi) / 2.0
    return bool(((lo < mid) & (mid < hi)).all())


def vector_census(
    points: PointInput,
    capacity: int,
    bounds: Optional[Rect] = None,
    dim: int = 2,
    max_depth: Optional[int] = None,
) -> LeafPartition:
    """Exact PR-quadtree leaf census of ``points``, without the tree.

    Parameters mirror :class:`~repro.quadtree.PRQuadtree`: ``capacity``
    is the node capacity m, ``bounds`` the root block (default the unit
    box), ``dim`` the dimensionality when ``bounds`` is omitted, and
    ``max_depth`` the optional truncation.  ``points`` may be a
    sequence of :class:`Point` or an ``(n, dim)`` float array; exact
    duplicates are dropped, as the tree's insert rejects them.

    Raises ``ValueError`` for points outside the root block, exactly
    like ``PRQuadtree.insert``.
    """
    if capacity < 1:
        raise ValueError(f"capacity must be >= 1, got {capacity}")
    if bounds is None:
        bounds = Rect.unit(dim)
    elif bounds.dim != dim and dim != 2:
        raise ValueError(
            f"bounds dimension {bounds.dim} conflicts with dim={dim}"
        )
    if max_depth is not None and max_depth < 0:
        raise ValueError(f"max_depth must be >= 0, got {max_depth}")
    dim = bounds.dim
    if dim > _CODE_BITS:
        raise ValueError(
            f"vector engine supports dim <= {_CODE_BITS}, got {dim}"
        )

    with obs.span("kernel.census"):
        arr = _as_coord_array(points, dim)
        root_lo = np.asarray(bounds.lo.coords, dtype=np.float64)
        root_hi = np.asarray(bounds.hi.coords, dtype=np.float64)
        outside = ~((arr >= root_lo) & (arr < root_hi)).all(axis=1)
        if outside.any():
            p = Point(*arr[outside][0])
            raise ValueError(f"{p!r} outside tree bounds {bounds!r}")
        # Normalize -0.0 to +0.0 so the bitwise row-dedupe below agrees
        # with the tree's float-equality duplicate rejection.
        arr = arr + 0.0
        arr = np.unique(arr, axis=0)

        depth_chunks: List[np.ndarray] = []
        occ_chunks: List[np.ndarray] = []
        # Worklist instead of recursion: near-coincident points can need
        # dozens of 62-bit code rounds before they separate.
        pending = [(arr, root_lo, root_hi, max_depth, 0)]
        deep_groups = -1  # the root job is not a deep group
        while pending:
            deep_groups += 1
            job = pending.pop()
            _partition_block(
                *job, capacity, depth_chunks, occ_chunks, pending
            )

        depths = (
            np.concatenate(depth_chunks)
            if depth_chunks else np.empty(0, dtype=np.int64)
        )
        occs = (
            np.concatenate(occ_chunks)
            if occ_chunks else np.empty(0, dtype=np.int64)
        )
        if obs.enabled():
            obs.count("kernel.census")
            obs.count("kernel.points", int(arr.shape[0]))
            obs.count("kernel.leaves", int(depths.size))
            if deep_groups:
                obs.count("kernel.deep_groups", deep_groups)
            obs.gauge("kernel.depth", int(depths.max()) if depths.size else 0)
        return LeafPartition(
            capacity=capacity,
            depths=depths,
            occupancies=occs.astype(np.int64),
        )


def _partition_block(
    pts: np.ndarray,
    root_lo: np.ndarray,
    root_hi: np.ndarray,
    max_depth: Optional[int],
    depth_offset: int,
    capacity: int,
    depth_chunks: List[np.ndarray],
    occ_chunks: List[np.ndarray],
    pending: List[Tuple],
) -> None:
    """Partition one block's points into leaves (appended to the chunk
    lists); blocks needing more than one code's worth of depth are
    pushed onto ``pending``.

    ``max_depth`` is relative to this block; ``depth_offset`` converts
    local depths back to tree depths for the output records.
    """
    n, dim = pts.shape
    fanout = 1 << dim
    if (
        n <= capacity
        or (max_depth is not None and max_depth <= 0)
        or not _splittable(root_lo, root_hi)
    ):
        depth_chunks.append(np.array([depth_offset], dtype=np.int64))
        occ_chunks.append(np.array([n], dtype=np.int64))
        return

    levels = _CODE_BITS // dim
    if max_depth is not None:
        levels = min(levels, max_depth)

    # -- codes: the tree's grid cells, interleaved ---------------------
    with obs.span("kernel.codes"):
        # pin: first depth at which a point's block cannot split
        # (sentinel: deeper than any partition depth this round)
        cells, pin = morton_cells(pts, root_lo, root_hi, levels)
        codes = interleave_many(cells, levels)

    with obs.span("kernel.sort"):
        order = np.argsort(codes, kind="stable")
        sorted_codes = codes[order]
        sorted_pin = pin[order]

    # -- partition: the splitting rule over sorted code prefixes -------
    with obs.span("kernel.partition"):
        # invariant: (starts, stops) are runs holding > capacity points
        # whose depth-`depth` block has not yet been checked for pinning
        starts = np.array([0], dtype=np.int64)
        stops = np.array([n], dtype=np.int64)
        depth = 0
        while starts.size:
            counts = stops - starts
            pinned = sorted_pin[starts] <= depth
            if max_depth is not None and depth >= max_depth:
                pinned = np.ones(starts.size, dtype=bool)
            if pinned.any():
                k = int(pinned.sum())
                depth_chunks.append(
                    np.full(k, depth_offset + depth, dtype=np.int64)
                )
                occ_chunks.append(counts[pinned])
                keep = ~pinned
                starts, stops = starts[keep], stops[keep]
                if not starts.size:
                    break
            if depth == levels:
                # overfull beyond this code's resolution: re-run inside
                # the block with a fresh 62-bit budget (rare — only
                # near-coincident point groups land here)
                sub_md = None if max_depth is None else max_depth - levels
                lo, hi = cell_bounds(
                    cells[order[starts]], root_lo, root_hi, levels
                )
                for i, (s, e) in enumerate(
                    zip(starts.tolist(), stops.tolist())
                ):
                    pending.append((
                        pts[order[s:e]], lo[i], hi[i], sub_md,
                        depth_offset + levels,
                    ))
                break
            # split every remaining run on its next Morton digit
            shift = np.uint64((levels - 1 - depth) * dim)
            mask = np.uint64(fanout - 1)
            pos = _multi_arange(starts, stops)
            digits = (sorted_codes[pos] >> shift) & mask
            group = np.repeat(np.arange(starts.size), stops - starts)
            new_run = np.empty(pos.size, dtype=bool)
            new_run[0] = True
            new_run[1:] = (digits[1:] != digits[:-1]) | (
                group[1:] != group[:-1]
            )
            run_heads = np.flatnonzero(new_run)
            run_counts = np.diff(np.append(run_heads, pos.size))
            run_starts = pos[run_heads]
            # children with no points are still leaves of the tree
            occupied = np.bincount(group[run_heads], minlength=starts.size)
            n_empty = int((fanout - occupied).sum())
            if n_empty:
                depth_chunks.append(
                    np.full(n_empty, depth_offset + depth + 1, dtype=np.int64)
                )
                occ_chunks.append(np.zeros(n_empty, dtype=np.int64))
            resolved = run_counts <= capacity
            if resolved.any():
                depth_chunks.append(
                    np.full(
                        int(resolved.sum()),
                        depth_offset + depth + 1,
                        dtype=np.int64,
                    )
                )
                occ_chunks.append(run_counts[resolved])
            starts = run_starts[~resolved]
            stops = starts + run_counts[~resolved]
            depth += 1


def vector_census_batch(
    points: np.ndarray,
    capacity: int,
    bounds: Optional[Rect] = None,
    dim: int = 2,
    max_depth: Optional[int] = None,
) -> List[LeafPartition]:
    """Exact PR-quadtree leaf censuses of ``B`` trials in one kernel
    pass — the pool workers' amortized fast path.

    ``points`` is a ``(B, n, dim)`` float64 tensor: ``B`` independent
    trials of ``n`` points each over the same ``bounds``.  The batch
    shares one quantization, one Morton interleave, and one
    (row-wise) argsort across all trials; the splitting-rule loop then
    walks every trial's runs *simultaneously*, with a per-run trial
    tag carried alongside the ``(start, stop)`` segment boundaries so
    each leaf lands in its own trial's partition.  Element ``t`` of
    the result is bit-identical to
    ``vector_census(points[t], capacity, bounds, dim, max_depth)``
    (property-tested in ``tests/test_kernel_parity.py``).

    Unlike :func:`vector_census`, the batch path does **not** dedupe:
    each trial's rows must already be distinct (the runtime's
    generators guarantee it; ``generate`` never repeats a point).
    Exact duplicates would mean "occupancy counts disagree with the
    object tree", so they are a contract violation, not an input case.
    """
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim != 3:
        raise ValueError(
            f"batch points must be (trials, n, dim), got shape {arr.shape}"
        )
    n_trials = int(arr.shape[0])
    if n_trials == 0:
        return []
    if capacity < 1:
        raise ValueError(f"capacity must be >= 1, got {capacity}")
    if bounds is None:
        bounds = Rect.unit(dim)
    elif bounds.dim != dim and dim != 2:
        raise ValueError(
            f"bounds dimension {bounds.dim} conflicts with dim={dim}"
        )
    if max_depth is not None and max_depth < 0:
        raise ValueError(f"max_depth must be >= 0, got {max_depth}")
    dim = bounds.dim
    if arr.shape[2] != dim:
        raise ValueError(
            f"points have dimension {arr.shape[2]}, expected {dim}"
        )
    if dim > _CODE_BITS:
        raise ValueError(
            f"vector engine supports dim <= {_CODE_BITS}, got {dim}"
        )

    with obs.span("kernel.census_batch"):
        n = int(arr.shape[1])
        root_lo = np.asarray(bounds.lo.coords, dtype=np.float64)
        root_hi = np.asarray(bounds.hi.coords, dtype=np.float64)
        flat = arr.reshape(-1, dim)
        if flat.size:
            outside = ~((flat >= root_lo) & (flat < root_hi)).all(axis=1)
            if outside.any():
                p = Point(*flat[outside][0])
                raise ValueError(f"{p!r} outside tree bounds {bounds!r}")

        trial_chunks: List[np.ndarray] = []
        depth_chunks: List[np.ndarray] = []
        occ_chunks: List[np.ndarray] = []
        deep_jobs = _partition_batch(
            flat, n_trials, n, root_lo, root_hi, max_depth, capacity,
            trial_chunks, depth_chunks, occ_chunks,
        )
        # near-coincident groups that outran one code budget: finish
        # each with the scalar worklist, tagging its leaves by trial
        for trial, job in deep_jobs:
            pending = [job]
            before = len(depth_chunks)
            while pending:
                _partition_block(
                    *pending.pop(), capacity, depth_chunks, occ_chunks,
                    pending,
                )
            added = sum(c.size for c in depth_chunks[before:])
            trial_chunks.append(np.full(added, trial, dtype=np.int64))

        trials_arr = (
            np.concatenate(trial_chunks)
            if trial_chunks else np.empty(0, dtype=np.int64)
        )
        depths = (
            np.concatenate(depth_chunks)
            if depth_chunks else np.empty(0, dtype=np.int64)
        )
        occs = (
            np.concatenate(occ_chunks)
            if occ_chunks else np.empty(0, dtype=np.int64)
        ).astype(np.int64)
        if obs.enabled():
            obs.count("kernel.census", n_trials)
            obs.count("kernel.batches")
            obs.count("kernel.points", int(flat.shape[0]))
            obs.count("kernel.leaves", int(depths.size))
            if deep_jobs:
                obs.count("kernel.deep_groups", len(deep_jobs))
        order = np.argsort(trials_arr, kind="stable")
        trials_sorted = trials_arr[order]
        bounds_idx = np.searchsorted(
            trials_sorted, np.arange(n_trials + 1)
        )
        return [
            LeafPartition(
                capacity=capacity,
                depths=depths[order[bounds_idx[t]:bounds_idx[t + 1]]],
                occupancies=occs[order[bounds_idx[t]:bounds_idx[t + 1]]],
            )
            for t in range(n_trials)
        ]


def _partition_batch(
    flat: np.ndarray,
    n_trials: int,
    n: int,
    root_lo: np.ndarray,
    root_hi: np.ndarray,
    max_depth: Optional[int],
    capacity: int,
    trial_chunks: List[np.ndarray],
    depth_chunks: List[np.ndarray],
    occ_chunks: List[np.ndarray],
) -> List[Tuple[int, Tuple]]:
    """One shared partition pass over every trial's points.

    Mirrors :func:`_partition_block` exactly, except the run state
    carries a per-run trial tag (runs never span trials: the initial
    runs are the per-trial slices of the flattened array, and splits
    only ever narrow a run).  Returns the deep-group jobs — rare
    near-coincident blocks needing a fresh code budget — as
    ``(trial, job)`` pairs for the caller to finish with the scalar
    worklist.
    """
    dim = int(root_lo.shape[0])
    fanout = 1 << dim
    all_trials = np.arange(n_trials, dtype=np.int64)
    # every trial has the same n and the same root, so the scalar
    # engine's pre-loop early-outs apply to the whole batch at once
    if (
        n <= capacity
        or (max_depth is not None and max_depth <= 0)
        or not _splittable(root_lo, root_hi)
    ):
        trial_chunks.append(all_trials)
        depth_chunks.append(np.zeros(n_trials, dtype=np.int64))
        occ_chunks.append(np.full(n_trials, n, dtype=np.int64))
        return []

    levels = _CODE_BITS // dim
    if max_depth is not None:
        levels = min(levels, max_depth)

    # -- codes: one quantization for the whole batch -------------------
    with obs.span("kernel.codes"):
        cells, pin = morton_cells(flat, root_lo, root_hi, levels)
        codes = interleave_many(cells, levels)

    # -- sort: one row-wise argsort orders every trial at once ---------
    with obs.span("kernel.sort"):
        order2d = np.argsort(
            codes.reshape(n_trials, n), axis=1, kind="stable"
        )
        order = (
            order2d + (all_trials * n)[:, None]
        ).reshape(-1)
        sorted_codes = codes[order]
        sorted_pin = pin[order]

    # -- partition: the splitting rule over every trial's runs ---------
    deep_jobs: List[Tuple[int, Tuple]] = []
    with obs.span("kernel.partition"):
        starts = all_trials * n
        stops = starts + n
        run_trial = all_trials.copy()
        depth = 0
        while starts.size:
            counts = stops - starts
            pinned = sorted_pin[starts] <= depth
            if max_depth is not None and depth >= max_depth:
                pinned = np.ones(starts.size, dtype=bool)
            if pinned.any():
                k = int(pinned.sum())
                trial_chunks.append(run_trial[pinned])
                depth_chunks.append(np.full(k, depth, dtype=np.int64))
                occ_chunks.append(counts[pinned])
                keep = ~pinned
                starts, stops = starts[keep], stops[keep]
                run_trial = run_trial[keep]
                if not starts.size:
                    break
            if depth == levels:
                sub_md = None if max_depth is None else max_depth - levels
                lo, hi = cell_bounds(
                    cells[order[starts]], root_lo, root_hi, levels
                )
                for i, (s, e, t) in enumerate(zip(
                    starts.tolist(), stops.tolist(), run_trial.tolist()
                )):
                    deep_jobs.append((t, (
                        flat[order[s:e]], lo[i], hi[i], sub_md, levels,
                    )))
                break
            shift = np.uint64((levels - 1 - depth) * dim)
            mask = np.uint64(fanout - 1)
            pos = _multi_arange(starts, stops)
            digits = (sorted_codes[pos] >> shift) & mask
            group = np.repeat(np.arange(starts.size), stops - starts)
            new_run = np.empty(pos.size, dtype=bool)
            new_run[0] = True
            new_run[1:] = (digits[1:] != digits[:-1]) | (
                group[1:] != group[:-1]
            )
            run_heads = np.flatnonzero(new_run)
            run_counts = np.diff(np.append(run_heads, pos.size))
            run_starts = pos[run_heads]
            new_trial = run_trial[group[run_heads]]
            occupied = np.bincount(group[run_heads], minlength=starts.size)
            empties = fanout - occupied
            n_empty = int(empties.sum())
            if n_empty:
                trial_chunks.append(np.repeat(run_trial, empties))
                depth_chunks.append(
                    np.full(n_empty, depth + 1, dtype=np.int64)
                )
                occ_chunks.append(np.zeros(n_empty, dtype=np.int64))
            resolved = run_counts <= capacity
            if resolved.any():
                trial_chunks.append(new_trial[resolved])
                depth_chunks.append(
                    np.full(
                        int(resolved.sum()), depth + 1, dtype=np.int64
                    )
                )
                occ_chunks.append(run_counts[resolved])
            starts = run_starts[~resolved]
            stops = starts + run_counts[~resolved]
            run_trial = new_trial[~resolved]
            depth += 1
    return deep_jobs


def _multi_arange(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(s, e)`` for each pair, vectorized."""
    lengths = stops - starts
    total = int(lengths.sum())
    steps = np.ones(total, dtype=np.int64)
    steps[0] = starts[0]
    heads = np.cumsum(lengths)[:-1]
    steps[heads] = starts[1:] - (stops[:-1] - 1)
    return np.cumsum(steps)
