"""Workload generators for the paper's experiments.

All generators are deterministic given a seed (numpy ``Generator``
underneath) and produce *distinct* points — the PR splitting rule is
defined on distinct points, and with continuous coordinates duplicates
have probability zero anyway; we enforce it so trees never reject.

The two distributions the paper evaluates:

- **uniform** over the tree's square region (Tables 1-4, Figure 2);
- **Gaussian** "two standard deviations wide centered in the square
  region" (Table 5, Figure 3) — i.e. sigma = side/4 per axis, centered,
  resampled until inside the region.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np
# numpy loads ``numpy.random`` on first use; importing it with this
# module loads it in a pool's coordinator before the workers fork,
# instead of once in every new worker
import numpy.random  # noqa: F401

from ..geometry import Point, Rect, Segment


class PointGenerator:
    """Base class: seeded random point streams over a region."""

    def __init__(self, bounds: Optional[Rect] = None, dim: int = 2,
                 seed: Optional[int] = None):
        if bounds is None:
            bounds = Rect.unit(dim)
        self._bounds = bounds
        self._rng = np.random.default_rng(seed)

    @property
    def bounds(self) -> Rect:
        """The region points are drawn from."""
        return self._bounds

    def _raw(self) -> Point:
        raise NotImplementedError

    def generate(self, n: int) -> List[Point]:
        """``n`` distinct points from the distribution."""
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        out: List[Point] = []
        seen = set()
        while len(out) < n:
            p = self._raw()
            if p not in seen:
                seen.add(p)
                out.append(p)
        return out

    def generate_array(self, n: int) -> np.ndarray:
        """``n`` distinct points as an ``(n, dim)`` float64 array —
        row ``i`` is exactly ``generate(n)[i]``'s coordinates, and the
        RNG is left in the state ``generate(n)`` would leave it in.

        The base implementation lowers :meth:`generate`.  Uniform and
        Gaussian points override it with a vectorized draw that
        consumes the RNG stream identically, so callers (the runtime's
        vector trial loop, serial and pooled) may rely on
        ``generate_array`` being bit-identical to ``generate`` for
        every generator.  Clustered and diagonal points stay on this
        scalar fallback: each attempt interleaves an integer or uniform
        draw with its normals on one stream, and a bulk draw of one
        distribution cannot reproduce that interleaving bit for bit.
        """
        points = self.generate(n)
        if not points:
            return np.empty((0, self._bounds.dim), dtype=np.float64)
        return np.array([tuple(p) for p in points], dtype=np.float64)

    def _distinct_rows(self, arr: np.ndarray, n: int) -> np.ndarray:
        """Finish a vectorized draw with the scalar loop's dedupe.

        ``arr`` holds the first ``n`` points the stream yields, and the
        RNG sits just past the draw of the last one.  Duplicate rows
        (probability ~0 in float64) fall back to :meth:`generate`'s
        semantics: keep first occurrences, then keep drawing one point
        at a time until ``n`` are distinct.
        """
        # +0.0 normalizes -0.0 so the bitwise comparisons below agree
        # with the scalar path's value-equality dedupe; distinct first
        # coordinates (the usual case) already make the rows distinct,
        # and a 1-d sort is far cheaper than a row-wise one (np.sort,
        # not np.unique, which loads numpy.ma on first use: ~20 ms in
        # every fresh pool worker)
        first = np.sort(arr[:, 0] + 0.0)
        if (
            not (first[1:] == first[:-1]).any()
            or np.unique(arr + 0.0, axis=0).shape[0] == n
        ):
            return arr
        seen = set()
        rows: List[Tuple[float, ...]] = []
        for row in map(tuple, arr.tolist()):
            if row not in seen:
                seen.add(row)
                rows.append(row)
        while len(rows) < n:
            row = tuple(self._raw())
            if row not in seen:
                seen.add(row)
                rows.append(row)
        return np.array(rows, dtype=np.float64)

    def stream(self) -> Iterator[Point]:
        """An endless stream of distinct points."""
        seen = set()
        while True:
            p = self._raw()
            if p not in seen:
                seen.add(p)
                yield p


class UniformPoints(PointGenerator):
    """Uniformly distributed points — the paper's primary data model."""

    def _raw(self) -> Point:
        coords = [
            self._bounds.lo[i]
            + self._rng.random() * (self._bounds.hi[i] - self._bounds.lo[i])
            for i in range(self._bounds.dim)
        ]
        return Point(*coords)

    def generate_array(self, n: int) -> np.ndarray:
        """Vectorized draw, bit-identical to :meth:`generate`.

        ``_raw`` consumes one double per axis per point in row-major
        order, and a bulk ``Generator.random(k)`` yields exactly the
        same doubles as ``k`` scalar calls, so one bulk draw plus the
        same affine map reproduces the scalar stream.
        """
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        dim = self._bounds.dim
        if n == 0:
            return np.empty((0, dim), dtype=np.float64)
        lo = np.array(self._bounds.lo.coords, dtype=np.float64)
        hi = np.array(self._bounds.hi.coords, dtype=np.float64)
        raw = self._rng.random(n * dim).reshape(n, dim)
        return self._distinct_rows(lo + raw * (hi - lo), n)


class GaussianPoints(PointGenerator):
    """The paper's Gaussian workload: a normal distribution "two
    standard deviations wide centered in the square region".

    The paper's phrase is ambiguous between sigma = side/4 (region
    spans +-2 sigma) and sigma = side/2 (region *is* 2 sigma wide).
    Samples outside the region are rejected and redrawn.  The default
    ``sigma_fraction = 0.4`` is calibrated against the paper's Table 5:
    it reproduces both the near-uniform node counts at small n and the
    damped late-half oscillation (a side/4 bell overshoots the central
    density; a side/2 bell barely damps).  See EXPERIMENTS.md for the
    calibration sweep.
    """

    def __init__(self, bounds: Optional[Rect] = None, dim: int = 2,
                 seed: Optional[int] = None,
                 sigma_fraction: float = 0.4):
        super().__init__(bounds, dim, seed)
        if sigma_fraction <= 0:
            raise ValueError("sigma_fraction must be positive")
        self._sigma_fraction = sigma_fraction

    def _raw(self) -> Point:
        center = self._bounds.center
        while True:
            coords = [
                self._rng.normal(
                    center[i], self._sigma_fraction * self._bounds.side(i)
                )
                for i in range(self._bounds.dim)
            ]
            p = Point(*coords)
            if self._bounds.contains_point(p):
                return p

    def generate_array(self, n: int) -> np.ndarray:
        """Vectorized draw, bit-identical to :meth:`generate`.

        ``_raw`` draws one normal per axis per attempt in row-major
        order and rejects attempts outside the half-open region, and a
        bulk ``Generator.normal(loc, scale, size=(k, dim))`` yields
        exactly the doubles of ``k * dim`` scalar calls.  Each round
        over-draws ``2 * need + 32`` attempts for the ``need`` rows
        still missing — one round at the default sigma, more for a
        sigma that rejects most attempts, never more than ~``2n`` rows
        in memory; the round that completes ``n`` accepted rows rewinds
        the bit generator to its start and redraws only the attempts up
        to the ``n``-th accepted one, so the RNG ends where the scalar
        loop ends it.
        """
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        dim = self._bounds.dim
        if n == 0:
            return np.empty((0, dim), dtype=np.float64)
        center = self._bounds.center
        # the scalar loop's loc/scale, computed as it computes them
        loc = np.array([center[i] for i in range(dim)], dtype=np.float64)
        scale = np.array(
            [self._sigma_fraction * self._bounds.side(i) for i in range(dim)],
            dtype=np.float64,
        )
        lo = np.array(self._bounds.lo.coords, dtype=np.float64)
        hi = np.array(self._bounds.hi.coords, dtype=np.float64)
        rounds: List[np.ndarray] = []
        need = n
        while need:
            start = self._rng.bit_generator.state
            draw = self._rng.normal(loc, scale, size=(2 * need + 32, dim))
            inside = ((draw >= lo) & (draw < hi)).all(axis=1)
            hits = np.flatnonzero(inside)
            if hits.size >= need:
                used = int(hits[need - 1]) + 1
                self._rng.bit_generator.state = start
                draw = self._rng.normal(loc, scale, size=(used, dim))
                inside = inside[:used]
            rounds.append(draw[inside])
            need -= int(inside.sum())
        return self._distinct_rows(np.concatenate(rounds), n)


class ClusteredPoints(PointGenerator):
    """A mixture of compact Gaussian clusters — the strongly non-uniform
    regime where phasing should vanish entirely.

    ``n_clusters`` centers are drawn uniformly; each point picks a
    center at random and scatters around it with the given sigma
    (as a fraction of the region side), rejected to the region.
    """

    def __init__(self, bounds: Optional[Rect] = None, dim: int = 2,
                 seed: Optional[int] = None,
                 n_clusters: int = 8, cluster_sigma: float = 0.03):
        super().__init__(bounds, dim, seed)
        if n_clusters < 1:
            raise ValueError("n_clusters must be >= 1")
        if cluster_sigma <= 0:
            raise ValueError("cluster_sigma must be positive")
        self._sigma = cluster_sigma
        self._centers = [
            Point(*(
                self._bounds.lo[i]
                + self._rng.random() * self._bounds.side(i)
                for i in range(self._bounds.dim)
            ))
            for _ in range(n_clusters)
        ]

    @property
    def centers(self) -> List[Point]:
        """The cluster centers."""
        return list(self._centers)

    def _raw(self) -> Point:
        center = self._centers[self._rng.integers(len(self._centers))]
        while True:
            coords = [
                self._rng.normal(center[i], self._sigma * self._bounds.side(i))
                for i in range(self._bounds.dim)
            ]
            p = Point(*coords)
            if self._bounds.contains_point(p):
                return p


class DiagonalPoints(PointGenerator):
    """Points jittered around the main diagonal — a worst-ish case for
    regular decomposition (deep splits along a 1-d manifold)."""

    def __init__(self, bounds: Optional[Rect] = None, dim: int = 2,
                 seed: Optional[int] = None, jitter: float = 0.01):
        super().__init__(bounds, dim, seed)
        if jitter < 0:
            raise ValueError("jitter must be >= 0")
        self._jitter = jitter

    def _raw(self) -> Point:
        while True:
            t = self._rng.random()
            coords = [
                self._bounds.lo[i]
                + t * self._bounds.side(i)
                + self._rng.normal(0.0, self._jitter * self._bounds.side(i))
                for i in range(self._bounds.dim)
            ]
            p = Point(*coords)
            if self._bounds.contains_point(p):
                return p


class RandomSegments:
    """Random short segments for the PMR quadtree experiments.

    Each segment has a uniform midpoint, uniform orientation, and
    length drawn uniformly from ``[min_length, max_length]`` (clipped
    so both endpoints stay inside the region by rejection).
    """

    def __init__(self, bounds: Optional[Rect] = None,
                 seed: Optional[int] = None,
                 min_length: float = 0.05, max_length: float = 0.2):
        if bounds is None:
            bounds = Rect.unit(2)
        if bounds.dim != 2:
            raise ValueError("segments are planar")
        if not 0 < min_length <= max_length:
            raise ValueError("need 0 < min_length <= max_length")
        self._bounds = bounds
        self._rng = np.random.default_rng(seed)
        self._min_length = min_length
        self._max_length = max_length

    @property
    def bounds(self) -> Rect:
        """The region segments are drawn from."""
        return self._bounds

    def _raw(self) -> Segment:
        while True:
            cx = self._bounds.lo.x + self._rng.random() * self._bounds.side(0)
            cy = self._bounds.lo.y + self._rng.random() * self._bounds.side(1)
            theta = self._rng.random() * math.pi
            length = self._min_length + self._rng.random() * (
                self._max_length - self._min_length
            )
            dx = 0.5 * length * math.cos(theta)
            dy = 0.5 * length * math.sin(theta)
            a = Point(cx - dx, cy - dy)
            b = Point(cx + dx, cy + dy)
            if self._bounds.contains_point(a) and self._bounds.contains_point(b):
                return Segment(a, b)

    def generate(self, n: int) -> List[Segment]:
        """``n`` distinct segments."""
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        out: List[Segment] = []
        seen = set()
        while len(out) < n:
            s = self._raw()
            if s not in seen:
                seen.add(s)
                out.append(s)
        return out


class LatticeSubdivision:
    """A random planar subdivision — PM1-compatible segment sets.

    Vertices sit on a jittered ``cells x cells`` lattice; edges connect
    horizontally/vertically adjacent vertices, each kept with
    probability ``edge_probability``.  With jitter below ~0.3 of a cell
    the edges of the perturbed lattice cannot cross except at shared
    endpoints, so the output is a valid polygonal map; generation
    re-verifies and redraws crossing edges regardless.
    """

    def __init__(self, cells: int = 6, jitter: float = 0.2,
                 edge_probability: float = 0.6,
                 bounds: Optional[Rect] = None,
                 seed: Optional[int] = None):
        if cells < 2:
            raise ValueError(f"cells must be >= 2, got {cells}")
        if not 0.0 <= jitter <= 0.3:
            raise ValueError("jitter must be in [0, 0.3] (planarity bound)")
        if not 0.0 < edge_probability <= 1.0:
            raise ValueError("edge_probability must be in (0, 1]")
        if bounds is None:
            bounds = Rect.unit(2)
        self._cells = cells
        self._jitter = jitter
        self._edge_probability = edge_probability
        self._bounds = bounds
        self._rng = np.random.default_rng(seed)

    @staticmethod
    def _legal_intersection(a: "Segment", b: "Segment") -> bool:
        """True iff a and b meet nowhere, or only at a shared vertex
        (endpoint comparison with float tolerance)."""
        crossing = a.intersection_point(b)
        if crossing is None:
            return True
        return any(
            crossing.distance_to(mine) < 1e-9
            and any(
                crossing.distance_to(theirs) < 1e-9
                for theirs in (b.a, b.b)
            )
            for mine in (a.a, a.b)
        )

    def generate(self) -> List["Segment"]:
        """One random subdivision (a fresh draw per call)."""
        cells = self._cells
        spacing_x = self._bounds.side(0) / cells
        spacing_y = self._bounds.side(1) / cells
        # vertices strictly inside the region: offset by half a cell
        vertices = {}
        for i in range(cells):
            for j in range(cells):
                jx = self._rng.uniform(-self._jitter, self._jitter)
                jy = self._rng.uniform(-self._jitter, self._jitter)
                vertices[(i, j)] = Point(
                    self._bounds.lo.x + (i + 0.5 + jx) * spacing_x,
                    self._bounds.lo.y + (j + 0.5 + jy) * spacing_y,
                )
        segments: List[Segment] = []
        for (i, j), vertex in vertices.items():
            for neighbor in ((i + 1, j), (i, j + 1)):
                if neighbor not in vertices:
                    continue
                if self._rng.random() > self._edge_probability:
                    continue
                candidate = Segment(vertex, vertices[neighbor])
                if all(
                    self._legal_intersection(candidate, existing)
                    for existing in segments
                ):
                    segments.append(candidate)
        return segments


def logarithmic_sample_sizes(
    start: int = 64, stop: int = 4096, steps_per_quadrupling: int = 4
) -> List[int]:
    """The paper's sample-size grid for Tables 4/5: sizes spaced so the
    count quadruples every ``steps_per_quadrupling`` steps.

    With the defaults this reproduces exactly
    ``64, 90, 128, 181, 256, 362, 512, 724, 1024, 1448, 2048, 2896, 4096``
    (the paper truncates the intermediate sizes, e.g. 64*sqrt(2) -> 90).
    """
    if start < 1 or stop < start:
        raise ValueError("need 1 <= start <= stop")
    if steps_per_quadrupling < 1:
        raise ValueError("steps_per_quadrupling must be >= 1")
    sizes = []
    k = 0
    while True:
        # exponent written base-2 so exact powers of two stay exact
        n = int(start * 2.0 ** (2.0 * k / steps_per_quadrupling) + 1e-9)
        if n > stop:
            break
        sizes.append(n)
        k += 1
    return sizes
