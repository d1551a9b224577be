"""Exact Morton quantization: coordinates → the tree's grid cells.

Every kernel that reads the PR quadtree off sorted Morton codes — the
census engine, the query kernel's build and corner covers, the sorted
bulk load — first needs each point's grid cell at the code's depth
``levels``: the per-axis bit strings of the quadrant choices the
tree's own descent makes.  :func:`morton_cells` is that one primitive.

Closed form.  When every axis of the root box is ``[0, 2^e)``, every
midpoint the tree computes is an exact dyadic: at depth ``k`` a block
is ``[c·2^(e−k), (c+1)·2^(e−k))`` and its midpoint
``(2c+1)·2^(e−k−1)`` has at most ``k + 1`` significant bits.  With
``levels + 1 <= 53`` and ``e − levels − 1 >= −1022`` all of them are
normal doubles, so ``(lo + hi) / 2.0`` never rounds, every block is
splittable (``lo < mid < hi``), and ``p >= mid`` reads off the binary
digits of ``p / 2^e`` one by one.  The cells are then exactly
``floor(p · 2^(levels − e))`` — one scale (a power of two, so exact)
and one truncation per coordinate — and no point is pinned.  Values
outside the root clamp the way the descent does: below 0 (or NaN) to
cell 0, at or above ``2^e`` to the last cell.

Replay.  Any other root box (non-zero ``lo``, a ``hi`` that is not a
power of two, or more levels than a double has bits, as in 1-d's 62)
replays the tree's arithmetic — ``mid = (lo + hi) / 2.0`` per axis per
level, exactly :meth:`Point.midpoint` inside :meth:`Rect.child` —
which also finds the depth at which a block stops being splittable.
An affine map would round differently there and misplace points within
one ulp of a block boundary.  Each replayed call counts
``kernel.codes.replay`` so a trace shows when the slow path runs.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .. import obs

#: Significand bits of a double: deeper codes cannot be computed in
#: closed form.
_MANTISSA_BITS = 53

#: Smallest exponent of a normal double.
_MIN_NORMAL_EXP = -1022


def _dyadic_exponents(
    root_lo: np.ndarray, root_hi: np.ndarray, levels: int
) -> Optional[np.ndarray]:
    """Per-axis ``e`` with a root of ``[0, 2^e)`` on every axis, when
    the closed form is exact at ``levels``; ``None`` otherwise."""
    if levels + 1 > _MANTISSA_BITS or np.any(root_lo != 0.0):
        return None
    mantissa, exp = np.frexp(root_hi)
    if np.any(mantissa != 0.5):
        return None
    exps = exp.astype(np.int64) - 1
    if np.any(exps - levels - 1 < _MIN_NORMAL_EXP):
        return None
    return exps


def morton_cells(
    arr: np.ndarray,
    root_lo: np.ndarray,
    root_hi: np.ndarray,
    levels: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Grid cells of ``(n, dim)`` coordinates at depth ``levels``.

    Returns ``(cells, pin)``: ``cells`` is an ``(n, dim)`` uint64 array
    of per-axis cell indices (``levels`` bits each, the tree's quadrant
    choices from the root down), ``pin`` the first depth at which each
    point's block is unsplittable, or ``levels + 1`` if none is.
    """
    exps = _dyadic_exponents(root_lo, root_hi, levels)
    if exps is None:
        if obs.enabled():
            obs.count("kernel.codes.replay")
        return _replay_cells(arr, root_lo, root_hi, levels)
    with np.errstate(over="ignore"):  # far outside the root -> inf
        scaled = arr * np.ldexp(1.0, levels - exps)
    np.fmax(scaled, 0.0, out=scaled)  # negatives, -0.0 and NaN -> 0
    np.fmin(scaled, float((1 << levels) - 1), out=scaled)
    cells = scaled.astype(np.int64).view(np.uint64)
    pin = np.full(arr.shape[0], levels + 1, dtype=np.int64)
    return cells, pin


def _replay_cells(
    arr: np.ndarray,
    root_lo: np.ndarray,
    root_hi: np.ndarray,
    levels: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`morton_cells` by replaying the tree's descent arithmetic
    level by level — exact for any root box."""
    n, dim = arr.shape
    lo = np.repeat(root_lo[None, :], n, axis=0)
    hi = np.repeat(root_hi[None, :], n, axis=0)
    cells = np.zeros((n, dim), dtype=np.uint64)
    pin = np.full(n, levels + 1, dtype=np.int64)
    one = np.uint64(1)
    for level in range(levels):
        mid = (lo + hi) / 2.0
        stuck = ~((lo < mid) & (mid < hi)).all(axis=1)
        pin = np.where((pin > levels) & stuck, level, pin)
        geq = arr >= mid
        cells = (cells << one) | geq.astype(np.uint64)
        lo = np.where(geq, mid, lo)
        hi = np.where(geq, hi, mid)
    return cells, pin


def cell_bounds(
    cells: np.ndarray,
    root_lo: np.ndarray,
    root_hi: np.ndarray,
    levels: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Corners ``(lo, hi)`` of the depth-``levels`` blocks holding the
    given ``(k, dim)`` cells, by replaying the descent along each
    cell's bits — the same floats the tree computes for those blocks.
    """
    k = cells.shape[0]
    lo = np.repeat(root_lo[None, :], k, axis=0)
    hi = np.repeat(root_hi[None, :], k, axis=0)
    one = np.uint64(1)
    for level in range(levels):
        bit = ((cells >> np.uint64(levels - 1 - level)) & one).astype(bool)
        mid = (lo + hi) / 2.0
        lo = np.where(bit, mid, lo)
        hi = np.where(bit, hi, mid)
    return lo, hi
