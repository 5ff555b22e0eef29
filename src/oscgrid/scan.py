"""Vectorized cube-family scans with deterministic reductions.

Every exhaustive analysis in this package reduces some per-cube quantity
(an oscillation ratio, a level-set fraction, an inequality margin, a
reverse Holder ratio) over an enumerated cube family.  `reduce_family` is
the one reduction loop: a `Reduction` names the per-cube value, its
extremum, and optional "holds" and "first breach" checks, and the loop
walks the family batch by batch in canonical order, keeping the first cube
that attains the extremum.

Means and masses come from prefix tables (O(2^n) per cube).  The absolute
deviation and the level mass are not prefix-summable: the window kernel
gathers each cube's cells through numpy stride tricks, chunked so peak
memory stays bounded, and computes Sum w*|v - mean| and Sum w*[v > threshold]
from one gather.  For 1D grids in "all" and "sample" mode both sums are
also range-threshold queries, which the wavelet matrix of rangesum answers
in O(log N) per cube with a rigorous error radius.  There the screen is one
step of the loop: only the cubes that could decide a result go through the
kernel, whose per-row results do not depend on the batch around them, so
every reported value, witness and flag is bit-identical to a full kernel
scan.  On both paths a cube whose every cell is above the level threshold
(a whole cube: the kernel's mask, the screen's exact count) has level sum
exactly its mass, so its level fraction is exactly 1.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DomainError
from .grids import (
    Cube,
    EnumerationMode,
    WeightedGrid,
    box_sums,
    iter_origin_batches,
)

# cap on cells materialized per chunk; ~16 MB of float64 keeps the window
# temporaries cache-friendly (measured 2x faster than 64 MB chunks)
_CHUNK_CELLS = 1 << 21


class Candidate(NamedTuple):
    """Extremum candidate: value, canonical sequence position, cube."""

    value: float
    seq: int
    cube: Cube


def gather_windows(arr: np.ndarray, side: int, origins: np.ndarray) -> np.ndarray:
    """Cells of each cube as rows (k, side**dim), row-major within the cube."""
    view = sliding_window_view(arr, (side,) * arr.ndim)
    picked = view[tuple(origins[:, axis] for axis in range(arr.ndim))]
    return picked.reshape(origins.shape[0], side**arr.ndim)


def batch_mass_mean(wg: WeightedGrid, side: int, origins: np.ndarray):
    """(mass, wv_sum, mean) per cube; mean is 0 on zero-mass cubes."""
    mass = box_sums(wg.w_prefix, origins, side)
    wv = box_sums(wg.wv_prefix, origins, side)
    mean = np.divide(wv, mass, out=np.zeros_like(wv), where=mass > 0)
    return mass, wv, mean


def batch_osc_level(
    wg: WeightedGrid,
    side: int,
    origins: np.ndarray,
    means: np.ndarray | None = None,
    thresholds: np.ndarray | None = None,
    masses: np.ndarray | None = None,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Per-cube Sum w*|v - mean| and/or Sum w*[v > threshold] from one gather.

    Either reduction may be switched off by passing None.  The level sum
    needs the cubes' masses too: a cube whose every cell is above its
    threshold has level sum exactly its mass.  Rows are chunked so at most
    _CHUNK_CELLS window cells are live at a time.
    """
    k = origins.shape[0]
    cells = side ** wg.grid.dim
    osc = np.empty(k) if means is not None else None
    lvl = np.empty(k) if thresholds is not None else None
    step = max(1, _CHUNK_CELLS // max(cells, 1))
    for lo in range(0, k, step):
        hi = min(lo + step, k)
        sub = origins[lo:hi]
        v_win = gather_windows(wg.values, side, sub)
        w_win = gather_windows(wg.weights, side, sub)
        if osc is not None:
            dev = v_win - means[lo:hi, None]
            np.abs(dev, out=dev)
            dev *= w_win
            osc[lo:hi] = dev.sum(axis=1)
        if lvl is not None:
            mask = v_win > thresholds[lo:hi, None]
            lvl[lo:hi] = np.where(mask.all(axis=1), masses[lo:hi], (w_win * mask).sum(axis=1))
    return osc, lvl


class CubeStats(NamedTuple):
    """Per-cube inputs of a reduction: the cubes, their prefix-table mass,
    Sum w*v and mean, plus the kernel sums the reduction asked for (None
    otherwise)."""

    sides: np.ndarray
    origins: np.ndarray
    mass: np.ndarray
    wv: np.ndarray
    mean: np.ndarray
    osc: np.ndarray | None = None  # Sum w*|v - mean|
    lvl: np.ndarray | None = None  # Sum w*[v > level*mean]

    def take(self, rows) -> "CubeStats":
        return CubeStats(*(None if f is None else f[rows] for f in self))


class Reduction(NamedTuple):
    """A per-cube value reduced over a cube family, with optional checks.

    value(stats) is reduced over the valid cubes: positive mass, and
    positive Sum w*v when positive_mean.  osc and level say which kernel
    sums it needs.  floor(stats): "holds" is true when value >= floor on
    every valid cube.  breach = (quantity, limit): the first valid cube in
    enumeration order with quantity(stats) <= limit.

    value and quantity must each read at most one of stats.osc and
    stats.lvl, and be monotone in it: the screen brackets them by
    evaluating them at both ends of that sum's error interval.  A value
    that reads neither (only prefix sums, through stats.sides and
    stats.origins) needs no kernel and no screen.
    """

    value: Callable[[CubeStats], np.ndarray]
    maximize: bool
    osc: bool = False
    level: float | None = None
    positive_mean: bool = True
    floor: Callable[[CubeStats], np.ndarray] | None = None
    breach: tuple[Callable[[CubeStats], np.ndarray], float] | None = None

    def valid(self, stats: CubeStats) -> np.ndarray:
        if self.positive_mean:
            return (stats.mass > 0) & (stats.wv > 0)
        return stats.mass > 0


class ReductionResult(NamedTuple):
    best: Candidate
    holds: bool
    cubes: int
    skipped_zero_mean: int  # positive-mass cubes left out by positive_mean
    breach: Candidate | None


def reduce_family(
    wg: WeightedGrid, mode: EnumerationMode, red: Reduction
) -> ReductionResult:
    """Reduce `red` over the family of `mode`, one batch of cubes at a time.

    Every cube's mass and level sum are at most Sum w, and its Sum w*v and
    Sum w*|v - mean| at most 2*Sum w*v, so a grid whose totals are finite
    has finite sums on every cube; any other grid is refused.

    Each batch's rows that may decide a result (be the extremum, break
    "holds", or be the first breach) go through the window kernel: every
    valid row, unless the range-threshold screen rules some out.  Batches
    arrive in canonical order and a strictly-better rule keeps the first
    cube on exact ties.  A family with no valid cube is an empty measure.
    """
    with np.errstate(over="ignore"):  # an overflow shows up as an infinite total
        totals = wg.total_mass, 2 * float(wg.wv_prefix[(-1,) * wg.grid.dim])
    if not all(np.isfinite(totals)):
        raise DomainError(
            f"grid totals overflow float64: Sum w = {totals[0]}, 2*Sum w*v = {totals[1]}"
        )
    index = _screen_index(wg, mode, red)
    better = np.greater if red.maximize else np.less
    best = breach = bound = None
    holds = True
    cubes = skipped = 0
    for seq_start, sides, origins in iter_origin_batches(wg.grid, mode, decode=index is not None):
        stats = CubeStats(sides, origins, *batch_mass_mean(wg, sides, origins))
        valid = red.valid(stats)
        cubes += len(valid)
        skipped += int(np.count_nonzero(stats.mass > 0) - np.count_nonzero(valid))
        none = np.zeros_like(valid)
        extremum = valid
        below = valid if red.floor is not None and holds else none
        maybe = valid if red.breach is not None and breach is None else none
        rows = whole = None
        if index is not None:
            extremum, below, maybe, whole, bound = _screen(
                index, red, stats, valid, below, maybe, bound
            )
            rows = np.flatnonzero(extremum | below | maybe)
            if rows.size == 0:
                continue
            stats, whole = stats.take(rows), None if whole is None else whole[rows]
            extremum, below, maybe = extremum[rows], below[rows], maybe[rows]

        stats = _kernel_at(wg, red, stats, whole)

        def candidate(values, i):
            seq = seq_start + (i if rows is None else int(rows[i]))
            return Candidate(float(values[i]), seq, Cube(tuple(stats.origins[i]), stats.sides[i]))

        values = red.value(stats)
        if extremum.any():
            masked = np.where(extremum, values, -np.inf if red.maximize else np.inf)
            i = int(np.argmax(masked) if red.maximize else np.argmin(masked))
            if best is None or better(values[i], best.value):
                best = candidate(values, i)
                bound = best.value if bound is None or better(best.value, bound) else bound
        if below.any():
            holds = bool(np.all(values[below] >= red.floor(stats)[below]))
        if maybe.any():
            quantity, limit = red.breach
            q = quantity(stats)
            hit = maybe & (q <= limit)
            if hit.any():  # always, when the screen saw a certain breach
                breach = candidate(q, int(np.argmax(hit)))
    if best is None:
        suffix = " and positive mean" if red.positive_mean else ""
        raise DomainError(f"empty measure: no cube has positive mass{suffix}")
    return ReductionResult(best, holds, cubes, skipped, breach)


def _screen_index(wg: WeightedGrid, mode: EnumerationMode, red: Reduction):
    """The range-threshold index of the grid when it can screen this scan:
    a 1D "all" or "sample" family, a reduction that needs kernel sums, and
    estimates whose radii are finite."""
    if wg.grid.dim == 1 and mode.tag in ("all", "sample") and (red.osc or red.level is not None):
        if wg.threshold_index.finite:
            return wg.threshold_index
    return None


def _bracket(fn, low: CubeStats, high: CubeStats):
    a, b = fn(low), fn(high)
    return np.minimum(a, b), np.maximum(a, b)


def _screen(index, red: Reduction, stats: CubeStats, valid, below, maybe, bound):
    """Narrow the open rows of a 1D batch with range-threshold brackets.

    Each cube's value (and breach quantity) is bracketed by evaluating it at
    both ends of its kernel sum's error interval.  A cube stays open when
    its bracket reaches the running bound (the best value some screened or
    refined cube is known to attain), when it might fall below the floor
    while "holds" is still true, or when it might be a breach no earlier
    than the first certain one.  The bound never passes the true extremum,
    so the first cube attaining it is always refined.  A cube certain to
    fall below the floor is refined alone: the kernel confirms it.

    `below` and `maybe` come in as the rows still open to those two checks
    (all valid rows, or none).  Returns the narrowed masks (extremum, below,
    maybe), the whole cubes (every cell above the level threshold, by the
    exact count; None without a level), whose level sum is exactly their
    mass, and the new bound.
    """
    lo = stats.origins[:, 0]
    hi = lo + stats.sides
    osc = lvl = (None, None)
    whole = None
    if red.osc:
        est, rad = index.abs_deviation(lo, hi, stats.mean)
        osc = (est - rad, est + rad)
    if red.level is not None:
        est, rad, above = index.level_mass(lo, hi, red.level * stats.mean)
        whole = above == stats.sides
        lvl = (np.where(whole, stats.mass, est - rad), np.where(whole, stats.mass, est + rad))
    low = stats._replace(osc=osc[0], lvl=lvl[0])
    high = stats._replace(osc=osc[1], lvl=lvl[1])
    vmin, vmax = _bracket(red.value, low, high)
    better = np.greater if red.maximize else np.less
    if valid.any():
        edge = np.max(vmin[valid]) if red.maximize else np.min(vmax[valid])
        bound = edge if bound is None or better(edge, bound) else bound
    reach = vmax if red.maximize else vmin
    extremum = valid & ~better(bound, reach) if bound is not None else valid
    if below.any():
        floor = red.floor(low)
        fails = valid & (vmax < floor)
        below = fails & (np.cumsum(fails) == 1) if fails.any() else valid & (vmin < floor)
    if maybe.any():
        qmin, qmax = _bracket(red.breach[0], low, high)
        maybe = valid & (qmin <= red.breach[1])
        sure = valid & (qmax <= red.breach[1])
        if sure.any():
            maybe[int(np.argmax(sure)) + 1 :] = False
    return extremum, below, maybe, whole, bound


def _kernel_at(wg, red: Reduction, stats: CubeStats, whole) -> CubeStats:
    """`stats` with the kernel sums the reduction asks for filled in.

    Each side's cubes form one batch, whose rows do not depend on the rest
    of it.  A level-only reduction gathers no `whole` cube (see `_screen`):
    its level sum is its mass.
    """
    if not red.osc and red.level is None:
        return stats
    osc = np.empty(len(stats.mass)) if red.osc else None
    lvl = stats.mass.copy() if red.level is not None else None
    gather = ~whole if whole is not None and not red.osc else True
    lo, hi = int(stats.sides.min()), int(stats.sides.max())
    for side in [lo] if lo == hi else np.unique(stats.sides).tolist():
        if lo == hi and gather is True:
            rows = slice(None)  # the whole batch, without copying it
        else:
            rows = np.flatnonzero((stats.sides == side) & gather)
            if rows.size == 0:
                continue
        part_osc, part_lvl = batch_osc_level(
            wg,
            side,
            stats.origins[rows],
            means=stats.mean[rows] if osc is not None else None,
            thresholds=red.level * stats.mean[rows] if lvl is not None else None,
            masses=stats.mass[rows] if lvl is not None else None,
        )
        if osc is not None:
            osc[rows] = part_osc
        if lvl is not None:
            lvl[rows] = part_lvl
    return stats._replace(osc=osc, lvl=lvl)
