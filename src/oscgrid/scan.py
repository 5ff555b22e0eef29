"""Vectorized cube-family scans with deterministic reductions.

Every exhaustive analysis in this package reduces some per-cube quantity
(an oscillation ratio, a level-set fraction, an inequality margin) over an
enumerated cube family.  This module provides the shared machinery:

* `reduce_family`, the one reduction primitive: a `Reduction` names the
  per-cube value, its extremum, and optional "holds" and "first breach"
  checks, and the result is the same whichever path below computes it;
* per-batch cell windows gathered through numpy stride tricks, chunked so
  peak memory stays bounded, and fused kernels computing
  Sum w*|v - mean| and Sum w*[v > threshold] from one gather;
* an argmax/argmin reduction that always returns the first cube in
  canonical order attaining the extremum, independent of chunking and of
  the thread count.

Means and masses come from prefix tables (O(2^n) per cube).  The absolute
deviation and the level mass are not prefix-summable, so in 2D/3D and in
dyadic mode the window kernel scans every cell of every cube.  For 1D grids
in "all" and "sample" mode both sums are also range-threshold queries,
which the wavelet matrix of rangesum answers in O(log N) per cube with a
rigorous error radius.  There the family is screened with those estimates
and only the cubes that could decide a result (be the extremum, break
"holds", or be the first breach) go through the window kernel, whose
per-row results do not depend on the batch around them: every reported
value, witness and flag is bit-identical to a full kernel scan.  Where many
cubes lie within rounding of the extremum (every cell above a low
threshold, so every level fraction is 1 up to rounding), their level sums
come from a per-side table of the kernel's window masses instead.
"""

from __future__ import annotations

from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grids import (
    Cube,
    EnumerationMode,
    Grid,
    WeightedGrid,
    box_sums,
    family_counts,
    family_cubes,
    iter_origin_batches,
    sample_positions,
)

# cap on cells materialized per chunk; ~16 MB of float64 keeps the window
# temporaries cache-friendly (measured 2x faster than 64 MB chunks)
_CHUNK_CELLS = 1 << 21

# cubes per range-threshold query chunk; a few MB of live temporaries
_CHUNK_CUBES = 1 << 13

# cells per window copy when window masses are tabulated; 16 MB copies
# measured 2.5 MB more peak RSS on N = 1024 than these 512 kB ones
_MASS_CHUNK_CELLS = 1 << 16


@dataclass(frozen=True)
class Candidate:
    """Extremum candidate: value, canonical sequence position, cube."""

    value: float
    seq: int
    cube: Cube


def gather_windows(arr: np.ndarray, side: int, origins: np.ndarray) -> np.ndarray:
    """Cells of each cube as rows (k, side**dim), row-major within the cube."""
    dim = arr.ndim
    k = origins.shape[0]
    if dim <= 3:
        view = sliding_window_view(arr, (side,) * dim)
        picked = view[tuple(origins[:, axis] for axis in range(dim))]
        return picked.reshape(k, side**dim)
    out = np.empty((k, side**dim), dtype=arr.dtype)
    for i, origin in enumerate(origins):
        block = arr[tuple(slice(int(o), int(o) + side) for o in origin)]
        out[i] = block.ravel()
    return out


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
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Per-cube Sum w*|v - mean| and/or Sum w*[v > threshold] from one gather.

    Either reduction may be switched off by passing None.  Rows are chunked
    so at most _CHUNK_CELLS window cells are live at a time.
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
            lvl[lo:hi] = (w_win * mask).sum(axis=1)
    return osc, lvl


def first_extremum(
    values: np.ndarray, valid: np.ndarray, side: int, origins: np.ndarray, seq_start: int, maximize: bool
) -> Candidate | None:
    """First cube (canonical order) attaining the batch extremum over valid rows."""
    if not valid.any():
        return None
    fill = -np.inf if maximize else np.inf
    masked = np.where(valid, values, fill)
    i = int(np.argmax(masked) if maximize else np.argmin(masked))
    cube = Cube(tuple(int(x) for x in origins[i]), side)
    return Candidate(float(masked[i]), seq_start + i, cube)


def merge_candidates(candidates: Iterable[Candidate | None], maximize: bool) -> Candidate | None:
    """Reduce per-batch candidates; batches arrive in canonical order, so a
    strictly-better rule keeps the first cube on exact ties."""
    best: Candidate | None = None
    for cand in candidates:
        if cand is None:
            continue
        if best is None:
            best = cand
        elif maximize and cand.value > best.value:
            best = cand
        elif not maximize and cand.value < best.value:
            best = cand
    return best


def map_batches(
    grid: Grid,
    mode: EnumerationMode,
    fn: Callable[[int, np.ndarray, int], object],
    threads: int = 1,
) -> list:
    """Apply fn(side, origins, seq_start) to every batch, results in canonical order.

    fn must be pure; with threads > 1 batches run on a pool but the result
    list (and therefore every downstream reduction) is order-identical to
    the serial run.
    """
    batches = list(iter_origin_batches(grid, mode))
    if threads <= 1 or len(batches) <= 1:
        return [fn(*b) for b in batches]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda b: fn(*b), batches))


def warm_tables(wg: WeightedGrid) -> None:
    """Build the lazy prefix tables before any parallel section."""
    wg.w_prefix
    wg.wv_prefix


class CubeStats(NamedTuple):
    """Per-cube inputs of a reduction: prefix-table mass, Sum w*v and mean,
    plus the kernel sums the reduction asked for (None otherwise)."""

    mass: np.ndarray
    wv: np.ndarray
    mean: np.ndarray
    osc: np.ndarray | None = None  # Sum w*|v - mean|
    lvl: np.ndarray | None = None  # Sum w*[v > level*mean]


class Reduction(NamedTuple):
    """A per-cube value reduced over a cube family, with optional checks.

    value(stats) is reduced over the valid cubes: positive mass, and
    positive Sum w*v when positive_mean.  osc and level say which kernel
    sums it needs.  floor(stats): "holds" is true when value >= floor on
    every valid cube.  breach = (quantity, limit): the first valid cube in
    enumeration order with quantity(stats) <= limit.

    value and quantity must each read at most one of stats.osc and
    stats.lvl, and be monotone in it: the screened path brackets them by
    evaluating them at both ends of that sum's error interval.
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
    best: Candidate | None  # None when no cube is valid
    holds: bool
    cubes: int
    skipped_zero_mean: int  # positive-mass cubes left out by positive_mean
    breach: Candidate | None


def reduce_family(
    wg: WeightedGrid, mode: EnumerationMode, red: Reduction, threads: int = 1
) -> ReductionResult:
    """Reduce `red` over the family of `mode`, screened where the grid allows."""
    warm_tables(wg)
    if wg.grid.dim == 1 and mode.tag in ("all", "sample") and wg.threshold_index.finite:
        return _screened_reduce(wg, mode, red, threads)
    return _kernel_reduce(wg, mode, red, threads)


def _kernel_reduce(wg, mode, red: Reduction, threads: int) -> ReductionResult:
    def work(side, origins, seq_start):
        mass, wv, means = batch_mass_mean(wg, side, origins)
        osc, lvl = batch_osc_level(
            wg,
            side,
            origins,
            means=means if red.osc else None,
            thresholds=red.level * means if red.level is not None else None,
        )
        stats = CubeStats(mass, wv, means, osc, lvl)
        valid = red.valid(stats)
        values = red.value(stats)
        cand = first_extremum(values, valid, side, origins, seq_start, red.maximize)
        ok = red.floor is None or bool(np.all(values[valid] >= red.floor(stats)[valid]))
        breach = None
        if red.breach is not None:
            quantity, limit = red.breach
            q = quantity(stats)
            hit = valid & (q <= limit)
            if hit.any():
                i = int(np.argmax(hit))
                breach = Candidate(float(q[i]), seq_start + i, Cube(tuple(origins[i]), side))
        skipped = int(np.count_nonzero(stats.mass > 0) - np.count_nonzero(valid))
        return cand, ok, len(origins), skipped, breach

    results = map_batches(wg.grid, mode, work, threads)
    return ReductionResult(
        best=merge_candidates((r[0] for r in results), red.maximize),
        holds=all(r[1] for r in results),
        cubes=sum(r[2] for r in results),
        skipped_zero_mean=sum(r[3] for r in results),
        breach=next((r[4] for r in results if r[4] is not None), None),
    )


class _Screen(NamedTuple):
    """One chunk of the family with each cube's value bracketed from the
    range-threshold estimates."""

    seq: np.ndarray
    sides: np.ndarray
    origins: np.ndarray
    valid: np.ndarray
    skipped: int
    vmin: np.ndarray  # value bracket
    vmax: np.ndarray
    floor: np.ndarray | None
    qmin: np.ndarray | None  # breach quantity bracket
    qmax: np.ndarray | None
    whole: np.ndarray  # every cell of the cube is above the level threshold


def _bracket(fn, low: CubeStats, high: CubeStats):
    a, b = fn(low), fn(high)
    return np.minimum(a, b), np.maximum(a, b)


def _screen_chunk(wg, red: Reduction, seq: np.ndarray, positions: np.ndarray) -> _Screen:
    index = wg.threshold_index
    sides, origins = family_cubes(wg.grid, positions)
    mass, wv, means = batch_mass_mean(wg, sides, origins)
    lo = origins[:, 0]
    hi = lo + sides
    osc = lvl = (None, None)
    whole = np.zeros(len(seq), dtype=bool)
    if red.osc:
        est, rad = index.abs_deviation(lo, hi, means)
        osc = (est - rad, est + rad)
    if red.level is not None:
        est, rad, above = index.level_mass(lo, hi, red.level * means)
        lvl = (est - rad, est + rad)
        whole = above == sides
    low = CubeStats(mass, wv, means, osc[0], lvl[0])
    high = CubeStats(mass, wv, means, osc[1], lvl[1])
    valid = red.valid(low)
    skipped = int(np.count_nonzero(mass > 0) - np.count_nonzero(valid))
    vmin, vmax = _bracket(red.value, low, high)
    floor = red.floor(low) if red.floor is not None else None
    qmin = qmax = None
    if red.breach is not None:
        qmin, qmax = _bracket(red.breach[0], low, high)
    return _Screen(seq, sides, origins, valid, skipped, vmin, vmax, floor, qmin, qmax, whole)


def _screened_reduce(wg, mode, red: Reduction, threads: int) -> ReductionResult:
    """Screen the family chunk by chunk with range-threshold estimates and
    run the window kernel on the cubes the screen leaves open.

    A cube stays open when its bracket reaches the running bound (the best
    value some screened or refined cube is known to attain), when it might
    fall below the floor while "holds" is still true, or when it might be a
    breach no earlier than the first certain one.  The bound never passes
    the true extremum, so the first cube attaining it is always refined;
    chunks are refined in order, so ties keep the first cube.
    """
    if mode.tag == "all":
        total = int(family_counts(wg.grid)[1][-1])
        positions_of = lambda seq: seq  # noqa: E731  (canonical order is the seq)
    else:
        drawn = sample_positions(wg.grid, mode)
        total = len(drawn)
        positions_of = lambda seq: drawn[seq]  # noqa: E731

    def screen(lo):
        seq = np.arange(lo, min(lo + _CHUNK_CUBES, total))
        return _screen_chunk(wg, red, seq, positions_of(seq))

    def screens():
        starts = range(0, total, _CHUNK_CUBES)
        if threads <= 1:
            yield from map(screen, starts)
            return
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for i in range(0, len(starts), threads):
                yield from pool.map(screen, starts[i : i + threads])

    better = np.greater if red.maximize else np.less
    asked = Counter()
    best = breach = bound = None
    holds = True
    skipped = 0
    for sc in screens():
        skipped += sc.skipped
        valid = sc.valid
        if valid.any():
            edge = np.max(sc.vmin[valid]) if red.maximize else np.min(sc.vmax[valid])
            bound = edge if bound is None or better(edge, bound) else bound
        reach = sc.vmax if red.maximize else sc.vmin
        extremum = valid & ~better(bound, reach) if bound is not None else valid
        below = np.zeros_like(valid)
        if red.floor is not None and holds:
            if np.any(valid & (sc.vmax < sc.floor)):
                holds = False
            else:
                below = valid & (sc.vmin < sc.floor)
        maybe = np.zeros_like(valid)
        if red.breach is not None and breach is None:
            maybe = valid & (sc.qmin <= red.breach[1])
            sure = valid & (sc.qmax <= red.breach[1])
            if sure.any():
                maybe[int(np.argmax(sure)) + 1 :] = False
        rows = np.flatnonzero(extremum | below | maybe)
        if rows.size == 0:
            continue

        stats = _kernel_at(wg, red, sc.sides[rows], sc.origins[rows], sc.whole[rows], asked)

        def candidate(values, i):
            r = rows[i]
            cube = Cube(tuple(sc.origins[r]), sc.sides[r])
            return Candidate(float(values[i]), int(sc.seq[r]), cube)

        values = red.value(stats)
        if extremum[rows].any():
            masked = np.where(extremum[rows], values, -np.inf if red.maximize else np.inf)
            i = int(np.argmax(masked) if red.maximize else np.argmin(masked))
            if best is None or better(values[i], best.value):
                best = candidate(values, i)
                bound = best.value if better(best.value, bound) else bound
        if below[rows].any():
            open_ = below[rows]
            holds = bool(np.all(values[open_] >= red.floor(stats)[open_]))
        if maybe[rows].any():
            quantity, limit = red.breach
            q = quantity(stats)
            hit = maybe[rows] & (q <= limit)
            if hit.any():  # always, when the chunk holds a certain breach
                breach = candidate(q, int(np.argmax(hit)))
    return ReductionResult(best, holds, total, skipped, breach)


def _kernel_at(wg, red: Reduction, sides, origins, whole, asked: Counter) -> CubeStats:
    """Kernel stats of 1D cubes of mixed sides, in the order given.

    Each side's cubes form one batch, whose rows do not depend on the rest
    of it.  A level sum over a cube whose cells are all above the threshold
    is its window mass, the same at every threshold.  Once a reduction has
    asked for half as many of those as the side has windows (`asked`
    counts), the side's window masses are tabulated on the grid and looked
    up: the kernel gathers values and weights for a cube, about twice the
    work of copying the weights that tabulating a window takes.
    """
    mass, wv, means = batch_mass_mean(wg, sides, origins)
    osc = np.empty(len(sides)) if red.osc else None
    lvl = np.empty(len(sides)) if red.level is not None else None
    for side in np.unique(sides).tolist():
        rows = np.flatnonzero(sides == side)
        if lvl is not None and not red.osc:
            wholes = rows[whole[rows]]
            asked[side] += len(wholes)
            if side in wg.window_masses or 2 * asked[side] >= wg.grid.shape[0] - side + 1:
                lvl[wholes] = _window_masses(wg, side)[origins[wholes, 0]]
                rows = rows[~whole[rows]]
        if rows.size == 0:
            continue
        part_osc, part_lvl = batch_osc_level(
            wg,
            side,
            origins[rows],
            means=means[rows] if osc is not None else None,
            thresholds=red.level * means[rows] if lvl is not None else None,
        )
        if osc is not None:
            osc[rows] = part_osc
        if lvl is not None:
            lvl[rows] = part_lvl
    return CubeStats(mass, wv, means, osc, lvl)


def _window_masses(wg: WeightedGrid, side: int) -> np.ndarray:
    """The kernel's Sum w over every window of one side of a 1D grid, by
    origin: its level sum at a threshold that every cell passes.  The rows
    are the same C-contiguous float64 rows the kernel sums, without the
    mask.  Built on first use and kept on the grid, since level reductions
    of the same grid at other thresholds ask again."""
    if side not in wg.window_masses:
        windows = sliding_window_view(wg.weights, side)
        masses = np.empty(windows.shape[0])
        step = max(1, _MASS_CHUNK_CELLS // side)
        for lo in range(0, len(masses), step):
            masses[lo : lo + step] = np.ascontiguousarray(windows[lo : lo + step]).sum(axis=1)
        wg.window_masses[side] = masses
    return wg.window_masses[side]
