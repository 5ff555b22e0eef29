"""Vectorized cube-family scans with deterministic reductions.

Every exhaustive analysis in this package reduces some per-cube quantity
(an oscillation ratio, a level-set fraction, an inequality margin, a
reverse Holder ratio) over an enumerated cube family.  `reduce_family` is
the one reduction loop: a `Reduction` names the per-cube value, its
extremum, and optional "holds" and "first breach" checks, and one walk
over the family, in batches of at most a few thousand cubes in canonical
order whatever the mode, answers a whole tuple of them, keeping for each
the first cube that attains its extremum.  So a command walks its family
once for all it needs (epsilon and the whole alpha* profile; theorem1's
precondition and its margin).

Means and masses come from prefix tables (O(2^n) per cube), once per
batch.  The absolute deviation and the level mass are not prefix-summable:
the window kernel gathers each cube's cells through numpy stride tricks,
chunked so peak memory stays bounded, and computes Sum w*|v - mean| and
Sum w*[v > threshold], for every reduction's threshold, from one gather.
For 1D grids in "all" and "sample" mode both sums are also
range-threshold queries, which the wavelet matrix of rangesum answers in
O(log N) per cube with a rigorous error radius.  There each reduction
screens its own rows of a batch (an index built for the walk, one range
minimum per batch): only the cubes that could decide some result go
through the kernel, whose per-row results do not depend on the batch
around them, so every reported value, witness and flag is bit-identical
to a full kernel scan.  On both paths a cube whose every cell is above
the level threshold (a whole cube: the kernel's mask, the screen's range
minimum) has level sum exactly its mass, so its level fraction is
exactly 1, and the screen queries only the other cubes.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DomainError
from .grids import (
    _CHUNK_CUBES,
    Cube,
    EnumerationMode,
    WeightedGrid,
    box_sums,
    iter_origin_batches,
)

# cap on cells materialized per chunk; ~16 MB of float64 keeps the window
# temporaries cache-friendly (measured 2x faster than 64 MB chunks)
_CHUNK_CELLS = 1 << 21
MAX_LEVELS = _CHUNK_CELLS // _CHUNK_CUBES  # level thresholds per cube that a batch can hold


class Candidate(NamedTuple):
    """Extremum candidate: value and cube."""

    value: float
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
    means: np.ndarray,
    thresholds: np.ndarray,
    masses: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-cube Sum w*|v - mean|, and Sum w*[v > threshold] for each row of
    thresholds (levels, k), from one gather.

    The level sums need the cubes' masses too: a cube whose every cell is
    above its threshold has level sum exactly its mass.  Rows are chunked
    so at most _CHUNK_CELLS window cells are live at a time.
    """
    k = origins.shape[0]
    cells = side ** wg.grid.dim
    osc, lvl = np.empty(k), np.empty(thresholds.shape)
    step = max(1, _CHUNK_CELLS // max(cells, 1))
    for lo in range(0, k, step):
        hi = min(lo + step, k)
        sub = origins[lo:hi]
        v_win = gather_windows(wg.values, side, sub)
        w_win = gather_windows(wg.weights, side, sub)
        dev = v_win - means[lo:hi, None]
        np.abs(dev, out=dev)
        dev *= w_win
        osc[lo:hi] = dev.sum(axis=1)
        for out, thr in zip(lvl, thresholds):
            mask = v_win > thr[lo:hi, None]
            out[lo:hi] = np.where(mask.all(axis=1), masses[lo:hi], (w_win * mask).sum(axis=1))
    return osc, lvl


class CubeStats(NamedTuple):
    """Per-cube inputs of a reduction: the cubes, their prefix-table mass,
    Sum w*v and mean, plus the kernel sums (None where a scan has none)."""

    sides: np.ndarray
    origins: np.ndarray
    mass: np.ndarray
    wv: np.ndarray
    mean: np.ndarray
    osc: np.ndarray | None = None  # Sum w*|v - mean|
    lvl: np.ndarray | None = None  # Sum w*[v > level*mean]
    least: np.ndarray | None = None  # min v, on a screened walk with a level

    def cube(self, i: int) -> Cube:
        return Cube(tuple(self.origins[i]), self.sides[i])


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


class ReductionResult(NamedTuple):
    best: Candidate
    holds: bool
    cubes: int
    skipped_zero_mean: int  # positive-mass cubes left out by positive_mean
    breach: Candidate | None


def reduce_family(
    wg: WeightedGrid, mode: EnumerationMode, reds: tuple[Reduction, ...]
) -> tuple[ReductionResult, ...]:
    """Reduce each of `reds` over the family of `mode`, all in one walk,
    one batch of cubes at a time; one result per reduction, in order.

    Every cube's mass and level sum are at most Sum w, and its Sum w*v and
    Sum w*|v - mean| at most 2*Sum w*v, so a grid whose totals are finite
    has finite sums on every cube; any other grid is refused.

    The rows of a batch that may decide a result (be an extremum, break a
    "holds", or be a first breach) go through the window kernel once per
    side, unless the screen rules them out for every reduction; the others
    keep osc = 0 and level sums equal to their mass.  Each reduction folds
    in the whole batch at once.  Batches come in canonical order and
    argmax/argmin take the earliest row, so the earliest cube wins exact
    ties.  A family with no valid cube is an empty measure.
    """
    with np.errstate(over="ignore"):  # an overflow shows up as an infinite total
        totals = wg.total_mass, 2 * wg.wv_prefix.total
    if not all(np.isfinite(totals)):
        raise DomainError(
            f"grid totals overflow float64: Sum w = {totals[0]}, 2*Sum w*v = {totals[1]}"
        )
    index = _screen_index(wg, mode, reds)
    levels = np.array([red.level for red in reds if red.level is not None])
    runs = [_Running(red, sum(r.level is not None for r in reds[:i])) for i, red in enumerate(reds)]
    cubes = 0
    for sides, origins in iter_origin_batches(wg.grid, mode):
        least = None  # each cube's least value, for every level's whole cubes
        if index is not None and levels.size:
            least = index.range_min(origins[:, 0], origins[:, 0] + sides)
        stats = CubeStats(sides, origins, *batch_mass_mean(wg, sides, origins), least=least)
        cubes += len(sides)
        need = np.zeros(len(sides), dtype=bool)
        for run in runs:
            need |= run.screen(index, stats)
        rows = np.flatnonzero(need)
        rows = rows[np.argsort(sides[rows], kind="stable")]
        osc, lvl, done = np.zeros(len(sides)), np.empty((levels.size, rows.size)), 0
        for part in np.split(rows, np.flatnonzero(np.diff(sides[rows])) + 1) if rows.size else ():
            osc[part], lvl[:, done : done + part.size] = batch_osc_level(
                wg, int(sides[part[0]]), origins[part], means=stats.mean[part],
                thresholds=levels[:, None] * stats.mean[part], masses=stats.mass[part],
            )
            done += part.size
        for run in runs:
            run.fold(stats, osc, rows, lvl)
    for run in runs:
        if run.best is None:
            suffix = " and positive mean" if run.red.positive_mean else ""
            raise DomainError(f"empty measure: no cube has positive mass{suffix}")
    return tuple(ReductionResult(r.best, r.holds, cubes, r.skipped, r.breach) for r in runs)


class _Running:
    """A reduction's state in a walk: its results so far, the screen's bound,
    and the batch rows open to its three checks (a mask, or None: no row)."""

    def __init__(self, red: Reduction, row: int):
        self.red, self.row = red, row  # row: its level sum's row in the kernel's output
        self.best = self.bound = self.breach = None
        self.holds, self.skipped = True, 0

    def screen(self, index, s: CubeStats) -> np.ndarray:
        """Open the rows of a batch whose stats are `s` to the three checks,
        and return the rows whose kernel sums they need.

        Without an index (or kernel sums) every valid row is open.  With
        one, each cube's value (and breach quantity) is bracketed by
        evaluating it at both ends of its kernel sum's error interval.  A
        cube stays open when its bracket reaches the running bound (the best
        value some screened or refined cube is known to attain), when it
        might fall below the floor while "holds" is still true, or when it
        might be a breach while none is known.  The bound never passes the
        true extremum, so the first cube attaining it is always refined.  A
        whole cube (every cell above the level threshold, by its least
        value) has level sum exactly its mass: no query reads it, and a
        level alone needs no kernel row for it.
        """
        red = self.red
        valid = (s.mass > 0) & (s.wv > 0) if red.positive_mean else s.mass > 0
        self.skipped += int(np.count_nonzero(s.mass > 0) - np.count_nonzero(valid))
        floor = red.floor is not None and self.holds
        breach = red.breach is not None and self.breach is None
        kernel = red.osc or red.level is not None
        if index is None or not kernel or not valid.any():
            self.open = valid, valid if floor else None, valid if breach else None
            return valid & kernel
        lo = s.origins[:, 0]
        hi = lo + s.sides
        osc = lvl = (None, None)
        if red.osc:
            est, rad = index.abs_deviation(lo, hi, s.mean)
            osc = (est - rad, est + rad)
        if red.level is not None:
            theta = red.level * s.mean
            whole = s.least > theta
            lvl = (s.mass.copy(), s.mass.copy())
            ask = np.flatnonzero(valid & ~whole)
            if ask.size:
                est, rad = index.level_mass(lo[ask], hi[ask], theta[ask])
                lvl[0][ask], lvl[1][ask] = est - rad, est + rad
        low = s._replace(osc=osc[0], lvl=lvl[0])
        high = s._replace(osc=osc[1], lvl=lvl[1])
        vmin, vmax = _bracket(red.value, low, high)
        better = np.greater if red.maximize else np.less
        edge = np.max(vmin[valid]) if red.maximize else np.min(vmax[valid])
        if self.bound is None or better(edge, self.bound):
            self.bound = edge
        extremum = valid & ~better(self.bound, vmax if red.maximize else vmin)
        below = valid & (vmin < red.floor(low)) if floor else None
        maybe = valid & (_bracket(red.breach[0], low, high)[0] <= red.breach[1]) if breach else None
        self.open = extremum, below, maybe
        opened = np.logical_or.reduce([m for m in self.open if m is not None])
        return opened if red.osc else opened & ~whole

    def fold(self, s: CubeStats, osc, rows, lvl) -> None:
        """Fold in a batch whose stats are `s`, kernel sums osc and, at the
        batch rows `rows`, level sums lvl; the other rows' level sums are
        their masses."""
        ext, below, maybe = (None if m is None or not m.any() else m for m in self.open)
        if ext is None and below is None and maybe is None:
            return
        red, level = self.red, None
        if red.level is not None:
            level = s.mass.copy()
            level[rows] = lvl[self.row]
        s = s._replace(osc=osc, lvl=level)
        with np.errstate(all="ignore"):  # a value past float64 reads inf or nan, as reported
            values, better = red.value(s), np.greater if red.maximize else np.less
        if ext is not None:
            masked = np.where(ext, values, -np.inf if red.maximize else np.inf)
            i = int(np.argmax(masked) if red.maximize else np.argmin(masked))
            if self.best is None or better(values[i], self.best.value):
                self.best = Candidate(float(values[i]), s.cube(i))
                if self.bound is None or better(values[i], self.bound):
                    self.bound = self.best.value
        if below is not None:
            self.holds = self.holds and bool(np.all(values[below] >= red.floor(s)[below]))
        if maybe is not None:  # only while no breach is known
            q = red.breach[0](s)
            hit = np.flatnonzero(maybe & (q <= red.breach[1]))
            if hit.size:  # always, when the screen saw a certain breach
                i = int(hit[0])
                self.breach = Candidate(float(q[i]), s.cube(i))


def _screen_index(wg: WeightedGrid, mode: EnumerationMode, reds: tuple[Reduction, ...]):
    """A range-threshold index of the grid when it can screen this scan: a
    1D "all" or "sample" family, a reduction that needs kernel sums, and
    estimates whose radii are finite.  It lives for one walk."""
    if wg.grid.dim == 1 and mode.tag in ("all", "sample"):
        if any(red.osc or red.level is not None for red in reds):
            from .rangesum import RangeThresholdIndex  # so `import oscgrid` loads no rangesum

            index = RangeThresholdIndex(wg.weights, wg.values)
            return index if index.finite else None
    return None


def _bracket(fn, low: CubeStats, high: CubeStats):
    with np.errstate(all="ignore"):  # an end past float64 is infinite: the cube stays open
        a, b = fn(low), fn(high)
    return np.minimum(a, b), np.maximum(a, b)
