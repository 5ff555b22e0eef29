"""Vectorized cube-family scans with deterministic reductions.

Every exhaustive analysis in this package reduces some per-cube quantity
(an oscillation ratio, a level-set fraction, an inequality margin, a
reverse Holder ratio) over an enumerated cube family.  `reduce_family` is
the one reduction loop, and it answers extrema only: a `Reduction` names
the per-cube value and its extremum, and every verdict compares an
extremum with its limit.  One walk over the family, in batches of at most
a few thousand cubes in canonical order whatever the mode, answers a whole
tuple of reductions, keeping for each the first cube that attains its
extremum.  So a command walks its family once for all it needs (epsilon
and the whole alpha* profile; theorem1's precondition, its margin and the
margin's slack over its tolerance).

Means and masses come from prefix tables (O(2^n) per cube), once per
batch.  The absolute deviation and the level mass are not prefix-summable:
the window kernel gathers each cube's cells through numpy stride tricks,
chunked so peak memory stays bounded, and computes Sum w*|v - mean| and
Sum w*[v > threshold], for every distinct level, from one gather.  For 1D
grids in "all" and "sample" mode both sums are also range-threshold
queries, which the wavelet matrix of rangesum answers in O(log N) per cube
with a rigorous error radius.  There the reductions that read the same
kernel sum share one query of it per batch (an index built for the walk,
one range minimum per batch), and each screens its rows with it: only the
cubes that could be some extremum go through the kernel, whose per-row
results do not depend on the batch around them, so every reported value
and witness is bit-identical to a full kernel scan.  On both paths a cube
whose every cell is above the level threshold (a whole cube: the kernel's
mask, the screen's range minimum) has level sum exactly its mass, so its
level fraction is exactly 1, and the screen queries only the other cubes.
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


class Reduction(NamedTuple):
    """A per-cube value whose extremum is taken over a cube family.

    value(stats) is reduced over the valid cubes: positive mass, and
    positive Sum w*v when positive_mean.  osc and level say which kernel
    sum it reads, stats.osc or stats.lvl: at most one, and monotone in it,
    as the screen brackets it by evaluating it at both ends of that sum's
    error interval.  A value that reads neither (only prefix sums, through
    stats.sides and stats.origins) needs no kernel and no screen.  A
    verdict is an extremum compared with its limit: "margin >= -tol*scale
    on every cube" is "the least margin + tol*scale is >= 0".
    """

    value: Callable[[CubeStats], np.ndarray]
    maximize: bool
    osc: bool = False
    level: float | None = None
    positive_mean: bool = True


class ReductionResult(NamedTuple):
    best: Candidate
    cubes: int
    skipped_zero_mean: int  # positive-mass cubes left out by positive_mean


def reduce_family(
    wg: WeightedGrid, mode: EnumerationMode, reds: tuple[Reduction, ...]
) -> tuple[ReductionResult, ...]:
    """Reduce each of `reds` over the family of `mode`, all in one walk,
    one batch of cubes at a time; one result per reduction, in order.

    Every cube's mass and level sum are at most Sum w, and its Sum w*v and
    Sum w*|v - mean| at most 2*Sum w*v, so a grid whose totals are finite
    has finite sums on every cube; any other grid is refused.

    The reductions are grouped by the kernel sum they read (osc, a level,
    or none), and each group is screened with one query of its sum per
    batch.  The rows of a batch that may be some extremum go through the
    window kernel once per side; the others keep osc = 0 and level sums
    equal to their mass.  Each reduction folds in the whole batch at once.
    Batches come in canonical order and argmax/argmin take the earliest
    row, so the earliest cube wins exact ties.  A family with no valid
    cube is an empty measure.
    """
    with np.errstate(over="ignore"):  # an overflow shows up as an infinite total
        totals = wg.total_mass, 2 * wg.wv_prefix.total
    if not all(np.isfinite(totals)):
        raise DomainError(
            f"grid totals overflow float64: Sum w = {totals[0]}, 2*Sum w*v = {totals[1]}"
        )
    index = _screen_index(wg, mode, reds)
    runs = [_Running(red) for red in reds]
    readers: dict = {}  # each kernel sum ("osc", a level, or None) and the runs that read it
    for run in runs:
        readers.setdefault("osc" if run.red.osc else run.red.level, []).append(run)
    levels = np.array([key for key in readers if key not in ("osc", None)])
    cubes = 0
    for sides, origins in iter_origin_batches(wg.grid, mode):
        least = None  # each cube's least value, for every level's whole cubes
        if index is not None and levels.size:
            least = index.range_min(origins[:, 0], origins[:, 0] + sides)
        stats = CubeStats(sides, origins, *batch_mass_mean(wg, sides, origins), least=least)
        cubes += len(sides)
        need = np.zeros(len(sides), dtype=bool)
        for key, group in readers.items():
            need |= _screen(index, stats, key, group)
        rows = np.flatnonzero(need)
        rows = rows[np.argsort(sides[rows], kind="stable")]
        osc, lvl, done = np.zeros(len(sides)), np.empty((levels.size, rows.size)), 0
        for part in np.split(rows, np.flatnonzero(np.diff(sides[rows])) + 1) if rows.size else ():
            osc[part], lvl[:, done : done + part.size] = batch_osc_level(
                wg, int(sides[part[0]]), origins[part], means=stats.mean[part],
                thresholds=levels[:, None] * stats.mean[part], masses=stats.mass[part],
            )
            done += part.size
        level_rows = iter(lvl)  # in the order of `levels`
        for key, group in readers.items():
            s = stats._replace(osc=osc) if key == "osc" else stats
            if key not in ("osc", None):
                s = stats._replace(lvl=stats.mass.copy())
                s.lvl[rows] = next(level_rows)
            for run in group:
                run.fold(s)
        s = level_rows = None  # so the next batch's kernel call runs without this one's arrays
    for run in runs:
        if run.best is None:
            suffix = " and positive mean" if run.red.positive_mean else ""
            raise DomainError(f"empty measure: no cube has positive mass{suffix}")
    return tuple(ReductionResult(r.best, cubes, r.skipped) for r in runs)


def _screen(index, s: CubeStats, key, group: list[_Running]) -> np.ndarray:
    """Open the rows of a batch whose stats are `s` to each run of `group`,
    which all read the kernel sum `key`, and return the rows whose kernel
    sums they need.

    Without an index (or a kernel sum) every valid row is open.  With one,
    the sum is queried once for the group, and each run's value is
    bracketed by evaluating it at both ends of the sum's error interval.  A
    whole cube (every cell above the level threshold, by its least value)
    has level sum exactly its mass: no query reads it, and no kernel row is
    needed for it.
    """
    valid = np.logical_or.reduce([run.valid(s) for run in group])
    if key is None or index is None or not valid.any():
        return valid & (key is not None)
    lo = s.origins[:, 0]
    hi = lo + s.sides
    if key == "osc":
        est, rad = index.abs_deviation(lo, hi, s.mean)
        low, high = s._replace(osc=est - rad), s._replace(osc=est + rad)
    else:
        theta = key * s.mean
        whole = s.least > theta
        low, high = s._replace(lvl=s.mass.copy()), s._replace(lvl=s.mass.copy())
        ask = np.flatnonzero(valid & ~whole)
        if ask.size:
            est, rad = index.level_mass(lo[ask], hi[ask], theta[ask])
            low.lvl[ask], high.lvl[ask] = est - rad, est + rad
    opened = np.logical_or.reduce([run.screen(low, high) for run in group])
    return opened if key == "osc" else opened & ~whole


class _Running:
    """A reduction's state in a walk: its extremum so far, the screen's
    bound, and the batch rows open to its extremum."""

    def __init__(self, red: Reduction):
        self.red = red
        self.best = self.bound = None
        self.skipped = 0

    def valid(self, s: CubeStats) -> np.ndarray:
        """Open every valid row of a batch whose stats are `s`, counting the
        positive-mass rows that positive_mean leaves out."""
        valid = (s.mass > 0) & (s.wv > 0) if self.red.positive_mean else s.mass > 0
        self.skipped += int(np.count_nonzero(s.mass > 0) - np.count_nonzero(valid))
        self.open = valid
        return valid

    def screen(self, low: CubeStats, high: CubeStats) -> np.ndarray:
        """Keep open the valid rows whose value, bracketed between its values
        at `low` and at `high`, reaches the running bound: the best value
        some screened or refined cube is known to attain.  The bound never
        passes the true extremum, so the first cube attaining it is always
        refined."""
        red, valid = self.red, self.open
        if not valid.any():
            return valid
        vmin, vmax = _bracket(red.value, low, high)
        better = np.greater if red.maximize else np.less
        edge = np.max(vmin[valid]) if red.maximize else np.min(vmax[valid])
        if self.bound is None or better(edge, self.bound):
            self.bound = edge
        self.open = valid & ~better(self.bound, vmax if red.maximize else vmin)
        return self.open

    def fold(self, s: CubeStats) -> None:
        """Fold in the open rows of a batch whose stats `s` carry the kernel
        sum the value reads."""
        if not self.open.any():
            return
        red = self.red
        with np.errstate(all="ignore"):  # a value past float64 reads inf or nan, as reported
            values, better = red.value(s), np.greater if red.maximize else np.less
        masked = np.where(self.open, values, -np.inf if red.maximize else np.inf)
        i = int(np.argmax(masked) if red.maximize else np.argmin(masked))
        if self.best is None or better(values[i], self.best.value):
            self.best = Candidate(float(values[i]), Cube(tuple(s.origins[i]), s.sides[i]))
            if self.bound is None or better(values[i], self.bound):
                self.bound = self.best.value


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
