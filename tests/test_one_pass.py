"""One walk for many reductions.

`reduce_family` answers a tuple of reductions in one walk over the family:
one gather per side and block gives the oscillation and every level sum.
Each result (value, witness, cube counts) must equal
the result of scanning that reduction alone, bit for bit, on every scan
path: the 1D screen, the 1D kernel path of a grid the screen cannot
bound, 2D and 3D batches of one side and sampled batches of mixed sides,
and with blocks of a single row.
"""

import numpy as np
import pytest

from oscgrid import EnumerationMode, Grid, WeightedGrid
from oscgrid import grids, scan
from oscgrid.rangesum import RangeThresholdIndex
from conftest import random_float_grid, random_integer_grid


def _fraction(s):
    return np.divide(s.lvl, s.mass, out=np.ones_like(s.lvl), where=s.mass > 0)


def _ratio(s):
    return np.divide(s.osc, s.wv, out=np.zeros_like(s.osc), where=s.wv > 0)


def _rev_margin(s):
    osc = np.divide(s.osc, s.mass, out=np.zeros_like(s.osc), where=s.mass > 0)
    return 1.2 * s.mean - osc


REDUCTIONS = (
    scan.Reduction(_ratio, maximize=True, osc=True, positive_mean=False),
    *(scan.Reduction(_fraction, maximize=False, level=beta) for beta in (0.05, 0.4, 0.9)),
    # a margin and its slack over the floor -1e-12*mass, negative on some
    # cases; a value whose slack over the floor 0 is itself, never negative
    scan.Reduction(lambda s: s.lvl - 0.3 * s.mass, maximize=False, level=0.5),
    scan.Reduction(lambda s: s.lvl - 0.3 * s.mass + 1e-12 * s.mass, maximize=False, level=0.5),
    scan.Reduction(_ratio, maximize=False, osc=True),
    # osc and a level in one walk: a margin and its slack, and two least
    # level fractions, at or below 0.6 on some cases and above 0.0 on all
    scan.Reduction(_rev_margin, maximize=False, osc=True),
    scan.Reduction(lambda s: _rev_margin(s) + 1e-12 * s.mean, maximize=False, osc=True),
    scan.Reduction(_fraction, maximize=False, level=0.5),
    scan.Reduction(_fraction, maximize=False, level=0.7),
    # prefix sums only: no kernel sum and no screen
    scan.Reduction(lambda s: s.mean, maximize=True),
)


def line_grids():
    rng = np.random.default_rng(41)
    ties = WeightedGrid(Grid((40,)), np.exp(rng.standard_normal(40)), np.round(3 * rng.random(40)))
    atom = random_float_grid(rng, (64,), weight_ratio=1e12)
    # Sum w*v is finite, but no range-threshold estimate has a finite radius
    unscreenable = WeightedGrid(Grid((8,)), np.full(8, 1e10), np.linspace(1e296, 1e297, 8))
    assert not RangeThresholdIndex(unscreenable.weights, unscreenable.values).finite
    return [random_float_grid(rng, (48,), log_sigma=2.0), ties, atom, unscreenable]


def cases():
    rng = np.random.default_rng(42)
    line = [EnumerationMode.all(), EnumerationMode.sample(150, seed=5)]
    out = [(wg, mode) for wg in line_grids() for mode in line]
    square = random_float_grid(rng, (16, 16))
    for mode in (EnumerationMode.dyadic(), EnumerationMode.all(), EnumerationMode.sample(300, 2)):
        out.append((square, mode))
    out.append((random_integer_grid(rng, (8, 8), max_value=4), EnumerationMode.sample(200, 3)))
    out.append((random_float_grid(rng, (5, 6, 4)), EnumerationMode.all()))
    out.append((random_integer_grid(rng, (4, 4, 4), max_value=3), EnumerationMode.all()))
    return out


CASES = cases()


@pytest.mark.parametrize("cells, cubes", [(None, None), (7, 13)])
def test_one_walk_equals_separate_walks(monkeypatch, cells, cubes):
    if cells is not None:
        monkeypatch.setattr(scan, "_CHUNK_CELLS", cells)  # one row per block
        monkeypatch.setattr(grids, "_CHUNK_CUBES", cubes)  # batches that straddle sides
    for wg, mode in CASES:
        together = scan.reduce_family(wg, mode, REDUCTIONS)
        separate = tuple(scan.reduce_family(wg, mode, (red,))[0] for red in REDUCTIONS)
        assert together == separate, (wg.grid.shape, mode)


def test_the_cases_reach_every_check():
    results = [scan.reduce_family(wg, mode, REDUCTIONS) for wg, mode in CASES]
    for slack in (5, 8):  # holds is the least slack >= 0
        assert {res[slack].best.value >= 0 for res in results} == {True, False}
    assert all(res[6].best.value >= 0 for res in results)
    assert {res[9].best.value <= 0.6 for res in results} == {True, False}  # a breach
    assert all(res[10].best.value > 0.0 for res in results)


def test_one_gather_per_side_and_block(monkeypatch):
    calls = []
    kernel = scan.batch_osc_level

    def counted(wg, side, origins, **sums):
        calls.append((side, len(origins)))
        return kernel(wg, side, origins, **sums)

    monkeypatch.setattr(scan, "batch_osc_level", counted)
    wg = random_float_grid(np.random.default_rng(3), (16, 16))
    scan.reduce_family(wg, EnumerationMode.all(), REDUCTIONS)
    assert calls == [(side, (17 - side) ** 2) for side in range(1, 17)]
    calls.clear()
    mode = EnumerationMode.sample(300, seed=2)
    scan.reduce_family(wg, mode, REDUCTIONS)
    sides = [c.side for c in grids.enumerate_cubes(wg.grid, mode)]
    assert calls == [(side, sides.count(side)) for side in sorted(set(sides))]
