"""The range-threshold screen of 1D all/sample scans.

Two properties carry the screened path: the wavelet-matrix estimates stay
within their stated radius of the window kernel's values, and every result
equals a full kernel scan bit for bit.
"""

import math

import numpy as np
import pytest

from oscgrid import (
    Cube,
    DomainError,
    GenSpec,
    EnumerationMode,
    Grid,
    LevelParams,
    WeightedGrid,
    alpha_profile,
    epsilon_and_profile,
    generate,
    gr_epsilon,
    verify_ainfty_to_gr,
    verify_gr_to_ainfty,
)
from oscgrid import grids, scan
from oscgrid.grids import iter_origin_batches
from oscgrid.rangesum import RangeThresholdIndex
from conftest import family
from reference import naive_cubes

MODES = [EnumerationMode("all"), EnumerationMode.sample(150, seed=5)]


def hard_grids(seed, count, max_n=70):
    """Random float 1D grids: log-sigma up to 3, zero weights, tied and zero
    values, and 1e9/1e12 atoms."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = int(rng.integers(1, max_n))
        sigma = (0.5, 1.0, 2.0, 3.0)[i % 4]
        w = np.exp(sigma * rng.standard_normal(n))
        v = np.exp(sigma * rng.standard_normal(n))
        if i % 5 == 1:
            w[rng.random(n) < 0.3] = 0.0
        if i % 5 == 2:
            v = np.round(v)  # ties, and zeros
        if i % 5 == 3:
            w[int(rng.integers(n))] *= (1e9, 1e12)[i % 2]
        if i % 7 == 4:
            v[:] = 2.0
        if not w.sum() > 0:
            w[0] = 1.0
        yield WeightedGrid(Grid((n,)), w, v)


def test_estimates_within_radius_of_kernel():
    for wg in hard_grids(1, 80):
        n = wg.grid.shape[0]
        index = RangeThresholdIndex(wg)
        for side in range(1, n + 1):
            origins = np.arange(n - side + 1)[:, None]
            lo, hi = origins[:, 0], origins[:, 0] + side
            mass, _, means = scan.batch_mass_mean(wg, side, origins)
            betas = (0.05, 0.5, 0.95, 1.0)
            osc, levels = scan.batch_osc_level(wg, side, origins, means=means,
                                               thresholds=np.outer(betas, means), masses=mass)
            est, rad = index.abs_deviation(lo, hi, means)
            assert np.all(np.abs(est - osc) <= rad)
            for beta, lvl in zip(betas, levels):
                thresholds = beta * means
                est, rad = index.level_mass(lo, hi, thresholds)
                # a whole cube's level sum is its mass; the rest are estimated
                whole = index.range_min(lo, hi) > thresholds
                assert np.array_equal(lvl[whole], mass[whole])
                assert np.all(np.abs(est - lvl)[~whole] <= rad[~whole])
                windows = np.lib.stride_tricks.sliding_window_view(wg.values, side)
                assert np.array_equal(whole, np.all(windows > thresholds[:, None], axis=1))


def test_radius_is_tight_on_ordinary_data():
    rng = np.random.default_rng(2)
    wg = WeightedGrid(Grid((256,)), *np.exp(rng.standard_normal((2, 256))))
    index = RangeThresholdIndex(wg)
    side = 16
    origins = np.arange(256 - side + 1)[:, None]
    mass, wv, means = scan.batch_mass_mean(wg, side, origins)
    lo, hi = origins[:, 0], origins[:, 0] + side
    _, rad = index.abs_deviation(lo, hi, means)
    assert np.all(rad <= 1e-11 * wv)
    _, rad = index.level_mass(lo, hi, 0.5 * means)
    assert np.all(rad <= 1e-11 * mass)


def test_kernel_rows_do_not_depend_on_the_batch():
    # the screened path recomputes the rows of a few cubes and relies on
    # getting the bits a full-family batch gives them
    rng = np.random.default_rng(6)
    wg = WeightedGrid(Grid((1024,)), *np.exp(2 * rng.standard_normal((2, 1024))))
    for side in (1, 7, 129, 300, 1000):
        origins = np.arange(1025 - side)[:, None]
        mass, _, means = scan.batch_mass_mean(wg, side, origins)
        full = scan.batch_osc_level(wg, side, origins, means=means, thresholds=(0.5 * means)[None],
                                    masses=mass)
        rows = np.sort(rng.choice(len(origins), size=min(5, len(origins)), replace=False))
        part = scan.batch_osc_level(wg, side, origins[rows], means=means[rows],
                                    thresholds=(0.5 * means[rows])[None], masses=mass[rows])
        assert np.array_equal(full[0][rows], part[0]) and np.array_equal(full[1][:, rows], part[1])
        # and the level sum at a threshold every cell passes is the prefix mass
        _, passed = scan.batch_osc_level(wg, side, origins, means=means,
                                         thresholds=np.full((1, len(origins)), -np.inf), masses=mass)
        assert np.array_equal(passed[0], mass)


def outcomes(wg, mode):
    """Every screened entry point on one grid, as comparable values."""
    def attempt(fn):
        try:
            return fn()
        except Exception as exc:  # the exception and its witness are results too
            return (type(exc).__name__, str(exc), getattr(exc, "witness", None))

    eps = gr_epsilon(wg, mode)
    out = [eps]
    for beta in (0.1, 0.5, 0.9):
        out.append(attempt(lambda: alpha_profile(wg, beta, mode)))
    for lam in (1.0, 1.9):
        epsilon = max(eps.epsilon, 1e-3)
        out.append(attempt(lambda: verify_gr_to_ainfty(wg, epsilon, lam, mode)))
    half = out[2][0] / 2 if isinstance(out[2][0], float) and out[2][0] > 0 else 0.25
    for alpha in (half, 0.6):
        params = LevelParams(alpha, 0.5)
        out.append(attempt(lambda: verify_ainfty_to_gr(wg, params, mode)))
    # the same quantities from one walk each
    out.append(attempt(lambda: epsilon_and_profile(wg, (0.1, 0.5, 0.9), mode)))
    out.append(attempt(lambda: scan.reduce_family(wg, mode, ONE_WALK)))
    return out


def _margin(s):
    return 1.5 * s.mean - np.divide(s.osc, s.mass, out=np.zeros_like(s.osc), where=s.mass > 0)


def _fraction(s):
    return np.divide(s.lvl, s.mass, out=np.ones_like(s.lvl), where=s.mass > 0)


# the reductions of theorem1 fwd and rev (margins, their slacks and rev's
# alpha*), with alpha* at two more betas, in one walk; then a slack that is
# negative on every valid cube, and the largest and least level fractions
# at one level (every valid cube's fraction is at most 1.0)
ONE_WALK = (
    scan.Reduction(_fraction, maximize=False, level=0.3),
    scan.Reduction(lambda s: s.lvl - 0.2 * s.mass, maximize=False, level=0.6),
    scan.Reduction(lambda s: s.lvl - 0.2 * s.mass + 1e-12 * s.mass, maximize=False, level=0.6),
    scan.Reduction(_margin, maximize=False, osc=True),
    scan.Reduction(lambda s: _margin(s) + 1e-12 * s.mean, maximize=False, osc=True),
    scan.Reduction(_fraction, maximize=False, level=0.5),
    scan.Reduction(_fraction, maximize=False, level=0.9),
    scan.Reduction(lambda s: s.lvl - 0.2 * s.mass - s.mass, maximize=False, level=0.6),
    scan.Reduction(_fraction, maximize=True, level=0.7),
    scan.Reduction(_fraction, maximize=False, level=0.7),
)


CASES = [(wg, mode) for wg in hard_grids(3, 24, max_n=48) for mode in MODES]


def full_kernel(fn, *args):
    """fn(*args) with the screen off: every cube of every family through the kernel."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scan, "_screen_index", lambda *_: None)
        return fn(*args)


@pytest.fixture(scope="module")
def full_kernel_scan():
    return [full_kernel(outcomes, wg, mode) for wg, mode in CASES]


@pytest.mark.parametrize("chunk", [1 << 13, 61])
def test_screened_equals_full_kernel_scan(monkeypatch, full_kernel_scan, chunk):
    monkeypatch.setattr(grids, "_CHUNK_CUBES", chunk)
    assert [outcomes(wg, mode) for wg, mode in CASES] == full_kernel_scan


def test_holds_decided_by_the_kernel_at_an_exact_floor():
    def ratio(s):
        return np.divide(s.osc, s.wv, out=np.zeros_like(s.osc), where=s.wv > 0)

    def both_paths(wg, mode, red):
        (screened,) = scan.reduce_family(wg, mode, (red,))
        assert (screened,) == full_kernel(scan.reduce_family, wg, mode, (red,))
        return screened.value >= 0

    for wg in hard_grids(5, 12, max_n=40):
        for mode in MODES:
            low = scan.Reduction(ratio, maximize=False, osc=True, positive_mean=False)
            lowest = scan.reduce_family(wg, mode, (low,))[0].value
            for floor, holds in ((lowest, True), (np.nextafter(lowest, np.inf), False)):
                red = scan.Reduction(lambda s: ratio(s) - floor, maximize=False, osc=True,
                                     positive_mean=False)
                assert both_paths(wg, mode, red) is holds


def test_screen_leaves_few_cubes_to_the_kernel(monkeypatch):
    gathered = []
    kernel = scan.batch_osc_level

    def counted(wg, side, origins, **sums):
        gathered.append(len(origins))
        return kernel(wg, side, origins, **sums)

    monkeypatch.setattr(scan, "batch_osc_level", counted)
    rng = np.random.default_rng(4)
    noisy = WeightedGrid(Grid((256,)), *np.exp(rng.standard_normal((2, 256))))
    # a decreasing profile: at small beta every cell of every cube is above
    # the threshold, and the level fractions differ from 1 by rounding only;
    # x^-a is also self-similar, so osc/mean nearly ties on the cubes at the
    # origin
    steep = generate(GenSpec("power", (256,), {"a": 0.5}))
    for wg, most in ((noisy, 10), (steep, 300)):  # of 3 x 32,896 cubes
        gathered.clear()
        gr_epsilon(wg, EnumerationMode("all"))
        for beta in (0.05, 0.5):
            alpha_profile(wg, beta, EnumerationMode("all"))
        assert sum(gathered) <= most


def test_one_range_minimum_per_screened_batch(monkeypatch):
    calls = {"build": 0, "range_min": 0}
    build, least = RangeThresholdIndex.__init__, RangeThresholdIndex.range_min

    def counted_build(self, *args):
        calls["build"] += 1
        build(self, *args)

    def counted_min(self, lo, hi):
        calls["range_min"] += 1
        return least(self, lo, hi)

    monkeypatch.setattr(RangeThresholdIndex, "__init__", counted_build)
    monkeypatch.setattr(RangeThresholdIndex, "range_min", counted_min)
    rng = np.random.default_rng(10)
    wg = WeightedGrid(Grid((256,)), *np.exp(rng.standard_normal((2, 256))))
    epsilon_and_profile(wg, np.linspace(0.05, 0.95, 19), EnumerationMode("all"))
    # 32,896 cubes in batches of 8,192: one minimum per batch, not one per level
    assert calls == {"build": 1, "range_min": 5}


def test_one_query_per_kernel_sum_per_batch(monkeypatch):
    # theorem1 fwd reads osc (epsilon) and one level (its margin and the
    # margin's slack); rev reads one level (alpha*) and osc (its margin and
    # slack): each sum is queried once per batch, whatever reads it
    calls = []
    for name in ("level_mass", "abs_deviation"):
        def counted(self, *args, name=name, query=getattr(RangeThresholdIndex, name)):
            calls.append(name)
            return query(self, *args)

        monkeypatch.setattr(RangeThresholdIndex, name, counted)
    rng = np.random.default_rng(10)
    wg = WeightedGrid(Grid((256,)), *np.exp(rng.standard_normal((2, 256))))
    mode = EnumerationMode("all")
    eps, alpha = gr_epsilon(wg, mode).epsilon, alpha_profile(wg, 0.5, mode)[0]
    for verify in (lambda: verify_gr_to_ainfty(wg, eps, 1.5, mode),
                   lambda: verify_ainfty_to_gr(wg, LevelParams(alpha / 2, 0.5), mode)):
        calls.clear()
        verify()
        # 32,896 cubes in batches of 8,192
        assert 0 < calls.count("level_mass") <= 5 and calls.count("abs_deviation") == 5


def test_whole_cubes_never_reach_the_query(monkeypatch):
    queried = []
    query = RangeThresholdIndex.level_mass

    def recorded(self, lo, hi, thresholds):
        queried.append((lo, hi, thresholds))
        return query(self, lo, hi, thresholds)

    monkeypatch.setattr(RangeThresholdIndex, "level_mass", recorded)
    steep = generate(GenSpec("power", (256,), {"a": 0.5}))
    for beta in (0.05, 0.5):
        queried.clear()
        alpha_profile(steep, beta, EnumerationMode("all"))
        for lo, hi, thresholds in queried:
            lowest = np.array([steep.values[a:b].min() for a, b in zip(lo, hi)])
            assert np.all(lowest <= thresholds)
        if beta == 0.05:  # every cube is whole
            assert sum(len(lo) for lo, _, _ in queried) == 0
    # a threshold equal to a cube's least value leaves the cube open: on
    # constant values at level 1 no cube is whole and every level sum is 0
    flat = WeightedGrid(Grid((64,)), np.exp(np.random.default_rng(8).standard_normal(64)),
                        np.full(64, 2.0))
    queried.clear()
    at_mean = scan.Reduction(_fraction, maximize=False, level=1.0)
    assert scan.reduce_family(flat, EnumerationMode("all"), (at_mean,))[0].value == 0.0
    assert sum(len(lo) for lo, _, _ in queried) == 64 * 65 // 2


def deep_grid(n, seed, atom=True):
    """A log-normal 1D grid of n cells, every other value rounded to a tie,
    with zero weights and, from 4 cells on, a 1e12 atom unless not atom."""
    rng = np.random.default_rng(seed)
    w = np.exp(2 * rng.standard_normal(n))
    v = np.exp(rng.standard_normal(n))
    v[::2] = np.round(v[::2], 1)
    w[rng.random(n) < 0.2] = 0.0
    if atom and n >= 4:
        w[n // 3] = 1e12
    w[0] = max(w[0], 1.0)
    return WeightedGrid(Grid((n,)), w, v)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 15, 16, 17, 63, 64, 65, 255, 256, 257, 4096])
def test_upper_sums_match_fsum_on_deep_matrices(n):
    wg = deep_grid(n, n)
    w, v = wg.weights, wg.values
    wv = w * v
    index = RangeThresholdIndex(wg)
    assert 4**index.levels > n >= 4 ** (index.levels - 1)
    e_w, e_wv = index._radii()
    thresholds = np.concatenate([np.unique(v), [-np.inf, 0.0, np.inf]])
    rng = np.random.default_rng(n)
    starts = rng.integers(0, n, 4)
    ranges = {(0, n), (n - 1, n), (n // 2, n // 2 + 1)} | {
        (int(a), int(rng.integers(a + 1, n + 1))) for a in starts}
    for a, b in sorted(ranges):
        lo, hi = np.full(thresholds.size, a), np.full(thresholds.size, b)
        big_b, big_a = index.upper_sums(lo, hi, thresholds, with_wv=True)
        for t, got_b, got_a in zip(thresholds, big_b, big_a):
            above = v[a:b] > t
            assert abs(got_b - math.fsum(w[a:b][above].tolist())) <= e_w
            assert abs(got_a - math.fsum(wv[a:b][above].tolist())) <= e_wv
        assert np.array_equal(index.range_min(lo, hi), np.full(lo.size, v[a:b].min()))


@pytest.mark.parametrize("n, mode", [(257, EnumerationMode("all")),
                                     (1025, EnumerationMode.sample(2000, seed=7))])
def test_screened_equals_full_kernel_on_deep_matrices(n, mode):
    wg = deep_grid(n, 11, atom=False)  # next to an atom the screen opens every cube
    assert outcomes(wg, mode) == full_kernel(outcomes, wg, mode)


def test_family_cubes_decode_the_canonical_order(monkeypatch):
    monkeypatch.setattr(grids, "_CHUNK_CUBES", 7)  # batches that straddle sides
    for shape in [(7,), (8,), (5, 4), (4, 4), (3, 4, 3), (2, 2, 2, 2)]:
        grid = Grid(shape)
        modes = [EnumerationMode.sample(50, seed=9)]
        if len(shape) <= 3:
            modes.append(EnumerationMode("all"))
        if len(set(shape)) == 1 and shape[0] & (shape[0] - 1) == 0:
            modes.append(EnumerationMode("dyadic"))
        for mode in modes:
            expected = naive_cubes(grid, mode)
            assert family(grid, mode) == expected
            batches = list(iter_origin_batches(grid, mode))
            decoded = [
                Cube(tuple(o), s)
                for sides, origins in batches
                for s, o in zip(sides.tolist(), origins.tolist())
            ]
            assert decoded == expected
            # every mode: batches of at most _CHUNK_CUBES
            assert all(len(sides) == len(origins) <= 7 for sides, origins in batches)


def test_overflowing_sums_stay_on_the_kernel_path(monkeypatch):
    # Sum w*v is finite, but 64 times it is not, so no estimate could carry
    # a finite radius
    wg = WeightedGrid(Grid((8,)), np.full(8, 1e10), np.linspace(1e296, 1e297, 8))
    assert np.isfinite(2 * np.sum(wg.weights * wg.values))
    with np.errstate(all="ignore"):
        assert not RangeThresholdIndex(wg).finite

    def unused(*args):
        raise AssertionError("screened an overflowing grid")

    monkeypatch.setattr(RangeThresholdIndex, "upper_sums", unused)
    assert gr_epsilon(wg, EnumerationMode("all")).cubes_scanned == 36
    # where Sum w*v itself overflows, no cube sum can be trusted
    wg = WeightedGrid(Grid((8,)), np.full(8, 1e10), np.linspace(1e299, 8e299, 8))
    with pytest.raises(DomainError, match="overflow"):
        gr_epsilon(wg, EnumerationMode("all"))
