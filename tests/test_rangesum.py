"""The range-threshold screen of 1D all/sample scans.

Two properties carry the screened path: the wavelet-matrix estimates stay
within their stated radius of the window kernel's values, and every result
equals a full kernel scan bit for bit.
"""

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
    generate,
    gr_epsilon,
    verify_ainfty_to_gr,
    verify_gr_to_ainfty,
)
from oscgrid import scan
from oscgrid.grids import enumerate_cubes, family_cubes, sample_positions

MODES = [EnumerationMode.all(), EnumerationMode.sample(150, seed=5)]


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
        index = wg.threshold_index
        for side in range(1, n + 1):
            origins = np.arange(n - side + 1)[:, None]
            lo, hi = origins[:, 0], origins[:, 0] + side
            _, _, means = scan.batch_mass_mean(wg, side, origins)
            osc, _ = scan.batch_osc_level(wg, side, origins, means=means)
            est, rad = index.abs_deviation(lo, hi, means)
            assert np.all(np.abs(est - osc) <= rad)
            for beta in (0.05, 0.5, 0.95, 1.0):
                thresholds = beta * means
                _, lvl = scan.batch_osc_level(wg, side, origins, thresholds=thresholds)
                est, rad, above = index.level_mass(lo, hi, thresholds)
                assert np.all(np.abs(est - lvl) <= rad)
                windows = np.lib.stride_tricks.sliding_window_view(wg.values, side)
                assert np.array_equal(above, np.sum(windows > thresholds[:, None], axis=1))


def test_radius_is_tight_on_ordinary_data():
    rng = np.random.default_rng(2)
    wg = WeightedGrid(Grid((256,)), *np.exp(rng.standard_normal((2, 256))))
    index = wg.threshold_index
    side = 16
    origins = np.arange(256 - side + 1)[:, None]
    mass, wv, means = scan.batch_mass_mean(wg, side, origins)
    lo, hi = origins[:, 0], origins[:, 0] + side
    _, rad = index.abs_deviation(lo, hi, means)
    assert np.all(rad <= 1e-11 * wv)
    _, rad, _ = index.level_mass(lo, hi, 0.5 * means)
    assert np.all(rad <= 1e-11 * mass)


def test_kernel_rows_do_not_depend_on_the_batch():
    # the screened path recomputes the rows of a few cubes and relies on
    # getting the bits a full-family batch gives them
    rng = np.random.default_rng(6)
    wg = WeightedGrid(Grid((1024,)), *np.exp(2 * rng.standard_normal((2, 1024))))
    for side in (1, 7, 129, 300, 1000):
        origins = np.arange(1025 - side)[:, None]
        _, _, means = scan.batch_mass_mean(wg, side, origins)
        full = scan.batch_osc_level(wg, side, origins, means=means, thresholds=0.5 * means)
        rows = np.sort(rng.choice(len(origins), size=min(5, len(origins)), replace=False))
        part = scan.batch_osc_level(wg, side, origins[rows], means=means[rows],
                                    thresholds=0.5 * means[rows])
        assert np.array_equal(full[0][rows], part[0]) and np.array_equal(full[1][rows], part[1])
        # and a window's mass is its level sum at a threshold every cell passes
        _, passed = scan.batch_osc_level(wg, side, origins, thresholds=np.full(len(origins), -np.inf))
        assert np.array_equal(scan._window_masses(wg, side), passed)


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
    return out


CASES = [(wg, mode) for wg in hard_grids(3, 24, max_n=48) for mode in MODES]


@pytest.fixture(scope="module")
def full_kernel_scan():
    """The outcomes of CASES with every cube of every family through the kernel."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scan, "reduce_family", scan._kernel_reduce)
        return [outcomes(wg, mode) for wg, mode in CASES]


@pytest.mark.parametrize("chunk", [1 << 13, 61])
def test_screened_equals_full_kernel_scan(monkeypatch, full_kernel_scan, chunk):
    monkeypatch.setattr(scan, "_CHUNK_CUBES", chunk)
    assert [outcomes(wg, mode) for wg, mode in CASES] == full_kernel_scan


def test_holds_decided_by_the_kernel_at_an_exact_floor():
    def ratio(s):
        return np.divide(s.osc, s.wv, out=np.zeros_like(s.osc), where=s.wv > 0)

    def both_paths(wg, mode, red):
        screened = scan.reduce_family(wg, mode, red)
        assert screened == scan._kernel_reduce(wg, mode, red)
        return screened.holds

    for wg in hard_grids(5, 12, max_n=40):
        for mode in MODES:
            low = scan.Reduction(ratio, maximize=False, osc=True, positive_mean=False)
            lowest = scan.reduce_family(wg, mode, low).best.value
            for floor, holds in ((lowest, True), (np.nextafter(lowest, np.inf), False)):
                red = scan.Reduction(ratio, maximize=True, osc=True, positive_mean=False,
                                     floor=lambda s: np.full_like(s.mass, floor))
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
        gr_epsilon(wg, EnumerationMode.all())
        for beta in (0.05, 0.5):
            alpha_profile(wg, beta, EnumerationMode.all())
        assert sum(gathered) <= most


def test_family_cubes_decode_the_canonical_order():
    for shape in [(7,), (5, 4), (3, 4, 3)]:
        grid = Grid(shape)
        cubes = list(enumerate_cubes(grid, EnumerationMode.all()))
        sides, origins = family_cubes(grid, np.arange(len(cubes)))
        assert cubes == [Cube(tuple(o), s) for s, o in zip(sides, origins)]
        mode = EnumerationMode.sample(50, seed=9)
        drawn = list(enumerate_cubes(grid, mode))
        assert drawn == [cubes[i] for i in sample_positions(grid, mode)]


def test_overflowing_sums_stay_on_the_kernel_path(monkeypatch):
    # Sum w*v is finite, but 64 times it is not, so no estimate could carry
    # a finite radius
    wg = WeightedGrid(Grid((8,)), np.full(8, 1e10), np.linspace(1e296, 1e297, 8))
    assert np.isfinite(2 * np.sum(wg.weights * wg.values))
    with np.errstate(all="ignore"):
        assert not wg.threshold_index.finite

    def unused(*args):
        raise AssertionError("screened an overflowing grid")

    monkeypatch.setattr(scan, "_screened_reduce", unused)
    assert gr_epsilon(wg, EnumerationMode.all()).cubes_scanned == 36
    # where Sum w*v itself overflows, no cube sum can be trusted
    wg = WeightedGrid(Grid((8,)), np.full(8, 1e10), np.linspace(1e299, 8e299, 8))
    with pytest.raises(DomainError, match="overflow"):
        gr_epsilon(wg, EnumerationMode.all())
