import numpy as np
import pytest

from oscgrid import (
    DataValidationError,
    DomainError,
    Grid,
    WeightedGrid,
    average,
    evaluate,
    rearrangement,
)
from oscgrid.rearrangement import tail_identity_parts

from conftest import random_float_grid
from reference import naive_rearrangement


@pytest.fixture
def two_atom():
    return rearrangement(WeightedGrid(Grid((2,)), [0.5, 0.5], [1.0, 3.0]))


def test_constant_single_level():
    sf = rearrangement(WeightedGrid(Grid((5,)), np.full(5, 0.2), np.full(5, 4.0)))
    assert list(sf.levels) == [4.0]
    assert sf.total_mass == pytest.approx(1.0)
    assert evaluate(sf, 0.3) == 4.0 and average(sf, 0.9) == pytest.approx(4.0)


def test_two_atom_levels(two_atom):
    assert list(two_atom.breakpoints) == [0.5, 1.0]
    assert list(two_atom.levels) == [3.0, 1.0]


def test_four_cell_example(four_cell):
    # sort-and-accumulate oracle: weights (1,2,1,4), values (3,1,4,1)
    sf = rearrangement(four_cell)
    assert list(sf.levels) == [4.0, 3.0, 1.0]
    assert list(sf.breakpoints) == [1.0, 2.0, 8.0]


def test_evaluate_conventions(two_atom):
    assert evaluate(two_atom, 0.25) == 3.0
    # right-continuity at the breakpoint: min{s : mu{f > s} <= 0.5} = 1
    assert evaluate(two_atom, 0.5) == 1.0
    assert evaluate(two_atom, 1.0) == 1.0
    with pytest.raises(DomainError):
        evaluate(two_atom, 0.0)
    with pytest.raises(DomainError):
        evaluate(two_atom, 1.5)


def test_evaluate_matches_distribution_definition():
    rng = np.random.default_rng(12)
    for _ in range(30):
        n = int(rng.integers(1, 20))
        wg = random_float_grid(rng, (n,), log_sigma=1.0)
        w = wg.weights.ravel()
        v = wg.values.ravel()
        sf = rearrangement(wg)
        for t in rng.uniform(1e-9, sf.total_mass, size=8):
            got = evaluate(sf, float(t))
            candidates = np.unique(np.concatenate([[0.0], v]))
            ok = [s for s in candidates if np.sum(w[v > s]) <= t]
            assert got == pytest.approx(min(ok), abs=0)


def test_average_two_atom(two_atom):
    assert average(two_atom, 0.75) == pytest.approx(7 / 3, rel=1e-15)
    # before the first breakpoint the running average equals the value
    assert average(two_atom, 0.3) == evaluate(two_atom, 0.3)


def test_mass_preservation():
    rng = np.random.default_rng(13)
    for _ in range(50):
        n = int(rng.integers(1, 50))
        wg = random_float_grid(rng, (n,), log_sigma=2.0)
        sf = rearrangement(wg)
        integral = average(sf, sf.total_mass) * sf.total_mass
        exact = float(np.sum(wg.weights * wg.values))
        assert integral == pytest.approx(exact, rel=1e-12)


def test_average_dominates_and_monotone():
    rng = np.random.default_rng(14)
    wg = random_float_grid(rng, (40,), log_sigma=1.5)
    sf = rearrangement(wg)
    ts = np.linspace(1e-6, sf.total_mass, 400)
    fstar = evaluate(sf, ts)
    fss = average(sf, ts)
    assert np.all(fss >= fstar * (1 - 1e-14))
    assert np.all(np.diff(fss) <= 1e-12 * fss[:-1] + 1e-300)
    assert np.all(np.diff(fstar) <= 0)
    # equality on the first step
    first = ts <= sf.breakpoints[0]
    assert np.allclose(fss[first], fstar[first], rtol=1e-14)


def test_tail_identity():
    rng = np.random.default_rng(15)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        wg = random_float_grid(rng, (n,), log_sigma=1.5)
        sf = rearrangement(wg)
        for t in rng.uniform(1e-9, sf.total_mass, size=10):
            t = float(t)
            star, above_mass, above_integral = tail_identity_parts(sf, t)
            lhs = t * average(sf, t)
            rhs = above_integral + (t - above_mass) * star
            assert lhs == pytest.approx(rhs, rel=1e-12)
            w = wg.weights.ravel()
            v = wg.values.ravel()
            assert above_mass == pytest.approx(float(np.sum(w[v > star])), rel=1e-12, abs=1e-300)
            assert above_integral == pytest.approx(
                float(np.sum((w * v)[v > star])), rel=1e-12, abs=1e-300
            )


def test_permutation_invariance():
    rng = np.random.default_rng(16)
    wg = random_float_grid(rng, (25,), log_sigma=1.0)
    perm = rng.permutation(25)
    wg2 = WeightedGrid(wg.grid, wg.weights.ravel()[perm], wg.values.ravel()[perm])
    a, b = rearrangement(wg), rearrangement(wg2)
    assert np.array_equal(a.breakpoints, b.breakpoints)
    assert np.array_equal(a.levels, b.levels)


def test_zero_weights_dropped_and_matches_naive():
    rng = np.random.default_rng(17)
    for _ in range(30):
        n = int(rng.integers(1, 30))
        w = rng.integers(0, 4, size=n).astype(float)
        v = rng.integers(0, 6, size=n).astype(float)
        if w.sum() == 0:
            w[0] = 1.0
        wg = WeightedGrid(Grid((n,)), w, v)
        sf = rearrangement(wg)
        bps, levels = naive_rearrangement(wg)
        assert np.array_equal(sf.breakpoints, bps)
        assert np.array_equal(sf.levels, levels)


def test_empty_measure_raises():
    # the grid refuses a measure with no positive weight before any rearrangement
    with pytest.raises(DataValidationError, match="^zero total mass$"):
        WeightedGrid(Grid((2,)), [0.0, 0.0], [1.0, 1.0])
