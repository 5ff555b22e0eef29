import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscgrid import (
    Cube,
    DataValidationError,
    DomainError,
    EnumerationMode,
    Grid,
    WeightedGrid,
    alpha_profile,
    gr_epsilon,
    oscillation,
    rh_constant,
)

from conftest import random_float_grid, random_integer_grid
from reference import naive_gr_epsilon

ALL = EnumerationMode("all")


def test_mean_constant():
    wg = WeightedGrid(Grid((3,)), [1.0, 2.0, 3.0], [5.0, 5.0, 5.0])
    assert oscillation(wg, Cube((0,), 3)).mean == 5.0


def test_mean_symmetric_two_point(two_cell):
    assert oscillation(two_cell, Cube((0,), 2)).mean == 1.0


def test_mean_weighted_four_cell(four_cell):
    # naive oracle: (1*3 + 2*1 + 1*4 + 4*1) / 8 = 13/8
    assert oscillation(four_cell, Cube((0,), 4)).mean == pytest.approx(13 / 8, rel=1e-15)


def test_mean_zero_mass_raises():
    wg = WeightedGrid(Grid((2,)), [0.0, 1.0], [1.0, 1.0])
    with pytest.raises(DomainError, match="zero-mass"):
        oscillation(wg, Cube((0,), 1))


def test_oscillation_constant():
    wg = WeightedGrid(Grid((4,)), np.ones(4), np.full(4, 3.0))
    stats = oscillation(wg, Cube((0,), 4))
    assert stats.osc == 0.0 and stats.lower_half == 0.0


def test_oscillation_two_point(two_cell):
    stats = oscillation(two_cell, Cube((0,), 2))
    assert stats.mean == 1.0 and stats.osc == 1.0 and stats.lower_half == 1.0


def test_oscillation_four_cell(four_cell):
    # naive oracle: mean 13/8; osc = (1.375 + 2*0.625 + 2.375 + 4*0.625)/8
    stats = oscillation(four_cell, Cube((0,), 4))
    assert stats.osc == pytest.approx(0.9375, rel=1e-15)
    assert stats.lower_half == pytest.approx(3.75, rel=1e-15)
    assert stats.lower_half == pytest.approx(stats.mass * stats.osc / 2, rel=1e-15)


def test_half_oscillation_identity_randomized():
    # |lower_half - mass*osc/2| at the natural mass*mean scale, including
    # non-doubling stress with mass ratios up to 1e12
    rng = np.random.default_rng(5)
    for ratio in (None, 1e6, 1e12):
        for _ in range(60):
            n = int(rng.integers(1, 40))
            wg = random_float_grid(rng, (n,), log_sigma=1.5, weight_ratio=ratio)
            side = int(rng.integers(1, n + 1))
            cube = Cube((int(rng.integers(0, n - side + 1)),), side)
            stats = oscillation(wg, cube)
            scale = stats.mass * stats.mean
            assert abs(stats.lower_half - stats.mass * stats.osc / 2) <= 1e-12 * scale


def test_osc_at_most_twice_mean():
    rng = np.random.default_rng(6)
    for _ in range(100):
        n = int(rng.integers(1, 30))
        wg = random_float_grid(rng, (n,), log_sigma=2.0)
        stats = oscillation(wg, Cube((0,), n))
        assert stats.osc <= 2 * stats.mean * (1 + 1e-15)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(0, 100, allow_nan=False),
            st.floats(0, 100, allow_nan=False),
        ),
        min_size=1,
        max_size=12,
    )
)
def test_half_oscillation_identity_hypothesis(cells):
    w = np.array([c[0] for c in cells])
    v = np.array([c[1] for c in cells])
    if w.sum() <= 0:
        w[0] = 1.0
    wg = WeightedGrid(Grid((len(cells),)), w, v)
    stats = oscillation(wg, Cube((0,), len(cells)))
    scale = stats.mass * stats.mean
    assert abs(stats.lower_half - stats.mass * stats.osc / 2) <= 1e-12 * scale + 1e-300


def test_gr_epsilon_constant():
    wg = WeightedGrid(Grid((4,)), np.ones(4), np.full(4, 7.0))
    res = gr_epsilon(wg, ALL)
    assert res.epsilon == 0.0
    assert res.witness == Cube((0,), 1)
    assert res.cubes_scanned == 10


def test_gr_epsilon_two_cell(two_cell):
    res = gr_epsilon(two_cell, ALL)
    assert res.epsilon == 1.0
    assert res.witness == Cube((0,), 2)


def test_gr_epsilon_spike():
    for m_val in (1.0, 2.5, 1e4):
        wg = WeightedGrid(Grid((4,)), np.ones(4), [0.0, 0.0, 0.0, m_val])
        res = gr_epsilon(wg, ALL)
        assert res.epsilon == pytest.approx(1.5, rel=1e-14)


def test_gr_epsilon_spike_family_approaches_two():
    prev = 0.0
    for n in (4, 16, 64, 256):
        values = np.zeros(n)
        values[-1] = 3.0
        wg = WeightedGrid(Grid((n,)), np.ones(n), values)
        eps = gr_epsilon(wg, ALL).epsilon
        assert eps == pytest.approx(2 * (n - 1) / n, rel=1e-13)
        assert prev < eps < 2.0
        prev = eps


def test_gr_epsilon_scale_invariance():
    rng = np.random.default_rng(7)
    wg = random_float_grid(rng, (32,), log_sigma=1.0)
    base = gr_epsilon(wg, ALL)
    for c in (3.0, 1e-7, 1e9):
        scaled = WeightedGrid(wg.grid, wg.weights, c * wg.values)
        res = gr_epsilon(scaled, ALL)
        assert res.epsilon == pytest.approx(base.epsilon, rel=1e-13)
        assert res.witness == base.witness


def test_gr_epsilon_strictly_below_two():
    rng = np.random.default_rng(8)
    for _ in range(50):
        n = int(rng.integers(1, 24))
        wg = random_float_grid(rng, (n,), log_sigma=3.0)
        assert gr_epsilon(wg, ALL).epsilon < 2.0


def test_gr_epsilon_zero_function():
    wg = WeightedGrid(Grid((4,)), np.ones(4), np.zeros(4))
    assert gr_epsilon(wg, ALL).epsilon == 0.0


def test_gr_epsilon_empty_measure():
    with pytest.raises(DataValidationError, match="^zero total mass$"):
        WeightedGrid(Grid((2,)), [0.0, 0.0], [1.0, 1.0])
    # a sample can still draw only zero-mass cubes: here cube (1,) twice
    wg = WeightedGrid(Grid((2,)), [1.0, 0.0], [1.0, 1.0])
    with pytest.raises(DomainError, match="^empty measure: no cube has positive mass$"):
        gr_epsilon(wg, EnumerationMode.sample(2, 1))
    zero_values = WeightedGrid(Grid((2,)), [1.0, 1.0], [0.0, 0.0])
    for scan in (alpha_profile, rh_constant):
        with pytest.raises(DomainError, match="empty measure: .* and positive mean"):
            scan(zero_values, 0.5 if scan is alpha_profile else 2.0, ALL)


def test_gr_epsilon_matches_naive_small():
    rng = np.random.default_rng(9)
    for trial in range(40):
        shape = (int(rng.integers(1, 33)),) if trial % 2 == 0 else (int(rng.integers(1, 9)),) * 2
        wg = random_integer_grid(rng, shape)
        res = gr_epsilon(wg, ALL)
        eps_ref, wit_ref = naive_gr_epsilon(wg, ALL)
        assert res.epsilon == eps_ref
        assert res.witness == wit_ref


def test_gr_epsilon_matches_naive_4d_dyadic():
    # the window gather is one sliding-window view in every dimension
    rng = np.random.default_rng(12)
    for _ in range(3):
        wg = random_integer_grid(rng, (4, 4, 4, 4))
        res = gr_epsilon(wg, EnumerationMode("dyadic"))
        assert (res.epsilon, res.witness) == naive_gr_epsilon(wg, EnumerationMode("dyadic"))
        assert res.cubes_scanned == 256 + 16 + 1


def test_gr_epsilon_dyadic_and_sample_modes():
    rng = np.random.default_rng(11)
    wg = random_float_grid(rng, (16,), log_sigma=1.0)
    full = gr_epsilon(wg, ALL).epsilon
    dyadic = gr_epsilon(wg, EnumerationMode("dyadic")).epsilon
    sampled = gr_epsilon(wg, EnumerationMode.sample(300, seed=1)).epsilon
    assert dyadic <= full * (1 + 1e-15)
    assert sampled <= full * (1 + 1e-15)
