import numpy as np
import pytest

from oscgrid import (
    Cube,
    DomainError,
    Grid,
    PreconditionError,
    WeightedGrid,
    build_covering,
    cell_set,
    overlap_constant,
)

from conftest import random_float_grid


def uniform8():
    return WeightedGrid(Grid((8,)), np.ones(8), np.ones(8))


def test_empty_target():
    wg = uniform8()
    result = build_covering(wg, cell_set(wg, np.zeros(8, dtype=bool)), 0.25, 0.25)
    assert result.cubes == ()
    assert result.covered
    assert result.overlap == 1
    assert result.rho_lo is None and result.rho_hi is None


def test_single_seed_growth():
    wg = uniform8()
    result = build_covering(wg, cell_set(wg, np.arange(8) == 0), 0.25, 0.25)
    assert result.cubes == (Cube((0,), 4),)
    assert result.rho_lo == result.rho_hi == 0.25
    assert result.overlap == 1
    assert result.covered


def test_two_seeds_disjoint():
    wg = uniform8()
    result = build_covering(wg, cell_set(wg, np.isin(np.arange(8), [0, 7])), 0.25, 0.25)
    assert result.cubes == (Cube((0,), 4), Cube((4,), 4))
    assert result.overlap == 1


def test_precondition_mass_too_large():
    wg = uniform8()
    with pytest.raises(PreconditionError, match="exceeds"):
        build_covering(wg, cell_set(wg, np.arange(8) < 4), 0.25, 0.3)


def test_param_validation():
    wg = uniform8()
    target = cell_set(wg, np.arange(8) == 0)
    with pytest.raises(DomainError):
        build_covering(wg, target, 0.5, 0.25)
    with pytest.raises(DomainError):
        build_covering(wg, target, 0.0, 0.25)


def test_overlap_examples():
    grid = Grid((8,))
    a, b = Cube((0,), 2), Cube((4,), 2)
    assert overlap_constant([a, b], grid) == 1
    assert overlap_constant([a, a], grid) == 2
    assert overlap_constant([Cube((0,), 4), Cube((1,), 2)], grid) == 2
    assert overlap_constant([], grid) == 1


def test_cellset_mass_consistency():
    rng = np.random.default_rng(30)
    wg = random_float_grid(rng, (16,), log_sigma=1.0)
    member = rng.random(16) < 0.3
    target = cell_set(wg, member)
    assert target.mass == pytest.approx(np.sum(wg.weights[member]), rel=1e-15)


@pytest.mark.parametrize("dim", [1, 2])
def test_randomized_covering_postconditions(dim):
    rng = np.random.default_rng(31 + dim)
    for _ in range(40):
        n = int(rng.integers(4, 40 if dim == 1 else 14))
        shape = (n,) * dim
        wg = random_float_grid(rng, shape, log_sigma=1.0)
        total = wg.total_mass
        rho = float(rng.uniform(0.05, 0.6))
        rho_cap = float(rng.uniform(rho, 0.9))
        # target set trimmed until it satisfies the mass precondition
        member = (rng.random(shape) < 0.2).reshape(shape)
        w = wg.weights
        while float(np.sum(w[member])) > rho * total and member.any():
            idx = np.argwhere(member)[-1]
            member[tuple(idx)] = False
        target = cell_set(wg, member)
        result = build_covering(wg, target, rho, rho_cap)
        assert result.covered
        union = np.zeros(shape, dtype=bool)
        for cube in result.cubes:
            assert cube.valid_for(wg.grid)
            union[cube.slices()] = True
        assert np.all(union[member & (w > 0)])
        if result.cubes:
            assert 0 < result.rho_lo <= result.rho_hi <= rho_cap * (1 + 1e-12)
            # the two covering facts the average bound consumes
            masses = [float(np.sum(w[c.slices()])) for c in result.cubes]
            inters = [float(np.sum(w[c.slices()] * member[c.slices()])) for c in result.cubes]
            assert sum(inters) <= result.overlap * target.mass * (1 + 1e-12)
            assert sum(masses) <= result.overlap * target.mass / result.rho_lo * (1 + 1e-12)


def test_determinism():
    rng = np.random.default_rng(33)
    wg = random_float_grid(rng, (30,), log_sigma=1.5)
    member = rng.random(30) < 0.15
    target = cell_set(wg, member)
    r1 = build_covering(wg, target, 0.3, 0.5)
    r2 = build_covering(wg, target, 0.3, 0.5)
    assert r1.cubes == r2.cubes
    assert r1.rho_lo == r2.rho_lo and r1.overlap == r2.overlap


def test_nonsquare_grid_rejected():
    wg = WeightedGrid(Grid((4, 6)), np.ones((4, 6)), np.ones((4, 6)))
    from oscgrid import ConfigurationError

    with pytest.raises(ConfigurationError):
        build_covering(wg, cell_set(wg, np.zeros((4, 6), dtype=bool)), 0.2, 0.3)
