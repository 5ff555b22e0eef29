import numpy as np
import pytest

from oscgrid import (
    Cube,
    DomainError,
    Grid,
    PreconditionError,
    WeightedGrid,
    build_covering,
)

from oscgrid import covering
from oscgrid.covering import _cover_counts
from oscgrid.grids import PrefixTable, box_sums

from conftest import random_float_grid
from reference import _grown_cube, naive_cover_counts, naive_covering

SIDES = {1: (4, 40), 2: (3, 14), 3: (2, 7)}


def uniform8():
    return WeightedGrid(Grid((8,)), np.ones(8), np.ones(8))


def test_empty_target():
    wg = uniform8()
    result = build_covering(wg, np.zeros(8, dtype=bool), 0.25, 0.25)
    assert result.cubes == ()
    assert result.covered
    assert result.overlap == 1
    assert result.rho_lo is None and result.rho_hi is None


def test_single_seed_growth():
    wg = uniform8()
    result = build_covering(wg, np.arange(8) == 0, 0.25, 0.25)
    assert result.cubes == (Cube((0,), 4),)
    assert result.rho_lo == result.rho_hi == 0.25
    assert result.overlap == 1
    assert result.covered


def test_two_seeds_disjoint():
    wg = uniform8()
    result = build_covering(wg, np.isin(np.arange(8), [0, 7]), 0.25, 0.25)
    assert result.cubes == (Cube((0,), 4), Cube((4,), 4))
    assert result.overlap == 1


def test_precondition_mass_too_large():
    wg = uniform8()
    with pytest.raises(PreconditionError, match="exceeds"):
        build_covering(wg, np.arange(8) < 4, 0.25, 0.3)


def test_param_validation():
    wg = uniform8()
    target = np.arange(8) == 0
    with pytest.raises(DomainError):
        build_covering(wg, target, 0.5, 0.25)
    with pytest.raises(DomainError):
        build_covering(wg, target, 0.0, 0.25)


def test_overlap_examples():
    grid = Grid((8,))
    a, b = Cube((0,), 2), Cube((4,), 2)
    assert _cover_counts([a, b], grid).max() == 1
    assert _cover_counts([a, a], grid).max() == 2
    assert _cover_counts([Cube((0,), 4), Cube((1,), 2)], grid).max() == 2
    assert _cover_counts([], grid).max() == 0


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
        mass = float(np.sum(w[member]))
        result = build_covering(wg, member, rho, rho_cap)
        assert build_covering(wg, member.ravel(), rho, rho_cap) == result  # a flat mask
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
            assert sum(inters) <= result.overlap * mass * (1 + 1e-12)
            assert sum(masses) <= result.overlap * mass / result.rho_lo * (1 + 1e-12)


def test_determinism():
    rng = np.random.default_rng(33)
    wg = random_float_grid(rng, (30,), log_sigma=1.5)
    member = rng.random(30) < 0.15
    r1 = build_covering(wg, member, 0.3, 0.5)
    r2 = build_covering(wg, member, 0.3, 0.5)
    assert r1.cubes == r2.cubes
    assert r1.rho_lo == r2.rho_lo and r1.overlap == r2.overlap


def test_nonsquare_grid_rejected():
    wg = WeightedGrid(Grid((4, 6)), np.ones((4, 6)), np.ones((4, 6)))
    from oscgrid import ConfigurationError

    with pytest.raises(ConfigurationError):
        build_covering(wg, np.zeros((4, 6), dtype=bool), 0.2, 0.3)


def _outcome(build, *args):
    """What a covering construction returns, or the text of the
    PreconditionError it raises."""
    try:
        return build(*args)
    except PreconditionError as exc:
        return str(exc)


def _atom_grid(rng, shape):
    """Log-normal weights with zero-weight cells and, most of the time, a
    1e12 atom: strongly non-doubling, so one ring can overshoot the cap."""
    w = np.exp(rng.standard_normal(shape))
    w[rng.random(shape) < 0.1] = 0.0
    for _ in range(int(rng.integers(0, 3))):
        w[tuple(rng.integers(0, shape[0], size=len(shape)))] = 1e12
    v = np.exp(rng.standard_normal(shape))
    return WeightedGrid(Grid(shape), w, v)


def _boundary_target(rng, wg, rho):
    """E-cells drawn densely on the faces of the domain (where a ring is
    clipped) and sparsely inside, trimmed at random, interior
    cells first, until mu(E) <= rho * mu(Q_0)."""
    shape = wg.grid.shape
    coords = np.indices(shape)
    on_face = np.any((coords == 0) | (coords == shape[0] - 1), axis=0)
    member = np.where(on_face, rng.random(shape) < 0.4, rng.random(shape) < 0.15)
    w = wg.weights
    order = [tuple(c) for c in rng.permutation(np.argwhere(member & ~on_face))]
    order += [tuple(c) for c in rng.permutation(np.argwhere(member & on_face))]
    for cell in order:
        if float(np.sum(w[member])) <= rho * wg.total_mass:
            break
        member[cell] = False
    return member


@pytest.mark.parametrize("chunk", [1, 7, covering._CHUNK])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_build_covering_equals_naive_oracle(dim, chunk, monkeypatch):
    monkeypatch.setattr(covering, "_CHUNK", chunk)
    rng = np.random.default_rng(40 + dim)
    faces_hit = set()
    cap_edges = 0
    for _ in range(25):
        shape = (int(rng.integers(*SIDES[dim])),) * dim
        wg = _atom_grid(rng, shape)
        rho = float(rng.uniform(0.05, 0.6))
        rho_cap = float(rng.uniform(rho, 0.9))
        target = _boundary_target(rng, wg, rho)
        last = shape[0] - 1
        for cell in np.argwhere(target & (wg.weights > 0)):
            faces_hit.update((axis, x == 0) for axis, x in enumerate(cell) if x in (0, last))
        expected, densities = naive_covering(wg, target, rho, rho_cap)
        result = build_covering(wg, target, rho, rho_cap)
        assert result == expected
        assert (result.rho_lo, result.rho_hi) == (
            (min(densities), max(densities)) if densities else (None, None)
        )
        # rho_cap exactly at a density the first run achieved: the `<=` edge
        edge = [d for d in densities if rho <= d < 1]
        if edge:
            at_edge = edge[int(rng.integers(0, len(edge)))]
            expected, densities = naive_covering(wg, target, rho, at_edge)
            assert build_covering(wg, target, rho, at_edge) == expected
            cap_edges += at_edge in densities
    assert faces_hit == {(axis, low) for axis in range(dim) for low in (True, False)}
    assert cap_edges > 0


@pytest.mark.parametrize("chunk", [1, 7, covering._CHUNK])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_no_ring_reaches_the_cap_same_error(dim, chunk, monkeypatch):
    """rho = rho_cap just below E's density, inside the 1e-12 slack of the
    mass check: the full domain misses the cap, and so may every smaller
    ring.  Both constructions stop at the same first failing seed."""
    monkeypatch.setattr(covering, "_CHUNK", chunk)
    rng = np.random.default_rng(50 + dim)
    errors = 0
    for _ in range(15):
        n = int(rng.integers(*SIDES[dim]))
        shape = (n,) * dim
        wg = random_float_grid(rng, shape, log_sigma=1.0)
        member = np.zeros(shape, dtype=bool)
        for _ in range(int(rng.integers(1, 4))):
            # corners and faces as often as the interior
            member[tuple(rng.choice([0, n - 1, int(rng.integers(0, n))], size=dim))] = True
        rho = float(np.sum(wg.weights[member])) / wg.total_mass * (1 - 1e-13)
        expected = _outcome(lambda *a: naive_covering(*a)[0], wg, member, rho, rho)
        assert _outcome(build_covering, wg, member, rho, rho) == expected
        if isinstance(expected, str):
            assert "reaches density" in expected
            errors += 1
    assert errors > 0


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_cover_counts_equal_slice_loop(dim):
    rng = np.random.default_rng(60 + dim)
    for _ in range(30):
        n = int(rng.integers(1, 12 if dim < 3 else 6))
        grid = Grid((n,) * dim)
        cubes = []
        for _ in range(int(rng.integers(0, 12))):
            side = int(rng.integers(1, n + 1))
            cubes.append(Cube(tuple(int(o) for o in rng.integers(0, n - side + 1, size=dim)), side))
        if cubes and rng.random() < 0.5:
            cubes += cubes[: int(rng.integers(1, len(cubes) + 1))]  # repeated cubes
        if rng.random() < 0.3:
            cubes.append(Cube((0,) * dim, n))  # the full domain
        counts = naive_cover_counts(cubes, grid)
        np.testing.assert_array_equal(_cover_counts(cubes, grid), counts)
    for n in (1, 5):
        grid = Grid((n,) * dim)
        np.testing.assert_array_equal(_cover_counts([], grid), np.zeros(grid.shape))


def _first_cap_ring(wg, e_prefix, seed, rho_cap):
    """Index of the first ring around `seed` whose cube meets the cap, one
    ring at a time."""
    shape = np.asarray(wg.grid.shape)
    for ring in range(int(shape[0])):
        cube = _grown_cube(np.asarray(seed), ring, shape)
        origins = np.asarray([cube.origin])
        mass = box_sums(wg.w_prefix, origins, cube.side)[0]
        if mass > 0 and box_sums(e_prefix, origins, cube.side)[0] / mass <= rho_cap:
            return ring
    raise AssertionError(f"no ring around {seed}")


@pytest.mark.parametrize("chunk", [64, covering._CHUNK])
def test_box_sums_calls_are_per_ring_pass_not_per_seed(chunk, monkeypatch):
    """Timing-free guard on a 64 x 64 grid: each chunk's ring search costs
    at most two box_sums calls (mass and E-mass) per ring it needs."""
    rng = np.random.default_rng(70)
    wg = random_float_grid(rng, (64, 64), log_sigma=0.5)
    target = rng.random((64, 64)) < 0.15
    rho = float(np.sum(wg.weights[target])) / wg.total_mass * 1.01
    rho_cap = 0.4
    passes = []
    search, sums = covering._first_cap_rings, covering.box_sums

    def logged_search(w_prefix, e_prefix, seeds, shape, cap):
        passes.append([seeds.copy(), 0])
        return search(w_prefix, e_prefix, seeds, shape, cap)

    def counted_sums(*args):
        passes[-1][1] += 1
        return sums(*args)

    monkeypatch.setattr(covering, "_CHUNK", chunk)
    monkeypatch.setattr(covering, "_first_cap_rings", logged_search)
    monkeypatch.setattr(covering, "box_sums", counted_sums)
    result = build_covering(wg, target, rho, rho_cap)
    if chunk == 64:
        assert len(passes) > 1
    e_prefix = PrefixTable(wg.weights * target)
    for seeds, calls in passes:
        needed = max(_first_cap_ring(wg, e_prefix, s, rho_cap) for s in seeds.tolist())
        assert calls <= 2 * (needed + 1)
    assert sum(calls for _, calls in passes) < len(result.cubes)
