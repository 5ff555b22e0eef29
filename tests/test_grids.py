import json

import numpy as np
import pytest

from oscgrid import (
    ConfigurationError,
    Cube,
    DataValidationError,
    EnumerationMode,
    Grid,
    WeightedGrid,
    cube_mass,
    default_mode,
    enumerate_cubes,
    load_wgrid,
    save_wgrid,
    validate,
)

from conftest import random_integer_grid
from reference import naive_cube_mass


def test_validate_uniform_ok():
    wg = WeightedGrid(Grid((4,)), np.ones(4), np.ones(4))
    report = validate(wg)
    assert report.ok and report.violations == ()


def test_validate_negative_weight():
    wg = WeightedGrid(Grid((3,)), [1.0, -0.5, 1.0], [1.0, 1.0, 1.0])
    report = validate(wg)
    assert not report.ok
    assert any("negative weight at cell 1" in v for v in report.violations)


def test_validate_zero_total_mass():
    wg = WeightedGrid(Grid((3,)), np.zeros(3), np.ones(3))
    report = validate(wg)
    assert not report.ok
    assert any("zero total mass" in v for v in report.violations)


def test_validate_rejects_nan():
    wg = WeightedGrid(Grid((2,)), [1.0, np.nan], [1.0, 1.0])
    assert not validate(wg).ok


def test_enumeration_counts_1d():
    grid = Grid((4,))
    assert len(list(enumerate_cubes(grid, EnumerationMode.all()))) == 10
    assert len(list(enumerate_cubes(grid, EnumerationMode.dyadic()))) == 7


def test_enumeration_count_2d_all():
    # direct count oracle: sum over sides of (N - s + 1)^2
    grid = Grid((4, 4))
    expected = sum((4 - s + 1) ** 2 for s in range(1, 5))
    assert expected == 30
    assert len(list(enumerate_cubes(grid, EnumerationMode.all()))) == 30


def test_enumeration_canonical_order():
    cubes = list(enumerate_cubes(Grid((3,)), EnumerationMode.all()))
    assert cubes[:3] == [Cube((0,), 1), Cube((1,), 1), Cube((2,), 1)]
    assert cubes[3:] == [Cube((0,), 2), Cube((1,), 2), Cube((0,), 3)]


@pytest.mark.parametrize("shape", [(7,), (16,), (5, 4), (6, 6)])
def test_enumeration_all_exhaustive_unique(shape):
    grid = Grid(shape)
    seen = list(enumerate_cubes(grid, EnumerationMode.all()))
    assert len(seen) == len(set(seen))
    brute = set()
    for side in range(1, min(shape) + 1):
        ranges = [range(n - side + 1) for n in shape]
        import itertools

        for origin in itertools.product(*ranges):
            brute.add(Cube(origin, side))
    assert set(seen) == brute


def test_enumeration_deterministic():
    grid = Grid((16,))
    mode = EnumerationMode.sample(50, seed=7)
    a = list(enumerate_cubes(grid, mode))
    b = list(enumerate_cubes(grid, mode))
    assert a == b
    assert len(a) == 50
    assert all(c.valid_for(grid) for c in a)


def test_dyadic_rejects_non_pow2():
    with pytest.raises(ConfigurationError):
        list(enumerate_cubes(Grid((6,)), EnumerationMode.dyadic()))


def test_mode_parse_roundtrip():
    assert EnumerationMode.parse("all") == EnumerationMode.all()
    assert EnumerationMode.parse("dyadic") == EnumerationMode.dyadic()
    assert EnumerationMode.parse("sample:100:3") == EnumerationMode.sample(100, 3)
    with pytest.raises(ConfigurationError):
        EnumerationMode.parse("sample:100")
    assert default_mode(Grid((8,))) == EnumerationMode.all()
    assert default_mode(Grid((8, 8))) == EnumerationMode.dyadic()


def test_cube_mass_examples():
    wg = WeightedGrid(Grid((4,)), np.ones(4), np.ones(4))
    assert cube_mass(wg, Cube((0,), 4)) == 4.0
    wg2 = WeightedGrid(Grid((4,)), [1.0, 2.0, 1.0, 4.0], np.ones(4))
    assert cube_mass(wg2, Cube((0,), 4)) == 8.0
    assert cube_mass(wg2, Cube((2,), 1)) == 1.0
    assert cube_mass(wg2, Cube((3,), 1)) == 4.0


def test_cube_mass_matches_naive_on_random_pairs():
    # 1e-13 relative agreement on moderate random weights; recovering a
    # vanishing box from differences of huge prefixes is inherently
    # ill-conditioned, so extreme-contrast data goes through the exact
    # per-cube accumulation paths instead (see oscillation module).
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 1000:
        dim = int(rng.integers(1, 3))
        n = int(rng.integers(1, 17 if dim == 2 else 65))
        shape = (n,) * dim
        if rng.random() < 0.5:
            w = rng.uniform(0.5, 1.5, size=shape)
        else:
            w = np.exp(0.5 * rng.standard_normal(shape))
        wg = WeightedGrid(Grid(shape), w, np.ones(shape))
        for _ in range(10):
            side = int(rng.integers(1, n + 1))
            origin = tuple(int(rng.integers(0, n - side + 1)) for _ in range(dim))
            cube = Cube(origin, side)
            fast = cube_mass(wg, cube)
            slow = naive_cube_mass(wg, cube)
            assert fast == pytest.approx(slow, rel=1e-13)
            checked += 1


def test_cube_mass_exact_for_integer_weights():
    rng = np.random.default_rng(3)
    for _ in range(50):
        wg = random_integer_grid(rng, (32,))
        side = int(rng.integers(1, 33))
        origin = (int(rng.integers(0, 33 - side)),)
        cube = Cube(origin, side)
        assert cube_mass(wg, cube) == naive_cube_mass(wg, cube)


def test_wgrid_json_roundtrip(tmp_path):
    rng = np.random.default_rng(11)
    wg = random_integer_grid(rng, (3, 3))
    path = tmp_path / "grid.json"
    save_wgrid(wg, path)
    back = load_wgrid(path)
    assert back.grid.shape == wg.grid.shape
    assert np.array_equal(back.weights, wg.weights)
    assert np.array_equal(back.values, wg.values)


def test_wgrid_csv_load(tmp_path):
    path = tmp_path / "grid.csv"
    path.write_text("index,weight,value\n0,1.0,0.0\n1,1.0,2.0\n")
    wg = load_wgrid(path)
    assert wg.grid.shape == (2,)
    assert list(wg.values) == [0.0, 2.0]


@pytest.mark.parametrize(
    "mutate, field",
    [
        (lambda o: o.__setitem__("weights", [1.0, -1.0]), "negative"),
        (lambda o: o.__setitem__("values", [1.0, float("nan")]), "NaN"),
        (lambda o: o.__setitem__("shape", [3]), "expected 3 entries"),
        (lambda o: o.pop("values"), "values: missing"),
        (lambda o: o.__setitem__("dim", "x"), "dim: invalid literal"),
        (lambda o: o.__setitem__("dim", 2), "dim: 2 does not match"),
    ],
)
def test_loader_rejections(tmp_path, mutate, field):
    obj = {"dim": 1, "shape": [2], "weights": [1.0, 1.0], "values": [1.0, 2.0]}
    mutate(obj)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(DataValidationError, match=field):
        load_wgrid(path)


def test_loader_rejects_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(DataValidationError, match="json"):
        load_wgrid(path)
