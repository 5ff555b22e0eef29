import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import oscgrid
from oscgrid import (
    ConfigurationError,
    CoveringResult,
    Cube,
    DataValidationError,
    DomainError,
    EnumerationMode,
    GenSpec,
    Grid,
    LevelParams,
    StepFunction,
    WeightedGrid,
    default_mode,
    generate,
    load_wgrid,
    oscillation,
    save_wgrid,
    validate,
)
from oscgrid.grids import box_sums

from conftest import family, random_integer_grid
from reference import naive_cube_mass


def test_validate_uniform_ok():
    wg = WeightedGrid(Grid((4,)), np.ones(4), np.ones(4))
    assert validate(wg) is None  # it raises on bad data, which no grid holds


# a grid is valid by construction: the constructor refuses what validate refuses
def test_validate_negative_weight():
    with pytest.raises(DataValidationError, match="^negative weight at cell 1$"):
        WeightedGrid(Grid((3,)), [1.0, -0.5, 1.0], [1.0, 1.0, 1.0])


def test_validate_zero_total_mass():
    with pytest.raises(DataValidationError, match="^zero total mass$"):
        WeightedGrid(Grid((3,)), np.zeros(3), np.ones(3))


def test_validate_rejects_nan():
    with pytest.raises(DataValidationError, match="^non-finite weight at cell 1$"):
        WeightedGrid(Grid((2,)), [1.0, np.nan], [1.0, 1.0])


def test_enumeration_counts_1d():
    grid = Grid((4,))
    assert len(family(grid, EnumerationMode("all"))) == 10
    assert len(family(grid, EnumerationMode("dyadic"))) == 7


def test_enumeration_count_2d_all():
    # direct count oracle: sum over sides of (N - s + 1)^2
    grid = Grid((4, 4))
    expected = sum((4 - s + 1) ** 2 for s in range(1, 5))
    assert expected == 30
    assert len(family(grid, EnumerationMode("all"))) == 30


def test_enumeration_canonical_order():
    cubes = family(Grid((3,)), EnumerationMode("all"))
    assert cubes[:3] == [Cube((0,), 1), Cube((1,), 1), Cube((2,), 1)]
    assert cubes[3:] == [Cube((0,), 2), Cube((1,), 2), Cube((0,), 3)]


@pytest.mark.parametrize("shape", [(7,), (16,), (5, 4), (6, 6)])
def test_enumeration_all_exhaustive_unique(shape):
    grid = Grid(shape)
    seen = family(grid, EnumerationMode("all"))
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
    a = family(grid, mode)
    b = family(grid, mode)
    assert a == b
    assert len(a) == 50
    assert all(c.valid_for(grid) for c in a)


def test_dyadic_rejects_non_pow2():
    with pytest.raises(ConfigurationError):
        family(Grid((6,)), EnumerationMode("dyadic"))


def test_mode_parse_roundtrip():
    assert EnumerationMode.parse("all") == EnumerationMode("all")
    assert EnumerationMode.parse("dyadic") == EnumerationMode("dyadic")
    assert EnumerationMode.parse("sample:100:3") == EnumerationMode.sample(100, 3)
    with pytest.raises(ConfigurationError):
        EnumerationMode.parse("sample:100")
    assert default_mode(Grid((8,))) == EnumerationMode("all")
    assert default_mode(Grid((8, 8))) == EnumerationMode("dyadic")


_FOUR = WeightedGrid(Grid((4,)), np.ones(4), np.ones(4))


@pytest.mark.parametrize("call, error, message", [
    (lambda: EnumerationMode("bogus"), ConfigurationError, "^unknown enumeration mode 'bogus'$"),
    (lambda: oscillation(_FOUR, Cube((0, 0), 1)), DomainError, r"side=1\) does not fit grid shape"),
    (lambda: oscillation(_FOUR, Cube((0,), 0)), DomainError, r"side=0\) does not fit grid shape"),
])
def test_modes_and_cubes_outside_their_rules_are_refused(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_shapes_whose_prefix_tables_outgrow_their_cells_are_refused():
    # a padded prefix table holds prod(n + 1) entries: (1, 1, 1) is exactly
    # 8 per cell, so every 1D-3D shape passes, and 29 one-cell axes would
    # need 2^29 entries; the refusal comes before anything is allocated
    for shape in [(1,), (1, 1), (1, 1, 1), (2, 2, 2, 2), (3, 3, 3, 3), (2, 2, 2, 2, 2)]:
        assert Grid(shape).shape == shape
    tracemalloc.start()
    try:
        for shape in [(1, 1, 1, 1), (1, 1, 2, 2), (1,) * 29]:
            with pytest.raises(ConfigurationError, match=re.escape(f"shape {shape} has")):
                Grid(shape)
        assert tracemalloc.get_traced_memory()[1] < 1 << 16
    finally:
        tracemalloc.stop()


def test_sample_count_is_bounded():
    # the draw is one array of COUNT positions; a larger COUNT is refused
    # when the mode is made, long before anything is drawn
    limit = EnumerationMode.MAX_SAMPLE
    assert limit == 1 << 24
    assert EnumerationMode.parse(f"sample:{limit}:1").count == limit
    for count in (limit + 1, 3_000_000_000, 99999999999999999999999):
        with pytest.raises(ConfigurationError, match=f"over the limit of {limit}$"):
            EnumerationMode.parse(f"sample:{count}:1")


def _mass(wg, cube):
    """mu(Q) from the weights' prefix table."""
    return float(box_sums(wg.w_prefix, np.asarray([cube.origin]), cube.side)[0])


def test_cube_mass_examples():
    wg = WeightedGrid(Grid((4,)), np.ones(4), np.ones(4))
    assert _mass(wg, Cube((0,), 4)) == 4.0
    wg2 = WeightedGrid(Grid((4,)), [1.0, 2.0, 1.0, 4.0], np.ones(4))
    assert _mass(wg2, Cube((0,), 4)) == 8.0
    assert _mass(wg2, Cube((2,), 1)) == 1.0
    assert _mass(wg2, Cube((3,), 1)) == 4.0


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
            fast = _mass(wg, cube)
            slow = naive_cube_mass(wg, cube)
            assert fast == pytest.approx(slow, rel=1e-13)
            checked += 1


def test_cube_mass_exact_for_integer_weights():
    rng = np.random.default_rng(3)
    for shape in [(32,), (8, 8), (4, 4, 4)]:
        n = shape[0]
        for _ in range(50):
            wg = random_integer_grid(rng, shape)
            side = int(rng.integers(1, n + 1))
            origin = tuple(int(rng.integers(0, n + 1 - side)) for _ in shape)
            cube = Cube(origin, side)
            assert _mass(wg, cube) == naive_cube_mass(wg, cube)
            assert wg.w_prefix.total == int(wg.weights.astype(np.int64).sum())
            assert not wg.w_prefix.entries.flags.writeable


def test_only_grids_knows_the_prefix_table_format():
    """The table's accumulation and padded layout are known to grids alone:
    every other module builds tables as PrefixTable and reads them through
    box_sums, `total` or (rangesum's 1D rows) `entries`, so a new table
    format changes one class."""
    for path in sorted(Path(oscgrid.__file__).parent.glob("*.py")):
        text = path.read_text()
        for name in ("_prefix_table", "longdouble", "(-1,) *"):
            assert path.name == "grids.py" or name not in text, f"{path.name} names {name}"


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
        (lambda o: o.__setitem__("values", [1.0, float("nan")]), "^non-finite value at cell 1$"),
        (lambda o: o.__setitem__("shape", [3]), "expected 3 entries"),
        (lambda o: o.pop("values"), "values: missing"),
        (lambda o: o.__setitem__("dim", "x"), "dim: invalid literal"),
        (lambda o: o.__setitem__("dim", 2), "dim: 2 does not match"),
        (lambda o: o.__setitem__("weights", [[1.0], [2.0]]), "weights: expected a flat list of 2"),
        # entries that are not numbers, which numpy would convert
        (lambda o: o.__setitem__("weights", [True, True]), "weights: expected numbers, got bool"),
        (lambda o: o.__setitem__("values", [False, True]), "values: expected numbers, got bool"),
        (lambda o: o.__setitem__("weights", ["1", "2"]), "weights: expected numbers, got str"),
        (lambda o: o.__setitem__("values", [None, 1.0]), "values: expected numbers, got NoneType"),
        (lambda o: o.__setitem__("weights", [1, 10**400]),
         "^weights: int too large to convert to float$"),
        (lambda o: o.__setitem__("dim", True), "dim: expected an integer, got True"),
        (lambda o: o.__setitem__("dim", 1.7), "dim: expected an integer, got 1.7"),
        # would load a 2-cell grid if 2.9 were truncated
        (lambda o: o.update(dim=1.7, shape=[2.9]), "shape: expected an integer, got 2.9"),
        (lambda o: o.__setitem__("shape", ["2"]), "shape: expected an integer, got '2'"),
        (lambda o: o.__setitem__("shape", 2), "shape: 'int' object is not iterable"),
        (lambda o: o.__setitem__("weights", [0.0, 0.0]), "^zero total mass$"),
        (lambda o: o.__setitem__("weights", 5), "^weights: expected a flat list of 2 numbers$"),
    ],
)
def test_loader_rejections(tmp_path, mutate, field):
    obj = {"dim": 1, "shape": [2], "weights": [1.0, 1.0], "values": [1.0, 2.0]}
    mutate(obj)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(DataValidationError, match=field):
        load_wgrid(path)


@pytest.mark.parametrize(
    "text, message",
    [
        # a NaN weight is named, not read as a missing row
        ("index,weight,value\n0,nan,1\n1,1,2\n", "^non-finite weight at cell 0$"),
        ("index,weight,value\n0,1,inf\n1,1,2\n", "^non-finite value at cell 0$"),
        ("index,weight,value\n0,-1,1\n1,1,2\n", "^negative weight at cell 0$"),
        ("index,weight,value\n0,1,1\n0,1,2\n", "index: duplicate 0"),
        ("index,weight,value\n0,1,1\n2,1,2\n", "index: 2 out of range"),
        ("index,weight,value\n-1,1,1\n0,1,2\n", "^index: -1 out of range for 2 rows$"),
        # a first line of three numbers is a data row, not a header to drop
        ("1,1,5\n0,1,2\n", "csv: missing header line"),
        ("0, 1e0 ,nan\n", "csv: missing header line"),
        ("", "csv: empty file"),
        ("index,weight,value\n", "csv: no data rows"),
        ("index,weight,value\n0,1\n1,1\n", "csv: expected 3 columns, got 2"),
        ("index,weight,value\n0,x,1\n1,1,2\n", "csv: could not convert string to float: 'x'"),
    ],
)
def test_csv_loader_rejections(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(DataValidationError, match=message):
        load_wgrid(path)


# one data rule: the same bad data gets validate's message on every path into a grid
_BAD_DATA = {
    "negative weight": ([1.0, -0.5], [1.0, 2.0], "^negative weight at cell 1$"),
    "NaN value": ([1.0, 1.0], [1.0, float("nan")], "^non-finite value at cell 1$"),
    "zero weights": ([0.0, 0.0], [1.0, 2.0], "^zero total mass$"),
}


@pytest.mark.parametrize("case", sorted(_BAD_DATA))
def test_bad_data_is_refused_by_one_rule_on_every_path(tmp_path, case):
    weights, values, message = _BAD_DATA[case]
    as_json = tmp_path / "bad.json"
    as_json.write_text(json.dumps({"dim": 1, "shape": [2], "weights": weights, "values": values}))
    as_csv = tmp_path / "bad.csv"
    as_csv.write_text("index,weight,value\n" + "".join(
        f"{i},{w!r},{v!r}\n" for i, (w, v) in enumerate(zip(weights, values))))
    for build in (lambda: WeightedGrid(Grid((2,)), weights, values),
                  lambda: load_wgrid(as_json), lambda: load_wgrid(as_csv)):
        with pytest.raises(DataValidationError, match=message):
            build()


# generate can make no negative weight and no NaN; what bad data it can make
# gets the same messages
@pytest.mark.parametrize("spec, message", [
    # every log-normal weight underflows to 0
    (GenSpec("spike", (2,), {"height": 1.0, "position": 0},
             "random_weight", {"seed": 1, "log_sigma": -1e4}), "^zero total mass$"),
    (GenSpec("spike", (2,), {"height": -1.0, "position": 1}), "^negative value at cell 1$"),
    # every log-normal value overflows to inf
    (GenSpec("random", (2,), {"seed": 1, "log_sigma": 1e4}),
     "^non-finite value at cell 0; non-finite value at cell 1$"),
])
def test_generate_refuses_bad_data_by_the_same_rule(spec, message):
    with pytest.raises(DataValidationError, match=message):
        generate(spec)


def test_one_load_validates_once(tmp_path, monkeypatch):
    calls = []

    def counted(wg):
        calls.append(wg)
        return validate(wg)

    monkeypatch.setattr(oscgrid.grids, "validate", counted)
    obj = {"dim": 1, "shape": [2], "weights": [1.0, 1.0], "values": [0.0, 2.0]}
    for name, text in [("grid.json", json.dumps(obj)),
                       ("grid.csv", "index,weight,value\n0,1.0,0.0\n1,1.0,2.0\n")]:
        calls.clear()
        (tmp_path / name).write_text(text)
        wg = load_wgrid(tmp_path / name)
        assert calls == [wg]


def test_loader_rejects_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(DataValidationError, match="json"):
        load_wgrid(path)


@pytest.mark.parametrize(
    "report, expected",
    [
        (
            CoveringResult((Cube((0, 1), 2), Cube((1, 0), 1)), 0.25, None, 2, True),
            {"cubes": [{"origin": [0, 1], "side": 2}, {"origin": [1, 0], "side": 1}],
             "rho_lo": 0.25, "rho_hi": None, "overlap": 2, "covered": True},
        ),
        (LevelParams(alpha=0.25, beta=0.5), {"alpha": 0.25, "beta": 0.5}),
        (
            GenSpec("spike", (4,), {"height": 1, "position": -1}),
            {"kind": "spike", "shape": [4], "kind_params": {"height": 1, "position": -1},
             "measure_kind": "uniform", "measure_params": {}},
        ),
        (
            StepFunction(np.array([0.5, 2.0]), np.array([3.0, 1.0]), 2.0),
            {"breakpoints": [0.5, 2.0], "levels": [3.0, 1.0], "total_mass": 2.0},
        ),
        (EnumerationMode("all"), {"tag": "all"}),
        (EnumerationMode("dyadic"), {"tag": "dyadic"}),
        (EnumerationMode.sample(5, 2), {"tag": "sample", "count": 5, "seed": 2}),
    ],
    ids=lambda x: type(x).__name__,
)
def test_report_encoding(report, expected):
    encoded = report.to_json()
    assert encoded == expected
    assert json.dumps(encoded, sort_keys=True) == json.dumps(expected, sort_keys=True)
    assert all(type(x) is float for x in encoded.get("breakpoints", []) + encoded.get("levels", []))
