import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from oscgrid import Cube, Grid, WeightedGrid
from oscgrid.grids import iter_origin_batches


def family(grid: Grid, mode) -> list[Cube]:
    """The cube family of `mode` in canonical order, one Cube per cube."""
    return [
        Cube(tuple(origin), side)
        for sides, origins in iter_origin_batches(grid, mode)
        for side, origin in zip(sides.tolist(), origins.tolist())
    ]


@pytest.fixture
def two_cell() -> WeightedGrid:
    """The canonical two-cell example: weights (1,1), values (0,2)."""
    return WeightedGrid(Grid((2,)), [1.0, 1.0], [0.0, 2.0])


@pytest.fixture
def four_cell() -> WeightedGrid:
    """Weights (1,2,1,4), values (3,1,4,1): mean 13/8, osc 0.9375."""
    return WeightedGrid(Grid((4,)), [1.0, 2.0, 1.0, 4.0], [3.0, 1.0, 4.0, 1.0])


def random_integer_grid(rng: np.random.Generator, shape, max_weight=8, max_value=9):
    """Random grid with small integer weights/values; prefix sums are exact,
    so accelerated and naive float paths agree bit for bit."""
    w = rng.integers(0, max_weight, size=shape).astype(float)
    v = rng.integers(0, max_value, size=shape).astype(float)
    if w.sum() == 0:
        w.ravel()[int(rng.integers(0, w.size))] = 1.0
    return WeightedGrid(Grid(shape), w, v)


def random_float_grid(rng: np.random.Generator, shape, log_sigma=1.0, weight_ratio=None):
    """Random positive grid; weight_ratio injects a non-doubling mass spike."""
    n = int(np.prod(shape))
    w = np.exp(log_sigma * rng.standard_normal(n))
    v = np.exp(log_sigma * rng.standard_normal(n))
    if weight_ratio is not None:
        w[int(rng.integers(0, n))] *= weight_ratio
    return WeightedGrid(Grid(shape), w, v)
