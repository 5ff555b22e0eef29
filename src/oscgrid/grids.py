"""Discrete model of a weighted base cube: grids, subcubes, and fast box sums.

The domain is the unit cube [0,1]^n split into a regular grid of cells.
Each cell carries a measure mass (mu of the cell, not a density) and a
function value (f constant on the cell).  Subcubes are cell-aligned with
equal integer side in every axis.  Aggregate queries (cube mass, weighted
sums over a cube) go through padded prefix-sum tables, so a single query
costs O(2^n) lookups.  Cube families (every subcube in dims 1..3, dyadic
cubes in any dimension, a seeded sample) come in batches of origins.

Cell weights are masses on purpose: strongly non-doubling measures are
expressed directly by wildly varying weights with no quadrature convention
in the way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import ConfigurationError, DomainError

__all__ = [
    "Grid",
    "WeightedGrid",
    "Cube",
    "EnumerationMode",
    "ValidationReport",
    "validate",
    "enumerate_cubes",
    "cube_mass",
    "default_mode",
]


@dataclass(frozen=True)
class Grid:
    """Regular grid over the unit cube.

    shape[k] is the cell count along axis k; the cell edge along axis k is
    1/shape[k].  Dimensions 1..3 support exhaustive subcube enumeration;
    dyadic enumeration works in any dimension with an equal power-of-two
    shape.
    """

    shape: tuple[int, ...]

    def __post_init__(self):
        if len(self.shape) < 1:
            raise ConfigurationError("grid needs at least one axis")
        if any(int(n) < 1 for n in self.shape):
            raise ConfigurationError(f"every axis needs at least one cell, got shape {self.shape}")
        object.__setattr__(self, "shape", tuple(int(n) for n in self.shape))

    @property
    def dim(self) -> int:
        return len(self.shape)

    @property
    def ncells(self) -> int:
        out = 1
        for n in self.shape:
            out *= n
        return out

    @property
    def min_side(self) -> int:
        return min(self.shape)

    def is_square(self) -> bool:
        return len(set(self.shape)) == 1


@dataclass(frozen=True)
class Cube:
    """Cell-aligned subcube: per-axis origin cell index and a common side in cells."""

    origin: tuple[int, ...]
    side: int

    def __post_init__(self):
        object.__setattr__(self, "origin", tuple(int(o) for o in self.origin))
        object.__setattr__(self, "side", int(self.side))

    def slices(self) -> tuple[slice, ...]:
        return tuple(slice(o, o + self.side) for o in self.origin)

    def valid_for(self, grid: Grid) -> bool:
        if len(self.origin) != grid.dim or self.side < 1:
            return False
        return all(0 <= o and o + self.side <= n for o, n in zip(self.origin, grid.shape))

    def to_json(self) -> dict:
        return {"origin": list(self.origin), "side": self.side}


@dataclass(frozen=True)
class EnumerationMode:
    """How the discrete quantifier "for any cube Q" is realized.

    all     -- every cell-aligned subcube (dims 1..3).
    dyadic  -- every dyadic cube; needs an equal power-of-two shape.
    sample  -- `count` cubes drawn uniformly with replacement from the
               "all" family, deterministic in `seed`.
    """

    tag: str
    count: int | None = None
    seed: int | None = None

    _TAGS = ("all", "dyadic", "sample")

    def __post_init__(self):
        if self.tag not in self._TAGS:
            raise ConfigurationError(f"unknown enumeration mode {self.tag!r}")
        if self.tag == "sample":
            if self.count is None or self.seed is None or int(self.count) < 1:
                raise ConfigurationError("sample mode needs a positive count and a seed")
            object.__setattr__(self, "count", int(self.count))
            object.__setattr__(self, "seed", int(self.seed))

    @classmethod
    def all(cls) -> "EnumerationMode":
        return cls("all")

    @classmethod
    def dyadic(cls) -> "EnumerationMode":
        return cls("dyadic")

    @classmethod
    def sample(cls, count: int, seed: int) -> "EnumerationMode":
        return cls("sample", count=count, seed=seed)

    @classmethod
    def parse(cls, text: str) -> "EnumerationMode":
        if text == "all":
            return cls.all()
        if text == "dyadic":
            return cls.dyadic()
        if text.startswith("sample:"):
            parts = text.split(":")
            if len(parts) != 3:
                raise ConfigurationError("sample mode syntax is sample:COUNT:SEED")
            try:
                return cls.sample(int(parts[1]), int(parts[2]))
            except ValueError as exc:
                raise ConfigurationError("sample mode syntax is sample:COUNT:SEED") from exc
        raise ConfigurationError(f"unknown enumeration mode {text!r}")

    def label(self) -> str:
        if self.tag == "sample":
            return f"sample:{self.count}:{self.seed}"
        return self.tag

    def to_json(self) -> dict:
        if self.tag == "sample":
            return {"tag": "sample", "count": self.count, "seed": self.seed}
        return {"tag": self.tag}


def default_mode(grid: Grid) -> EnumerationMode:
    """all for 1D; dyadic for higher dimensions (falling back to all when
    the shape is not an equal power of two and the dimension allows it)."""
    if grid.dim == 1:
        return EnumerationMode.all()
    if grid.is_square() and _is_pow2(grid.shape[0]):
        return EnumerationMode.dyadic()
    if grid.dim <= 3:
        return EnumerationMode.all()
    raise ConfigurationError(
        f"no default enumeration mode for shape {grid.shape}; pass one explicitly"
    )


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _prefix_table(cells: np.ndarray) -> np.ndarray:
    """Padded inclusive prefix-sum table; box sums become 2^n signed lookups.

    Accumulation runs in extended precision and the result lands in float64,
    so each entry is accurate to about one ulp of itself no matter how long
    the axes are; a box query then loses only the unavoidable cancellation,
    and integer-valued cells stay exact.
    """
    table = np.asarray(cells, dtype=np.longdouble).copy()
    for axis in range(table.ndim):
        np.cumsum(table, axis=axis, out=table)
    padded = np.zeros(tuple(n + 1 for n in table.shape), dtype=np.float64)
    padded[tuple(slice(1, None) for _ in range(table.ndim))] = table.astype(np.float64)
    padded.setflags(write=False)
    return padded


def box_sums(padded: np.ndarray, origins: np.ndarray, side: int) -> np.ndarray:
    """Sum of the underlying cells over each cube (origins: (k, dim) ints)."""
    dim = padded.ndim
    out = np.zeros(origins.shape[0], dtype=np.float64)
    for corner in range(1 << dim):
        idx = []
        high = 0
        for axis in range(dim):
            if corner >> axis & 1:
                idx.append(origins[:, axis] + side)
                high += 1
            else:
                idx.append(origins[:, axis])
        sign = 1.0 if (dim - high) % 2 == 0 else -1.0
        out += sign * padded[tuple(idx)]
    return out


class WeightedGrid:
    """A grid plus per-cell measure masses and function values.

    Arrays are stored read-only in grid shape (row-major); prefix tables for
    the weights and the weight*value products, and for 1D grids the
    range-threshold index, are built lazily and cached.
    """

    def __init__(self, grid: Grid, weights, values):
        self.grid = grid
        w = np.asarray(weights, dtype=np.float64).reshape(grid.shape).copy()
        v = np.asarray(values, dtype=np.float64).reshape(grid.shape).copy()
        w.setflags(write=False)
        v.setflags(write=False)
        self.weights = w
        self.values = v
        self._w_prefix: np.ndarray | None = None
        self._wv_prefix: np.ndarray | None = None
        self._threshold_index = None
        self.window_masses: dict[int, np.ndarray] = {}  # side -> see scan._window_masses

    @property
    def w_prefix(self) -> np.ndarray:
        if self._w_prefix is None:
            self._w_prefix = _prefix_table(self.weights)
        return self._w_prefix

    @property
    def wv_prefix(self) -> np.ndarray:
        if self._wv_prefix is None:
            self._wv_prefix = _prefix_table(self.weights * self.values)
        return self._wv_prefix

    @property
    def total_mass(self) -> float:
        return float(self.w_prefix[tuple(-1 for _ in range(self.grid.dim))])

    @property
    def threshold_index(self):
        """Range-threshold index of a 1D grid (see rangesum), built on first use."""
        if self._threshold_index is None:
            from .rangesum import RangeThresholdIndex  # rangesum builds on this module

            self._threshold_index = RangeThresholdIndex(self.weights, self.values)
        return self._threshold_index


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]

    def to_json(self) -> dict:
        return {"ok": self.ok, "violations": list(self.violations)}


_MAX_LISTED = 20


def validate(wg: WeightedGrid) -> ValidationReport:
    """Check the data invariants; report every violation rather than raising.

    Callers are expected to refuse invalid grids; analysis operations assume
    a grid that passed validation.
    """
    violations: list[str] = []

    def _scan(arr: np.ndarray, name: str, pred, message: str):
        bad = np.flatnonzero(pred(arr.ravel()))
        for i in bad[:_MAX_LISTED]:
            violations.append(f"{message} at cell {int(i)}")
        if bad.size > _MAX_LISTED:
            violations.append(f"...and {bad.size - _MAX_LISTED} more {name} violations")

    _scan(wg.weights, "weight", lambda a: ~np.isfinite(a), "non-finite weight")
    _scan(wg.values, "value", lambda a: ~np.isfinite(a), "non-finite value")
    _scan(wg.weights, "weight", lambda a: np.isfinite(a) & (a < 0), "negative weight")
    _scan(wg.values, "value", lambda a: np.isfinite(a) & (a < 0), "negative value")
    with np.errstate(invalid="ignore"):
        total = float(np.sum(wg.weights[np.isfinite(wg.weights) & (wg.weights > 0)]))
    if not total > 0:
        violations.append("zero total mass")
    return ValidationReport(ok=not violations, violations=tuple(violations))


def cube_mass(wg: WeightedGrid, cube: Cube) -> float:
    """mu(Q): mass of the cube via the prefix table."""
    if not cube.valid_for(wg.grid):
        raise DomainError(f"cube {cube} does not fit grid shape {wg.grid.shape}")
    origins = np.asarray([cube.origin], dtype=np.int64)
    return float(box_sums(wg.w_prefix, origins, cube.side)[0])


def _lex_origins(shape: Sequence[int], side: int, step: int = 1) -> np.ndarray:
    ranges = [np.arange(0, n - side + 1, step, dtype=np.int64) for n in shape]
    mesh = np.meshgrid(*ranges, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def dyadic_sides(grid: Grid) -> list[int]:
    if not grid.is_square() or not _is_pow2(grid.shape[0]):
        raise ConfigurationError(
            f"dyadic enumeration needs an equal power-of-two shape, got {grid.shape}"
        )
    side = 1
    out = []
    while side <= grid.shape[0]:
        out.append(side)
        side *= 2
    return out


def family_counts(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Per-side counts of the "all" family (sides ascending) and their cumsum."""
    sides = np.arange(1, grid.min_side + 1, dtype=np.int64)
    counts = np.ones_like(sides)
    for n in grid.shape:
        counts = counts * (n - sides + 1)
    return sides, np.cumsum(counts)


def enumerate_cubes(grid: Grid, mode: EnumerationMode) -> Iterator[Cube]:
    """Yield the cube family of `mode` in canonical order.

    Canonical order is part of the external contract: ascending side, then
    lexicographic origin; sampled cubes come in draw order.  Two runs with
    identical inputs produce identical sequences.
    """
    for side, origins, _ in iter_origin_batches(grid, mode):
        for row in origins:
            yield Cube(tuple(int(x) for x in row), side)


def iter_origin_batches(
    grid: Grid, mode: EnumerationMode
) -> Iterator[tuple[int, np.ndarray, int]]:
    """Batched form of enumerate_cubes: (side, origins (k, dim), seq_start).

    Batches partition the canonical sequence in order, which is what the
    deterministic scan reductions rely on.
    """
    if mode.tag == "all":
        if grid.dim > 3:
            raise ConfigurationError("exhaustive enumeration is limited to dimensions 1..3")
        seq = 0
        for side in range(1, grid.min_side + 1):
            origins = _lex_origins(grid.shape, side)
            yield side, origins, seq
            seq += origins.shape[0]
    elif mode.tag == "dyadic":
        seq = 0
        for side in dyadic_sides(grid):
            origins = _lex_origins(grid.shape, side, step=side)
            yield side, origins, seq
            seq += origins.shape[0]
    else:
        sides, origins = family_cubes(grid, sample_positions(grid, mode))
        for seq in range(mode.count):
            yield int(sides[seq]), origins[seq : seq + 1], seq


def sample_positions(grid: Grid, mode: EnumerationMode) -> np.ndarray:
    """Positions in the canonical "all" order of the cubes a sample mode
    draws, in draw order (uniform, with replacement, deterministic in seed)."""
    _, cum = family_counts(grid)
    return np.random.default_rng(mode.seed).integers(0, int(cum[-1]), size=mode.count)


def family_cubes(grid: Grid, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sides (k,), origins (k, dim)) of the cubes at the given positions of
    the canonical "all" order."""
    sides, cum = family_counts(grid)
    si = np.searchsorted(cum, positions, side="right")
    offset = positions - np.where(si > 0, cum[si - 1], 0)
    side = sides[si]
    origins = np.empty((len(positions), grid.dim), dtype=np.int64)
    for axis in reversed(range(grid.dim)):
        extent = grid.shape[axis] - side + 1
        origins[:, axis] = offset % extent
        offset = offset // extent
    return side, origins
