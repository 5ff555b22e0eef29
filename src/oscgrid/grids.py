"""Discrete model of a weighted base cube: grids, subcubes, and fast box sums.

The domain is the unit cube [0,1]^n split into a regular grid of cells.
Each cell carries a measure mass (mu of the cell, not a density) and a
function value (f constant on the cell).  Subcubes are cell-aligned with
equal integer side in every axis.  Aggregate queries (cube mass, weighted
sums over a cube) go through padded prefix-sum tables, so a single query
costs O(2^n) lookups.  Cube families (every subcube in dims 1..3, dyadic
cubes, a seeded sample) come in batches of at most a few thousand cubes,
decoded from their positions in the canonical order.

Cell weights are masses on purpose: strongly non-doubling measures are
expressed directly by wildly varying weights with no quadrature convention
in the way.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import Iterator

import numpy as np

from .errors import ConfigurationError, DataValidationError, DomainError

__all__ = [
    "Report",
    "Grid",
    "WeightedGrid",
    "Cube",
    "EnumerationMode",
    "PrefixTable",
    "validate",
    "default_mode",
]


class Report:
    """Mixin for report dataclasses: `to_json` gives every field under its
    own name.  Nested reports encode themselves, tuples and arrays become
    lists, dicts are copied, and None stays null."""

    def to_json(self) -> dict:
        return {f.name: _encode(getattr(self, f.name)) for f in fields(self)}


def _encode(value):
    if hasattr(value, "to_json"):
        return value.to_json()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    return value


def integer(raw, field: str, error: type[ValueError] = ConfigurationError) -> int:
    """`raw` read as an integer: an int or an integral float.  A bool, a
    str or anything else is refused with `error`, naming `field`."""
    try:
        n = int(raw)
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"{field}: {exc}") from exc
    if isinstance(raw, (bool, str)) or n != raw:
        raise error(f"{field}: expected an integer, got {raw!r}")
    return n


@dataclass(frozen=True)
class Grid:
    """Regular grid over the unit cube.

    shape[k] is the cell count along axis k; the cell edge along axis k is
    1/shape[k].  Exhaustive subcube enumeration needs dimension 1..3 and
    dyadic enumeration an equal power-of-two shape.  A shape whose padded
    prefix tables, prod(n_k + 1) entries, exceed 8 times its cells is refused.
    """

    shape: tuple[int, ...]

    def __post_init__(self):
        if len(self.shape) < 1:
            raise ConfigurationError("grid needs at least one axis")
        if any(int(n) < 1 for n in self.shape):
            raise ConfigurationError(f"every axis needs at least one cell, got shape {self.shape}")
        object.__setattr__(self, "shape", tuple(int(n) for n in self.shape))
        if math.prod(n + 1 for n in self.shape) > 8 * self.ncells:  # (1, 1, 1) is exactly 8
            raise ConfigurationError(f"shape {self.shape} has prefix tables over 8 times its cells")

    @property
    def dim(self) -> int:
        return len(self.shape)

    @property
    def ncells(self) -> int:
        return math.prod(self.shape)

    def is_square(self) -> bool:
        return len(set(self.shape)) == 1

    def is_dyadic(self) -> bool:
        """Equal power-of-two sides: the shape a dyadic family needs."""
        return self.is_square() and self.shape[0] & (self.shape[0] - 1) == 0


@dataclass(frozen=True)
class Cube(Report):
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

    def check_fits(self, grid: Grid) -> None:
        if not self.valid_for(grid):
            raise DomainError(f"cube {self} does not fit grid shape {grid.shape}")


@dataclass(frozen=True)
class EnumerationMode(Report):
    """How the discrete quantifier "for any cube Q" is realized.

    all     -- every cell-aligned subcube (dims 1..3).
    dyadic  -- every dyadic cube; needs an equal power-of-two shape.
    sample  -- `count` cubes drawn uniformly with replacement from the
               "all" family, deterministic in `seed`; the draw is one array,
               so `count` is at most MAX_SAMPLE.
    """

    tag: str
    count: int | None = None
    seed: int | None = None

    _TAGS = ("all", "dyadic", "sample")
    MAX_SAMPLE = 1 << 24

    def __post_init__(self):
        if self.tag not in self._TAGS:
            raise ConfigurationError(f"unknown enumeration mode {self.tag!r}")
        if self.tag == "sample":
            if None in (self.count, self.seed) or int(self.count) < 1 or int(self.seed) < 0:
                raise ConfigurationError("sample mode needs a positive count and a seed >= 0")
            if int(self.count) > self.MAX_SAMPLE:
                raise ConfigurationError(f"sample count over the limit of {self.MAX_SAMPLE}")
            object.__setattr__(self, "count", int(self.count))
            object.__setattr__(self, "seed", int(self.seed))

    @classmethod
    def sample(cls, count: int, seed: int) -> "EnumerationMode":
        return cls("sample", count=count, seed=seed)

    @classmethod
    def parse(cls, text: str) -> "EnumerationMode":
        if text in ("all", "dyadic"):
            return cls(text)
        if text.startswith("sample:"):
            try:
                count, seed = map(int, text.split(":")[1:])
            except ValueError as exc:
                raise ConfigurationError("sample mode syntax is sample:COUNT:SEED") from exc
            return cls.sample(count, seed)
        raise ConfigurationError(f"unknown enumeration mode {text!r}")

    def label(self) -> str:
        if self.tag == "sample":
            return f"sample:{self.count}:{self.seed}"
        return self.tag

    def to_json(self) -> dict:
        return super().to_json() if self.tag == "sample" else {"tag": self.tag}


def default_mode(grid: Grid) -> EnumerationMode:
    """all for 1D; dyadic for higher dimensions (falling back to all when
    the shape is not an equal power of two and the dimension allows it)."""
    if grid.dim == 1:
        return EnumerationMode("all")
    if grid.is_dyadic():
        return EnumerationMode("dyadic")
    if grid.dim <= 3:
        return EnumerationMode("all")
    raise ConfigurationError(
        f"no default enumeration mode for shape {grid.shape}; pass one explicitly"
    )


class PrefixTable:
    """Padded inclusive prefix sums of a cell array, read through box_sums
    (2^n signed lookups per box) and `total`, the sum of every cell.  Sums
    accumulate in extended precision (unit roundoff ACC_U) into read-only
    float64 `entries`, so over n cells each entry is within u + n*ACC_U of
    its exact value, relative to the total (u the float64 unit roundoff),
    and integer-valued cells stay exact."""

    ACC_U = float(np.finfo(np.longdouble).eps) / 2

    def __init__(self, cells: np.ndarray):
        self.entries = _prefix_table(cells)
        self.total = float(self.entries[(-1,) * self.entries.ndim])


def _prefix_table(cells: np.ndarray) -> np.ndarray:
    table = np.asarray(cells, dtype=np.longdouble).copy()
    for axis in range(table.ndim):
        np.cumsum(table, axis=axis, out=table)
    padded = np.zeros(tuple(n + 1 for n in table.shape), dtype=np.float64)
    with np.errstate(over="ignore"):  # a sum past float64 lands as inf, refused by its reader
        padded[tuple(slice(1, None) for _ in range(table.ndim))] = table.astype(np.float64)
    padded.setflags(write=False)
    return padded


@functools.cache
def _corners(dim: int) -> tuple[tuple[float, tuple[int, ...]], ...]:
    """The 2^dim corners of a box as (sign, bits), bits[axis] = 1 on the
    high side of that axis: the signed sum of a padded prefix table over the
    corners is the box sum (inclusion-exclusion)."""
    bits = [tuple(corner >> axis & 1 for axis in range(dim)) for corner in range(1 << dim)]
    return tuple((-1.0 if (dim - sum(b)) % 2 else 1.0, b) for b in bits)


def box_sums(table: PrefixTable, origins: np.ndarray, side: int | np.ndarray) -> np.ndarray:
    """Sum of the cells over each cube (origins: (k, dim) ints; side: an int or one per cube)."""
    padded = table.entries
    out = np.zeros(origins.shape[0], dtype=np.float64)
    ends = (origins.T, origins.T + side)  # per axis, the low and the high index
    for sign, bits in _corners(padded.ndim):
        out += sign * padded[tuple([ends[high][axis] for axis, high in enumerate(bits)])]
    return out


class WeightedGrid:
    """A grid plus per-cell measure masses and function values, valid by
    construction: validate() refuses bad data with a DataValidationError.
    Arrays are stored read-only in grid shape (row-major); prefix tables
    for the weights and the weight*value products are built on first use
    and cached."""

    def __init__(self, grid: Grid, weights, values):
        self.grid = grid
        w = np.asarray(weights, dtype=np.float64).reshape(grid.shape).copy()
        v = np.asarray(values, dtype=np.float64).reshape(grid.shape).copy()
        w.setflags(write=False)
        v.setflags(write=False)
        self.weights = w
        self.values = v
        self.source_digest: str | None = None  # sha256 of the file it was loaded from
        validate(self)

    @functools.cached_property
    def w_prefix(self) -> PrefixTable:
        return PrefixTable(self.weights)

    @functools.cached_property
    def wv_prefix(self) -> PrefixTable:
        return PrefixTable(self.weights * self.values)

    @property
    def total_mass(self) -> float:
        return self.w_prefix.total


_MAX_LISTED = 20


def validate(wg: WeightedGrid) -> None:
    """The data rule: finite, non-negative weights and values, and some
    weight > 0.  Raises a DataValidationError that lists the violations by
    cell (the first _MAX_LISTED of a kind); the WeightedGrid constructor
    calls it, so no analysis sees invalid data."""
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
    if not np.any(wg.weights > 0):
        violations.append("zero total mass")
    if violations:
        raise DataValidationError("; ".join(violations))


def family_counts(grid: Grid, mode: EnumerationMode) -> tuple[np.ndarray, ...]:
    """Per-side sides (ascending), origin strides and the cumsum of the cube
    counts of the family of `mode`; a sample draws from the "all" family."""
    if mode.tag != "dyadic":
        sides = np.arange(1, min(grid.shape) + 1, dtype=np.int64)
        steps = np.ones_like(sides)
    elif grid.is_dyadic():
        sides = steps = 1 << np.arange(grid.shape[0].bit_length(), dtype=np.int64)
    else:
        raise ConfigurationError(
            f"dyadic enumeration needs an equal power-of-two shape, got {grid.shape}"
        )
    counts = np.ones_like(sides)
    for n in grid.shape:
        counts = counts * ((n - sides) // steps + 1)
    return sides, steps, np.cumsum(counts)


# cubes per batch; a few MB of live temporaries
_CHUNK_CUBES = 1 << 13


def iter_origin_batches(
    grid: Grid, mode: EnumerationMode
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The cube family of `mode` in batches: (sides (k,), origins (k, dim)).

    Canonical order is part of the external contract: ascending side, then
    lexicographic origin; sampled cubes come in draw order.  Two runs with
    identical inputs produce identical sequences.  Batches partition the
    canonical sequence in order, which is what the deterministic scan
    reductions rely on.  Every family comes in batches
    of at most _CHUNK_CUBES cubes, decoded from their positions in the
    family's canonical order (a sample's from the positions it drew in the
    "all" order), so a batch may mix sides; no array over the whole family
    is built.
    """
    if mode.tag == "all" and grid.dim > 3:
        raise ConfigurationError("exhaustive enumeration is limited to dimensions 1..3")
    drawn = sample_positions(grid, mode) if mode.tag == "sample" else None
    total = int(family_counts(grid, mode)[2][-1]) if drawn is None else len(drawn)
    for lo in range(0, total, _CHUNK_CUBES):
        seq = np.arange(lo, min(lo + _CHUNK_CUBES, total))
        yield family_cubes(grid, mode, seq if drawn is None else drawn[seq])


def sample_positions(grid: Grid, mode: EnumerationMode) -> np.ndarray:
    """Positions in the canonical "all" order of the cubes a sample mode
    draws, in draw order (uniform, with replacement, deterministic in seed)."""
    cum = family_counts(grid, mode)[2]
    return np.random.default_rng(mode.seed).integers(0, int(cum[-1]), size=mode.count)


def family_cubes(
    grid: Grid, mode: EnumerationMode, positions: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(sides (k,), origins (k, dim)) of the cubes at the given positions of
    the canonical order of the family of `mode` (of "all" for a sample)."""
    sides, steps, cum = family_counts(grid, mode)
    si = np.searchsorted(cum, positions, side="right")
    offset = positions - np.where(si > 0, cum[si - 1], 0)
    origins = np.empty((len(positions), grid.dim), dtype=np.int64)
    for axis in reversed(range(grid.dim)):  # origins per axis, in units of the stride
        offset, origins[:, axis] = np.divmod(offset, ((grid.shape[axis] - sides) // steps + 1)[si])
    return sides[si], origins * steps[si, None]
