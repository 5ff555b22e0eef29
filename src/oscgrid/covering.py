"""Bounded-overlap cube families with a prescribed target-set density.

Given a cell set E with mu(E) <= rho * mu(Q_0), build_covering produces a
cube family that covers every positive-weight cell of E while keeping each
cube's E-density mu(Q_i cap E)/mu(Q_i) at or below rho_cap.  Exact density
equality is unattainable on a grid, so the achieved density interval
[rho_lo, rho_hi] and the exact overlap constant (max number of cubes any
cell belongs to) are measured and reported; downstream bounds consume the
achieved constants, never nominal ones.

Construction: walk the uncovered E-cells in canonical (row-major) order;
around each seed grow a concentric cube, clipped at the domain boundary,
one ring at a time until the density first drops to <= rho_cap;
emit it, mark its cells covered, continue.  The precondition guarantees
termination because the full domain has density <= rho <= rho_cap.
Concentric growth (rather than dyadic stopping cubes) is what makes a hard
density cap achievable at all.  A seed's cube depends only on the seed, E
and the cap, never on what earlier cubes covered, so the rings are found
ahead for a whole chunk of seeds at once, one vectorized pass per ring
over the seeds still open; only the greedy walk that skips covered seeds
and marks each emitted cube is sequential.

For strongly non-doubling weights one ring step can overshoot far below
rho, so rho_lo is reported, not guaranteed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, DomainError, PreconditionError
from .grids import Cube, Grid, Report, WeightedGrid, _corners, _prefix_table, box_sums

__all__ = ["CellSet", "CoveringResult", "cell_set", "build_covering", "overlap_constant"]


@dataclass(frozen=True)
class CellSet:
    """Boolean cell membership plus its cached mu-mass."""

    membership: np.ndarray
    mass: float


def cell_set(wg: WeightedGrid, membership: np.ndarray) -> CellSet:
    mask = np.asarray(membership, dtype=bool).reshape(wg.grid.shape).copy()
    mask.setflags(write=False)
    return CellSet(membership=mask, mass=float(np.sum(wg.weights[mask])))


@dataclass(frozen=True)
class CoveringResult(Report):
    cubes: tuple[Cube, ...]
    rho_lo: float | None
    rho_hi: float | None
    overlap: int
    covered: bool


_CHUNK = 1024  # seeds whose rings are searched together


def _first_cap_rings(w_prefix, e_prefix, seeds, shape, rho_cap):
    """For each seed (rows of `seeds`), the first concentric ring whose cube
    has positive mass and E-density <= rho_cap: (origins, sides, densities),
    side 0 where no ring reaches the cap.  A ring's cube is the ring's box
    clipped to the grid and cut to its shortest edge from the low corner; it
    holds the seed and fits the grid.  One pass per ring, each one box_sums
    on either table over the seeds still open."""
    k = seeds.shape[0]
    origins = np.zeros_like(seeds)
    sides = np.zeros(k, dtype=np.int64)
    densities = np.zeros(k, dtype=np.float64)
    open_idx = np.arange(k)
    for ring in range(int(shape[0])):
        if open_idx.size == 0:
            break
        seed = seeds[open_idx]
        origin = np.maximum(seed - ring, 0)
        side = (np.minimum(seed + ring + 1, shape) - origin).min(axis=1)
        mass = box_sums(w_prefix, origin, side)
        inter = box_sums(e_prefix, origin, side)
        with np.errstate(divide="ignore", invalid="ignore"):
            density = inter / mass
        hit = (mass > 0) & (density <= rho_cap)
        done = open_idx[hit]
        origins[done] = origin[hit]
        sides[done] = side[hit]
        densities[done] = density[hit]
        open_idx = open_idx[~hit]
    return origins, sides, densities


def check_square(grid: Grid) -> None:
    """Coverings are built from cubes on equal-sided grids only."""
    if not grid.is_square():
        raise ConfigurationError("covering construction needs an equal-sided grid")


def build_covering(
    wg: WeightedGrid, target: CellSet, rho: float, rho_cap: float
) -> CoveringResult:
    if not (0 < rho <= rho_cap < 1):
        raise DomainError(f"need 0 < rho <= rho_cap < 1, got rho={rho} rho_cap={rho_cap}")
    check_square(wg.grid)
    total = wg.total_mass
    if target.mass > rho * total * (1 + 1e-12):
        raise PreconditionError(
            f"target set mass {target.mass} exceeds rho * mu(Q_0) = {rho * total}"
        )
    shape = np.asarray(wg.grid.shape, dtype=np.int64)

    e_prefix = _prefix_table(wg.weights * target.membership)
    w_prefix = wg.w_prefix

    uncovered = np.asarray(target.membership & (wg.weights > 0))
    flat = uncovered.ravel().copy()
    block = flat.reshape(wg.grid.shape)
    cells = np.flatnonzero(flat)
    cubes: list[Cube] = []
    densities: list[float] = []

    for start in range(0, cells.size, _CHUNK):
        chunk = cells[start : start + _CHUNK]
        chunk = chunk[flat[chunk]]
        seeds = np.stack(np.unravel_index(chunk, wg.grid.shape), axis=1)
        origins, sides, dens = _first_cap_rings(w_prefix, e_prefix, seeds, shape, rho_cap)
        rows = zip(chunk.tolist(), seeds.tolist(), origins.tolist(), sides.tolist(), dens.tolist())
        for cell, seed, origin, side, density in rows:
            if not flat[cell]:
                continue
            if not side:
                raise PreconditionError(
                    f"no cube around cell {tuple(seed)} reaches density <= {rho_cap}"
                )
            cube = Cube(tuple(origin), side)
            cubes.append(cube)
            densities.append(density)
            block[cube.slices()] = False

    counts = _cover_counts(cubes, wg.grid)
    return CoveringResult(
        cubes=tuple(cubes),
        rho_lo=min(densities) if densities else None,
        rho_hi=max(densities) if densities else None,
        overlap=int(counts.max()) if cubes else 1,
        covered=not np.any(uncovered & (counts == 0)),
    )


def _cover_counts(cubes: Sequence[Cube], grid: Grid) -> np.ndarray:
    """Number of cubes containing each cell: a signed +-1 at the 2^dim
    corners of every cube in one integer difference array, +1 at the low
    corner, then a running sum along each axis."""
    dim = grid.dim
    diff = np.zeros(tuple(n + 1 for n in grid.shape), dtype=np.int64)
    if cubes:
        origins = np.asarray([c.origin for c in cubes], dtype=np.int64)
        sides = np.asarray([c.side for c in cubes], dtype=np.int64)
        ends = (origins.T, origins.T + sides)
        for sign, bits in _corners(dim):  # box_sums' signs times the low corner's
            idx = tuple([ends[high][axis] for axis, high in enumerate(bits)])
            np.add.at(diff, idx, int(sign) * (-1) ** dim)
    for axis in range(dim):
        diff = np.cumsum(diff, axis=axis)
    return diff[tuple(slice(0, n) for n in grid.shape)]


def overlap_constant(cubes: Sequence[Cube], grid: Grid) -> int:
    """Exact max number of cubes containing any one cell; 1 for an empty family."""
    return int(_cover_counts(cubes, grid).max()) if cubes else 1
