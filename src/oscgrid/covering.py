"""Bounded-overlap cube families with a prescribed target-set density.

Given a cell set E with mu(E) <= rho * mu(Q_0), build_covering produces a
cube family that covers every positive-weight cell of E while keeping each
cube's E-density mu(Q_i cap E)/mu(Q_i) at or below rho_cap.  Exact density
equality is unattainable on a grid, so the achieved density interval
[rho_lo, rho_hi] and the exact overlap constant (max number of cubes any
cell belongs to) are measured and reported; downstream bounds consume the
achieved constants, never nominal ones.

Construction: walk the uncovered E-cells in canonical (row-major) order;
around each seed grow a concentric cube, clipped and slid at the domain
boundary, one ring at a time until the density first drops to <= rho_cap;
emit it, mark its cells covered, continue.  The precondition guarantees
termination because the full domain has density <= rho <= rho_cap.
Concentric growth (rather than dyadic stopping cubes) is what makes a hard
density cap achievable at all.

For strongly non-doubling weights one ring step can overshoot far below
rho, so rho_lo is reported, not guaranteed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, DomainError, PreconditionError
from .grids import Cube, Grid, WeightedGrid, _prefix_table, box_sums

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
class CoveringResult:
    cubes: tuple[Cube, ...]
    rho_lo: float | None
    rho_hi: float | None
    overlap: int
    covered: bool

    def to_json(self) -> dict:
        return {
            "cubes": [c.to_json() for c in self.cubes],
            "rho_lo": self.rho_lo,
            "rho_hi": self.rho_hi,
            "overlap": self.overlap,
            "covered": self.covered,
        }


def _grown_cube(seed: np.ndarray, ring: int, shape: np.ndarray) -> Cube:
    """Concentric cube of ring radius `ring` around the seed, clipped to the
    grid by sliding; always contains the seed."""
    lo = np.maximum(seed - ring, 0)
    hi = np.minimum(seed + ring + 1, shape)
    side = int((hi - lo).min())
    origin = np.minimum(np.maximum(seed - ring, 0), shape - side)
    return Cube(tuple(int(o) for o in origin), side)


def build_covering(
    wg: WeightedGrid, target: CellSet, rho: float, rho_cap: float
) -> CoveringResult:
    if not (0 < rho <= rho_cap < 1):
        raise DomainError(f"need 0 < rho <= rho_cap < 1, got rho={rho} rho_cap={rho_cap}")
    if not wg.grid.is_square():
        raise ConfigurationError("covering construction needs an equal-sided grid")
    total = wg.total_mass
    if target.mass > rho * total * (1 + 1e-12):
        raise PreconditionError(
            f"target set mass {target.mass} exceeds rho * mu(Q_0) = {rho * total}"
        )
    shape = np.asarray(wg.grid.shape, dtype=np.int64)
    n_max = int(shape[0])

    e_prefix = _prefix_table(wg.weights * target.membership)
    w_prefix = wg.w_prefix

    uncovered = np.asarray(target.membership & (wg.weights > 0))
    flat = uncovered.ravel().copy()
    cubes: list[Cube] = []
    densities: list[float] = []

    while flat.any():
        seed_flat = int(np.argmax(flat))
        seed = np.asarray(np.unravel_index(seed_flat, wg.grid.shape), dtype=np.int64)
        cube = None
        for ring in range(n_max):
            cand = _grown_cube(seed, ring, shape)
            origins = np.asarray([cand.origin], dtype=np.int64)
            mass = float(box_sums(w_prefix, origins, cand.side)[0])
            inter = float(box_sums(e_prefix, origins, cand.side)[0])
            if mass > 0 and inter / mass <= rho_cap:
                cube = cand
                densities.append(inter / mass)
                break
        if cube is None:
            raise PreconditionError(
                f"no cube around cell {tuple(int(s) for s in seed)} reaches density <= {rho_cap}"
            )
        cubes.append(cube)
        block = flat.reshape(wg.grid.shape)
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
    """Number of cubes containing each cell."""
    counts = np.zeros(grid.shape, dtype=np.int64)
    for cube in cubes:
        counts[cube.slices()] += 1
    return counts


def overlap_constant(cubes: Sequence[Cube], grid: Grid) -> int:
    """Exact max number of cubes containing any one cell; 1 for an empty family."""
    return int(_cover_counts(cubes, grid).max()) if cubes else 1
