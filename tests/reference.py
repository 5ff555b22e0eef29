"""Naive reference implementations used as independent oracles.

Everything here recomputes results with plain per-cube loops and direct
summation, no prefix tables and no shared scanning code, so agreement with
the production scanners is evidence, not tautology.  Formulas mirror the
documented production formulas so that on integer-representable inputs the
float results are bit-identical.  The one exception is naive_covering: it
takes each candidate cube's masses from production `PrefixTable`s, so
that its densities equal build_covering's bit for bit, and is independent
in its control flow (one seed and one ring at a time).
"""

from __future__ import annotations

import numpy as np

from oscgrid import (
    ConfigurationError,
    CoveringResult,
    Cube,
    DomainError,
    EnumerationMode,
    Grid,
    MarginReport,
    PreconditionError,
    WeightedGrid,
)
from oscgrid.grids import PrefixTable, box_sums


def naive_cubes(grid: Grid, mode: EnumerationMode) -> list[Cube]:
    """The family of `mode` in canonical order, from plain nested loops:
    ascending side, then lexicographic origin, in steps of the side for
    dyadic cubes; a sample draws positions of the "all" order, uniformly
    with replacement from the seeded generator, in draw order."""
    if mode.tag == "sample":
        family = naive_cubes(grid, EnumerationMode("all"))
        drawn = np.random.default_rng(mode.seed).integers(0, len(family), size=mode.count)
        return [family[int(i)] for i in drawn]
    dyadic = mode.tag == "dyadic"
    if dyadic:
        sides = [1 << k for k in range(grid.shape[0].bit_length())]
    else:
        sides = range(1, min(grid.shape) + 1)
    cubes = []
    for side in sides:
        step = side if dyadic else 1
        origins = [[]]
        for n in grid.shape:  # the last axis varies fastest
            origins = [o + [x] for o in origins for x in range(0, n - side + 1, step)]
        cubes.extend(Cube(tuple(o), side) for o in origins)
    return cubes


def naive_cube_mass(wg: WeightedGrid, cube: Cube) -> float:
    return float(np.sum(wg.weights[cube.slices()]))


def naive_mean(wg: WeightedGrid, cube: Cube) -> float:
    sl = cube.slices()
    return float(np.sum(wg.weights[sl] * wg.values[sl])) / naive_cube_mass(wg, cube)


def _cube_stats(wg: WeightedGrid, cube: Cube):
    sl = cube.slices()
    w = wg.weights[sl].ravel()
    v = wg.values[sl].ravel()
    mass = float(np.sum(w))
    wv = float(np.sum(w * v))
    mean = wv / mass if mass > 0 else 0.0
    return w, v, mass, wv, mean


def naive_gr_epsilon(wg: WeightedGrid, mode: EnumerationMode):
    """(epsilon, witness): per-cube loops, first cube attaining the max."""
    best = None
    for cube in naive_cubes(wg.grid, mode):
        w, v, mass, wv, mean = _cube_stats(wg, cube)
        if mass <= 0:
            continue
        ratio = float(np.sum(w * np.abs(v - mean))) / wv if wv > 0 else 0.0
        if best is None or ratio > best[0]:
            best = (ratio, cube)
    if best is None:
        raise ValueError("empty measure")
    return best


def naive_alpha_profile(wg: WeightedGrid, beta: float, mode: EnumerationMode):
    best = None
    for cube in naive_cubes(wg.grid, mode):
        w, v, mass, wv, mean = _cube_stats(wg, cube)
        if mass <= 0 or wv <= 0:
            continue
        frac = float(np.sum(w * (v > beta * mean))) / mass
        if best is None or frac < best[0]:
            best = (frac, cube)
    if best is None:
        raise ValueError("empty measure")
    return best


def naive_verify_gr_to_ainfty(wg: WeightedGrid, epsilon: float, lam: float,
                              mode: EnumerationMode, tol: float) -> MarginReport:
    """verify_gr_to_ainfty cube by cube: refused with naive_gr_epsilon's
    witness outside GR(epsilon), else the margin mu{f > beta*mean} -
    alpha*mu(Q) with (alpha, beta) = (1 - lambda/2, 1 - epsilon/lambda)."""
    eps, witness = naive_gr_epsilon(wg, mode)
    if eps > epsilon:
        raise PreconditionError(f"not in GR({epsilon})", witness=witness)
    alpha, beta = 1.0 - lam / 2.0, 1.0 - epsilon / lam
    return _naive_margins(wg, mode, tol, lambda w, v, mass, mean: (
        float(np.sum(w[v > beta * mean])) - alpha * mass, mass))


def naive_verify_ainfty_to_gr(wg: WeightedGrid, params, mode: EnumerationMode,
                              tol: float) -> MarginReport:
    """verify_ainfty_to_gr cube by cube: refused with naive_alpha_profile's
    witness when alpha*(beta) <= alpha, else the margin
    2(1 - alpha*beta)*mean - osc."""
    alpha, beta = params.alpha, params.beta
    frac, witness = naive_alpha_profile(wg, beta, mode)
    if frac <= alpha:
        raise PreconditionError(f"not in A_inf({alpha}, {beta})", witness=witness)
    bound = 2.0 * (1.0 - alpha * beta)
    return _naive_margins(wg, mode, tol, lambda w, v, mass, mean: (
        bound * mean - float(np.sum(w * np.abs(v - mean))) / mass, mean))


def _naive_margins(wg, mode, tol, margin) -> MarginReport:
    """The first least margin over the positive-mean cubes, and holds: every
    such cube's margin >= -tol*scale, by margin(w, v, mass, mean) = (margin, scale)."""
    cubes = naive_cubes(wg.grid, mode)
    worst, holds, skipped = None, True, 0
    for cube in cubes:
        w, v, mass, wv, mean = _cube_stats(wg, cube)
        if mass <= 0:
            continue
        if wv <= 0:
            skipped += 1
            continue
        m, scale = margin(w, v, mass, mean)
        holds = holds and bool(m >= -tol * scale)
        if worst is None or m < worst[0]:
            worst = (m, cube)
    if worst is None:
        raise ValueError("empty measure")
    return MarginReport(worst_margin=float(worst[0]), witness=worst[1], mode=mode, holds=holds,
                        cubes_scanned=len(cubes), skipped_zero_mean=skipped, tolerance=tol)


def naive_rh_constant(wg: WeightedGrid, p: float, mode: EnumerationMode):
    best = None
    for cube in naive_cubes(wg.grid, mode):
        w, v, mass, wv, mean = _cube_stats(wg, cube)
        if mass <= 0 or wv <= 0:
            continue
        ratio = (float(np.sum(w * v**p)) / mass) ** (1.0 / p) / mean
        if best is None or ratio > best[0]:
            best = (ratio, cube)
    if best is None:
        raise ValueError("empty measure")
    return best


def naive_rearrangement(wg: WeightedGrid):
    """(breakpoints, levels) by explicit sorting of (value, weight) pairs."""
    pairs = [
        (float(v), float(w))
        for v, w in zip(wg.values.ravel(), wg.weights.ravel())
        if w > 0
    ]
    pairs.sort(key=lambda pair: -pair[0])
    breakpoints, levels = [], []
    cum = 0.0
    for v, w in pairs:
        cum += w
        if levels and levels[-1] == v:
            breakpoints[-1] = cum
        else:
            breakpoints.append(cum)
            levels.append(v)
    return np.asarray(breakpoints), np.asarray(levels)


def monotone_gr_epsilon_all(weights: np.ndarray, values: np.ndarray) -> float:
    """All-cubes GR parameter for 1D data with non-increasing values.

    For non-increasing values the cells above a window's mean form a prefix
    of the window, so the oscillation numerator has the closed form
    2*(S_k - mean*W_k) with k located by binary search; every interval is
    covered in O(N^2 log N).  Used as a fast independent oracle on monotone
    profiles where the exhaustive production scan would be too slow.
    """
    v = np.asarray(values, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if np.any(np.diff(v) > 0):
        raise ValueError("values must be non-increasing")
    n = v.size
    wp = np.concatenate([[0.0], np.cumsum(w)])
    wvp = np.concatenate([[0.0], np.cumsum(w * v)])
    neg_v = -v
    best = 0.0
    for side in range(1, n + 1):
        i = np.arange(0, n - side + 1)
        mass = wp[i + side] - wp[i]
        wv = wvp[i + side] - wvp[i]
        ok = (mass > 0) & (wv > 0)
        mean = np.where(ok, wv / np.where(mass > 0, mass, 1.0), 0.0)
        k = np.searchsorted(neg_v, -mean, side="left")
        k = np.clip(k, i, i + side)
        upper = (wvp[k] - wvp[i]) - mean * (wp[k] - wp[i])
        ratio = np.where(ok, 2.0 * upper / np.where(wv > 0, wv, 1.0), 0.0)
        if ratio.size:
            best = max(best, float(ratio.max()))
    return best


def _grown_cube(seed: np.ndarray, ring: int, shape: np.ndarray) -> Cube:
    """Concentric cube of ring radius `ring` around the seed, clipped to the
    grid by sliding; always contains the seed."""
    lo = np.maximum(seed - ring, 0)
    hi = np.minimum(seed + ring + 1, shape)
    side = int((hi - lo).min())
    origin = np.minimum(np.maximum(seed - ring, 0), shape - side)
    return Cube(tuple(int(o) for o in origin), side)


def naive_covering(wg: WeightedGrid, target, rho: float, rho_cap: float):
    """build_covering seed by seed and ring by ring, one box_sums pair per
    candidate cube: (CoveringResult, the density of each emitted cube)."""
    if not (0 < rho <= rho_cap < 1):
        raise DomainError(f"need 0 < rho <= rho_cap < 1, got rho={rho} rho_cap={rho_cap}")
    if not wg.grid.is_square():
        raise ConfigurationError("covering construction needs an equal-sided grid")
    member = np.asarray(target, dtype=bool).reshape(wg.grid.shape)
    total, target_mass = wg.total_mass, float(np.sum(wg.weights[member]))
    if target_mass > rho * total * (1 + 1e-12):
        raise PreconditionError(
            f"target set mass {target_mass} exceeds rho * mu(Q_0) = {rho * total}"
        )
    shape = np.asarray(wg.grid.shape, dtype=np.int64)
    n_max = int(shape[0])

    e_prefix = PrefixTable(wg.weights * member)
    w_prefix = wg.w_prefix

    uncovered = member & (wg.weights > 0)
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

    counts = naive_cover_counts(cubes, wg.grid)
    result = CoveringResult(
        cubes=tuple(cubes),
        rho_lo=min(densities) if densities else None,
        rho_hi=max(densities) if densities else None,
        overlap=int(counts.max()) if cubes else 1,
        covered=not np.any(uncovered & (counts == 0)),
    )
    return result, densities


def naive_cover_counts(cubes, grid: Grid) -> np.ndarray:
    """Number of cubes containing each cell, one slice increment per cube."""
    counts = np.zeros(grid.shape, dtype=np.int64)
    for cube in cubes:
        counts[cube.slices()] += 1
    return counts
