"""Non-increasing rearrangement of grid data and its running average.

The rearrangement of (f, mu) is the non-increasing step function on
(0, total_mass] equimeasurable with f: sort cells by value descending and
lay their masses end to end.  Grid cells are atoms, so a convention at the
jumps is required; we fix the right-continuous one,

    fstar(t) = min{ s >= 0 : mu{f > s} <= t },

under which the tail identity

    t * fstarstar(t) = Sum_{v > fstar(t)} w*v + (t - mu{f > fstar(t)}) * fstar(t)

is exact even when t falls strictly inside an atom.  fstarstar(t) is the
running average (1/t) * Integral_0^t fstar, evaluated in closed form over
the breakpoints (no quadrature).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .grids import WeightedGrid

__all__ = ["StepFunction", "rearrangement", "evaluate", "average", "tail_identity_parts"]


@dataclass(frozen=True)
class StepFunction:
    """Right-continuous non-increasing step function on (0, total_mass].

    levels[j] is the value on [breakpoints[j-1], breakpoints[j]) with
    breakpoints[-1] read as 0; levels are strictly decreasing after
    canonicalization and breakpoints[-1] == total_mass.
    """

    breakpoints: np.ndarray
    levels: np.ndarray
    total_mass: float

    def csv_rows(self) -> list[tuple[float, float]]:
        return [(float(t), float(v)) for t, v in zip(self.breakpoints, self.levels)]

    def to_json(self) -> dict:
        return {
            "breakpoints": [float(t) for t in self.breakpoints],
            "levels": [float(v) for v in self.levels],
            "total_mass": float(self.total_mass),
        }


def rearrangement(wg: WeightedGrid) -> StepFunction:
    """Sort-and-accumulate construction; stable in cell index, zero-weight
    cells dropped, equal adjacent levels merged."""
    w = wg.weights.ravel()
    v = wg.values.ravel()
    keep = w > 0
    w, v = w[keep], v[keep]
    if w.size == 0:
        raise DomainError("empty measure: total mass is zero")
    order = np.argsort(-v, kind="stable")
    v_sorted = v[order]
    w_sorted = w[order]
    cum = np.cumsum(w_sorted)
    # group boundaries: last index of each run of equal values
    last = np.flatnonzero(np.diff(v_sorted) != 0)
    idx = np.concatenate([last, [v_sorted.size - 1]])
    breakpoints = cum[idx]
    levels = v_sorted[idx]
    breakpoints.setflags(write=False)
    levels.setflags(write=False)
    return StepFunction(breakpoints=breakpoints, levels=levels, total_mass=float(cum[-1]))


def _segment_index(sf: StepFunction, t: np.ndarray) -> np.ndarray:
    if np.any(t <= 0) or np.any(t > sf.total_mass * (1 + 1e-12)) or not np.all(np.isfinite(t)):
        raise DomainError(f"t must lie in (0, {sf.total_mass}]")
    idx = np.searchsorted(sf.breakpoints, t, side="right")
    return np.minimum(idx, sf.levels.size - 1)


def evaluate(sf: StepFunction, t) -> float | np.ndarray:
    """fstar(t) with the right-continuous convention; scalar or array t."""
    t_arr = np.asarray(t, dtype=np.float64)
    out = sf.levels[_segment_index(sf, t_arr)]
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def average(sf: StepFunction, t) -> float | np.ndarray:
    """fstarstar(t) = (1/t) Integral_0^t fstar, by the tail identity."""
    star, above_mass, above_integral = tail_identity_parts(sf, t)
    return (above_integral + (t - above_mass) * star) / t


def tail_identity_parts(sf: StepFunction, t) -> tuple:
    """(fstar(t), mu{f > fstar(t)}, Sum_{v > fstar(t)} w*v) for the tail identity."""
    t_arr = np.asarray(t, dtype=np.float64)
    idx = _segment_index(sf, t_arr)
    widths = np.diff(sf.breakpoints, prepend=0.0)
    cumint = np.cumsum(sf.levels * widths)
    star = sf.levels[idx]
    above_mass = np.where(idx > 0, sf.breakpoints[idx - 1], 0.0)
    above_integral = np.where(idx > 0, cumint[idx - 1], 0.0)
    if np.isscalar(t) or t_arr.ndim == 0:
        return float(star), float(above_mass), float(above_integral)
    return star, above_mass, above_integral
