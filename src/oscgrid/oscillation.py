"""Weighted means, mean oscillation, and the Gurov-Reshetnyak parameter.

For a cube Q with mass mu(Q) > 0 the weighted mean and mean oscillation are

    mean(Q) = (1/mu(Q)) * Sum_Q w*v,
    osc(Q)  = (1/mu(Q)) * Sum_Q w*|v - mean(Q)|.

Because Sum_Q w*(v - mean) = 0, the positive and negative deviations split
the oscillation exactly in half:

    Sum_{v < mean} w*(mean - v) = mu(Q) * osc(Q) / 2,

the half-oscillation identity.  It holds cell-exactly (values equal to the
mean contribute to neither side), and the scalar entry points below use
exact (fsum) accumulation so the identity survives mass ratios of 1e12.

The Gurov-Reshetnyak parameter of the data is

    gr_epsilon = sup_Q osc(Q) / mean(Q),

the supremum taken over an enumerated cube family, with 0/0 read as 0: on
a cube where f vanishes mu-a.e. the oscillation inequality holds vacuously
for every eps, so such cubes cannot move the supremum.  The value is always
< 2 on finite nonnegative data; spikes (0,...,0,M) on uniform weights reach
2(N-1)/N, so the bound is tight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PreconditionError
from .grids import Cube, EnumerationMode, Report, WeightedGrid
from . import scan

__all__ = ["OscStats", "GRResult", "oscillation", "gr_epsilon", "require_gr"]


@dataclass(frozen=True)
class OscStats:
    """Per-cube oscillation statistics.

    lower_half is Sum_{v < mean} w*(mean - v); by the half-oscillation
    identity it equals mass*osc/2 up to rounding.  osc never exceeds 2*mean
    for nonnegative values.
    """

    mean: float
    osc: float
    lower_half: float
    mass: float


@dataclass(frozen=True)
class GRResult(Report):
    epsilon: float
    witness: Cube
    mode: EnumerationMode
    cubes_scanned: int


def _cube_moments(wg: WeightedGrid, cube: Cube):
    """(w, v, mass, mean, osc) of one cube, with exact (fsum) accumulation."""
    cube.check_fits(wg.grid)
    sl = cube.slices()
    w, v = wg.weights[sl].ravel(), wg.values[sl].ravel()
    mass = math.fsum(w)
    if not mass > 0:
        raise DomainError("zero-mass cube")
    m = math.fsum(w * v) / mass
    return w, v, mass, m, math.fsum(w * np.abs(v - m)) / mass


def oscillation(wg: WeightedGrid, cube: Cube) -> OscStats:
    """Mean, oscillation, and the lower half-sum for one cube (fsum-based)."""
    w, v, mass, m, osc = _cube_moments(wg, cube)
    below = v < m
    lower = math.fsum(w[below] * (m - v[below]))
    return OscStats(mean=m, osc=osc, lower_half=lower, mass=mass)


def gr_epsilon(wg: WeightedGrid, mode: EnumerationMode) -> GRResult:
    """Supremum of osc/mean over the enumerated family.

    Per cube the ratio is computed as Sum w*|v - mean| / Sum w*v (the same
    value as osc/mean with one fewer rounding); zero-mass cubes are skipped
    and zero-mean cubes contribute ratio 0.  The witness is the first cube
    in canonical order attaining the maximum.
    """
    return gr_result(scan.reduce_family(wg, mode, (GR_RATIO,))[0], mode)


def require_gr(measured: GRResult, epsilon: float) -> GRResult:
    """The measured gr_epsilon, refusing data outside GR(epsilon): the
    precondition of every verification that starts from GR(epsilon)."""
    if measured.epsilon > epsilon:
        raise PreconditionError(
            f"input not in GR({epsilon}): measured epsilon {measured.epsilon} "
            f"on cube {measured.witness}",
            witness=measured.witness,
        )
    return measured


def _gr_ratio(s: scan.CubeStats) -> np.ndarray:
    return np.divide(s.osc, s.wv, out=np.zeros_like(s.osc), where=s.wv > 0)


GR_RATIO = scan.Reduction(_gr_ratio, maximize=True, osc=True, positive_mean=False)


def gr_result(res: scan.ReductionResult, mode: EnumerationMode) -> GRResult:
    return GRResult(res.value, res.witness, mode, res.cubes)
