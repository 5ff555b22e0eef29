"""Deterministic test-data constructors spanning the interesting regimes.

Function kinds
    power(a)                 cell averages of x^(-a) on [0,1], 0 < a < 1;
                             the classical near-extremal profile whose
                             integrability threshold p = 1/a the reverse
                             Holder analysis probes.  1D only.
    spike(height, position)  zero everywhere except one cell; on uniform
                             weights of size N its oscillation ratio is
                             exactly 2(N-1)/N, arbitrarily close to 2.
    two_level(lo, hi, frac)  first round(frac*ncells) cells at hi, rest lo.
    random(seed, log_sigma)  exp(log_sigma * z), z standard normal.

Measure kinds
    uniform                        cell mass 1/ncells (Lebesgue).
    power_weight(b)                exact cell mass of x^b dx, b > -1.  1D only.
    spike_weight(mass, position)   uniform except one cell of given mass;
                                   models strongly non-doubling measures.
    random_weight(seed, log_sigma) log-normal masses scaled by 1/ncells.

Power-kind values are exact cell averages, not midpoint samples: the
singular first cell would otherwise be underestimated badly and the
integrability threshold would not survive discretization.  Randomness
comes from numpy's Generator seeded with PCG64 (values drawn with
standard_normal); identical specs produce bitwise-identical grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import ConfigurationError
from .grids import Grid, Report, WeightedGrid, integer

__all__ = ["GenSpec", "generate"]

_KINDS = ("power", "spike", "two_level", "random")
_MEASURES = ("uniform", "power_weight", "spike_weight", "random_weight")


@dataclass(frozen=True)
class GenSpec(Report):
    kind: str
    shape: tuple[int, ...]
    kind_params: Mapping[str, float] = field(default_factory=dict)
    measure_kind: str = "uniform"
    measure_params: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "shape", tuple(integer(n, "shape") for n in self.shape))
        object.__setattr__(self, "kind_params", dict(self.kind_params))
        object.__setattr__(self, "measure_params", dict(self.measure_params))

    @classmethod
    def from_json(cls, obj: Mapping) -> "GenSpec":
        try:
            return cls(
                kind=obj["kind"],
                shape=tuple(obj["shape"]),
                kind_params=dict(obj.get("kind_params", {})),
                measure_kind=obj.get("measure_kind", "uniform"),
                measure_params=dict(obj.get("measure_params", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"generator spec missing or malformed field: {exc}") from exc


def _require(params: Mapping, name: str, context: str) -> float:
    """The finite number params[name]; a bool or a str is not a number."""
    if name not in params:
        raise ConfigurationError(f"{context} needs parameter {name!r}")
    raw = params[name]
    try:
        value = math.nan if isinstance(raw, (bool, str)) else float(raw)
    except (TypeError, ValueError, OverflowError):  # an int past float64 overflows
        value = math.nan
    if not math.isfinite(value):
        raise ConfigurationError(f"{context}: {name} must be a finite number, got {raw!r}")
    return value


def _require_int(params: Mapping, name: str, context: str) -> int:
    _require(params, name, context)
    return integer(params[name], f"{context}: {name}")


def _rng(params: Mapping, context: str) -> np.random.Generator:
    seed = _require_int(params, "seed", context)
    if seed < 0:
        raise ConfigurationError(f"{context}: seed must be an integer >= 0, got {params['seed']!r}")
    return np.random.default_rng(seed)


def _position(params: Mapping, ncells: int, context: str) -> int:
    pos = _require_int(params, "position", context)
    if pos < 0:
        pos += ncells
    if not 0 <= pos < ncells:
        raise ConfigurationError(f"{context}: position out of range for {ncells} cells")
    return pos


def _values(spec: GenSpec, grid: Grid) -> np.ndarray:
    n = grid.ncells
    p = spec.kind_params
    if spec.kind == "power":
        a = _require(p, "a", "power")
        if not (0 < a < 1):
            raise ConfigurationError(f"power kind needs 0 < a < 1, got {a}")
        if grid.dim != 1:
            raise ConfigurationError("power kind is one-dimensional")
        edges = np.arange(n + 1, dtype=np.float64) / n
        c = 1.0 - a
        return np.diff(edges**c) / (c / n)
    if spec.kind == "spike":
        height = _require(p, "height", "spike")
        out = np.zeros(n)
        out[_position(p, n, "spike")] = height
        return out
    if spec.kind == "two_level":
        lo = _require(p, "lo", "two_level")
        hi = _require(p, "hi", "two_level")
        frac = _require(p, "fraction", "two_level")
        if lo < 0 or hi < 0 or not (0 <= frac <= 1):
            raise ConfigurationError("two_level needs lo, hi >= 0 and fraction in [0,1]")
        out = np.full(n, lo)
        out[: round(frac * n)] = hi
        return out
    if spec.kind == "random":
        sigma = _require(p, "log_sigma", "random")
        rng = _rng(p, "random")
        return np.exp(sigma * rng.standard_normal(n))
    raise ConfigurationError(f"unknown function kind {spec.kind!r}; expected one of {_KINDS}")


def _weights(spec: GenSpec, grid: Grid) -> np.ndarray:
    n = grid.ncells
    p = spec.measure_params
    if spec.measure_kind == "uniform":
        return np.full(n, 1.0 / n)
    if spec.measure_kind == "power_weight":
        b = _require(p, "b", "power_weight")
        if not b > -1:
            raise ConfigurationError(f"power_weight needs b > -1, got {b}")
        if grid.dim != 1:
            raise ConfigurationError("power_weight is one-dimensional")
        edges = np.arange(n + 1, dtype=np.float64) / n
        return np.diff(edges ** (b + 1.0)) / (b + 1.0)
    if spec.measure_kind == "spike_weight":
        mass = _require(p, "mass", "spike_weight")
        if not mass > 0:
            raise ConfigurationError("spike_weight mass must be positive")
        out = np.full(n, 1.0 / n)
        out[_position(p, n, "spike_weight")] = mass
        return out
    if spec.measure_kind == "random_weight":
        sigma = _require(p, "log_sigma", "random_weight")
        rng = _rng(p, "random_weight")
        return np.exp(sigma * rng.standard_normal(n)) / n
    raise ConfigurationError(
        f"unknown measure kind {spec.measure_kind!r}; expected one of {_MEASURES}"
    )


def generate(spec: GenSpec) -> WeightedGrid:
    grid = Grid(spec.shape)
    with np.errstate(over="ignore"):  # a log-normal draw may overflow; the grid refuses it
        return WeightedGrid(grid, _weights(spec, grid), _values(spec, grid))
