"""Shared generated-input corpus for the acceptance suite.

Covers every generator kind, both dimensions with their contract modes
(1D exhaustive, 2D dyadic), near-extremal oscillation parameters, zero
cells, and strongly non-doubling measures (adjacent mass ratios >= 1e6).
"""

from __future__ import annotations

from oscgrid import EnumerationMode, GenSpec, generate

ALL = EnumerationMode("all")
DYADIC = EnumerationMode("dyadic")


def _spike(n, position, height=1.0):
    return GenSpec("spike", (n,), {"height": height, "position": position})


def _entries():
    specs_1d = [
        _spike(4, -1),
        _spike(16, 0, height=3.0),
        _spike(64, 31, height=1e4),
        _spike(256, -1),
        _spike(256, 0, height=0.5),
        _spike(128, 100, height=7.0),
        GenSpec("two_level", (64,), {"lo": 1.0, "hi": 2.0, "fraction": 0.5}),
        GenSpec("two_level", (128,), {"lo": 0.1, "hi": 10.0, "fraction": 0.25}),
        GenSpec("two_level", (64,), {"lo": 1.0, "hi": 1e6, "fraction": 0.5}),
        GenSpec("two_level", (256,), {"lo": 0.0, "hi": 1.0, "fraction": 0.125}),
        GenSpec("two_level", (32,), {"lo": 2.0, "hi": 3.0, "fraction": 0.75}),
        GenSpec("two_level", (96,), {"lo": 1e-6, "hi": 1.0, "fraction": 0.5}),
        GenSpec("power", (256,), {"a": 0.1}),
        GenSpec("power", (256,), {"a": 0.3}),
        GenSpec("power", (256,), {"a": 0.5}),
        GenSpec("power", (256,), {"a": 0.7}),
        GenSpec("power", (256,), {"a": 0.9}),
        GenSpec("power", (512,), {"a": 0.5}),
        GenSpec("power", (128,), {"a": 0.3}, "power_weight", {"b": 1.0}),
        GenSpec("power", (128,), {"a": 0.5}, "power_weight", {"b": -0.5}),
        GenSpec("two_level", (64,), {"lo": 1.0, "hi": 4.0, "fraction": 0.5},
                "power_weight", {"b": 2.0}),
        GenSpec("random", (64,), {"seed": 1, "log_sigma": 0.5}),
        GenSpec("random", (64,), {"seed": 2, "log_sigma": 1.5}),
        GenSpec("random", (256,), {"seed": 3, "log_sigma": 0.5}),
        GenSpec("random", (256,), {"seed": 4, "log_sigma": 1.5}),
        GenSpec("random", (128,), {"seed": 5, "log_sigma": 2.5}),
        GenSpec("random", (64,), {"seed": 6, "log_sigma": 1.0},
                "random_weight", {"seed": 7, "log_sigma": 2.0}),
        GenSpec("random", (256,), {"seed": 8, "log_sigma": 1.0},
                "random_weight", {"seed": 9, "log_sigma": 3.0}),
        GenSpec("random", (256,), {"seed": 10, "log_sigma": 1.0},
                "spike_weight", {"mass": 1e4, "position": 128}),
        GenSpec("random", (64,), {"seed": 11, "log_sigma": 0.5},
                "spike_weight", {"mass": 1e6, "position": 0}),
        GenSpec("spike", (64,), {"height": 2.0, "position": 32},
                "random_weight", {"seed": 12, "log_sigma": 1.5}),
        GenSpec("two_level", (128,), {"lo": 1.0, "hi": 5.0, "fraction": 0.3},
                "spike_weight", {"mass": 1e5, "position": 64}),
    ]
    specs_2d = [
        GenSpec("random", (16, 16), {"seed": 20, "log_sigma": 1.0}),
        GenSpec("random", (32, 32), {"seed": 21, "log_sigma": 1.5}),
        GenSpec("random", (64, 64), {"seed": 22, "log_sigma": 0.5}),
        GenSpec("random", (16, 16), {"seed": 23, "log_sigma": 1.0},
                "random_weight", {"seed": 24, "log_sigma": 2.0}),
        GenSpec("random", (32, 32), {"seed": 25, "log_sigma": 1.0},
                "random_weight", {"seed": 26, "log_sigma": 3.0}),
        GenSpec("random", (64, 64), {"seed": 27, "log_sigma": 1.5},
                "random_weight", {"seed": 28, "log_sigma": 1.0}),
        GenSpec("spike", (16, 16), {"height": 1.0, "position": -1}),
        GenSpec("spike", (32, 32), {"height": 4.0, "position": 0}),
        GenSpec("spike", (64, 64), {"height": 1e3, "position": 2080}),
        GenSpec("two_level", (16, 16), {"lo": 1.0, "hi": 3.0, "fraction": 0.5}),
        GenSpec("two_level", (32, 32), {"lo": 0.5, "hi": 2.0, "fraction": 0.25}),
        GenSpec("two_level", (64, 64), {"lo": 1.0, "hi": 1e4, "fraction": 0.0625}),
        GenSpec("random", (16, 16), {"seed": 29, "log_sigma": 2.0},
                "spike_weight", {"mass": 1e4, "position": 100}),
        GenSpec("random", (32, 32), {"seed": 30, "log_sigma": 0.5},
                "spike_weight", {"mass": 1e6, "position": 500}),
        GenSpec("spike", (32, 32), {"height": 2.0, "position": 512},
                "random_weight", {"seed": 31, "log_sigma": 2.0}),
        GenSpec("random", (64, 64), {"seed": 32, "log_sigma": 1.0},
                "spike_weight", {"mass": 1e5, "position": 3000}),
        GenSpec("two_level", (16, 16), {"lo": 0.0, "hi": 2.0, "fraction": 0.25}),
        GenSpec("random", (32, 32), {"seed": 33, "log_sigma": 2.5}),
        GenSpec("spike", (16, 16), {"height": 9.0, "position": 137},
                "random_weight", {"seed": 34, "log_sigma": 1.0}),
        GenSpec("random", (16, 16), {"seed": 35, "log_sigma": 1.0},
                "random_weight", {"seed": 36, "log_sigma": 4.0}),
    ]
    out = [(spec, ALL) for spec in specs_1d]
    out += [(spec, DYADIC) for spec in specs_2d]
    return out


_CACHE = None


def corpus():
    """List of (label, WeightedGrid, mode); built once per process."""
    global _CACHE
    if _CACHE is None:
        entries = []
        for i, (spec, mode) in enumerate(_entries()):
            label = f"{i:02d}-{spec.kind}-{'x'.join(map(str, spec.shape))}-{spec.measure_kind}"
            entries.append((label, generate(spec), mode))
        _CACHE = entries
    return _CACHE
