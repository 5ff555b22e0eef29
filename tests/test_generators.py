import numpy as np
import pytest

from oscgrid import (
    ConfigurationError,
    EnumerationMode,
    GenSpec,
    generate,
    gr_epsilon,
)

ALL = EnumerationMode("all")


def test_two_level_constant_gives_zero_epsilon():
    spec = GenSpec("two_level", (16,), {"lo": 1.0, "hi": 1.0, "fraction": 0.5})
    assert gr_epsilon(generate(spec), ALL).epsilon == 0.0


def test_spike_epsilon():
    spec = GenSpec("spike", (4,), {"height": 1.0, "position": -1})
    wg = generate(spec)
    assert list(wg.values) == [0.0, 0.0, 0.0, 1.0]
    assert list(wg.weights) == [0.25] * 4
    assert gr_epsilon(wg, ALL).epsilon == pytest.approx(1.5, rel=1e-14)


def test_power_exact_cell_average():
    wg = generate(GenSpec("power", (4,), {"a": 0.5}))
    # closed-form first cell: (0.25^0.5 - 0) / (0.5 * 0.25) = 4
    assert wg.values[0] == pytest.approx(4.0, rel=1e-14)


@pytest.mark.parametrize("a", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_power_integral_preserved(a):
    wg = generate(GenSpec("power", (4096,), {"a": a}))
    total = float(np.sum(wg.weights * wg.values))
    assert total == pytest.approx(1 / (1 - a), rel=1e-12)


def test_power_weight_masses():
    wg = generate(GenSpec("two_level", (8,), {"lo": 1, "hi": 2, "fraction": 0.5},
                          "power_weight", {"b": 1.0}))
    # exact masses of x dx per cell; total 1/2
    assert float(np.sum(wg.weights)) == pytest.approx(0.5, rel=1e-13)
    edges = np.arange(9) / 8
    assert np.allclose(wg.weights, np.diff(edges**2) / 2, rtol=1e-14)


def test_determinism_bitwise():
    spec = GenSpec("random", (64,), {"seed": 9, "log_sigma": 1.5},
                   "random_weight", {"seed": 10, "log_sigma": 2.0})
    a, b = generate(spec), generate(spec)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.values, b.values)


def test_distinct_seeds_differ():
    base = {"log_sigma": 1.0}
    a = generate(GenSpec("random", (32,), {"seed": 1, **base}))
    b = generate(GenSpec("random", (32,), {"seed": 2, **base}))
    assert not np.array_equal(a.values, b.values)


def test_regime_coverage():
    # at least one spec beyond epsilon > 1 and one non-doubling measure
    spike = GenSpec("spike", (64,), {"height": 5.0, "position": 0})
    assert gr_epsilon(generate(spike), ALL).epsilon > 1.0
    nd = generate(GenSpec("two_level", (32,), {"lo": 1, "hi": 2, "fraction": 0.5},
                          "spike_weight", {"mass": 1e6, "position": 7}))
    w = nd.weights
    ratios = np.maximum(w[1:] / w[:-1], w[:-1] / w[1:])
    assert ratios.max() >= 1e6


def test_epsilon_monotone_in_power_exponent():
    # regression table: measured epsilon non-decreasing in a at fixed N
    eps = [
        gr_epsilon(generate(GenSpec("power", (1024,), {"a": a})), EnumerationMode("dyadic")).epsilon
        for a in np.arange(0.1, 0.95, 0.1)
    ]
    assert all(x <= y + 1e-15 for x, y in zip(eps, eps[1:]))


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        generate(GenSpec("power", (8,), {"a": 1.2}))
    with pytest.raises(ConfigurationError):
        generate(GenSpec("power", (4, 4), {"a": 0.5}))
    with pytest.raises(ConfigurationError):
        generate(GenSpec("nope", (8,), {}))
    with pytest.raises(ConfigurationError):
        generate(GenSpec("spike", (8,), {"height": 1.0, "position": 99}))
    with pytest.raises(ConfigurationError):
        generate(GenSpec("two_level", (8,), {"lo": 1, "hi": 2, "fraction": 0.5},
                         "power_weight", {"b": -1.5}))


def test_spec_json_roundtrip():
    spec = GenSpec("power", (16,), {"a": 0.3}, "power_weight", {"b": 0.5})
    assert GenSpec.from_json(spec.to_json()) == spec
    with pytest.raises(ConfigurationError):
        GenSpec.from_json({"shape": [4]})


def test_2d_spike_and_random():
    wg = generate(GenSpec("spike", (8, 8), {"height": 2.0, "position": 12}))
    assert wg.values.ravel()[12] == 2.0 and wg.values.sum() == 2.0
    wg2 = generate(GenSpec("random", (8, 8), {"seed": 3, "log_sigma": 1.0}))
    res = gr_epsilon(wg2, EnumerationMode("dyadic"))
    assert 0 < res.epsilon < 2
