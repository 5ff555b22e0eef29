"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

from __future__ import annotations

import functools
import time

import numpy as np
import pytest

import oscgrid as og
from oscgrid import EnumerationMode
from oscgrid.rearrangement import tail_identity_parts

from conftest import random_float_grid, random_integer_grid
from corpus import corpus
from golden_pipelines import GOLDEN_DIR, PIPELINES, normalize, run_pipeline
from reference import (
    monotone_gr_epsilon_all,
    naive_alpha_profile,
    naive_gr_epsilon,
    naive_rh_constant,
)

ALL = EnumerationMode("all")
DYADIC = EnumerationMode("dyadic")


def criterion(num, description, limit_s):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            start = time.time()
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {num:02d} FAIL: {description}")
                raise
            elapsed = time.time() - start
            verdict = "PASS" if elapsed < limit_s else "FAIL"
            print(f"ACCEPTANCE {num:02d} {verdict}: {description} ({elapsed:.1f}s)")
            assert elapsed < limit_s, f"runtime {elapsed:.1f}s exceeds {limit_s}s"

        return run

    return wrap


@functools.lru_cache(maxsize=None)
def _measured():
    return {label: og.gr_epsilon(wg, mode).epsilon for label, wg, mode in corpus()}


@criterion(1, "half-oscillation identity on 1000 randomized instances", 5)
def test_criterion_01_half_oscillation_identity():
    rng = np.random.default_rng(101)
    for i in range(1000):
        n = int(rng.integers(1, 64))
        ratio = [None, 10.0, 1e3, 1e6][i % 4]
        wg = random_float_grid(rng, (n,), log_sigma=1.5, weight_ratio=ratio)
        side = int(rng.integers(1, n + 1))
        cube = og.Cube((int(rng.integers(0, n - side + 1)),), side)
        stats = og.oscillation(wg, cube)
        assert abs(stats.lower_half - stats.mass * stats.osc / 2) <= 1e-12 * stats.mass * stats.mean


@criterion(2, "level-set bound from measured GR parameter across the corpus", 60)
def test_criterion_02_forward_direction():
    eps_map = _measured()
    for label, wg, mode in corpus():
        eps = eps_map[label]
        assert eps > 0, f"{label}: corpus inputs must be non-constant"
        for j in range(1, 11):
            lam = eps + j * (2 - eps) / 11
            report = og.verify_gr_to_ainfty(wg, eps, float(lam), mode)
            assert report.holds, f"{label} lam={lam}: margin {report.worst_margin}"


@criterion(3, "oscillation bound from measured level certificates across the corpus", 60)
def test_criterion_03_reverse_direction():
    eps_map = _measured()
    for label, wg, mode in corpus():
        eps = eps_map[label]
        for beta in np.arange(0.1, 0.95, 0.1):
            beta = float(beta)
            alpha_star, _ = og.alpha_profile(wg, beta, mode)
            alpha = alpha_star * (1 - 1e-9)
            params = og.LevelParams(alpha=alpha, beta=beta)
            report = og.verify_ainfty_to_gr(wg, params, mode)
            assert report.holds, f"{label} beta={beta}: margin {report.worst_margin}"
            assert eps <= og.ainfty_to_gr_bound(params) + 1e-12, f"{label} beta={beta}"


@criterion(4, "explicit constants reproduced to 1e-15 relative", 1)
def test_criterion_04_explicit_constants():
    def close(x, y):
        assert abs(x - y) <= 1e-15 * abs(y), f"{x} vs {y}"

    params = og.gr_to_ainfty_params(1.0, 1.5)
    close(params.beta, 1 / 3)
    close(params.alpha, 1 / 4)
    close(og.ainfty_to_gr_bound(og.LevelParams(1 / 4, 1 / 3)), 11 / 6)
    close(og.rearrangement_bound(1.0, 1.5, 0.2, 1.0), 18.0)
    close(og.rh_exponent_bound(1.0, 1.5, 0.2, 1.0), 1 + 1 / 17)


@criterion(5, "roundtrip GR parameter strictly dominates on a 100x100 grid", 1)
def test_criterion_05_roundtrip_dominance():
    for eps in np.linspace(0.01, 1.99, 100, endpoint=False):
        for lam in np.linspace(eps + 0.01, 1.99, 100):
            assert og.roundtrip_epsilon(float(eps), float(lam)) > eps


@criterion(6, "rearrangement mass preservation and exact tail identity", 5)
def test_criterion_06_rearrangement_identities():
    rng = np.random.default_rng(106)
    for i in range(200):
        n = int(rng.integers(1, 80))
        wg = random_float_grid(rng, (n,), log_sigma=1.5,
                               weight_ratio=1e6 if i % 3 == 0 else None)
        sf = og.rearrangement(wg)
        exact_integral = float(np.sum(wg.weights * wg.values))
        got = og.average(sf, sf.total_mass) * sf.total_mass
        assert got == pytest.approx(exact_integral, rel=1e-12, abs=1e-300)
        ts = rng.uniform(1e-12, sf.total_mass, size=20)
        star, above_mass, above_integral = tail_identity_parts(sf, ts)
        lhs = ts * og.average(sf, ts)
        rhs = above_integral + (ts - above_mass) * star
        scale = np.maximum(np.abs(lhs), np.abs(rhs))
        assert np.all(np.abs(lhs - rhs) <= 1e-12 * scale + 1e-300)
        w, v = wg.weights.ravel(), wg.values.ravel()
        for t, s, m_above, int_above in zip(ts[:5], star[:5], above_mass[:5], above_integral[:5]):
            assert m_above == pytest.approx(float(np.sum(w[v > s])), rel=1e-12, abs=1e-300)
            assert int_above == pytest.approx(float(np.sum((w * v)[v > s])), rel=1e-12, abs=1e-300)


@criterion(7, "rearrangement-average bound with achieved covering constants", 120)
def test_criterion_07_tail_bound_achieved_constants():
    # oracle cross-check at a size where the exhaustive production scan is
    # affordable: monotone fast oracle vs production, then trust the oracle
    wg512 = og.generate(og.GenSpec("power", (512,), {"a": 0.3}))
    eps_oracle = monotone_gr_epsilon_all(wg512.weights, wg512.values)
    eps_prod = og.gr_epsilon(wg512, ALL).epsilon
    assert eps_oracle == pytest.approx(eps_prod, rel=1e-13)

    cases = []
    for a in (0.2, 0.3, 0.5):
        wg = og.generate(og.GenSpec("power", (4096,), {"a": a}))
        # all-cubes GR parameter via the monotone oracle (values decrease);
        # hair of headroom for the fsum-vs-prefix ulp differences
        eps = monotone_gr_epsilon_all(wg.weights, wg.values) * (1 + 1e-12)
        cases.append((f"power-{a}", wg, eps, DYADIC))
    spike = og.generate(og.GenSpec("spike", (256,), {"height": 2.0, "position": -1}))
    cases.append(("spike", spike, og.gr_epsilon(spike, ALL).epsilon, ALL))
    for seed in (41, 42):
        rand = og.generate(og.GenSpec("random", (256,), {"seed": seed, "log_sigma": 1.5}))
        cases.append((f"random-{seed}", rand, og.gr_epsilon(rand, ALL).epsilon, ALL))

    for label, wg, eps, mode in cases:
        lam = (eps + 2) / 2
        rho = (1 - lam / 2) / 2
        total = wg.total_mass
        ts = tuple(rho * total * i / 10 for i in range(1, 11))
        report = og.verify_rearrangement_bound(
            wg, og.TailBoundParams(eps, lam, rho, ts), mode
        )
        assert report.holds, label
        for check in report.checks:
            assert not check.degenerate, label
            if check.mean_margin is not None:
                assert check.mean_margin >= -1e-12 * check.fstar, (label, check.t)
            if check.osc_margin is not None:
                assert check.osc_margin >= -1e-12 * check.fstar, (label, check.t)


@criterion(8, "reverse Holder exponent keeps the c/eps asymptotic order", 1)
def test_criterion_08_exponent_asymptotic_order():
    target = 1 / 3.5
    for eps in (1e-1, 1e-2, 1e-3, 1e-4):
        scaled = eps * (og.rh_exponent_bound(eps, 1.0, 0.4, 1.0) - 1.0)
        assert 0.9 * target <= scaled <= 1.1 * target


@criterion(9, "empirical RH constant stabilizes below threshold, grows above", 120)
def test_criterion_09_rh_refinement():
    eps = og.gr_epsilon(og.generate(og.GenSpec("power", (8192,), {"a": 0.3})), DYADIC).epsilon
    _, _, p_star = og.optimize_rh_exponent(eps)
    p_conv = min(1.05 * p_star, 3.2)
    assert 1 < p_conv < 1 / 0.3
    sizes = [2**k for k in range(10, 15)]
    c_conv = {}
    c_div = []
    for n in sizes:
        wg = og.generate(og.GenSpec("power", (n,), {"a": 0.3}))
        if n >= 2**13:
            c_conv[n], _ = og.rh_constant(wg, p_conv, ALL)
        c_div.append(og.rh_constant(wg, 3.83, ALL)[0])
    assert abs(c_conv[2**14] / c_conv[2**13] - 1) < 0.05
    assert all(a < b for a, b in zip(c_div, c_div[1:]))


@criterion(10, "prefix-accelerated scans match naive references exactly", 60)
def test_criterion_10_oracle_equivalence():
    rng = np.random.default_rng(110)
    for trial in range(100):
        if trial % 2 == 0:
            shape = (int(rng.integers(1, 65)),)
        else:
            shape = (int(rng.integers(1, 17)),) * 2
        wg = random_integer_grid(rng, shape)
        res = og.gr_epsilon(wg, ALL)
        eps_ref, wit_ref = naive_gr_epsilon(wg, ALL)
        assert res.epsilon == eps_ref and res.witness == wit_ref
        if float(np.sum(wg.weights * wg.values)) > 0:
            got = og.alpha_profile(wg, 0.37, ALL)
            ref = naive_alpha_profile(wg, 0.37, ALL)
            assert got[0] == ref[0] and got[1] == ref[1]
            got_rh = og.rh_constant(wg, 2.0, ALL)
            ref_rh = naive_rh_constant(wg, 2.0, ALL)
            assert got_rh[0] == ref_rh[0] and got_rh[1] == ref_rh[1]


@criterion(11, "CLI pipelines reproduce stored golden reports byte for byte", 30)
def test_criterion_11_cli_golden():
    import tempfile
    from pathlib import Path

    for name in PIPELINES:
        with tempfile.TemporaryDirectory() as workdir:
            outputs = run_pipeline(name, Path(workdir))
        for step, raw in outputs.items():
            stored = (GOLDEN_DIR / f"{name}_{step}.json").read_bytes()
            assert normalize(raw) == normalize(stored), f"{name}/{step} diverges"
