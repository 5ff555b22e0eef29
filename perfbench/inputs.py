"""Input files of every workload, made from the workload seed.

`specs(workload, seed)` lists the files a workload needs and how each
is made; it is pure and needs only numpy, so the checks and the self-test
can call it without importing oscgrid.  Run as a script, this module is the
benchmark's set-up step: it imports oscgrid, writes every input file of one
workload and prints one JSON line with the set-up time and the time spent
inside `oscgrid.generators.generate`.

    PYTHONPATH=src python3 perfbench/inputs.py --workload oned-all --seed 1 --dir DIR
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse
import json
import sys
from pathlib import Path

import numpy as np

WORKLOADS = ("oned-all", "twod-dyadic", "cover-2d", "sampled")

# the known fault kept in oned-all: fixed data, independent of the seed
ATOM_N = 64
ATOM_MASS = 1e12

# the sampled workload's sample:COUNT:SEED draw; fixed, so every workload
# seed asks for the same cubes and the seed varies only the data
SAMPLE_COUNT = 1000
SAMPLE_SEED = 1


def _random(shape, rng, sigma_v, sigma_w):
    return {
        "kind": "random",
        "shape": list(shape),
        "kind_params": {"seed": int(rng.integers(2**31)), "log_sigma": sigma_v},
        "measure_kind": "random_weight",
        "measure_params": {"seed": int(rng.integers(2**31)), "log_sigma": sigma_w},
    }


def _power(n, rng):
    """Non-increasing cell averages of x^-a on the exact cell masses of x^b dx."""
    return {
        "kind": "power",
        "shape": [n],
        "kind_params": {"a": round(float(rng.uniform(0.3, 0.7)), 6)},
        "measure_kind": "power_weight",
        "measure_params": {"b": round(float(rng.uniform(-0.5, 0.5)), 6)},
    }


def specs(workload: str, seed: int) -> dict:
    """{file name: generator spec}; the spec "atom" stands for the fixed atom grid."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "oned-all":
        return {
            "random1d.json": _random([1024], rng, 1.0, 1.0),
            "power1d.json": _power(1024, rng),
            "atom1d.json": "atom",
        }
    if workload == "twod-dyadic":
        return {"random2d.json": _random([1024, 1024], rng, 1.0, 1.0)}
    if workload == "cover-2d":
        # a small log-sigma keeps the measured epsilon, hence (lambda, rho)
        # and the covering sizes, nearly the same for every seed
        return {"cover2d.json": _random([256, 256], rng, 0.1, 0.1)}
    return {
        "power1d.json": _power(4096, rng),
        "random2d.json": _random([256, 256], rng, 1.0, 1.0),
        "small2d.json": _random([32, 32], rng, 1.0, 1.0),
        "small3d.json": _random([16, 16, 16], rng, 1.0, 1.0),
    }


def atom_arrays() -> tuple[np.ndarray, np.ndarray]:
    """(weights, values): masses ~1e-3 with one 1e12 atom in cell 0, values
    in U(0.5, 1.5); fixed seed 0, so the fault shows on every run."""
    rng = np.random.default_rng(0)
    weights = rng.uniform(0.5, 1.5, ATOM_N) * 1e-3
    values = rng.uniform(0.5, 1.5, ATOM_N)
    weights[0] = ATOM_MASS
    return weights, values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args(argv)

    from oscgrid.generators import GenSpec, generate
    from oscgrid.grids import Grid, WeightedGrid
    from oscgrid.wgrid_io import save_wgrid

    out = Path(args.dir)
    out.mkdir(parents=True, exist_ok=True)
    generate_s = 0.0
    for name, spec in specs(args.workload, args.seed).items():
        if spec == "atom":
            weights, values = atom_arrays()
            wg = WeightedGrid(Grid((ATOM_N,)), weights, values)
        else:
            t = time.perf_counter()
            wg = generate(GenSpec.from_json(spec))
            generate_s += time.perf_counter() - t
        save_wgrid(wg, out / name)
    setup_s = time.perf_counter() - _T0
    print(json.dumps({"setup_s": setup_s, "generate_s": generate_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
