"""Golden-file pipeline definitions shared by the acceptance test, the
scan-path golden test and the regeneration helper (tests/golden/regenerate.py)."""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import oscgrid
from oscgrid.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
PATH_GOLDEN_DIR = GOLDEN_DIR / "paths"

_SPIKE4_SPEC = json.dumps(
    {"kind": "spike", "shape": [4], "kind_params": {"height": 1, "position": -1}}
)
_POWER05_SPEC = json.dumps({"kind": "power", "shape": [1024], "kind_params": {"a": 0.5}})

PIPELINES = {
    "spike4": [
        ("generate", ["generate", "--spec", _SPIKE4_SPEC, "--out", "spike4.wgrid.json"]),
        ("analyze", ["analyze", "spike4.wgrid.json", "--mode", "all"]),
        ("theorem1", ["theorem1", "spike4.wgrid.json", "--mode", "all", "--direction",
                      "fwd", "--epsilon", "1.5", "--lambda", "1.75"]),
        ("theorem2", ["theorem2", "spike4.wgrid.json", "--mode", "all", "--epsilon",
                      "1.5", "--lambda", "1.75", "--rho", "0.1", "--t", "0.04"]),
        ("rh", ["rh", "spike4.wgrid.json", "--mode", "all", "--p", "2"]),
    ],
    "power05": [
        ("generate", ["generate", "--spec", _POWER05_SPEC, "--out", "power05.wgrid.json"]),
        ("analyze", ["analyze", "power05.wgrid.json", "--mode", "dyadic"]),
        ("theorem1", ["theorem1", "power05.wgrid.json", "--mode", "dyadic", "--direction",
                      "fwd", "--epsilon", "0.52", "--lambda", "1.3"]),
        ("theorem2", ["theorem2", "power05.wgrid.json", "--mode", "dyadic", "--epsilon",
                      "0.52", "--lambda", "1.3", "--rho", "0.17",
                      "--t", "0.05", "0.1", "0.15"]),
        ("rh", ["rh", "power05.wgrid.json", "--mode", "dyadic", "--p", "1.8"]),
    ],
}


def _random_spec(shape, seed):
    return json.dumps({
        "kind": "random", "shape": list(shape), "kind_params": {"seed": seed, "log_sigma": 0.4},
        "measure_kind": "random_weight", "measure_params": {"seed": seed + 1, "log_sigma": 1.0},
    })


def _plotted(step, argv):
    return (step, [*argv, "--plot-dir", f"plots/{step}"])


_R2 = "random2d.wgrid.json"
_R3 = "random3d.wgrid.json"
_R1 = "random1d.wgrid.json"
_R1_CSV = "random1d.csv"

# One pipeline per scan path: the 2D and 3D window kernel under every mode,
# `sample` decoding, the 1D screen on 256 cells, a 2D covering, CSV input
# and every --plot-dir file.  Small generated inputs; no 1e12 atom, whose
# values are known to be wrong.  A "csv" step is not a command: it rewrites
# a 1D wgrid JSON file as the index,weight,value CSV that the loader reads.
PATH_PIPELINES = {
    "random2d": [
        ("generate", ["generate", "--spec", _random_spec((16, 16), 3), "--out", _R2]),
        _plotted("analyze_dyadic", ["analyze", _R2, "--mode", "dyadic"]),
        _plotted("analyze_all", ["analyze", _R2, "--mode", "all"]),
        _plotted("analyze_sample", ["analyze", _R2, "--mode", "sample:300:5"]),
        ("theorem1_fwd", ["theorem1", _R2, "--mode", "all", "--direction", "fwd",
                          "--epsilon", "0.75", "--lambda", "1.2"]),
        ("theorem1_rev", ["theorem1", _R2, "--mode", "all", "--direction", "rev",
                          "--alpha", "0.5", "--beta", "0.35"]),
        _plotted("theorem2", ["theorem2", _R2, "--mode", "all", "--epsilon", "0.75",
                              "--lambda", "1.2", "--rho", "0.3", "--t", "0.05", "0.2", "0.5"]),
        _plotted("rh_auto", ["rh", _R2, "--mode", "all", "--auto", "--B-from-covering"]),
    ],
    "random3d": [
        ("generate", ["generate", "--spec", _random_spec((8, 8, 8), 5), "--out", _R3]),
        _plotted("analyze_all", ["analyze", _R3, "--mode", "all"]),
        _plotted("rh", ["rh", _R3, "--mode", "all", "--p", "2"]),
    ],
    "random1d": [
        ("generate", ["generate", "--spec", _random_spec((256,), 7), "--out", _R1]),
        ("csv", ["csv", _R1, _R1_CSV]),
        *[
            step
            for tag, path in (("json", _R1), ("csv", _R1_CSV))
            for step in (
                _plotted(f"analyze_all_{tag}", ["analyze", path, "--mode", "all"]),
                _plotted(f"analyze_sample_{tag}", ["analyze", path, "--mode", "sample:500:2"]),
                (f"theorem1_fwd_{tag}", ["theorem1", path, "--mode", "all", "--direction", "fwd",
                                         "--epsilon", "0.65", "--lambda", "1.3"]),
            )
        ],
    ],
}


def _write_csv_copy(src: Path, dst: Path) -> None:
    obj = json.loads(src.read_text())
    rows = [f"{i},{w!r},{v!r}" for i, (w, v) in enumerate(zip(obj["weights"], obj["values"]))]
    dst.write_text("\n".join(["index,weight,value", *rows]) + "\n")


def run_path_pipeline(name: str, workdir: Path) -> dict[str, bytes]:
    """Run every step of PATH_PIPELINES[name] in this process, in `workdir`.

    Returns the stdout bytes of each command under its step name, and each
    file it wrote under --plot-dir as "<step>_<file name>".
    """
    out: dict[str, bytes] = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for step, argv in PATH_PIPELINES[name]:
            if argv[0] == "csv":
                _write_csv_copy(Path(argv[1]), Path(argv[2]))
                continue
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
            if code != 0:
                raise RuntimeError(f"{name}/{step} exited {code}: {stderr.getvalue()}")
            out[step] = stdout.getvalue().encode()
            plots = Path("plots") / step
            for csv_file in sorted(plots.glob("*.csv")) if plots.is_dir() else []:
                out[f"{step}_{csv_file.name}"] = csv_file.read_bytes()
    finally:
        os.chdir(cwd)
    return out


def run_pipeline(name: str, workdir: Path) -> dict[str, bytes]:
    """Run every step as a real subprocess; return stdout bytes per step.

    The child gets the root of the ``oscgrid`` package imported here in front
    of ``PYTHONPATH``, so it runs the same code whatever ``workdir`` is and
    whether or not the package is installed.
    """
    package_root = str(Path(oscgrid.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")])
    )
    out: dict[str, bytes] = {}
    for step, argv in PIPELINES[name]:
        proc = subprocess.run(
            [sys.executable, "-m", "oscgrid", *argv],
            cwd=workdir,
            env=env,
            capture_output=True,
            check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"{name}/{step} exited {proc.returncode}: {proc.stderr.decode()}"
            )
        out[step] = proc.stdout
    return out


def normalize(report_bytes: bytes) -> bytes:
    """Mask the tool_version field; everything else must match byte for byte."""
    obj = json.loads(report_bytes)
    obj["tool_version"] = "X"
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode() + b"\n"
