"""The command-line contract on generated grids and flags.

Whatever the input, `main` returns an exit code in {0, 1, 2, 3} and never
raises; on exit 2 or 3 stdout is empty and stderr is one line; on exit 0
or 1 stdout is one canonical JSON line; a flag that the command does not
take, even one that starts another of its flags, is refused with exit 2.
Grids are tiny (1D up to 16 cells as JSON or CSV, 2D up to 4x4 and 3D
up to 3x3x3 as JSON) with weights and values that include 0, subnormals
and 1e308.  A second test reads malformed files, one kind of flaw at a
time: a `dim`, `shape` or list length that does not fit, a nested list,
an integer past float64, a missing CSV row; each exits 2 with one
`error:` line.  Each command draws flags from its own set, and sometimes
one flag that only another command takes; `generate` draws specs, valid
or not.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscgrid.cli import main

# edge numbers, drawn for some grids: zero, subnormals, the smallest normal, 1e308
_EDGES = st.sampled_from([0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1.0, 1e308])
_NUMBERS = st.one_of(_EDGES, st.floats(0, 1e308))
_ORDINARY = st.one_of(st.floats(0.01, 100), st.integers(0, 3).map(float))


def _texts(*texts):
    return st.sampled_from(texts).map(lambda text: [text])


_EPSILON = _texts("0.2", "0.5", "1", "1.5", "1.9", "0", "-1", "nan", "inf", "1e-300")
_LAMBDA = _texts("1.2", "1.5", "1.8", "1.95", "1.999", "0.5", "2", "1e308")
_COMMON = {
    "--mode": _texts("auto", "all", "dyadic", "sample:5:1", "sample:40:2", "sample:0:1", "bogus"),
    "--threads": _texts("1", "2", "0"),
}
_OWN = {
    "analyze": {"--beta-grid": _texts("1", "3", "19", "256", "257", "0"), "--plot-dir": None},
    "theorem1": {
        "--direction": _texts("rev", "rev", "fwd", "up"),
        "--epsilon": _EPSILON, "--lambda": _LAMBDA,
        "--alpha": _texts("0.05", "0.3", "0.5", "0.9", "1", "0", "2"),
        "--beta": _texts("0.05", "0.3", "0.5", "0.9", "1", "0", "2"),
        "--tolerance": _texts("0", "1e-12", "0.1", "-1", "nan"),
    },
    "theorem2": {
        "--epsilon": _texts("0.2", "0.5", "1", "1.19", "0"),
        "--lambda": _texts("1.2", "1.5", "1.95", "1.999"),
        "--rho": _texts("0.0004", "0.01", "0.05", "0.2", "0.3"),
        "--t": st.lists(_texts("1e-300", "0.001", "0.05", "0.5", "1", "-1"), min_size=1,
                        max_size=3).map(lambda ts: [t for (t,) in ts]),
        "--tolerance": _texts("0", "1e-12", "0.1"), "--plot-dir": None,
    },
    "rh": {
        "--p": _texts("1.01", "1.5", "2", "3", "50", "1000", "1", "inf", "nan"),
        "--auto": st.just([]), "--B-from-covering": st.just([]),
        "--delta": _texts("1e-6", "0.5", "0", "2"), "--plot-dir": None,
    },
}
_FLAGS = {**_COMMON, **{flag: s for flags in _OWN.values() for flag, s in flags.items()}}
# generator kinds and measures with the parameters each reads
_KINDS = {"power": ("a",), "spike": ("height", "position"), "two_level": ("lo", "hi", "fraction"),
          "random": ("seed", "log_sigma"), "wave": ()}
_MEASURES = {"uniform": (), "power_weight": ("b",), "spike_weight": ("mass", "position"),
             "random_weight": ("seed", "log_sigma")}
_PARAMS = st.one_of(st.integers(0, 3), st.sampled_from([0.25, 0.5, -1, "x"]), _NUMBERS)
# the flags a command needs to get past its own checks, one set of which is
# often drawn in full
_NEEDED = {
    "analyze": [()],
    "theorem1": [("--epsilon", "--lambda"), ("--direction", "--alpha", "--beta")],
    "theorem2": [("--epsilon", "--lambda", "--rho", "--t")],
    "rh": [("--p",), ("--auto",), ("--auto", "--B-from-covering")],
}


# ways to break a JSON grid's format: each maps (dim, shape, cell count) to
# a field and the value that replaces it
_FLAWS = {
    "dim +1": lambda dim, shape, n: ("dim", dim + 1),
    "dim 0": lambda dim, shape, n: ("dim", 0),
    "dim str": lambda dim, shape, n: ("dim", str(dim)),
    "axis 0": lambda dim, shape, n: ("shape", [0, *shape[1:]]),
    "axis -1": lambda dim, shape, n: ("shape", [*shape[:-1], -1]),
    "axis +1": lambda dim, shape, n: ("shape", [shape[0] + 1, *shape[1:]]),
    "nested shape": lambda dim, shape, n: ("shape", [list(shape)]),
    "weights short": lambda dim, shape, n: ("weights", [1.0] * (n - 1)),
    "values long": lambda dim, shape, n: ("values", [1.0] * (n + 1)),
    "weights nested": lambda dim, shape, n: ("weights", [[1.0]] * n),
    "values past float64": lambda dim, shape, n: ("values", [10**400] * n),
}


_CSV_FLAW = "missing CSV row"


@st.composite
def _grid_files(draw, flaw=None):
    """(file name, text) of a tiny grid, broken by `flaw` (a _FLAWS key or
    _CSV_FLAW) when one is given."""
    shape = draw(st.one_of(st.tuples(st.integers(1, 16)),
                           st.tuples(st.integers(1, 4), st.integers(1, 4)),
                           st.tuples(*[st.integers(1, 3)] * 3)))
    if flaw == _CSV_FLAW:
        shape = shape[:1]
    n = math.prod(shape)
    numbers = draw(st.sampled_from([_ORDINARY, _ORDINARY, _NUMBERS]))
    weights = draw(st.lists(numbers, min_size=n, max_size=n))
    values = draw(st.lists(numbers, min_size=n, max_size=n))
    if flaw == _CSV_FLAW or flaw is None and len(shape) == 1 and draw(st.booleans()):
        rows = [f"{i},{w!r},{v!r}" for i, (w, v) in enumerate(zip(weights, values))]
        if flaw:  # the last index is then out of range, or no row is left
            rows = rows[:-2] + rows[-1:] if n > 1 else []
        return "grid.csv", "\n".join(["index,weight,value", *rows]) + "\n"
    obj = {"dim": len(shape), "shape": list(shape), "weights": weights, "values": values}
    if flaw:
        field, broken = _FLAWS[flaw](len(shape), shape, n)
        obj[field] = broken
    return "grid.json", json.dumps(obj)


@st.composite
def _invocations(draw, flaw=None):
    """(argv with {tmp} for the scratch directory, files to write there,
    whether argv holds a flag that only another command takes); with a
    flaw, the command reads a grid file broken by it."""
    commands = ["analyze", "theorem1", "theorem2", "rh"] + ([] if flaw else ["generate"])
    command = draw(st.sampled_from(commands))
    if command == "generate":
        kind = draw(st.sampled_from(sorted(_KINDS)))
        measure = draw(st.sampled_from(sorted(_MEASURES)))
        spec = {
            "kind": kind, "measure_kind": measure,
            "shape": draw(st.sampled_from([[1], [4], [16], [2, 2], [4, 4], [0], [2, 3], 4])),
            "kind_params": {name: draw(_PARAMS) for name in _KINDS[kind]},
            "measure_params": {name: draw(_PARAMS) for name in _MEASURES[measure]},
        }
        return ["generate", "--spec", json.dumps(spec), "--out", "{tmp}/out.json"], {}, False
    name, text = draw(_grid_files(flaw))
    own = sorted({**_COMMON, **_OWN[command]})
    flags = set(draw(st.sampled_from(_NEEDED[command])))
    flags |= set(draw(st.sets(st.sampled_from(own), max_size=2)))
    foreign = sorted(set(_FLAGS) - set(own))
    extra = draw(st.one_of(*[st.just(())] * 3, st.tuples(st.sampled_from(foreign))))
    argv = [command, "{tmp}/" + name]
    for flag in sorted(flags | set(extra)):
        argv += [flag, *(["{tmp}/plots"] if _FLAGS[flag] is None else draw(_FLAGS[flag]))]
    return argv, {name: text}, bool(extra)


def _run(argv, files) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            (Path(tmp) / name).write_text(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([arg.replace("{tmp}", tmp) for arg in argv])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_invocations())
def test_main_keeps_its_output_contract(invocation):
    argv, files, foreign = invocation
    code, out, err = _run(argv, files)
    assert code in (0, 1, 2, 3)
    assert code == 2 or not foreign  # a flag the command does not take is refused
    if code in (2, 3):
        assert out == ""
        assert err.count("\n") == 1 and err.endswith("\n")
    else:
        canonical = json.dumps(json.loads(out), sort_keys=True, separators=(",", ":"),
                               allow_nan=False)
        assert out == canonical + "\n"


@pytest.mark.parametrize("flaw", [*_FLAWS, _CSV_FLAW])
@settings(max_examples=15, deadline=None, derandomize=True)
@given(data=st.data())
def test_malformed_grid_files_exit_2_with_one_error_line(flaw, data):
    code, out, err = _run(*data.draw(_invocations(flaw))[:2])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
