import hashlib
import importlib
import json
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from oscgrid import EnumerationMode, Grid, WeightedGrid, gr_epsilon, optimize_rh_exponent
from oscgrid import cli, grids, scan
from oscgrid.cli import build_parser, main
from oscgrid.wgrid_io import save_wgrid


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_two_cell(tmp_path):
    path = tmp_path / "two.json"
    path.write_text(json.dumps({"dim": 1, "shape": [2], "weights": [1, 1], "values": [0, 2]}))
    return str(path)


def test_analyze_two_cell(tmp_path, capsys):
    path = write_two_cell(tmp_path)
    code, out, err = run_cli(capsys, "analyze", path, "--beta-grid", "5")
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "analyze"
    assert report["payload"]["gr"]["epsilon"] == 1.0
    assert report["input_digest"].startswith("sha256:")
    profile = {row["beta"]: row["alpha_star"] for row in report["payload"]["alpha_profile"]}
    # beta = 0.275 closest to 1/3 in the 5-point grid; every beta gives 0.5
    assert all(v == 0.5 for v in profile.values())
    assert "epsilon" in err


def test_analyze_constant(tmp_path, capsys):
    path = tmp_path / "const.json"
    path.write_text(json.dumps({"dim": 1, "shape": [3], "weights": [1, 1, 1], "values": [2, 2, 2]}))
    code, out, _ = run_cli(capsys, "analyze", str(path), "--beta-grid", "3")
    assert code == 0
    report = json.loads(out)
    assert report["payload"]["gr"]["epsilon"] == 0.0
    assert all(row["alpha_star"] == 1.0 for row in report["payload"]["alpha_profile"])


def test_analyze_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == 2
    assert "json" in err


def test_analyze_names_offending_field(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 1, "shape": [2], "weights": [1, -1], "values": [1, 1]}))
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == 2
    assert err == "error: negative weight at cell 1\n"


def test_theorem1_fwd_refuses_a_beta_that_rounds_to_one(tmp_path, capsys):
    # on constant data the theorem holds with margin mu(Q)/2, but 1 - 5e-17
    # rounds to 1, and the strict level set {f > mean} is then empty
    path = tmp_path / "const.json"
    path.write_text(json.dumps({"dim": 1, "shape": [4], "weights": [0.25] * 4,
                                "values": [2.0] * 4}))
    argv = ["theorem1", str(path), "--direction", "fwd", "--lambda", "1.0", "--epsilon"]
    code, out, err = run_cli(capsys, *argv, "5e-17")
    assert (code, out) == (2, "")
    assert err == ("error: no certificate from epsilon=5e-17 lambda=1.0, as (1 - lambda/2, "
                   "1 - epsilon/lambda): alpha and beta must lie in (0,1), got (0.5, 1.0)\n")
    code, out, _ = run_cli(capsys, *argv, "1e-16")
    assert code == 0
    assert json.loads(out)["payload"]["report"]["worst_margin"] == 0.125


def test_rh_auto_refuses_a_delta_below_float_resolution(tmp_path, capsys):
    path = tmp_path / "eight.json"
    path.write_text(json.dumps({"dim": 1, "shape": [8], "weights": [1] * 8,
                                "values": [1, 2, 3, 4, 5, 6, 7, 9]}))
    code, out, err = run_cli(capsys, "rh", str(path), "--auto", "--delta", "1e-17")
    assert (code, out) == (2, "")
    assert err == "error: need 0 < delta < 1, got 1e-17 (and 1 - delta must round below 1)\n"
    # without --delta, the optimizer's own default
    code, out, _ = run_cli(capsys, "rh", str(path), "--auto")
    auto = json.loads(out)["payload"]["auto"]
    assert code == 0
    assert (auto["lambda_star"], auto["rho_star"], auto["p_star"]) == optimize_rh_exponent(
        auto["measured_epsilon"])


def test_rh_auto_with_the_covering_overlap_optimizes_once(tmp_path, capsys, monkeypatch):
    # lambda* and rho* do not depend on the overlap: p* is the exponent bound at them
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return optimize_rh_exponent(*args, **kwargs)

    monkeypatch.setattr(cli, "optimize_rh_exponent", counted)
    rng = np.random.default_rng(3)
    path = str(tmp_path / "g.json")
    values = np.exp(0.5 * rng.standard_normal(64))  # a covering of overlap 4
    save_wgrid(WeightedGrid(Grid((64,)), np.ones(64), values), path)
    code, out, _ = run_cli(capsys, "rh", path, "--auto", "--B-from-covering")
    auto = json.loads(out)["payload"]["auto"]
    assert code == 0 and len(calls) == 1 and auto["overlap"] > 1
    assert (auto["lambda_star"], auto["rho_star"], auto["p_star"]) == optimize_rh_exponent(
        auto["measured_epsilon"], auto["overlap"])


def test_analyze_plot_dir(tmp_path, capsys):
    path = write_two_cell(tmp_path)
    plot = tmp_path / "plots"
    code, _, _ = run_cli(capsys, "analyze", path, "--plot-dir", str(plot), "--beta-grid", "3")
    assert code == 0
    assert (plot / "rearrangement.csv").read_text().startswith("t,level\n")
    assert (plot / "alpha_profile.csv").exists()
    curve = (plot / "star_curve.csv").read_text().splitlines()
    assert curve[0] == "t,fstar,fstarstar"
    assert len(curve) == 257


def test_theorem1_fwd(tmp_path, capsys):
    path = write_two_cell(tmp_path)
    code, out, _ = run_cli(
        capsys, "theorem1", path, "--direction", "fwd", "--epsilon", "1", "--lambda", "1.5"
    )
    assert code == 0
    report = json.loads(out)
    assert report["payload"]["report"]["holds"]
    assert report["payload"]["report"]["worst_margin"] == 0.5


def test_theorem1_reads_a_valid_tolerance(tmp_path, capsys):
    path = write_two_cell(tmp_path)
    code, out, _ = run_cli(
        capsys, "theorem1", path, "--epsilon", "1", "--lambda", "1.5", "--tolerance", "0"
    )
    assert code == 0
    assert json.loads(out)["payload"]["report"]["tolerance"] == 0.0
    assert '"tolerance":0.0' in out


def test_theorem1_fwd_usage_error(tmp_path, capsys):
    path = write_two_cell(tmp_path)
    code, _, err = run_cli(
        capsys, "theorem1", path, "--direction", "fwd", "--epsilon", "1.5", "--lambda", "1.0"
    )
    assert code == 2


def test_theorem1_fwd_precondition(tmp_path, capsys):
    path = write_two_cell(tmp_path)
    code, _, err = run_cli(
        capsys, "theorem1", path, "--direction", "fwd", "--epsilon", "0.5", "--lambda", "1.0"
    )
    assert code == 3
    assert "not in GR" in err


@pytest.mark.parametrize("shape, mode", [((24,), "all"), ((8, 8), "dyadic"), ((8, 8), "sample:50:1")])
def test_theorem1_fwd_below_the_measured_epsilon(tmp_path, capsys, shape, mode):
    # the precondition comes from the same walk as the margin, and fails
    # with the message of a separate epsilon scan
    rng = np.random.default_rng(7)
    wg = WeightedGrid(Grid(shape), *np.exp(rng.standard_normal((2, *shape))))
    path = str(tmp_path / "g.json")
    save_wgrid(wg, path)
    gr = gr_epsilon(wg, EnumerationMode.parse(mode))
    eps = gr.epsilon / 2
    code, out, err = run_cli(capsys, "theorem1", path, "--mode", mode, "--direction", "fwd",
                             "--epsilon", repr(eps), "--lambda", "1.9")
    assert (code, out) == (3, "")
    assert err == (f"precondition failure: input not in GR({eps}): measured epsilon "
                   f"{gr.epsilon} on cube {gr.witness}\n")


@pytest.mark.parametrize("argv", [
    ["analyze"],
    ["theorem1", "--direction", "fwd", "--epsilon", "1.9", "--lambda", "1.95"],
    ["theorem1", "--direction", "rev", "--alpha", "0.01", "--beta", "0.5"],
])
@pytest.mark.parametrize("mode", ["all", "sample:40:3"])
def test_each_command_walks_the_family_once(tmp_path, capsys, monkeypatch, argv, mode):
    walks = []
    batches = scan.iter_origin_batches

    def counted(*args, **kwargs):
        walks.append(args[1])
        return batches(*args, **kwargs)

    monkeypatch.setattr(scan, "iter_origin_batches", counted)
    wg = WeightedGrid(Grid((12,)), np.ones(12), np.arange(1.0, 13.0))
    path = str(tmp_path / "g.json")
    save_wgrid(wg, path)
    code, _, _ = run_cli(capsys, argv[0], path, "--mode", mode, *argv[1:])
    assert code == 0
    assert walks == [EnumerationMode.parse(mode)]


def test_theorem1_rev(tmp_path, capsys):
    path = write_two_cell(tmp_path)
    code, out, _ = run_cli(
        capsys, "theorem1", path, "--direction", "rev", "--alpha", "0.4", "--beta", "0.333"
    )
    assert code == 0


def test_theorem1_rev_precondition_names_cube(tmp_path, capsys):
    path = write_two_cell(tmp_path)
    code, _, err = run_cli(
        capsys, "theorem1", path, "--direction", "rev", "--alpha", "0.6", "--beta", "0.333"
    )
    assert code == 3
    assert "origin" in err or "cube" in err.lower()


def test_theorem2(tmp_path, capsys):
    path = write_two_cell(tmp_path)
    code, out, _ = run_cli(
        capsys, "theorem2", path,
        "--epsilon", "1", "--lambda", "1.5", "--rho", "0.2", "--t", "0.2", "0.4",
    )
    assert code == 0
    report = json.loads(out)
    assert report["payload"]["holds"]
    assert len(report["payload"]["per_t"]) == 2


def test_theorem2_t_too_large(tmp_path, capsys):
    path = write_two_cell(tmp_path)
    code, _, _ = run_cli(
        capsys, "theorem2", path,
        "--epsilon", "1", "--lambda", "1.5", "--rho", "0.2", "--t", "0.5",
    )
    assert code == 2


def test_rh_two_cell(tmp_path, capsys):
    path = write_two_cell(tmp_path)
    code, out, _ = run_cli(capsys, "rh", path, "--p", "2")
    assert code == 0
    report = json.loads(out)
    assert report["payload"]["c_hat"] == pytest.approx(np.sqrt(2), rel=1e-15)


def test_rh_bad_p(tmp_path, capsys):
    path = write_two_cell(tmp_path)
    for p in ("0.9", "inf"):
        code, _, _ = run_cli(capsys, "rh", path, "--p", p)
        assert code == 2


def test_rh_auto(tmp_path, capsys):
    path = write_two_cell(tmp_path)
    code, out, _ = run_cli(capsys, "rh", path, "--auto")
    assert code == 0
    report = json.loads(out)
    assert report["payload"]["auto"]["p_star"] > 1
    assert np.isfinite(report["payload"]["c_hat"])


def test_rh_overlap_from_covering(tmp_path, capsys):
    path = write_two_cell(tmp_path)
    code, out, _ = run_cli(capsys, "rh", path, "--auto", "--B-from-covering")
    assert code == 0
    report = json.loads(out)
    assert report["payload"]["auto"]["overlap"] >= 1
    assert "covering" in report["payload"]
    code, out, _ = run_cli(capsys, "rh", path, "--auto", "--delta", "0.01")
    payload = json.loads(out)["payload"]
    assert code == 0 and payload["p"] == payload["auto"]["p_star"]
    for flags, message in [
        (["--B-from-covering", "--p", "2"], "--B-from-covering needs --auto"),
        (["--p", "2", "--delta", "7"], "--delta needs --auto"),
        (["--p", "2", "--delta", "1e-6"], "--delta needs --auto"),
        (["--auto", "--p", "2"], "--p conflicts with --auto"),
    ]:
        code, out, err = run_cli(capsys, "rh", path, *flags)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
    # a spike's tail above fstar(rho * mu(Q_0)) = 0 has mass 1/16 < rho: the empty covering
    values = [0.0] * 16
    values[3] = 1.0
    spike = tmp_path / "spike.json"
    spike.write_text(json.dumps({"dim": 1, "shape": [16], "weights": [1 / 16] * 16,
                                 "values": values}))
    code, out, _ = run_cli(capsys, "rh", str(spike), "--auto", "--B-from-covering")
    assert code == 0
    assert '"covering":{"n_cubes":0,"overlap":1,"rho_hi":null,"rho_lo":null}' in out
    assert json.loads(out)["payload"]["auto"]["overlap"] == 1.0


def test_covering_commands_reject_nonsquare_grid_before_the_epsilon_scan(
    tmp_path, capsys, monkeypatch
):
    """Exit 2 for the shape, before the scan could end in exit 3: these
    values are far outside GR(0.1)."""
    def no_scan(*args):
        raise AssertionError("the epsilon scan ran first")

    monkeypatch.setattr("oscgrid.cli.gr_epsilon", no_scan)
    monkeypatch.setattr("oscgrid.holder.gr_epsilon", no_scan)
    monkeypatch.setattr(importlib.import_module("oscgrid.oscillation"), "gr_epsilon", no_scan)
    path = tmp_path / "wide.json"
    values = [0, 0, 0, 9, 0, 0, 0, 0]
    path.write_text(json.dumps({"dim": 2, "shape": [2, 4], "weights": [1] * 8, "values": values}))
    code, _, err = run_cli(capsys, "rh", str(path), "--auto", "--B-from-covering")
    assert code == 2 and "equal-sided" in err
    code, _, err = run_cli(
        capsys, "theorem2", str(path), "--epsilon", "0.1", "--lambda", "1.5",
        "--rho", "0.2", "--t", "0.1",
    )
    assert code == 2 and "equal-sided" in err


def test_generate_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "spike.json"
    spec = json.dumps({"kind": "spike", "shape": [4], "kind_params": {"height": 1, "position": -1}})
    code, out, _ = run_cli(capsys, "generate", "--spec", spec, "--out", str(out_path))
    assert code == 0
    gen_report = json.loads(out)
    assert gen_report["payload"]["digest"].startswith("sha256:")

    code, out, _ = run_cli(capsys, "analyze", str(out_path), "--beta-grid", "3")
    assert code == 0
    report = json.loads(out)
    assert report["payload"]["gr"]["epsilon"] == 1.5
    assert report["input_digest"] == gen_report["payload"]["digest"]


def test_generate_power_value(tmp_path, capsys):
    out_path = tmp_path / "pow.json"
    spec = json.dumps({"kind": "power", "shape": [4], "kind_params": {"a": 0.5}})
    code, _, _ = run_cli(capsys, "generate", "--spec", spec, "--out", str(out_path))
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["values"][0] == pytest.approx(4.0, rel=1e-14)


def test_generate_invalid_spec(tmp_path, capsys):
    out_path = tmp_path / "x.json"
    huge = "1" + "0" * 400  # a JSON integer past float64
    for kind, params, shape, field in [
        ("power", '{"a": 1.2}', "[4]", None),
        ("random", '{"seed": 1, "log_sigma": "a"}', "[4]", None),
        ("random", '{"seed": -1, "log_sigma": 1}', "[4]", None),
        ("spike", '{"height": 1e400, "position": 0}', "[4]", None),
        # booleans, strings and non-integral numbers are not read as numbers
        ("spike", '{"height": true, "position": 0}', "[4]", "height"),
        ("spike", '{"height": "2", "position": 0}', "[4]", "height"),
        ("random", '{"seed": true, "log_sigma": 1}', "[4]", "seed"),
        ("spike", '{"height": 1, "position": 1.9}', "[4]", "position"),
        ("spike", '{"height": 1, "position": 0}', "[4.7]", "shape"),
        ("spike", '{"height": 1, "position": 0}', '["4"]', "shape"),
        ("spike", '{"height": 1, "position": 0}', "[true, 4]", "shape"),
        ("spike", f'{{"height": {huge}, "position": 0}}', "[4]", "height"),
        ("spike", f'{{"height": 1, "position": {huge}}}', "[4]", "position"),
    ]:
        spec = f'{{"kind": "{kind}", "shape": {shape}, "kind_params": {params}}}'
        code, out, err = run_cli(capsys, "generate", "--spec", spec, "--out", str(out_path))
        assert code == 2 and not out_path.exists()
        if field is not None:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1
            assert field in err


def test_reports_byte_stable(tmp_path, capsys):
    path = write_two_cell(tmp_path)
    _, out1, _ = run_cli(capsys, "analyze", path, "--beta-grid", "7")
    _, out2, _ = run_cli(capsys, "analyze", path, "--beta-grid", "7")
    assert out1 == out2
    _, out3, _ = run_cli(capsys, "analyze", path, "--beta-grid", "7", "--threads", "4")
    assert out1 == out3


def test_mode_flag(tmp_path, capsys):
    path = write_two_cell(tmp_path)
    code, out, _ = run_cli(capsys, "analyze", path, "--mode", "sample:20:3", "--beta-grid", "3")
    assert code == 0
    assert json.loads(out)["mode"] == {"tag": "sample", "count": 20, "seed": 3}
    code, _, _ = run_cli(capsys, "analyze", path, "--mode", "bogus")
    assert code == 2


def test_rh_non_finite_c_hat_is_a_domain_error(tmp_path, capsys):
    path = tmp_path / "wild.json"
    spec = json.dumps({"kind": "random", "shape": [64], "kind_params": {"seed": 1, "log_sigma": 3}})
    assert run_cli(capsys, "generate", "--spec", spec, "--out", str(path))[0] == 0
    code, out, err = run_cli(capsys, "rh", str(path), "--p", "1000")
    assert code == 2
    assert out == ""
    assert err.startswith("error: c_hat is not finite") and err.count("\n") == 1


def test_rh_underflowing_power_sums_are_a_domain_error(tmp_path, capsys):
    # v about 2^-1000: v^p underflows to 0 where w*v^p would be about 1e-600
    rng = np.random.default_rng(3)
    weights = np.exp(rng.standard_normal(64))
    weights /= weights.sum()
    values = np.exp(rng.standard_normal(64))
    plain, tiny = tmp_path / "plain.json", tmp_path / "tiny.json"
    save_wgrid(WeightedGrid(Grid((64,)), weights, values), plain)
    save_wgrid(WeightedGrid(Grid((64,)), weights, values * 2.0**-1000), tiny)
    code, out, _ = run_cli(capsys, "rh", str(plain), "--mode", "all", "--p", "2")
    assert code == 0 and round(json.loads(out)["payload"]["c_hat"], 5) == 2.02607
    # near p = 1 (1.0332, and the p that --auto chooses) w*v^p is subnormal, not
    # zero, and keeps only a few bits: c_hat read 1.1e-11 off
    for flags in (["--p", "2"], ["--p", "1.5"], ["--p", "1.0332"], ["--auto"]):
        code, out, err = run_cli(capsys, "rh", str(tiny), "--mode", "all", *flags)
        p = float(flags[1]) if flags[0] == "--p" else 1.0331684430219679
        assert code == 2
        assert out == ""
        assert err == f"error: c_hat is not measurable at p={p}: w*v^p underflows on cell (0,)\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv", [
    ["analyze"],
    ["theorem2", "--epsilon", "0.2", "--lambda", "1.2", "--rho", "0.01", "--t", "1e-300"],
    ["rh", "--p", "2"],
])
def test_weights_whose_total_overflows_are_one_error_line(tmp_path, capsys, argv):
    # Sum w = 2e308: no float warning on the way to the refusal
    path = tmp_path / "heavy.json"
    path.write_text(json.dumps({"dim": 2, "shape": [2, 2], "weights": [0, 0, 1e308, 1e308],
                                "values": [0, 0, 0, 0]}))
    code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
    assert code == 2
    assert out == ""
    assert err == "error: grid totals overflow float64: Sum w = inf, 2*Sum w*v = 0.0\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_rh_reads_no_v_to_the_p_on_cells_without_mass(tmp_path, capsys):
    # 1462495^50 overflows, but on a cell of weight 0, so every Sum w*v^p is finite
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"dim": 1, "shape": [4], "weights": [0, 1, 1, 1],
                                "values": [1462495.0, 1, 2, 3]}))
    code, out, err = run_cli(capsys, "rh", str(path), "--p", "50")
    assert code == 0 and err.count("\n") == 1
    payload = json.loads(out)["payload"]
    assert payload["c_hat"] == pytest.approx(((1 + 2**50 + 3**50) / 3) ** (1 / 50) / 2, rel=1e-14)
    assert payload["witness"] == {"origin": [1], "side": 3}


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_rh_ratio_past_float64_is_one_error_line(tmp_path, capsys):
    # the 2x2 cube's mean is about 1e-315, so its ratio, about mean^(1/p - 1), is past float64
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"dim": 2, "shape": [2, 3], "weights": [0, 0, 0, 0, 1e-12, 1e303],
                                "values": [0, 0, 0, 0, 1, 0]}))
    code, out, err = run_cli(capsys, "rh", str(path), "--p", "50")
    assert code == 2 and out == ""
    assert err == ("error: c_hat is not finite at p=50.0: Sum w*v^p or the ratio overflows "
                   "on cube Cube(origin=(0, 1), side=2)\n")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_margins_past_float64_raise_no_warning(tmp_path, capsys):
    # cube [0] has mean 1e308, so its rev margin 1.9 * mean is past float64 and never the worst
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"dim": 1, "shape": [2], "weights": [5e-324, 1],
                                "values": [1e308, 1]}))
    code, out, err = run_cli(capsys, "theorem1", str(path), "--direction", "rev",
                             "--alpha", "0.1", "--beta", "0.5")
    assert code == 0 and err.count("\n") == 1
    report = json.loads(out)["payload"]["report"]
    assert report["worst_margin"] == 1.9 and report["witness"] == {"origin": [1], "side": 1}


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_screen_brackets_on_subnormal_masses_raise_no_warning(tmp_path, capsys):
    # the screen's error radius over a mass of 5e-324 brackets the ratio with inf
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"dim": 1, "shape": [3], "weights": [0, 5e-324, 1],
                                "values": [0, 1, 0]}))
    code, out, err = run_cli(capsys, "analyze", str(path), "--beta-grid", "2")
    assert code == 0 and err.count("\n") == 1
    assert json.loads(out)["payload"]["gr"]["epsilon"] == 2.0
    path.write_text(json.dumps({"dim": 1, "shape": [2], "weights": [5e-324, 1], "values": [0, 0]}))
    code, out, err = run_cli(capsys, "analyze", str(path), "--beta-grid", "2")
    assert code == 2 and out == ""
    assert err == "error: empty measure: no cube has positive mass and positive mean\n"


def test_input_is_read_once(tmp_path, capsys, monkeypatch):
    # the report's digest is the sha256 of the bytes the loader parsed
    def second_read(*args):
        raise AssertionError("the input was read again for its digest")

    monkeypatch.setattr("oscgrid.cli.file_digest", second_read)
    for name, text in [("g.json", json.dumps({"dim": 1, "shape": [2], "weights": [1, 1],
                                              "values": [0, 2]})),
                       ("g.csv", "index,weight,value\r\n0,1,0\r\n1,1,2\r\n")]:
        path = tmp_path / name
        path.write_bytes(text.encode())
        code, out, _ = run_cli(capsys, "analyze", str(path))
        assert code == 0
        digest = "sha256:" + hashlib.sha256(text.encode()).hexdigest()
        assert json.loads(out)["input_digest"] == digest


def test_input_that_is_not_utf8_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_bytes(b'{"dim": 1, "shape": [1], "weights": [1], "values": [1], "x": "\xff"}')
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: 'utf-8' codec can't decode byte 0xff") and err.count("\n") == 1


def test_csv_without_header_line_is_a_usage_error(tmp_path, capsys):
    # the first line used to be dropped unread: this file analyzed as one cell
    path = tmp_path / "g.csv"
    path.write_text("1,1,5\n0,1,2\n")
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert (code, out) == (2, "")
    assert err == "error: csv: missing header line\n"


@pytest.mark.parametrize("count", [str(2**24 + 1), "3000000000", "99999999999999999999999"])
def test_sample_count_beyond_the_limit_is_a_usage_error(tmp_path, capsys, monkeypatch, count):
    def no_draw(*args):
        raise AssertionError("drew the sample before validating its count")

    monkeypatch.setattr(grids, "sample_positions", no_draw)
    path = write_two_cell(tmp_path)
    code, out, err = run_cli(capsys, "analyze", path, "--mode", f"sample:{count}:1")
    assert (code, out) == (2, "")
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and errors[0].endswith("sample count over the limit of 16777216")


def test_unreadable_input_is_a_usage_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "analyze", str(tmp_path))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    code, _, err = run_cli(capsys, "analyze", str(tmp_path / "missing.json"))
    assert code == 2
    assert err.startswith("error: ")


@pytest.mark.parametrize("count", ["0", "-1", "x"])
def test_threads_must_be_positive(tmp_path, capsys, count):
    path = write_two_cell(tmp_path)
    code, out, err = run_cli(capsys, "analyze", path, "--threads", count)
    assert code == 2
    assert out == ""
    assert "--threads" in err


@pytest.mark.parametrize("argv", [
    ["analyze"],
    ["theorem1", "--direction", "fwd", "--epsilon", "0.5", "--lambda", "1"],
    ["theorem1", "--direction", "rev", "--alpha", "0.1", "--beta", "0.5"],
])
def test_overflowing_grid_sums_are_a_domain_error(tmp_path, capsys, argv):
    # Sum w*v is about 3.6e310: every measured constant would be nan or inf
    path = tmp_path / "huge.json"
    values = [k * 1e299 for k in range(1, 9)]
    path.write_text(json.dumps({"dim": 1, "shape": [8], "weights": [1e10] * 8, "values": values}))
    code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
    assert code == 2
    assert out == ""
    assert err.startswith("error: grid totals overflow float64") and err.count("\n") == 1


def test_theorem2_names_the_family_a_covering_cube_is_missing_from(tmp_path, capsys):
    # the dyadic epsilon does not bound osc/mean on the concentric covering cubes
    values = np.exp(0.3 * np.random.default_rng(2).standard_normal(16))
    wg = WeightedGrid(Grid((16,)), np.full(16, 1 / 16), values)
    path = str(tmp_path / "g.json")
    save_wgrid(wg, path)
    eps = gr_epsilon(wg, EnumerationMode("dyadic")).epsilon
    assert round(eps, 5) == 0.29521
    lam, rho, _ = optimize_rh_exponent(eps)
    code, out, err = run_cli(capsys, "theorem2", path, "--mode", "dyadic", "--epsilon",
                             repr(eps), "--lambda", repr(lam), "--rho", repr(rho),
                             "--t", repr(rho * wg.total_mass))
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1
    assert "on covering cube Cube(origin=(2,), side=5): osc/mean = 0.358287" in err
    assert "the largest over the 4 covering cubes" in err and "is 0.358287" in err
    assert "measured over the dyadic family, which does not contain the covering cubes" in err


_USAGE_ERRORS = [
    *[(argv, f"argument {argv[-2]}: ") for argv in [
        ["analyze", "--beta-grid", "0"],
        ["analyze", "--beta-grid", "-1"],
        ["theorem1", "--epsilon", "1.5", "--lambda", "1.8", "--tolerance", "nan"],
        ["theorem1", "--epsilon", "1.5", "--lambda", "1.8", "--tolerance", "inf"],
        ["theorem1", "--epsilon", "1.5", "--lambda", "1.8", "--tolerance", "-1"],
        ["analyze", "--mode", "sample:5:-1"],
        ["analyze", "--beta-grid", "257"],
    ]],
    # flags a command does not read
    *[(argv, f"unrecognized arguments: {' '.join(argv[-2:])}") for argv in [
        ["generate", "--mode", "all"],
        ["generate", "--threads", "1"],
        ["generate", "--plot-dir", "d"],
        ["generate", "--tolerance", "1e-9"],
        ["analyze", "--tolerance", "1e-9"],
        ["rh", "--p", "2", "--tolerance", "1e-9"],
        ["theorem1", "--epsilon", "1.5", "--lambda", "1.8", "--plot-dir", "d"],
    ]],
    # theorem1 reads one direction's pair of flags
    (["theorem1", "--epsilon", "1.5", "--lambda", "1.8", "--alpha", "0.5"],
     "--alpha needs --direction rev"),
    (["theorem1", "--epsilon", "1.5", "--lambda", "1.8", "--beta", "0.5"],
     "--beta needs --direction rev"),
    (["theorem1", "--direction", "rev", "--alpha", "0.5", "--beta", "0.5", "--epsilon", "1"],
     "--epsilon needs --direction fwd"),
    (["theorem1", "--direction", "rev", "--alpha", "0.5", "--beta", "0.5", "--lambda", "1"],
     "--lambda needs --direction fwd"),
    # whole flag names only: no abbreviation of the command's own flags
    (["analyze", "--beta", "0.5"], "unrecognized arguments: --beta 0.5"),
    (["theorem1", "--epsilon", "1.5", "--lambda", "1.8", "--tol", "0.1"],
     "unrecognized arguments: --tol 0.1"),
    # refusals past the parser
    (["theorem1", "--epsilon", "1.5"], "forward direction needs --epsilon and --lambda"),
    (["theorem1", "--direction", "rev", "--alpha", "0.5"],
     "reverse direction needs --alpha and --beta"),
    (["rh"], "need --p or --auto"),
    (["rh", "const.json", "--auto"], "measured epsilon is 0 (constant data)"),
    (["rh", "--auto", "--delta", "2"], "need 0 < delta < 1, got 2.0"),
    (["analyze", "zero.json"], "error: zero total mass"),
    (["analyze", "list.json"], "json: top-level object expected"),
    (["analyze", "shape-int.json"], "shape: 'int' object is not iterable"),
    (["analyze", "shape-empty.json"], "grid needs at least one axis"),
    (["analyze", "shape-zero.json"], "every axis needs at least one cell"),
    (["generate", "--spec", "@missing.json"], "No such file or directory: 'missing.json'"),
    (["generate", "--spec", "{bad"], "spec json: "),
    (["theorem1", "--epsilon", "1.5", "--lambda", "1.8", "--tolerance", "abc"],
     "argument --tolerance: need a finite tolerance >= 0, got 'abc'"),
    (["generate", "--spec", '{"kind": "spike", "shape": [4], "kind_params": {"height": 1}}'],
     "spike needs parameter 'position'"),
    (["generate", "--spec", '{"kind": "spike", "shape": [4], "kind_params": {"height": 1, '
      '"position": 0}, "measure_kind": "bogus"}'], "unknown measure kind 'bogus'"),
    (["analyze", "shape-4d.json"], "no default enumeration mode for shape (3, 3, 3, 3)"),
    (["analyze", "shape-4d.json", "--mode", "all"],
     "exhaustive enumeration is limited to dimensions 1..3"),
    (["analyze", "negative.json"], "negative weight at cell 19; ...and 2 more weight violations"),
    (["analyze", "shape-1111.json"], "shape (1, 1, 1, 1) has prefix tables over 8 times"),
]

# grid files of their own for the refusals above
_INPUTS = {
    "const.json": {"dim": 1, "shape": [3], "weights": [1, 1, 1], "values": [2, 2, 2]},
    "zero.json": {"dim": 1, "shape": [2], "weights": [0, 0], "values": [1, 2]},
    "list.json": [1, 2],
    "shape-int.json": {"dim": 1, "shape": 5, "weights": [1] * 5, "values": [1] * 5},
    "shape-empty.json": {"dim": 0, "shape": [], "weights": [], "values": []},
    "shape-zero.json": {"dim": 1, "shape": [0], "weights": [], "values": []},
    "shape-4d.json": {"dim": 4, "shape": [3] * 4, "weights": [1] * 81, "values": [1] * 81},
    "negative.json": {"dim": 1, "shape": [22], "weights": [-1] * 22, "values": [1] * 22},
    "shape-1111.json": {"dim": 4, "shape": [1, 1, 1, 1], "weights": [1], "values": [1]},
}


@pytest.mark.parametrize(
    "argv, message", _USAGE_ERRORS, ids=[f"argv{i}" for i in range(len(_USAGE_ERRORS))]
)
def test_out_of_range_counts_and_tolerances_are_usage_errors(tmp_path, capsys, argv, message):
    if argv[0] == "generate":
        spec = json.dumps({"kind": "spike", "shape": [4],
                           "kind_params": {"height": 1, "position": 0}})
        head = ["generate", "--spec", spec, "--out", str(tmp_path / "out.json")]
    elif argv[1:2] and argv[1] in _INPUTS:
        path = tmp_path / argv[1]
        path.write_text(json.dumps(_INPUTS[argv[1]]))
        head, argv = [argv[0], str(path)], argv[1:]
    else:
        head = [argv[0], write_two_cell(tmp_path)]
    code, out, err = run_cli(capsys, *head, *argv[1:])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("where", ["analyze", "analyze-values", "generate"])
def test_json_nested_too_deep_is_one_error_line(tmp_path, capsys, where):
    # the decoder's recursion limit, reached by 100,000 nested lists
    deep = "[" * 100_000 + "]" * 100_000
    path = tmp_path / "deep.json"
    if where == "analyze-values":
        deep = '{"dim": 1, "shape": [2], "weights": [1, 1], "values": ' + deep + "}"
    path.write_text(deep)
    argv = ["generate", "--spec", f"@{path}", "--out", str(tmp_path / "out.json")]
    code, out, err = run_cli(capsys, *(argv if where == "generate" else ["analyze", str(path)]))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "json: maximum recursion depth exceeded" in err


@pytest.mark.parametrize("argv", [
    ["generate", "--spec", '{"kind": "random", "shape": [1099511627776], '
     '"kind_params": {"seed": 1, "log_sigma": 1}}'],
    ["analyze"],
])
def test_out_of_memory_is_one_error_line(tmp_path, capsys, monkeypatch, argv):
    # numpy's MemoryError, raised where the allocation would be: nothing is allocated
    message = "Unable to allocate 8.00 TiB for an array with shape (1099511627776,)"

    def no_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "generate", no_memory)
    monkeypatch.setattr(cli, "epsilon_and_profile", no_memory)
    out_path = tmp_path / "out.json"
    tail = ["--out", str(out_path)] if argv[0] == "generate" else [write_two_cell(tmp_path)]
    code, out, err = run_cli(capsys, *argv, *tail)
    assert (code, out, err) == (2, "", f"error: out of memory: {message}\n")
    assert not (tmp_path / "out.json").exists()


def test_every_benchmark_command_line_parses():
    """A flag dropped from a command must not break the benchmark's command lists."""
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    sys.path.insert(0, str(bench))
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(str(bench))
    params = {"rev_alpha": 0.1, "rev_beta": 0.5, "rho": 0.2, "total_mass": 1.0,
              "epsilon": 0.5, "lambda": 1.2}
    report = {"payload": {"gr": {"epsilon": 0.5},
                          "alpha_profile": [{"alpha_star": 0.2, "beta": 0.5}] * 2}}
    parser = build_parser()
    commands = 0
    for workload in ("oned-all", "twod-dyadic", "cover-2d", "sampled"):
        for step in workloads.steps(workload, "in", params):
            args = parser.parse_args(step.argv(defaultdict(lambda: report)))
            commands += 1
            if args.command == "theorem1":  # only the direction's own pair
                fwd = args.direction == "fwd"
                other = (args.alpha, args.beta) if fwd else (args.epsilon, args.lam)
                assert other == (None, None), step.name
    assert commands == 18


def test_benchmark_tracer_finds_every_grids_function():
    """The benchmark's tracer wraps grids functions by name; one it cannot
    find reads 0 in every per-layer metric it feeds.  It runs in a child
    process because installing the tracer rebinds module attributes for
    good."""
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    code = "from tracing import Tracer; print(*Tracer().install().missing)"
    proc = subprocess.run([sys.executable, "-c", code], cwd=bench, env=_child_env(),
                          capture_output=True, text=True, check=True)
    assert [name for name in proc.stdout.split() if name.startswith("oscgrid.grids.")] == []


def _child_env() -> dict:
    """os.environ with the root of the imported oscgrid first on PYTHONPATH,
    so a child process runs the same code."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(grids.__file__).resolve().parents[1]), env.get("PYTHONPATH")])
    )
    return env


def test_both_module_entry_points_print_the_same_report(tmp_path):
    """`python -m oscgrid.cli` runs cli.py's own __main__ block, a second
    entry point beside `python -m oscgrid`.  Without that block it would
    exit 0 and print nothing, and exit 0 means "the inequality holds"."""
    path = tmp_path / "four.json"
    path.write_text(json.dumps(
        {"dim": 1, "shape": [4], "weights": [1, 2, 1, 4], "values": [3, 1, 4, 1]}
    ))
    runs = [
        subprocess.run([sys.executable, "-m", module, "analyze", str(path), "--mode", "all"],
                       env=_child_env(), capture_output=True, check=False)
        for module in ("oscgrid.cli", "oscgrid")
    ]
    assert [run.returncode for run in runs] == [0, 0]
    assert runs[0].stdout == runs[1].stdout
    assert json.loads(runs[0].stdout)["command"] == "analyze"


def test_non_finite_report_value_is_a_usage_error(tmp_path, capsys):
    # rho_lo of the covering is about 1e-309, so lambda/rho_lo overflows
    weights, values = [1.0] * 16, np.linspace(1, 1.1, 16).tolist()
    weights[5], values[5] = 1e-309, 3.0
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"dim": 1, "shape": [16], "weights": weights, "values": values}))
    code, out, err = run_cli(capsys, "theorem2", str(path), "--mode", "all", "--epsilon", "0.2",
                             "--lambda", "1.0", "--rho", "0.3", "--t", "0.5")
    assert code == 2
    assert out == ""
    assert err == "error: non-finite report value at payload.per_t[0].k_achieved\n"
