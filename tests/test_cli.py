import json

import numpy as np
import pytest

from oscgrid import EnumerationMode, Grid, WeightedGrid, gr_epsilon, optimize_rh_exponent
from oscgrid.cli import main
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
    assert "weights" in err


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
    code, _, _ = run_cli(capsys, "rh", path, "--p", "0.9")
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
    code, _, err = run_cli(capsys, "rh", path, "--B-from-covering", "--p", "2")
    assert code == 2 and "--auto" in err


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
    spec = json.dumps({"kind": "power", "shape": [4], "kind_params": {"a": 1.2}})
    code, _, _ = run_cli(capsys, "generate", "--spec", spec, "--out", str(tmp_path / "x.json"))
    assert code == 2


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
    eps = gr_epsilon(wg, EnumerationMode.dyadic()).epsilon
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
