"""Command-line surface: machine-readable JSON on stdout, summary on stderr.

Subcommands: analyze, theorem1, theorem2, rh, generate.  Every report is a
single canonical JSON object (sorted keys, fixed separators) carrying the
tool version, the sha256 digest of the input file, and the enumeration
mode, so identical inputs reproduce byte-identical output.

Exit codes: 0 = success / inequality holds, 1 = inequality fails,
2 = usage or validation error, 3 = mathematical precondition failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .ainfty import LevelParams, alpha_profile, verify_ainfty_to_gr, verify_gr_to_ainfty
from .covering import build_covering, cell_set
from .errors import ConfigurationError, DataValidationError, DomainError, PreconditionError
from .generators import GenSpec, generate
from .grids import EnumerationMode, default_mode
from .holder import TailBoundParams, optimize_rh_exponent, rh_constant, verify_rearrangement_bound
from .oscillation import gr_epsilon
from .rearrangement import average, evaluate, rearrangement
from .wgrid_io import file_digest, load_wgrid, save_wgrid

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_PRECONDITION = 3


def _dump_report(command: str, digest: str, mode, payload: dict) -> str:
    report = {
        "tool_version": __version__,
        "command": command,
        "input_digest": digest,
        "mode": mode.to_json() if mode is not None else None,
        "payload": payload,
    }
    return json.dumps(report, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def _thread_count(text: str) -> int:
    try:
        count = int(text)
    except ValueError:
        count = 0
    if count < 1:
        raise argparse.ArgumentTypeError(f"need a positive thread count, got {text!r}")
    return count


def _common_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--mode", default="auto", help="all | dyadic | sample:COUNT:SEED")
    parser.add_argument(
        "--threads", type=_thread_count, default=1, help="accepted for compatibility and ignored"
    )
    parser.add_argument("--plot-dir", default=None, help="directory for CSV plot data")
    parser.add_argument("--tolerance", type=float, default=1e-12)


def _resolve_mode(text: str, grid) -> EnumerationMode:
    if text == "auto":
        return default_mode(grid)
    return EnumerationMode.parse(text)


def _write_csv(plot_dir: str | None, name: str, header: str, rows) -> None:
    if plot_dir is None:
        return
    out = Path(plot_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = [header] + [",".join(repr(float(x)) for x in row) for row in rows]
    (out / name).write_text("\n".join(lines) + "\n")


def _cmd_analyze(args) -> int:
    wg = load_wgrid(args.input)
    mode = _resolve_mode(args.mode, wg.grid)
    gr = gr_epsilon(wg, mode)
    betas = np.linspace(0.05, 0.95, args.beta_grid)
    profile = []
    for beta in betas:
        alpha_star, witness = alpha_profile(wg, float(beta), mode)
        profile.append({"beta": float(beta), "alpha_star": alpha_star, "witness": witness.to_json()})
    sf = rearrangement(wg)
    payload = {
        "gr": gr.to_json(),
        "alpha_profile": profile,
        "rearrangement": sf.to_json(),
        "conventions": {"zero_mass_cubes": "skipped", "zero_mean_cubes": "skipped"},
    }
    _write_csv(args.plot_dir, "rearrangement.csv", "t,level", sf.csv_rows())
    _write_csv(
        args.plot_dir,
        "alpha_profile.csv",
        "beta,alpha_star",
        [(row["beta"], row["alpha_star"]) for row in profile],
    )
    if args.plot_dir is not None:
        ts = np.linspace(sf.total_mass / 256, sf.total_mass, 256)
        _write_csv(
            args.plot_dir,
            "star_curve.csv",
            "t,fstar,fstarstar",
            zip(ts, np.atleast_1d(evaluate(sf, ts)), np.atleast_1d(average(sf, ts))),
        )
    sys.stdout.write(_dump_report("analyze", file_digest(args.input), mode, payload))
    print(
        f"analyze: epsilon={gr.epsilon:.6g} over {gr.cubes_scanned} cubes ({mode.label()})",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_theorem1(args) -> int:
    wg = load_wgrid(args.input)
    mode = _resolve_mode(args.mode, wg.grid)
    if args.direction == "fwd":
        if args.epsilon is None or args.lam is None:
            raise ConfigurationError("forward direction needs --epsilon and --lambda")
        report = verify_gr_to_ainfty(
            wg, args.epsilon, args.lam, mode, tol=args.tolerance
        )
        payload = {"direction": "fwd", "epsilon": args.epsilon, "lambda": args.lam}
    else:
        if args.alpha is None or args.beta is None:
            raise ConfigurationError("reverse direction needs --alpha and --beta")
        report = verify_ainfty_to_gr(
            wg,
            LevelParams(alpha=args.alpha, beta=args.beta),
            mode,
            tol=args.tolerance,
        )
        payload = {"direction": "rev", "alpha": args.alpha, "beta": args.beta}
    payload["report"] = report.to_json()
    sys.stdout.write(_dump_report("theorem1", file_digest(args.input), mode, payload))
    print(
        f"theorem1 {args.direction}: holds={report.holds} "
        f"worst_margin={report.worst_margin:.6g}",
        file=sys.stderr,
    )
    return EXIT_OK if report.holds else EXIT_FAIL


def _cmd_theorem2(args) -> int:
    wg = load_wgrid(args.input)
    mode = _resolve_mode(args.mode, wg.grid)
    params = TailBoundParams(
        epsilon=args.epsilon, lam=args.lam, rho=args.rho, t_values=tuple(args.t)
    )
    report = verify_rearrangement_bound(
        wg, params, mode, tol=args.tolerance
    )
    payload = report.to_json()
    _write_csv(
        args.plot_dir,
        "tail_bound.csv",
        "t,fstar,fstarstar,k_achieved",
        [(c.t, c.fstar, c.fstarstar, c.k_achieved) for c in report.checks],
    )
    sys.stdout.write(_dump_report("theorem2", file_digest(args.input), mode, payload))
    print(
        f"theorem2: holds={report.holds} at {len(report.checks)} t-values "
        f"(measured epsilon {report.measured_epsilon:.6g})",
        file=sys.stderr,
    )
    return EXIT_OK if report.holds else EXIT_FAIL


def _cmd_rh(args) -> int:
    wg = load_wgrid(args.input)
    mode = _resolve_mode(args.mode, wg.grid)
    payload: dict = {}
    if args.b_from_covering and not args.auto:
        raise ConfigurationError("--B-from-covering needs --auto")
    if args.auto:
        gr = gr_epsilon(wg, mode)
        if gr.epsilon <= 0:
            raise DomainError("measured epsilon is 0 (constant data); pass --p explicitly")
        overlap = 1.0
        if args.b_from_covering:
            overlap, constants = _measured_overlap(wg, gr.epsilon, args.delta)
            payload["covering"] = constants
        lam_star, rho_star, p_star = optimize_rh_exponent(
            gr.epsilon, overlap=overlap, delta=args.delta
        )
        p = p_star
        payload["auto"] = {
            "measured_epsilon": gr.epsilon,
            "overlap": overlap,
            "lambda_star": lam_star,
            "rho_star": rho_star,
            "p_star": p_star,
        }
    else:
        if args.p is None:
            raise ConfigurationError("need --p or --auto")
        p = args.p
    c_hat, witness = rh_constant(wg, p, mode)
    payload.update({"p": p, "c_hat": c_hat, "witness": witness.to_json()})
    _write_csv(args.plot_dir, "rh_constant.csv", "p,c_hat", [(p, c_hat)])
    sys.stdout.write(_dump_report("rh", file_digest(args.input), mode, payload))
    print(f"rh: c_hat={c_hat:.6g} at p={p:.6g}", file=sys.stderr)
    return EXIT_OK


def _measured_overlap(wg, epsilon: float, delta: float):
    """Overlap constant achieved by the covering construction at the
    optimizer's own parameter choice, fed back in place of the a-priori
    bound.  One fixed-point step: optimize with overlap 1, build the
    covering that the tail-bound verification would build at the resulting
    (lambda, rho) and the largest admissible t, then report its overlap."""
    lam, rho, _ = optimize_rh_exponent(epsilon, overlap=1.0, delta=delta)
    sf = rearrangement(wg)
    t = rho * wg.total_mass
    fstar = float(evaluate(sf, t))
    if fstar == 0.0:
        return 1.0, {"rho_lo": None, "rho_hi": None, "overlap": 1, "n_cubes": 0}
    cover = build_covering(wg, cell_set(wg, wg.values > fstar), rho=rho, rho_cap=1 - lam / 2)
    constants = {
        "rho_lo": cover.rho_lo,
        "rho_hi": cover.rho_hi,
        "overlap": cover.overlap,
        "n_cubes": len(cover.cubes),
    }
    return float(cover.overlap), constants


def _cmd_generate(args) -> int:
    text = args.spec
    if text.startswith("@"):
        text = Path(text[1:]).read_text()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"spec json: {exc}") from exc
    spec = GenSpec.from_json(obj)
    wg = generate(spec)
    save_wgrid(wg, args.out)
    payload = {
        "path": str(args.out),
        "digest": file_digest(args.out),
        "spec": spec.to_json(),
        "cells": wg.grid.ncells,
    }
    sys.stdout.write(_dump_report("generate", payload["digest"], None, payload))
    print(f"generate: wrote {args.out}", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oscgrid",
        description="Oscillation, level-set and rearrangement analysis of weighted grids",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="epsilon, alpha profile, rearrangement")
    p_an.add_argument("input")
    p_an.add_argument("--beta-grid", type=int, default=19)
    _common_flags(p_an)
    p_an.set_defaults(fn=_cmd_analyze)

    p_t1 = sub.add_parser("theorem1", help="verify one implication direction")
    p_t1.add_argument("input")
    p_t1.add_argument("--direction", choices=("fwd", "rev"), default="fwd")
    p_t1.add_argument("--epsilon", type=float, default=None)
    p_t1.add_argument("--lambda", dest="lam", type=float, default=None)
    p_t1.add_argument("--alpha", type=float, default=None)
    p_t1.add_argument("--beta", type=float, default=None)
    _common_flags(p_t1)
    p_t1.set_defaults(fn=_cmd_theorem1)

    p_t2 = sub.add_parser("theorem2", help="verify the rearrangement-average bound")
    p_t2.add_argument("input")
    p_t2.add_argument("--epsilon", type=float, required=True)
    p_t2.add_argument("--lambda", dest="lam", type=float, required=True)
    p_t2.add_argument("--rho", type=float, required=True)
    p_t2.add_argument("--t", type=float, nargs="+", required=True)
    _common_flags(p_t2)
    p_t2.set_defaults(fn=_cmd_theorem2)

    p_rh = sub.add_parser("rh", help="empirical reverse Holder constant")
    p_rh.add_argument("input")
    p_rh.add_argument("--p", type=float, default=None)
    p_rh.add_argument("--auto", action="store_true")
    p_rh.add_argument("--B-from-covering", dest="b_from_covering", action="store_true")
    p_rh.add_argument("--delta", type=float, default=1e-6)
    _common_flags(p_rh)
    p_rh.set_defaults(fn=_cmd_rh)

    p_gen = sub.add_parser("generate", help="write a wgrid file from a generator spec")
    p_gen.add_argument("--spec", required=True, help="JSON spec or @path to one")
    p_gen.add_argument("--out", required=True)
    _common_flags(p_gen)
    p_gen.set_defaults(fn=_cmd_generate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except PreconditionError as exc:
        print(f"precondition failure: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (ConfigurationError, DataValidationError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
