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
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .ainfty import (
    DEFAULT_TOL, LevelParams, epsilon_and_profile, verify_ainfty_to_gr, verify_gr_to_ainfty
)
from .covering import check_square
from .errors import ConfigurationError, DataValidationError, DomainError, PreconditionError
from .generators import GenSpec, generate
from .grids import EnumerationMode, default_mode
from .holder import (
    TailBoundParams,
    optimize_rh_exponent,
    rh_constant,
    tail_covering,
    verify_rearrangement_bound,
)
from .oscillation import gr_epsilon
from .rearrangement import average, evaluate, rearrangement
from .scan import MAX_LEVELS
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
    try:
        return json.dumps(report, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"
    except ValueError:  # JSON has no nan or infinity
        key = next(_non_finite_keys(report))[1:]
        raise DomainError(f"non-finite report value at {key}") from None


def _non_finite_keys(obj, key: str = ""):
    """Key paths of the non-finite floats in sorted-key order, as .a.b[0].c."""
    if isinstance(obj, float) and not math.isfinite(obj):
        yield key
    elif isinstance(obj, (dict, list, tuple)):
        for k, v in sorted(obj.items()) if isinstance(obj, dict) else enumerate(obj):
            yield from _non_finite_keys(v, f"{key}.{k}" if isinstance(obj, dict) else f"{key}[{k}]")


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):  # whole flag names only: --p is not --plot-dir
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):  # one line, as every other usage error is
        self.exit(EXIT_USAGE, f"error: {message}\n")


def _positive_int(text: str, limit: float = math.inf) -> int:
    try:
        count = int(text)
    except ValueError:
        count = 0
    if not 1 <= count <= limit:
        bound = "" if limit == math.inf else f" up to {limit}"
        raise argparse.ArgumentTypeError(f"need a positive integer{bound}, got {text!r}")
    return count


def _tolerance(text: str) -> float:
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not 0 <= tol < math.inf:
        raise argparse.ArgumentTypeError(f"need a finite tolerance >= 0, got {text!r}")
    return tol


def _mode(text: str) -> EnumerationMode | None:
    """None for "auto", the grid's default mode."""
    try:
        return None if text == "auto" else EnumerationMode.parse(text)
    except ConfigurationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _write_csv(plot_dir: str | None, name: str, header: str, rows) -> None:
    if plot_dir is None:
        return
    out = Path(plot_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = [header] + [",".join(repr(float(x)) for x in row) for row in rows]
    (out / name).write_text("\n".join(lines) + "\n")


def _cmd_analyze(args, wg, mode):
    betas = np.linspace(0.05, 0.95, args.beta_grid).tolist()
    gr, alphas = epsilon_and_profile(wg, betas, mode)
    profile = [
        {"beta": beta, "alpha_star": alpha_star, "witness": witness.to_json()}
        for beta, (alpha_star, witness) in zip(betas, alphas)
    ]
    sf = rearrangement(wg)
    payload = {
        "gr": gr.to_json(),
        "alpha_profile": profile,
        "rearrangement": sf.to_json(),
        "conventions": {"zero_mass_cubes": "skipped", "zero_mean_cubes": "skipped"},
    }
    if args.plot_dir is not None:
        _write_csv(args.plot_dir, "rearrangement.csv", "t,level", sf.csv_rows())
        _write_csv(
            args.plot_dir,
            "alpha_profile.csv",
            "beta,alpha_star",
            [(row["beta"], row["alpha_star"]) for row in profile],
        )
        ts = np.linspace(sf.total_mass / 256, sf.total_mass, 256)
        _write_csv(
            args.plot_dir,
            "star_curve.csv",
            "t,fstar,fstarstar",
            zip(ts, np.atleast_1d(evaluate(sf, ts)), np.atleast_1d(average(sf, ts))),
        )
    summary = f"analyze: epsilon={gr.epsilon:.6g} over {gr.cubes_scanned} cubes ({mode.label()})"
    return payload, EXIT_OK, summary


def _cmd_theorem1(args, wg, mode):
    for flag, value, direction in (
        ("--epsilon", args.epsilon, "fwd"), ("--lambda", args.lam, "fwd"),
        ("--alpha", args.alpha, "rev"), ("--beta", args.beta, "rev"),
    ):
        if value is not None and direction != args.direction:
            raise ConfigurationError(f"{flag} needs --direction {direction}")
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
    summary = (
        f"theorem1 {args.direction}: holds={report.holds} "
        f"worst_margin={report.worst_margin:.6g}"
    )
    return payload, EXIT_OK if report.holds else EXIT_FAIL, summary


def _cmd_theorem2(args, wg, mode):
    params = TailBoundParams(
        epsilon=args.epsilon, lam=args.lam, rho=args.rho, t_values=tuple(args.t)
    )
    report = verify_rearrangement_bound(
        wg, params, mode, tol=args.tolerance
    )
    _write_csv(
        args.plot_dir,
        "tail_bound.csv",
        "t,fstar,fstarstar,k_achieved",
        [(c.t, c.fstar, c.fstarstar, c.k_achieved) for c in report.checks],
    )
    summary = (
        f"theorem2: holds={report.holds} at {len(report.checks)} t-values "
        f"(measured epsilon {report.measured_epsilon:.6g})"
    )
    return report.to_json(), EXIT_OK if report.holds else EXIT_FAIL, summary


def _cmd_rh(args, wg, mode):
    payload: dict = {}
    if args.auto and args.p is not None:
        raise ConfigurationError("--p conflicts with --auto, which chooses p")
    if not args.auto and (args.b_from_covering or args.delta is not None):
        flag = "--B-from-covering" if args.b_from_covering else "--delta"
        raise ConfigurationError(f"{flag} needs --auto")
    delta = 1e-6 if args.delta is None else args.delta
    if args.b_from_covering:
        check_square(wg.grid)
    if args.auto:
        gr = gr_epsilon(wg, mode)
        if gr.epsilon <= 0:
            raise DomainError("measured epsilon is 0 (constant data); pass --p explicitly")
        overlap = 1.0
        if args.b_from_covering:
            overlap, constants = _measured_overlap(wg, gr.epsilon, delta)
            payload["covering"] = constants
        lam_star, rho_star, p_star = optimize_rh_exponent(
            gr.epsilon, overlap=overlap, delta=delta
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
    return payload, EXIT_OK, f"rh: c_hat={c_hat:.6g} at p={p:.6g}"


def _measured_overlap(wg, epsilon: float, delta: float):
    """Overlap constant achieved by the covering construction at the
    optimizer's own parameter choice, fed back in place of the a-priori
    bound.  One fixed-point step: optimize with overlap 1, then take the
    overlap of tail_covering at that (lambda, rho) and t = rho * mu(Q_0)."""
    lam, rho, _ = optimize_rh_exponent(epsilon, overlap=1.0, delta=delta)
    _, cover = tail_covering(wg, rearrangement(wg), rho * wg.total_mass, lam, rho)
    return float(cover.overlap), {
        "rho_lo": cover.rho_lo, "rho_hi": cover.rho_hi,
        "overlap": cover.overlap, "n_cubes": len(cover.cubes),
    }


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
    parser = _Parser(
        prog="oscgrid",
        description="Oscillation, level-set and rearrangement analysis of weighted grids",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # flag groups; each subcommand declares only the flags it reads
    grid, plot, tol = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    grid.add_argument("input")
    grid.add_argument("--mode", type=_mode, help="auto | all | dyadic | sample:COUNT:SEED")
    grid.add_argument("--threads", type=_positive_int, default=1, help="ignored; for compatibility")
    plot.add_argument("--plot-dir", default=None, help="directory for CSV plot data")
    tol.add_argument("--tolerance", type=_tolerance, default=DEFAULT_TOL)

    def command(name: str, summary: str, fn, *flags: argparse.ArgumentParser):
        cmd = sub.add_parser(name, help=summary, parents=[grid, *flags])
        cmd.set_defaults(fn=fn)
        return cmd

    p_an = command("analyze", "epsilon, alpha profile, rearrangement", _cmd_analyze, plot)
    p_an.add_argument("--beta-grid", type=lambda text: _positive_int(text, MAX_LEVELS), default=19)

    p_t1 = command("theorem1", "verify one implication direction", _cmd_theorem1, tol)
    p_t1.add_argument("--direction", choices=("fwd", "rev"), default="fwd")
    p_t1.add_argument("--epsilon", type=float, default=None)
    p_t1.add_argument("--lambda", dest="lam", type=float, default=None)
    p_t1.add_argument("--alpha", type=float, default=None)
    p_t1.add_argument("--beta", type=float, default=None)

    p_t2 = command("theorem2", "verify the rearrangement-average bound", _cmd_theorem2, plot, tol)
    p_t2.add_argument("--epsilon", type=float, required=True)
    p_t2.add_argument("--lambda", dest="lam", type=float, required=True)
    p_t2.add_argument("--rho", type=float, required=True)
    p_t2.add_argument("--t", type=float, nargs="+", required=True)

    p_rh = command("rh", "empirical reverse Holder constant", _cmd_rh, plot)
    p_rh.add_argument("--p", type=float, default=None)
    p_rh.add_argument("--auto", action="store_true")
    p_rh.add_argument("--B-from-covering", dest="b_from_covering", action="store_true")
    p_rh.add_argument("--delta", type=float, default=None)  # 1e-6 under --auto

    p_gen = sub.add_parser("generate", help="write a wgrid file from a generator spec")
    p_gen.add_argument("--spec", required=True, help="JSON spec or @path to one")
    p_gen.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        if args.command == "generate":
            return _cmd_generate(args)
        wg = load_wgrid(args.input)
        mode = args.mode or default_mode(wg.grid)
        payload, code, summary = args.fn(args, wg, mode)
        digest, wg = wg.source_digest, None  # the report's encoder reuses the grid's memory
        sys.stdout.write(_dump_report(args.command, digest, mode, payload))
        print(summary, file=sys.stderr)
        return code
    except PreconditionError as exc:
        print(f"precondition failure: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (ConfigurationError, DataValidationError, DomainError, OSError, UnicodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
