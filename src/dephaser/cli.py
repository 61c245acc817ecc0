"""Command-line surface: rate, sweep, validate, curve, evolve.

Exit codes: 0 success, 1 usage or validation error, 2 numerical failure
(non-convergent quadrature or failed cross-route validation), 3 parameter
or table file parse error. All flags take SI units (kelvin, meters,
joules, seconds). Flag values are checked by what they build: the
dataclasses (ThermalEnv, DotGeometry, SweepSpec, SpectralDensity,
LindbladParams) and rate_validate. The dataclasses are built before any
file is read, so a flag they reject exits 1 even when a file is bad too.
Only --samples and --seed are checked here, because the closed and
double routes never read them. Every command is deterministic for a
fixed flag set and independent of DEPHASER_THREADS.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .coupling import SPECTRAL_FORMS, SpectralDensity, load_spectral_table
from .harmonic import curve_csv_text, decoherence_curve
from .lindblad import DensityMatrix2, LindbladParams, trajectory, trajectory_csv_text
from .model import GAAS, DotGeometry, MaterialFileError, ThermalEnv, load_material
from .quadrature import NonConvergence
from .rates import (
    _MIN_MC_SAMPLES,
    METHOD_CLOSED,
    METHOD_DOUBLE,
    METHOD_MC,
    ValidationFailed,
    compute_rate,
    rate_validate,
)
from .runtime import fmt_float, write_text
from .svgplot import loglog_svg_text
from .sweep import (
    AXIS_DISTANCE,
    AXIS_TEMPERATURE,
    SweepPoint,
    SweepSpec,
    run_sweep,
    sweep_csv_text,
)

_METHOD_BY_TOKEN = {"closed": METHOD_CLOSED, "double": METHOD_DOUBLE,
                    "mc": METHOD_MC}


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this surface reserves 2 for
    numerical failures, so usage problems exit 1 instead."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _emit(text: str, out_path) -> None:
    if out_path:
        write_text(out_path, text)
    else:
        sys.stdout.write(text)


def _load_material_arg(args):
    if args.material is None:
        return GAAS
    return load_material(args.material)


def _check_sampling(parser, args) -> None:
    if args.samples < _MIN_MC_SAMPLES:
        parser.error(f"--samples must be >= {_MIN_MC_SAMPLES}")
    if args.seed < 0:
        parser.error("--seed must be >= 0")


def _cmd_rate(parser, args) -> int:
    env = ThermalEnv(T_K=args.T)
    geom = DotGeometry(width_L_m=args.L, separation_D_m=args.D)
    _check_sampling(parser, args)
    material = _load_material_arg(args)
    result = compute_rate(_METHOD_BY_TOKEN[args.method], material, geom, env,
                          samples=args.samples, seed=args.seed)
    point = SweepPoint(axis_value=args.T, method=result.method, result=result)
    _emit(sweep_csv_text([point], AXIS_TEMPERATURE), args.out)
    return 0


def _cmd_sweep(parser, args) -> int:
    axis = AXIS_TEMPERATURE if args.axis == "T" else AXIS_DISTANCE
    spec = SweepSpec(
        axis=axis,
        min_value=args.min,
        max_value=args.max,
        points=args.points,
        spacing="logarithmic" if args.log else "linear",
        method=_METHOD_BY_TOKEN[args.method],
        width_L_m=args.L,
        fixed_D_m=args.D,
        fixed_T_K=args.T,
        samples=args.samples,
        seed=args.seed,
    )
    _check_sampling(parser, args)
    points = run_sweep(replace(spec, material=_load_material_arg(args)))
    _emit(sweep_csv_text(points, axis), args.out)
    if args.plot:
        xs = [p.axis_value for p in points if p.result is not None]
        ys = [p.result.gamma_per_s for p in points if p.result is not None]
        label = "T (K)" if axis == AXIS_TEMPERATURE else "D (m)"
        write_text(args.plot, loglog_svg_text(xs, ys, x_label=label,
                                              y_label="gamma (1/s)"))
    return 0


def _cmd_validate(parser, args) -> int:
    env = ThermalEnv(T_K=args.T)
    geom = DotGeometry(width_L_m=args.L, separation_D_m=args.D)
    _check_sampling(parser, args)
    material = _load_material_arg(args)
    report = rate_validate(material, geom, env, samples=args.samples,
                           seed=args.seed)
    sys.stdout.write("\n".join(report.lines()) + "\n")
    return 0


def _cmd_curve(parser, args) -> int:
    env = ThermalEnv(T_K=args.T)
    if args.spectral == "tabulated":
        if args.table is None:
            parser.error("--table is required with --spectral tabulated")
        try:
            sd = load_spectral_table(args.table)
        except (OSError, ValueError) as exc:
            sys.stderr.write(f"error: {exc}\n")
            return 3
    else:
        sd = SpectralDensity(form=args.spectral, amplitude=args.A,
                             exponent=args.n, cutoff_rad_per_s=args.omega_c)
    curve = decoherence_curve(sd, env, args.tmax, args.points)
    _emit(curve_csv_text(curve), args.out)
    if curve.plateau is None:
        sys.stderr.write("plateau = divergent\n")
    else:
        sys.stderr.write(f"plateau = {fmt_float(curve.plateau)}\n")
    return 0


def _cmd_evolve(parser, args) -> int:
    params = LindbladParams(gamma_per_s=args.gamma,
                            level_splitting_E_J=args.E)
    pieces = args.rho01.split(",")
    if len(pieces) != 2:
        parser.error("--rho01 must be re,im")
    try:
        re, im = float(pieces[0]), float(pieces[1])
    except ValueError:
        parser.error("--rho01 must be re,im with numeric parts")
    try:
        state = DensityMatrix2(rho00=0.5, rho01=complex(re, im))
    except ValueError as exc:
        parser.error(f"--rho01 gives an invalid state: {exc}")
    traj = trajectory(state, params, args.tmax, args.points)
    _emit(trajectory_csv_text(traj), args.out)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="dephaser",
                     description="Phonon-induced pure-dephasing rates for a "
                                 "double quantum dot (SI units throughout).")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)
    # flags shared by several commands, declared once each
    point = argparse.ArgumentParser(add_help=False)
    point.add_argument("--T", type=float, required=True, metavar="KELVIN")
    point.add_argument("--L", type=float, required=True, metavar="METERS")
    point.add_argument("--D", type=float, required=True, metavar="METERS")
    sampling = argparse.ArgumentParser(add_help=False)
    sampling.add_argument("--material", metavar="FILE")
    sampling.add_argument("--seed", type=int, default=12345)
    sampling.add_argument("--samples", type=int, default=10**7)
    routed = argparse.ArgumentParser(add_help=False)
    routed.add_argument("--method", choices=sorted(_METHOD_BY_TOKEN),
                        default="closed")
    routed.add_argument("--out", metavar="FILE")

    rate = sub.add_parser("rate", parents=[point, sampling, routed],
                          help="single dephasing-rate evaluation")
    rate.set_defaults(func=_cmd_rate)

    sweep = sub.add_parser("sweep", parents=[sampling, routed],
                           help="rate sweep over T or D")
    sweep.add_argument("--axis", choices=("T", "D"), required=True)
    sweep.add_argument("--min", type=float, required=True)
    sweep.add_argument("--max", type=float, required=True)
    sweep.add_argument("--points", type=int, required=True)
    spacing = sweep.add_mutually_exclusive_group(required=True)
    spacing.add_argument("--log", action="store_true")
    spacing.add_argument("--linear", action="store_true")
    sweep.add_argument("--L", type=float, required=True, metavar="METERS")
    sweep.add_argument("--D", type=float, metavar="METERS")
    sweep.add_argument("--T", type=float, metavar="KELVIN")
    sweep.add_argument("--plot", metavar="FILE.svg")
    sweep.set_defaults(func=_cmd_sweep)

    validate = sub.add_parser("validate", parents=[point, sampling],
                              help="cross-check the three rate routes")
    validate.set_defaults(func=_cmd_validate)

    curve = sub.add_parser("curve",
                           help="harmonic-reservoir coherence decay curve")
    curve.add_argument("--spectral", choices=SPECTRAL_FORMS, required=True)
    curve.add_argument("--A", type=float, default=0.0,
                       help="spectral amplitude (units depend on --n)")
    curve.add_argument("--n", type=float, default=1.0,
                       help="low-frequency exponent, >= 1")
    curve.add_argument("--omega-c", type=float, default=1.0, dest="omega_c",
                       metavar="RAD_PER_S")
    curve.add_argument("--table", metavar="FILE.csv",
                       help="two-column CSV for --spectral tabulated")
    curve.add_argument("--T", type=float, required=True, metavar="KELVIN")
    curve.add_argument("--tmax", type=float, required=True, metavar="SECONDS")
    curve.add_argument("--points", type=int, required=True)
    curve.add_argument("--out", metavar="FILE")
    curve.set_defaults(func=_cmd_curve)

    evolve = sub.add_parser("evolve",
                            help="two-level pure-dephasing trajectory")
    evolve.add_argument("--gamma", type=float, required=True,
                        metavar="PER_SECOND")
    evolve.add_argument("--E", type=float, default=0.0, metavar="JOULES")
    evolve.add_argument("--rho01", required=True, metavar="RE,IM")
    evolve.add_argument("--tmax", type=float, required=True, metavar="SECONDS")
    evolve.add_argument("--points", type=int, required=True)
    evolve.add_argument("--out", metavar="FILE")
    evolve.set_defaults(func=_cmd_evolve)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(parser, args)
    except SystemExit as exc:  # parser.error inside a command
        return int(exc.code or 0)
    except (MaterialFileError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except (NonConvergence, ValidationFailed) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
