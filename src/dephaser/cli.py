"""Command-line surface: rate, sweep, validate, curve, evolve.

Exit codes: 0 success, 1 usage or validation error, 2 numerical failure
(non-convergent quadrature, a non-finite integrand or failed cross-route
validation), 3 parameter or table file parse error, or an output file
that cannot be written. All flags take SI units (kelvin, meters, joules,
seconds). Flag values are checked by what they build: the dataclasses
(ThermalEnv, DotGeometry, SweepSpec, SpectralDensity, LindbladParams) and
rate_validate. The dataclasses are built before any file is read, so a
flag they reject exits 1 even when a file is bad too. --samples and
--seed meet rates._check_sampling for every method, though the closed
and double routes never read them. Every command is deterministic for a
fixed flag set and independent of DEPHASER_THREADS.

This module alone decides the output format: CSV cells are shortest
round-trip floats with \n line ends, the validate report is text built
here, files are UTF-8 written with their line ends untranslated, and
plots are SVG text with fixed 2-decimal coordinates, so identical data
always yields identical bytes.
"""
from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from dataclasses import replace
from typing import Sequence

from .coupling import SPECTRAL_FORMS, SpectralDensity, load_spectral_table
from .harmonic import (DecoherenceCurve, DensityMatrix2, LindbladParams, Trajectory2,
                       decoherence_curve, trajectory)
from .model import GAAS, DotGeometry, MaterialFileError, ThermalEnv, load_material
from .quadrature import NonConvergence, NonFiniteSample
from .rates import (
    _DOUBLE_REL_LIMIT,
    _MC_SAMPLES,
    _MC_SEED,
    METHOD_CLOSED,
    METHOD_DOUBLE,
    METHOD_MC,
    ValidationReport,
    _check_sampling,
    compute_rate,
    rate_validate,
)
from .sweep import AXIS_DISTANCE, AXIS_TEMPERATURE, SweepPoint, SweepSpec, run_sweep

_METHOD_BY_TOKEN = {"closed": METHOD_CLOSED, "double": METHOD_DOUBLE,
                    "mc": METHOD_MC}

# SVG page size and plot margins, in px
_WIDTH = 640
_HEIGHT = 440
_LEFT, _RIGHT, _TOP, _BOTTOM = 72, 16, 16, 48


def fmt_float(x: float) -> str:
    """Shortest round-trip decimal for CSV cells; infinities print as inf."""
    x = float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return repr(x)


def csv_text(header, rows) -> str:
    """CSV text of a header row and data rows, with \\n line ends."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def write_text(path, text: str) -> None:
    """Write text to path as UTF-8 with its line ends untranslated."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def sweep_csv_text(points: Sequence[SweepPoint], axis: str) -> str:
    """Render sweep rows as CSV text (header included, \\n line ends)."""
    rows = []
    for p in points:
        if p.result is not None:
            gamma, t2, err = (p.result.gamma_per_s, p.result.t2_s,
                              p.result.error_estimate_per_s)
        else:
            gamma = t2 = err = math.nan
        rows.append([axis, fmt_float(p.axis_value), fmt_float(gamma),
                     fmt_float(t2), p.method, fmt_float(err)])
    return csv_text(["axis", "axis_value", "gamma_per_s", "t2_s", "method",
                     "error_estimate"], rows)


def curve_csv_text(curve: DecoherenceCurve) -> str:
    return csv_text(["t_s", "coherence_ratio"],
                    ((fmt_float(t), fmt_float(r))
                     for t, r in zip(curve.times_s, curve.ratio)))


def trajectory_csv_text(traj: Trajectory2) -> str:
    rows = []
    for t, p0, p1, c in zip(traj.times_s, traj.rho00, traj.rho11, traj.rho01):
        rows.append([fmt_float(t), fmt_float(p0), fmt_float(p1),
                     fmt_float(c.real), fmt_float(c.imag), fmt_float(abs(c))])
    return csv_text(["t_s", "rho00", "rho11", "re_rho01", "im_rho01",
                     "abs_rho01"], rows)


def validation_text(report: ValidationReport) -> str:
    """The three results, the two verdicts and the overall verdict, one a line."""
    lines = []
    for r in (report.closed_form, report.double_integral, report.monte_carlo):
        extra = ""
        if r.mc_std_error_per_s is not None:
            extra = f" (std error {r.mc_std_error_per_s:.3e})"
        lines.append(f"{r.method}: gamma = {r.gamma_per_s:.9e} 1/s, "
                     f"t2 = {r.t2_s:.9e} s{extra}")
    verdict = {True: "PASS", False: "FAIL"}
    lines.append(f"closed-form vs double-integral: {report.rel_diff_double:.3e} rel "
                 f"(limit {_DOUBLE_REL_LIMIT:.1e}) {verdict[report.double_passed]}")
    lines.append(f"closed-form vs monte-carlo: {report.rel_diff_mc:.3e} rel "
                 f"(limit {report.mc_allowance_rel:.3e}) {verdict[report.mc_passed]}")
    lines.append("validation " + ("PASSED" if report.passed else "FAILED"))
    return "\n".join(lines) + "\n"


def _decade_span(values):
    lo = math.floor(math.log10(min(values)))
    hi = math.ceil(math.log10(max(values)))
    if lo == hi:
        hi += 1
    return lo, hi


def loglog_svg_text(x: Sequence[float], y: Sequence[float], *,
                    x_label: str, y_label: str) -> str:
    """Render a log-log polyline chart as an SVG document string.

    Non-finite and non-positive points are dropped (a vanishing rate has
    no place on a log axis). Raises ValueError when nothing is plottable.
    """
    pts = [(float(a), float(b)) for a, b in zip(x, y)
           if math.isfinite(a) and math.isfinite(b) and a > 0.0 and b > 0.0]
    if not pts:
        raise ValueError("no positive finite points to plot")
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    x0, x1 = _decade_span(xs)
    y0, y1 = _decade_span(ys)
    pw = _WIDTH - _LEFT - _RIGHT
    ph = _HEIGHT - _TOP - _BOTTOM

    def px(v: float) -> float:
        return _LEFT + (math.log10(v) - x0) / (x1 - x0) * pw

    def py(v: float) -> float:
        return _TOP + ph - (math.log10(v) - y0) / (y1 - y0) * ph

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
        f'<rect x="{_LEFT}" y="{_TOP}" width="{pw}" height="{ph}" '
        'fill="none" stroke="#333333" stroke-width="1"/>',
    ]
    for e in range(x0, x1 + 1):
        gx = px(10.0**e)
        lines.append(f'<line x1="{gx:.2f}" y1="{_TOP}" x2="{gx:.2f}" '
                     f'y2="{_TOP + ph}" stroke="#cccccc" stroke-width="1"/>')
        lines.append(f'<text x="{gx:.2f}" y="{_TOP + ph + 16}" '
                     'font-family="sans-serif" font-size="11" '
                     f'text-anchor="middle" fill="#333333">1e{e}</text>')
    for e in range(y0, y1 + 1):
        gy = py(10.0**e)
        lines.append(f'<line x1="{_LEFT}" y1="{gy:.2f}" x2="{_LEFT + pw}" '
                     f'y2="{gy:.2f}" stroke="#cccccc" stroke-width="1"/>')
        lines.append(f'<text x="{_LEFT - 6}" y="{gy:.2f}" '
                     'font-family="sans-serif" font-size="11" '
                     f'text-anchor="end" dominant-baseline="middle" '
                     'fill="#333333">1e' + str(e) + "</text>")
    coords = " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in pts)
    lines.append(f'<polyline points="{coords}" fill="none" '
                 'stroke="#1f6fb2" stroke-width="1.5"/>')
    lines.append(f'<text x="{_LEFT + pw / 2:.2f}" y="{_HEIGHT - 12}" '
                 'font-family="sans-serif" font-size="12" '
                 f'text-anchor="middle" fill="#333333">{x_label}</text>')
    lines.append(f'<text x="14" y="{_TOP + ph / 2:.2f}" '
                 'font-family="sans-serif" font-size="12" '
                 'text-anchor="middle" fill="#333333" '
                 f'transform="rotate(-90 14 {_TOP + ph / 2:.2f})">{y_label}</text>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


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


def _cmd_rate(parser, args) -> int:
    env = ThermalEnv(T_K=args.T)
    geom = DotGeometry(width_L_m=args.L, separation_D_m=args.D)
    _check_sampling(args.samples, args.seed)
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
    points = run_sweep(replace(spec, material=_load_material_arg(args)))
    _emit(sweep_csv_text(points, axis), args.out)
    for p in points:
        if p.error is not None:
            sys.stderr.write(f"{axis} = {fmt_float(p.axis_value)}: {p.error}\n")
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
    _check_sampling(args.samples, args.seed)
    material = _load_material_arg(args)
    report = rate_validate(material, geom, env, samples=args.samples,
                           seed=args.seed)
    text = validation_text(report)
    if report.passed:
        sys.stdout.write(text)
        return 0
    sys.stderr.write("error: " + text)
    return 2


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
    sampling.add_argument("--seed", type=int, default=_MC_SEED)
    sampling.add_argument("--samples", type=int, default=_MC_SAMPLES)
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
    except (NonConvergence, NonFiniteSample) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
