"""Tests for the command-line surface.

Most cases drive main(argv) in process; the byte-determinism checks run
the real interpreter in subprocesses with different thread settings.
"""

import argparse
import math
import os
import subprocess
import sys
import warnings

import pytest

import dephaser
import dephaser.quadrature as quadrature_module
import dephaser.sweep as sweep_module
from dephaser.cli import _build_parser, fmt_float, loglog_svg_text, main, write_text
from dephaser.harmonic import MarkovValidityWarning, asymptotic_coherence
from dephaser.coupling import SpectralDensity
from dephaser.model import GAAS, DotGeometry, ThermalEnv
from dephaser.quadrature import NonConvergence
from dephaser.rates import rate_closed_form, rate_monte_carlo

RATE_ARGS = ["rate", "--T", "100", "--L", "4e-9", "--D", "10e-9"]


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rate_row_matches_library(capsys):
    code, out, _ = _run(capsys, RATE_ARGS)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "axis,axis_value,gamma_per_s,t2_s,method,error_estimate"
    cells = lines[1].split(",")
    expected = rate_closed_form(GAAS, DotGeometry(4e-9, 10e-9), ThermalEnv(100.0))
    assert cells[0] == "temperature"
    assert float(cells[1]) == 100.0
    assert float(cells[2]) == expected.gamma_per_s
    assert float(cells[3]) == expected.t2_s
    assert cells[4] == "closed-form"


def test_rate_monte_carlo_method(capsys):
    code, out, _ = _run(capsys, RATE_ARGS + ["--method", "mc",
                                             "--samples", "10000"])
    assert code == 0
    cells = out.splitlines()[1].split(",")
    expected = rate_monte_carlo(GAAS, DotGeometry(4e-9, 10e-9),
                                ThermalEnv(100.0), samples=10**4)
    assert cells[4] == "monte-carlo"
    assert float(cells[2]) == expected.gamma_per_s


def test_rate_double_at_1_mm_matches_closed(capsys):
    # the double route's far table converges at 1 mm, in a few ms
    argv = ["rate", "--T", "100", "--L", "4e-9", "--D", "1e-3", "--method"]
    gammas = []
    for method in ("double", "closed"):
        code, out, err = _run(capsys, argv + [method])
        assert code == 0 and err == ""
        gammas.append(float(out.splitlines()[1].split(",")[2]))
    assert gammas[0] == pytest.approx(gammas[1], rel=1e-8, abs=0.0)


def test_rate_zero_separation(capsys):
    code, out, _ = _run(capsys, ["rate", "--T", "100", "--L", "4e-9",
                                 "--D", "0"])
    assert code == 0
    cells = out.splitlines()[1].split(",")
    assert float(cells[2]) == 0.0
    assert cells[3] == "inf"


def test_rate_out_file_matches_stdout(tmp_path, capsys):
    _, stdout_text, _ = _run(capsys, RATE_ARGS)
    out_path = tmp_path / "rate.csv"
    code, out, _ = _run(capsys, RATE_ARGS + ["--out", str(out_path)])
    assert code == 0
    assert out == ""
    assert out_path.read_text(encoding="utf-8") == stdout_text


@pytest.mark.parametrize(
    "argv",
    [
        ["rate", "--L", "4e-9", "--D", "1e-8"],                  # missing --T
        ["rate", "--T", "-5", "--L", "4e-9", "--D", "1e-8"],     # negative T
        ["rate", "--T", "50", "--L", "0", "--D", "1e-8"],        # zero width
        ["rate", "--T", "50", "--L", "4e-9", "--D", "1e-8",
         "--samples", "100"],                                    # tiny samples
        ["rate", "--T", "50", "--L", "4e-9", "--D", "1e-8",
         "--seed", "-3"],                                        # bad seed
        ["sweep", "--axis", "T", "--min", "10", "--max", "100",
         "--points", "1", "--log", "--L", "4e-9", "--D", "1e-8"],  # 1 point
        ["sweep", "--axis", "T", "--min", "10", "--max", "100",
         "--points", "4", "--log", "--L", "4e-9"],               # no --D
        ["sweep", "--axis", "T", "--min", "10", "--max", "100",
         "--points", "4", "--L", "4e-9", "--D", "1e-8"],         # no spacing
        ["evolve", "--gamma", "1e9", "--rho01", "0.3",
         "--tmax", "1e-9", "--points", "3"],                     # rho01 format
        ["evolve", "--gamma", "1e9", "--rho01", "0.6,0",
         "--tmax", "1e-9", "--points", "3"],                     # not a state
        ["curve", "--spectral", "tabulated", "--T", "0",
         "--tmax", "1e-12", "--points", "3"],                    # no --table
        [],                                                      # no command
        ["rate", "--T", "nan", "--L", "4e-9", "--D", "1e-8"],    # T not finite
        ["rate", "--T", "50", "--L", "4e-9", "--D", "-1"],       # negative D
        ["validate", "--T", "0", "--L", "4e-9", "--D", "1e-8",
         "--samples", "10000"],                                  # T = 0
        ["curve", "--spectral", "power-law-gaussian-cutoff", "--A", "1e-82",
         "--n", "2", "--omega-c", "1e13", "--T", "-1", "--tmax", "1e-12",
         "--points", "3"],                                       # negative T
        ["evolve", "--gamma", "-1", "--rho01", "0.5,0",
         "--tmax", "1e-9", "--points", "3"],                     # negative rate
        ["sweep", "--axis", "D", "--min", "1e-9", "--max", "1e-8",
         "--points", "3", "--log", "--L", "0", "--T", "50"],     # zero width
        # a fixed value for the swept axis; the spec is checked before the
        # material file is read, so the missing file does not make this 3
        ["sweep", "--axis", "T", "--min", "1", "--max", "10", "--points", "3",
         "--log", "--L", "4e-9", "--D", "1e-8", "--T", "500",
         "--material", "/nonexistent.txt"],
        ["sweep", "--axis", "D", "--min", "1e-9", "--max", "1e-8",
         "--points", "3", "--log", "--L", "4e-9", "--T", "50", "--D", "1e-8",
         "--material", "/nonexistent.txt"],
        # --table with a parametric form; the file is never read
        ["curve", "--spectral", "power-law-gaussian-cutoff", "--table",
         "/nonexistent.csv", "--T", "4", "--tmax", "1e-12", "--points", "3"],
    ],
)
def test_usage_errors_exit_one(capsys, argv):
    code, _, err = _run(capsys, argv)
    assert code == 1
    assert "error" in err


def test_non_finite_temperature_message(capsys):
    code, _, err = _run(capsys, ["rate", "--T", "nan", "--L", "4e-9",
                                 "--D", "1e-8"])
    assert code == 1
    assert "finite" in err


def test_material_parse_error_exits_three(tmp_path, capsys):
    bad = tmp_path / "mat.txt"
    bad.write_text("tau0_s = -1e-12\n", encoding="utf-8")
    code, _, err = _run(capsys, RATE_ARGS + ["--material", str(bad)])
    assert code == 3
    assert "tau0_s" in err


def test_missing_material_file_exits_three(capsys):
    code, _, err = _run(capsys, RATE_ARGS + ["--material", "/nonexistent.txt"])
    assert code == 3
    assert "error" in err


def test_unwritable_output_file_exits_three(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "rate.csv"
    code, out, err = _run(capsys, RATE_ARGS + ["--out", str(target)])
    assert code == 3
    assert out == ""
    assert err.startswith("error: [Errno 2] ")
    assert not target.exists()


def test_material_override_scales_rate(tmp_path, capsys):
    # halving the anharmonic lifetime must exactly double the rate
    halved = tmp_path / "mat.txt"
    halved.write_text("tau0_s = 4.6e-12\n", encoding="utf-8")
    _, base_out, _ = _run(capsys, RATE_ARGS)
    code, out, _ = _run(capsys, RATE_ARGS + ["--material", str(halved)])
    assert code == 0
    base_gamma = float(base_out.splitlines()[1].split(",")[2])
    assert float(out.splitlines()[1].split(",")[2]) == 2.0 * base_gamma


def test_sweep_csv_and_plot(tmp_path, capsys):
    plot = tmp_path / "sweep.svg"
    code, out, _ = _run(capsys, [
        "sweep", "--axis", "T", "--min", "20", "--max", "80", "--points", "4",
        "--log", "--L", "4e-9", "--D", "10e-9", "--plot", str(plot),
    ])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5
    gammas = [float(line.split(",")[2]) for line in lines[1:]]
    assert gammas == sorted(gammas)
    svg = plot.read_text(encoding="utf-8")
    assert svg.startswith("<svg ") and "polyline" in svg


def test_sweep_failed_point_reason_goes_to_stderr(capsys, monkeypatch):
    argv = ["sweep", "--axis", "T", "--min", "20", "--max", "80", "--points", "4",
            "--log", "--L", "4e-9", "--D", "10e-9"]
    _, clean, _ = _run(capsys, argv)

    true_rates = sweep_module._closed_form_rates

    def flaky(material, points):
        return [NonConvergence("synthetic failure at 80 K") if env.T_K == 80.0 else out
                for (_, env), out in zip(points, true_rates(material, points))]

    monkeypatch.setattr(sweep_module, "_closed_form_rates", flaky)
    code, out, err = _run(capsys, argv)
    assert code == 0
    assert out.splitlines()[:4] == clean.splitlines()[:4]
    assert out.splitlines()[4] == "temperature,80.0,nan,nan,closed-form,nan"
    assert len(out.splitlines()) == 5
    assert err == "temperature = 80.0: synthetic failure at 80 K\n"


def test_rate_engine_failure_exits_2(capsys, monkeypatch):
    # with no bisection allowed the closed route's far pass gives up at 1 mm
    monkeypatch.setattr(quadrature_module, "_MAX_SUBDIVISIONS", 0)
    code, out, err = _run(capsys, ["rate", "--T", "100", "--L", "4e-9", "--D", "1e-3"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: closed-form rate at T_K=100.0, width_L_m=4e-09, "
                          "separation_D_m=0.001: error estimate ")
    assert err.endswith("after 0 subdivisions of [2.82842712474619e-06, 8.5]\n")


def test_sweep_distance_axis(capsys):
    code, out, _ = _run(capsys, [
        "sweep", "--axis", "D", "--min", "1e-9", "--max", "1e-8",
        "--points", "3", "--log", "--L", "4e-9", "--T", "50",
    ])
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert all(r[0] == "distance" for r in rows)


def test_validate_command_reports_pass(capsys):
    code, out, _ = _run(capsys, [
        "validate", "--T", "50", "--L", "4e-9", "--D", "10e-9",
        "--samples", "100000",
    ])
    assert code == 0
    assert "closed-form vs double-integral" in out
    assert "validation PASSED" in out
    assert "FAIL" not in out


def test_validate_command_failure_goes_to_stderr(capsys, monkeypatch):
    # doubling the form-factor deficit doubles both deterministic routes
    # and leaves the sampler untouched (the three routes share their scale
    # through derived_scales), so the closed-form vs monte-carlo comparison
    # must fail
    true_deficit = quadrature_module.sinc_deficit
    monkeypatch.setattr(quadrature_module, "sinc_deficit", lambda y: 2.0 * true_deficit(y))
    code, out, err = _run(capsys, [
        "validate", "--T", "50", "--L", "4e-9", "--D", "10e-9",
        "--samples", "100000",
    ])
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 6
    assert lines[0].startswith("error: closed-form: gamma = ")
    assert lines[3].startswith("closed-form vs double-integral: ")
    assert lines[3].endswith("PASS")
    assert lines[4].startswith("closed-form vs monte-carlo: ")
    assert lines[4].endswith("FAIL")
    assert lines[-1] == "validation FAILED"


def test_curve_plateau_on_stderr(capsys):
    code, out, err = _run(capsys, [
        "curve", "--spectral", "power-law-gaussian-cutoff", "--A", "1e-82",
        "--n", "2", "--omega-c", "1e13", "--T", "0", "--tmax", "1e-12",
        "--points", "4",
    ])
    assert code == 0
    sd = SpectralDensity(form="power-law-gaussian-cutoff", amplitude=1e-82,
                         exponent=2.0, cutoff_rad_per_s=1e13)
    plateau = asymptotic_coherence(sd, ThermalEnv(T_K=0.0))
    assert err.strip() == f"plateau = {plateau!r}"
    first = out.splitlines()[1].split(",")
    assert float(first[1]) == 1.0


def test_curve_plateau_with_a_singular_weight(capsys):
    # n = 2.5 at 4 K: the plateau's weight goes as w^(-1/2) at w = 0
    code, out, err = _run(capsys, [
        "curve", "--spectral", "power-law-exponential-cutoff", "--A", "3e-89",
        "--n", "2.5", "--omega-c", "1e13", "--T", "4", "--tmax", "4e-12",
        "--points", "5",
    ])
    assert code == 0
    sd = SpectralDensity(form="power-law-exponential-cutoff", amplitude=3e-89,
                         exponent=2.5, cutoff_rad_per_s=1e13)
    plateau = asymptotic_coherence(sd, ThermalEnv(T_K=4.0))
    assert 0.0 < plateau < 1.0
    assert err.strip() == f"plateau = {plateau!r}"
    assert len(out.splitlines()) == 6


def test_curve_divergent_plateau(capsys):
    code, _, err = _run(capsys, [
        "curve", "--spectral", "power-law-gaussian-cutoff", "--A", "1e-70",
        "--n", "1", "--omega-c", "1e13", "--T", "77", "--tmax", "1e-12",
        "--points", "3",
    ])
    assert code == 0
    assert err.strip() == "plateau = divergent"


def test_curve_underflowed_ratio_is_zero(capsys):
    code, out, err = _run(capsys, [
        "curve", "--spectral", "power-law-gaussian-cutoff", "--A", "1e-68",
        "--n", "1", "--omega-c", "1e13", "--T", "300", "--tmax", "1e-10",
        "--points", "5",
    ])
    assert code == 0
    assert out.splitlines()[-1] == "1e-10,0.0"
    assert err.strip() == "plateau = divergent"


def test_curve_tabulated_from_file(tmp_path, capsys):
    table = tmp_path / "table.csv"
    table.write_text("omega,J\n1e12,1e-57\n2e12,1e-57\n", encoding="utf-8")
    code, out, err = _run(capsys, [
        "curve", "--spectral", "tabulated", "--table", str(table),
        "--T", "10", "--tmax", "1e-12", "--points", "3",
    ])
    assert code == 0
    assert err.startswith("plateau = 0.")
    assert len(out.splitlines()) == 4


def test_curve_bad_table_exits_three(tmp_path, capsys):
    table = tmp_path / "table.csv"
    table.write_text("1e12\n2e12\n", encoding="utf-8")
    code, _, err = _run(capsys, [
        "curve", "--spectral", "tabulated", "--table", str(table),
        "--T", "10", "--tmax", "1e-12", "--points", "3",
    ])
    assert code == 3
    assert "two columns" in err


def test_curve_non_finite_integrand_exits_two(capsys):
    # w^400 overflows at the first node: the support ends at 17.80 w_c, so 57
    # seed panels of pi/t_max, and that node lies 0.0085 of a panel from 0
    code, _, err = _run(capsys, [
        "curve", "--spectral", "power-law-gaussian-cutoff", "--A", "1", "--n", "400",
        "--omega-c", "1e13", "--T", "1", "--tmax", "1e-12", "--points", "3",
    ])
    assert code == 2
    assert err.endswith("error: integrand returned a non-finite value at x=13341743702.979004\n")


def test_evolve_reaches_inverse_e(capsys):
    code, out, _ = _run(capsys, [
        "evolve", "--gamma", "1e9", "--rho01", "0.5,0",
        "--tmax", "1e-9", "--points", "2",
    ])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t_s,rho00,rho11,re_rho01,im_rho01,abs_rho01"
    final = lines[-1].split(",")
    assert float(final[5]) == pytest.approx(0.5 / math.e, rel=1e-12, abs=0)


def _run_subprocess(argv, threads):
    env = dict(os.environ, DEPHASER_THREADS=threads)
    return subprocess.run([sys.executable, "-m", "dephaser.cli"] + argv,
                          capture_output=True, env=env, timeout=300)


@pytest.mark.parametrize("argv, message", [
    (["evolve", "--gamma", "1e12", "--E", "1.6e-22", "--rho01", "0.5,0",
      "--tmax", "5e-12", "--points", "3"],
     "gamma = 1.000e+12 1/s gives T2 < 10 ps"),
    (["rate", "--T", "100", "--L", "1e-10", "--D", "1e-8"],
     "sqrt(2) k_D L = 1.56 < 10"),
])
def test_warning_is_one_line_without_a_path(argv, message):
    proc = _run_subprocess(argv, "1")
    assert proc.returncode == 0
    err = proc.stderr.decode()
    assert err.startswith("warning: " + message)
    assert len(err.splitlines()) == 1 and ".py" not in err


def test_main_restores_the_warning_format():
    before = warnings.formatwarning
    with pytest.warns(MarkovValidityWarning):
        assert main(["evolve", "--gamma", "1e12", "--rho01", "0.5,0",
                     "--tmax", "5e-12", "--points", "3"]) == 0
    assert warnings.formatwarning is before
    assert main(["rate", "--T", "-1", "--L", "4e-9", "--D", "1e-8"]) == 1
    assert warnings.formatwarning is before


def test_cli_bytes_independent_of_thread_count():
    # multi-block Monte Carlo run: the reduction order must not leak into
    # the output bytes
    argv = ["rate", "--T", "40", "--L", "4e-9", "--D", "10e-9",
            "--method", "mc", "--samples", "2500000"]
    first = _run_subprocess(argv, "1")
    second = _run_subprocess(argv, "6")
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout


def test_cli_repeat_invocations_identical():
    argv = ["sweep", "--axis", "T", "--min", "20", "--max", "60",
            "--points", "3", "--log", "--L", "4e-9", "--D", "10e-9"]
    first = _run_subprocess(argv, "2")
    second = _run_subprocess(argv, "2")
    assert first.returncode == 0
    assert first.stdout == second.stdout


# Every option of every command: (required, default, choices).
_METHODS = ("closed", "double", "mc")
FLAG_SURFACE = {
    "rate": {
        ("--T",): (True, None, None),
        ("--L",): (True, None, None),
        ("--D",): (True, None, None),
        ("--material",): (False, None, None),
        ("--method",): (False, "closed", _METHODS),
        ("--seed",): (False, 12345, None),
        ("--samples",): (False, 10**7, None),
        ("--out",): (False, None, None),
    },
    "sweep": {
        ("--axis",): (True, None, ("T", "D")),
        ("--min",): (True, None, None),
        ("--max",): (True, None, None),
        ("--points",): (True, None, None),
        ("--log",): (False, False, None),
        ("--linear",): (False, False, None),
        ("--L",): (True, None, None),
        ("--D",): (False, None, None),
        ("--T",): (False, None, None),
        ("--material",): (False, None, None),
        ("--method",): (False, "closed", _METHODS),
        ("--seed",): (False, 12345, None),
        ("--samples",): (False, 10**7, None),
        ("--out",): (False, None, None),
        ("--plot",): (False, None, None),
    },
    "validate": {
        ("--T",): (True, None, None),
        ("--L",): (True, None, None),
        ("--D",): (True, None, None),
        ("--material",): (False, None, None),
        ("--seed",): (False, 12345, None),
        ("--samples",): (False, 10**7, None),
    },
    "curve": {
        ("--spectral",): (True, None, ("power-law-gaussian-cutoff",
                                       "power-law-exponential-cutoff",
                                       "tabulated")),
        ("--A",): (False, 0.0, None),
        ("--n",): (False, 1.0, None),
        ("--omega-c",): (False, 1.0, None),
        ("--table",): (False, None, None),
        ("--T",): (True, None, None),
        ("--tmax",): (True, None, None),
        ("--points",): (True, None, None),
        ("--out",): (False, None, None),
    },
    "evolve": {
        ("--gamma",): (True, None, None),
        ("--E",): (False, 0.0, None),
        ("--rho01",): (True, None, None),
        ("--tmax",): (True, None, None),
        ("--points",): (True, None, None),
        ("--out",): (False, None, None),
    },
}


def test_cli_flag_surface():
    parser = _build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    assert sorted(sub.choices) == sorted(FLAG_SURFACE)
    for command, expected in FLAG_SURFACE.items():
        seen = {}
        for action in sub.choices[command]._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            choices = None if action.choices is None else tuple(action.choices)
            seen[tuple(action.option_strings)] = (action.required,
                                                  action.default, choices)
        assert seen == expected, command


X = [1e-9, 1e-8, 1e-7]
Y = [1e9, 3e10, 2e11]


def test_svg_structure():
    text = loglog_svg_text(X, Y, x_label="D (m)", y_label="gamma (1/s)")
    assert text.startswith("<svg ")
    assert text.endswith("\n")
    assert "<polyline" in text
    assert "D (m)" in text and "gamma (1/s)" in text


def test_svg_bytes_are_deterministic():
    kwargs = dict(x_label="T (K)", y_label="gamma (1/s)")
    assert loglog_svg_text(X, Y, **kwargs) == loglog_svg_text(X, Y, **kwargs)


def test_svg_drops_unplottable_points():
    text = loglog_svg_text([1e-9, 1e-8, 1e-7], [1e9, 0.0, 1e11],
                           x_label="x", y_label="y")
    # the zero-rate point cannot appear on a log axis
    assert text.count(",") >= 1
    with pytest.raises(ValueError, match="no positive finite points"):
        loglog_svg_text([1.0], [0.0], x_label="x", y_label="y")
    with pytest.raises(ValueError):
        loglog_svg_text([math.nan], [1.0], x_label="x", y_label="y")


def test_svg_file_matches_text(tmp_path):
    path = tmp_path / "chart.svg"
    text = loglog_svg_text(X, Y, x_label="x", y_label="y")
    write_text(path, text)
    assert path.read_bytes() == text.encode("utf-8")


def test_fmt_float_round_trips():
    for v in (0.0, 1.0, 1040671074013.2725, 9.609184159828452e-13):
        assert float(fmt_float(v)) == v
    assert fmt_float(math.inf) == "inf"
    assert fmt_float(-math.inf) == "-inf"


def test_package_imports_no_test_only_dependency():
    # numpy is the one runtime dependency; scipy, mpmath and hypothesis are
    # installed for the tests only, so a fresh interpreter must not load them
    src = os.path.dirname(os.path.dirname(dephaser.__file__))
    code = ("import sys, dephaser, dephaser.cli; "
            "print(sorted({'scipy', 'mpmath', 'hypothesis'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), timeout=120, check=True)
    assert out.stdout.strip() == "[]"
