"""Tests for the SVG chart writer and process-level helpers."""

import math
import os
import subprocess
import sys

import pytest

import dephaser
from dephaser.runtime import fmt_float, worker_count, write_text
from dephaser.svgplot import loglog_svg_text

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


def test_worker_count_defaults_to_cores(monkeypatch):
    monkeypatch.delenv("DEPHASER_THREADS", raising=False)
    assert worker_count() >= 1
    monkeypatch.setenv("DEPHASER_THREADS", "0")
    assert worker_count() >= 1


def test_worker_count_default_follows_cpu_affinity(monkeypatch):
    monkeypatch.delenv("DEPHASER_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert worker_count() == 1


def test_worker_count_explicit(monkeypatch):
    monkeypatch.setenv("DEPHASER_THREADS", "3")
    assert worker_count() == 3


@pytest.mark.parametrize("bad", ["-1", "two", "1.5"])
def test_worker_count_rejects_bad_values(monkeypatch, bad):
    monkeypatch.setenv("DEPHASER_THREADS", bad)
    with pytest.raises(ValueError):
        worker_count()


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
