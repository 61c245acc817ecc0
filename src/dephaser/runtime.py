"""Process-level helpers: worker-pool sizing, uniform time grids and
deterministic text output."""
from __future__ import annotations

import csv
import io
import math
import os

import numpy as np


def worker_count() -> int:
    """Thread count from DEPHASER_THREADS; 0 or unset means all cores this
    process may use (its CPU affinity where the platform reports one).

    Results never depend on this value, only wall time does: work items
    are mapped in deterministic order and reduced sequentially.
    """
    raw = os.environ.get("DEPHASER_THREADS", "0").strip()
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"DEPHASER_THREADS must be an integer, got {raw!r}") from None
    if n < 0:
        raise ValueError("DEPHASER_THREADS must be >= 0")
    if n == 0:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    return n


def uniform_times(t_max: float, points: int) -> np.ndarray:
    """Uniform grid of points times over [0, t_max].

    t_max = 0 or a single point gives the one sample t = 0.
    """
    if points < 1:
        raise ValueError("points must be >= 1")
    if not math.isfinite(t_max) or t_max < 0.0:
        raise ValueError("t_max must be finite and >= 0")
    if t_max == 0.0 or points == 1:
        return np.array([0.0])
    return t_max * np.arange(points) / (points - 1)


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
