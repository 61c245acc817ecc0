"""Record the closed route's rates over the box grid.

Writes tests/closed_box_reference.json: the closed-form rate at every point
of T in {1 mK, 10 mK, 0.1, 1, 4, 20, 100, 300, 10^3, 10^4 K} x L in
{0.1, 0.2, 0.4, 0.5, 1, 4, 100 nm} x D in {0.1 nm, 10 nm, 0.1, 1, 10,
100 um, 1 mm, 1 m} (560 points). tests/test_rates.py checks the route
against the file at rel 1e-10, so a change that moves the closed route
must re-record it and list old -> new values. Not collected by pytest; run
from the repository root:

    PYTHONPATH=src python tests/record_closed_box.py
"""
import json
import warnings
from pathlib import Path

from dephaser.model import GAAS, DotGeometry, ThermalEnv
from dephaser.rates import CutoffValidityWarning, rate_closed_form

BOX_T_K = (1e-3, 1e-2, 0.1, 1.0, 4.0, 20.0, 100.0, 300.0, 1e3, 1e4)
BOX_L_M = (0.1e-9, 0.2e-9, 0.4e-9, 0.5e-9, 1e-9, 4e-9, 100e-9)
BOX_D_M = (0.1e-9, 10e-9, 0.1e-6, 1e-6, 10e-6, 100e-6, 1e-3, 1.0)
REFERENCE = Path(__file__).with_name("closed_box_reference.json")


def box_points():
    return [(T, L, D) for T in BOX_T_K for L in BOX_L_M for D in BOX_D_M]


def closed_rate(T, L, D) -> float:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CutoffValidityWarning)
        return rate_closed_form(GAAS, DotGeometry(L, D), ThermalEnv(T)).gamma_per_s


def main() -> None:
    rows = [[T, L, D, closed_rate(T, L, D)] for T, L, D in box_points()]
    # one row a line, so a re-record diffs point by point
    body = ",\n  ".join(json.dumps(row) for row in rows)
    REFERENCE.write_text('{"columns": ["T_K", "width_L_m", "separation_D_m", "gamma_per_s"],\n'
                         f' "rows": [\n  {body}\n ]}}\n', encoding="utf-8")
    print(f"wrote {len(rows)} rows to {REFERENCE}")


if __name__ == "__main__":
    main()
