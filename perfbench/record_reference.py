"""Record the reference values of every fixed task into reference.json.

Run from the repository root when the references must be re-derived:

    python3 perfbench/record_reference.py

``double`` and ``mc`` tasks are referenced to the closed-form rate at the
same point. The two 1 mm closed-form tasks raise NonConvergence in the
package this file was recorded with; their entry records that as the
expected failure, together with the value the log law through the 100 um
and 300 um rates predicts, which a converged result is held to.
"""
from __future__ import annotations

import json
import math
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import dephaser as api  # noqa: E402
import workloads  # noqa: E402


def _closed(task) -> float:
    return api.rate_closed_form(*task.args).gamma_per_s


def main() -> int:
    warnings.simplefilter("ignore", api.CutoffValidityWarning)
    refs = {}
    for name in workloads.WORKLOADS:
        done = {}
        for task in workloads.build(name):
            if task.func in ("rate_double_integral", "rate_monte_carlo"):
                refs[task.id] = {"closed": _closed(task)}
                continue
            try:
                result = workloads.call(task, done, 0, tiny=False)
            except api.NonConvergence:
                refs[task.id] = {"expect": "NonConvergence"}
                continue
            done[task.id] = result
            obs = workloads.observe(result)
            obs.pop("errors", None)
            if task.func == "rate_closed_form":
                obs = {"closed": obs["gamma"]}
            refs[task.id] = obs
        for task in workloads.build(name):
            if refs[task.id].get("expect") and task.func == "rate_closed_form":
                mat, env = task.args[0], task.args[2]
                g100, g300 = (api.rate_closed_form(mat, api.DotGeometry(workloads.L_REF, D),
                                                   env).gamma_per_s for D in (1e-4, 3e-4))
                slope = (g300 - g100) / math.log(3.0)
                refs[task.id]["extrapolated"] = g300 + slope * math.log(1e-3 / 3e-4)
    doc = {
        "recorded_with": {"dephaser": api.__version__, "numpy": np.__version__,
                          "python": sys.version.split()[0]},
        "tasks": refs,
    }
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(refs)} references to {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
