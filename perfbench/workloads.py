"""The three workloads as fixed task lists, and the correctness gate.

A task is one top-level public call. Every workload's inputs are fixed
and run in list order; the workload seed draws the Monte Carlo seeds of
``deep``'s ``mc`` tasks, and leaves the deterministic tasks unchanged.
Reference values were recorded from the package by ``record_reference.py``
and live in ``reference.json``.

Import this module only after the checkout's ``src`` directory is on
``sys.path``: it calls the package through its public namespace, looked up
at call time, so that the tracer's shims on ``dephaser.<name>`` are seen.
"""
from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import dephaser as api

WORKLOADS = ("sweep", "deep")
L_REF = 4e-9
MC_SAMPLES = 1 << 21  # two 2^20-sample blocks, one per core on two cores
REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Tolerances of the gate, relative to the recorded reference.
CLOSED_REL_TOL = 1e-6  # closed rates, fits and curves; the routes ask 1e-8 to 1e-10
DOUBLE_REL_TOL = 1e-2  # double against the closed reference, as rate_validate
EXTRAPOLATED_REL_TOL = 1e-2  # a converged 1 mm rate against the log-law value
MC_GRID_MEDIAN_TOL = 0.15  # median mc/closed ratio over one pass's grid
MC_FACTOR = 10.0  # one mc call: within this factor of closed, or within 3 SE


@dataclass(frozen=True)
class Task:
    """One top-level public call with fixed inputs.

    ``func`` names a function on the ``dephaser`` package. Fits take the
    points of the sweep task ``source`` from the same pass and ``args`` is
    their window.
    """

    id: str
    func: str
    args: tuple
    source: str = ""


def _spectral(kind: str):
    if kind == "table":
        omega = np.geomspace(1e12, 3e13, 12)
        return api.SpectralDensity(
            form="tabulated", table_omega_rad_per_s=omega,
            table_J=1e-82 * omega**2 * np.exp(-((omega / 1e13) ** 2)))
    form, amplitude, exponent = {
        "gauss2": ("power-law-gaussian-cutoff", 1e-82, 2.0),
        "exp3": ("power-law-exponential-cutoff", 1e-95, 3.0),
        "ohmic1": ("power-law-gaussian-cutoff", 1e-70, 1.0),
    }[kind]
    return api.SpectralDensity(form=form, amplitude=amplitude, exponent=exponent,
                               cutoff_rad_per_s=1e13)


def _sweep_tasks(tiny: bool) -> list:
    t_sweeps = [(L, 1e-8) for L in (4e-9, 1e-10, 1e-7)]
    d_sweeps = [4.0, 300.0]
    curves = [("gauss2", 0.0, 1e-11), ("gauss2", 77.0, 1e-11), ("exp3", 4.0, 4e-12),
              ("ohmic1", 4.0, 1e-11), ("table", 4.2, 1e-11)]
    if tiny:
        t_sweeps, d_sweeps, curves = t_sweeps[2:], [], curves[:1]
    tasks = []
    for L, D in t_sweeps:
        sid = f"sweep:T:L={L!r}:D={D!r}"
        tasks.append(Task(sid, "run_sweep", (api.SweepSpec(
            axis=api.AXIS_TEMPERATURE, min_value=1e-3, max_value=1e4, points=29,
            width_L_m=L, fixed_D_m=D),)))
        tasks.append(Task(f"fit:power:{sid}:low-T", "fit_power_law", (1e-3, 1e-1), sid))
    for T in d_sweeps:
        sid = f"sweep:D:L={L_REF!r}:T={T!r}"
        tasks.append(Task(sid, "run_sweep", (api.SweepSpec(
            axis=api.AXIS_DISTANCE, min_value=1e-10, max_value=1e-6, points=25,
            width_L_m=L_REF, fixed_T_K=T),)))
        tasks.append(Task(f"fit:power:{sid}:small-D", "fit_power_law", (1e-10, 1e-9), sid))
        tasks.append(Task(f"fit:log:{sid}:large-D", "fit_log_law", (1e-7, 1e-6), sid))
    for kind, T, t_max in curves:
        tasks.append(Task(f"curve:{kind}:T={T!r}", "decoherence_curve",
                          (_spectral(kind), api.ThermalEnv(T_K=T), t_max, 200)))
    return tasks


def _deep_tasks(tiny: bool) -> list:
    # (2 K, 500 nm) is left out: at about 8 s it would make a pass half as
    # long again, and a run would hold two passes instead of three
    doubles = [(T, D) for T in (2.0, 20.0, 300.0) for D in (10e-9, 50e-9, 500e-9)
               if (T, D) != (2.0, 500e-9)]
    # 300 um is left out to fit more passes in a run; 100 um and 1 mm keep
    # the closed route's seed panels growing with D
    closed = [(D, T) for D in (1e-5, 1e-4, 1e-3) for T in (4.0, 300.0)]
    if tiny:
        doubles, closed = [(300.0, 50e-9)], [(1e-5, 300.0), (1e-3, 300.0)]
    tasks = [Task(f"double:T={T!r}:D={D!r}", "rate_double_integral",
                  (api.GAAS, api.DotGeometry(L_REF, D), api.ThermalEnv(T)))
             for T, D in doubles]
    tasks += [Task(f"closed:T={T!r}:D={D!r}", "rate_closed_form",
                   (api.GAAS, api.DotGeometry(L_REF, D), api.ThermalEnv(T)))
              for D, T in closed]
    return tasks + _mc_tasks(tiny)


def _mc_tasks(tiny: bool) -> list:
    grid = [(T, D) for T in (20.0, 50.0, 100.0, 300.0)
            for D in (6e-9, 10e-9, 50e-9, 500e-9)]
    if tiny:
        grid = [(300.0, 6e-9), (300.0, 10e-9)]
    return [Task(f"mc:T={T!r}:D={D!r}", "rate_monte_carlo",
                 (api.GAAS, api.DotGeometry(L_REF, D), api.ThermalEnv(T)))
            for T, D in grid]


def build(workload: str, tiny: bool = False) -> list:
    """The workload's fixed task list; ``tiny`` keeps a few cheap tasks."""
    return {"sweep": _sweep_tasks, "deep": _deep_tasks}[workload](tiny)


def mc_samples(tiny: bool) -> int:
    return 1 << 20 if tiny else MC_SAMPLES


def mc_seeds(tasks: list, seed: int, pass_index: int) -> dict:
    """Monte Carlo seed of each task in one pass; fixed by (seed, pass_index)."""
    rng = np.random.default_rng([seed, pass_index])
    return {t.id: int(s) for t, s in zip(tasks, rng.integers(0, 2**63, size=len(tasks)))}


def call(task: Task, done: dict, mc_seed: int, tiny: bool):
    """Run one task through the public API; ``done`` holds this pass's results."""
    fn = getattr(api, task.func)
    if task.source:
        points = [(p.axis_value, p.result.gamma_per_s)
                  for p in done[task.source] if p.result is not None]
        return fn(points, task.args)
    if task.func == "rate_monte_carlo":
        return fn(*task.args, samples=mc_samples(tiny), seed=mc_seed)
    return fn(*task.args)


def observe(result) -> dict:
    """The numbers a result carries, for the gate and the bit-identity check."""
    if isinstance(result, list):  # run_sweep
        return {"gamma": [p.result.gamma_per_s if p.result else math.nan for p in result],
                "errors": [p.error for p in result]}
    if isinstance(result, api.FitResult):
        return {"slope": result.slope, "intercept": result.intercept}
    if isinstance(result, api.DecoherenceCurve):
        return {"ratio": [float(r) for r in result.ratio], "plateau": result.plateau}
    return {"gamma": result.gamma_per_s, "se": result.mc_std_error_per_s}


def signature(obs) -> str:
    """Bit-exact text form of an observation (or of an error name)."""
    def enc(v):
        if isinstance(v, float):
            return v.hex()
        if isinstance(v, list):
            return [enc(x) for x in v]
        if isinstance(v, dict):
            return {k: enc(x) for k, x in sorted(v.items())}
        return v
    return json.dumps(enc(obs), sort_keys=True)


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)["tasks"]


def _rel(x: float, ref: float) -> float:
    return abs(x - ref) / abs(ref) if ref != 0.0 else abs(x)


def _finite(values) -> bool:
    return all(isinstance(v, float) and math.isfinite(v) for v in values)


def check(task: Task, obs: dict, ref: dict) -> str:
    """Empty string if the result meets its reference, else the reason."""
    if task.func == "run_sweep":
        if any(obs["errors"]) or not _finite(obs["gamma"]):
            return "sweep point failed or non-finite"
        if len(obs["gamma"]) != len(ref["gamma"]):
            return "sweep length differs from the reference"
        worst = max(_rel(x, r) for x, r in zip(obs["gamma"], ref["gamma"]))
        return "" if worst <= CLOSED_REL_TOL else f"sweep point off by {worst:.2e} rel"
    if task.source:
        if not _finite([obs["slope"], obs["intercept"]]):
            return "non-finite fit"
        worst = max(abs(obs[k] - ref[k]) / max(1.0, abs(ref[k]))
                    for k in ("slope", "intercept"))
        return "" if worst <= CLOSED_REL_TOL else f"fit off by {worst:.2e}"
    if task.func == "decoherence_curve":
        if not _finite(obs["ratio"]):
            return "non-finite curve"
        if (obs["plateau"] is None) != (ref["plateau"] is None):
            return "plateau presence differs from the reference"
        pairs = list(zip(obs["ratio"], ref["ratio"]))
        if obs["plateau"] is not None:
            pairs.append((obs["plateau"], ref["plateau"]))
        worst = max(_rel(x, r) for x, r in pairs)
        return "" if worst <= CLOSED_REL_TOL else f"curve off by {worst:.2e} rel"
    gamma = obs["gamma"]
    if not (math.isfinite(gamma) and gamma > 0.0):
        return "non-finite or non-positive rate"
    if task.func == "rate_double_integral":
        off = _rel(gamma, ref["closed"])
        return "" if off <= DOUBLE_REL_TOL else f"double off closed by {off:.2e} rel"
    if task.func == "rate_closed_form":
        if "closed" in ref:
            off, tol = _rel(gamma, ref["closed"]), CLOSED_REL_TOL
        else:
            off, tol = _rel(gamma, ref["extrapolated"]), EXTRAPOLATED_REL_TOL
        return "" if off <= tol else f"closed off by {off:.2e} rel"
    se = obs["se"]
    if not (se is not None and math.isfinite(se) and se > 0.0):
        return "mc standard error missing or non-positive"
    ratio = gamma / ref["closed"]
    if not (1.0 / MC_FACTOR <= ratio <= MC_FACTOR or abs(gamma - ref["closed"]) <= 3.0 * se):
        return f"mc/closed = {ratio:.3f}, beyond a factor {MC_FACTOR:g} and 3 SE"
    return ""


def mc_misses_3se(obs: dict, ref: dict) -> bool:
    """The cross-route rule of rate_validate: outside max(5 %, 3 SE)."""
    closed = ref["closed"]
    return abs(obs["gamma"] - closed) > max(0.05 * closed, 3.0 * obs["se"])


def mc_grid_check(ratios: list) -> str:
    """Gate on one pass's mc grid: the median mc/closed ratio stays near 1."""
    if not ratios:
        return ""
    med = statistics.median(ratios)
    if abs(med - 1.0) <= MC_GRID_MEDIAN_TOL:
        return ""
    return f"median mc/closed ratio {med:.3f} over the pass's grid"


def expected_failure(ref: dict, error_name: str) -> bool:
    """A failure the reference records as a known defect of this commit."""
    return ref.get("expect") == error_name
