"""Runs a workload's passes, gates the results and derives the metrics.

One caller drives the package in a closed loop: each task starts when the
previous one has returned. End-to-end metrics come from untraced passes.
A traced run repeats the same passes under the tracer and also times the
command-line interface in fresh interpreters.
"""
from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import dephaser as api
import tracer as tracing
import workloads

MIN_PASSES = 3  # per-task medians, and s_to_1pct's
SETUP_REPEATS = 15
CLI_REPEATS = 3
MC_ONE_THREAD_TASKS = 4
CENSUS_SEED = 0
SETUP_CODE = (
    "import time; t0 = time.perf_counter(); import dephaser; "
    "t1 = time.perf_counter(); dephaser.get_moment_table(); "
    "t2 = time.perf_counter(); print(t2 - t0, t2 - t1)"
)
# Command lines of the cli.* metrics, after "python3 -m dephaser.cli".
CLI_COMMANDS = {
    "cli.rate_closed_s": ["rate", "--T", "100", "--L", "4e-9", "--D", "1e-8",
                          "--method", "closed", "--out", "rate.csv"],
    "cli.sweep_plot_s": ["sweep", "--axis", "D", "--min", "1e-9", "--max", "1e-6",
                         "--points", "20", "--log", "--T", "50", "--L", "1e-8",
                         "--out", "sweep.csv", "--plot", "sweep.svg"],
    "cli.curve_s": ["curve", "--spectral", "power-law-gaussian-cutoff", "--A", "1e-82",
                    "--n", "2", "--omega-c", "1e13", "--T", "77", "--tmax", "1e-11",
                    "--points", "200", "--out", "curve.csv"],
    "cli.validate_s": ["validate", "--T", "100", "--L", "1e-8", "--D", "1e-8",
                       "--samples", "100000"],
    "cli.evolve_s": ["evolve", "--gamma", "1e12", "--E", "1.6e-22", "--rho01", "0.5,0",
                     "--tmax", "5e-12", "--points", "100", "--out", "evolve.csv"],
}


@dataclass
class Outcome:
    """One task of one pass: its latency and how it fared against the gate."""

    task: workloads.Task
    wall_s: float
    signature: str
    ok: bool  # returned a finite value that meets its reference
    gate_ok: bool  # ok, or a failure the reference records as a known defect
    detail: str = ""
    rel_se: float = 0.0  # mc only
    miss_3se: bool = False  # mc only


def run_pass(tasks, refs, seed: int, pass_index: int, tiny: bool, tracer=None) -> tuple:
    """One pass over the task list; returns (wall seconds, outcomes)."""
    mc_seeds = workloads.mc_seeds(tasks, seed, pass_index)
    done, walls, errors = {}, {}, {}
    for call_id, task in enumerate(tasks, 1):
        if tracer is not None:
            tracer.call_id = call_id
        t0 = perf_counter()
        try:
            done[task.id] = workloads.call(task, done, mc_seeds[task.id], tiny)
        except Exception as exc:  # a failing task is recorded, the pass goes on
            errors[task.id] = exc
        walls[task.id] = perf_counter() - t0
    wall = sum(walls.values())
    outcomes = [_judge(t, done, errors, walls, refs) for t in tasks]
    mc = [o for o in outcomes if o.task.func == "rate_monte_carlo" and o.ok]
    grid = workloads.mc_grid_check(
        [done[o.task.id].gamma_per_s / refs[o.task.id]["closed"] for o in mc])
    if grid:
        for o in mc:
            o.ok = o.gate_ok = False
            o.detail = grid
    return wall, outcomes


def _judge(task, done, errors, walls, refs) -> Outcome:
    ref = refs[task.id]
    if task.id in errors:
        exc = errors[task.id]
        name = type(exc).__name__
        return Outcome(task, walls[task.id], json.dumps({"error": name}), False,
                       workloads.expected_failure(ref, name), f"{name}: {str(exc)[:160]}")
    obs = workloads.observe(done[task.id])
    detail = workloads.check(task, obs, ref)
    out = Outcome(task, walls[task.id], workloads.signature(obs), not detail,
                  not detail, detail)
    if task.func == "rate_monte_carlo" and not detail:
        out.rel_se = obs["se"] / obs["gamma"]
        out.miss_3se = workloads.mc_misses_3se(obs, ref)
    return out


def _room_for_another(start: float, seconds: float, durations: list) -> bool:
    """True if one more round, as long as the median round so far, ends
    within `seconds` of `start`."""
    return perf_counter() - start + statistics.median(durations) <= seconds


def run_passes(tasks, refs, seed, seconds, min_passes, tiny) -> tuple:
    """Passes 0, 1, ... while another fits in `seconds`; at least `min_passes`.

    Returns the passes and the peak resident memory in MB at the end of the
    first `min_passes`: the same work on every run, where the peak of the
    whole run would grow with the number of passes that fit.
    """
    start = perf_counter()
    passes = [run_pass(tasks, refs, seed, i, tiny) for i in range(min_passes)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while _room_for_another(start, seconds, [w for w, _ in passes]):
        passes.append(run_pass(tasks, refs, seed, len(passes), tiny))
    return passes, peak_rss_mb


def measure_setup(root: Path, repeats: int) -> tuple:
    """Median (setup_s, table_build_s) over fresh interpreters, after one
    discarded start that warms the file cache."""
    totals, builds = [], []
    for _ in range(repeats + 1):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=root,
                             capture_output=True, text=True, timeout=120, check=True)
        total, build = (float(x) for x in out.stdout.split())
        totals.append(total)
        builds.append(build)
    return statistics.median(totals[1:]), statistics.median(builds[1:])


def measure_cli(out_dir: Path, repeats: int) -> tuple:
    """Median subprocess wall time per cli.* metric, and any failures."""
    commands = {"cli.import_s": ["-c", "import dephaser.cli"]}
    commands.update({k: ["-m", "dephaser.cli", *v] for k, v in CLI_COMMANDS.items()})
    times, failures = {}, []
    for name, argv in commands.items():
        runs = []
        for _ in range(repeats):
            t0 = perf_counter()
            proc = subprocess.run([sys.executable, *argv], cwd=out_dir,
                                  capture_output=True, text=True, timeout=120)
            runs.append(perf_counter() - t0)
            if proc.returncode != 0:
                failures.append(f"{name}: exit {proc.returncode}: {proc.stderr.strip()[:200]}")
        times[name] = statistics.median(runs)
    return times, failures


def fingerprint(root: Path) -> dict:
    """Machine, interpreter and source-size facts recorded with every result."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:
        from numpy.core._multiarray_umath import __cpu_features__ as features
    sources = sorted((root / "src" / "dephaser").glob("*.py"))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_simd": sorted(k for k, v in features.items() if v),
        "DEPHASER_THREADS": os.environ.get("DEPHASER_THREADS"),
        "src_lines": sum(p.read_text(encoding="utf-8").count("\n") for p in sources),
    }


def mc_s_to_1pct(passes) -> float:
    """Seconds the mc calls would need for 1 % relative SE: the sum over
    tasks of the median over passes of wall * (rel_se / 0.01)^2."""
    per_task = {}
    for _, outs in passes:
        for o in outs:
            if o.rel_se:
                per_task.setdefault(o.task.id, []).append(o.wall_s * (o.rel_se / 0.01) ** 2)
    return sum(statistics.median(v) for v in per_task.values())


def end_to_end(passes, setup_s: float, peak_rss_mb: float) -> tuple:
    """The end-to-end metrics of untraced passes, their sample counts, and
    each task's call latencies in ms.

    wall_s is the median over the passes; the latency percentiles are over
    every call of every pass, interpolated between neighbouring ranks.
    """
    outcomes = [o for _, outs in passes for o in outs]
    call_ms = {}
    for o in outcomes:
        call_ms.setdefault(o.task.id, []).append(1e3 * o.wall_s)
    pooled = [1e3 * o.wall_s for o in outcomes]
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(w for w, _ in passes),
        "call_p50_ms": float(np.percentile(pooled, 50)),
        "call_p90_ms": float(np.percentile(pooled, 90)),
        "ok_frac": sum(o.ok for o in outcomes) / len(outcomes),
        "peak_rss_mb": peak_rss_mb,
    }
    counts = {"setup_s": SETUP_REPEATS, "wall_s": len(passes), "call_p50_ms": len(outcomes),
              "call_p90_ms": len(outcomes), "ok_frac": len(outcomes), "peak_rss_mb": 1}
    return metrics, counts, call_ms


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path,
        out_dir: Path, tiny: bool = False) -> dict:
    """Run one benchmark invocation; returns the report (see report_lines)."""
    warnings.simplefilter("ignore", api.CutoffValidityWarning)
    tasks = workloads.build(workload, tiny)
    refs = workloads.load_reference()
    repeats = 1 if tiny else SETUP_REPEATS
    setup_s, table_build_s = measure_setup(root, repeats)
    api.get_moment_table()  # in-process set-up, outside every timed pass
    run_pass(workloads.build(workload, tiny=True), refs, seed, 0, True)  # warm-up
    report = {"workload": workload, "seed": seed, "trace": int(trace),
              "fingerprint": fingerprint(root), "problems": []}
    if not trace:
        passes, peak_rss_mb = run_passes(tasks, refs, seed, seconds, MIN_PASSES, tiny)
        report["metrics"], report["counts"], report["call_ms"] = end_to_end(
            passes, setup_s, peak_rss_mb)
        report["pass_wall_s"] = [w for w, _ in passes]
        runs = passes
    else:
        # pass i runs untraced, then traced with the same plan, while
        # another such round fits in `seconds`
        untraced, traced, tr = [], [], tracing.Tracer()
        start, rounds = perf_counter(), []
        while not traced or _room_for_another(start, seconds, rounds):
            t_round = perf_counter()
            untraced.append(run_pass(tasks, refs, seed, len(traced), tiny))
            tr.install()
            try:
                traced.append(run_pass(tasks, refs, seed, len(traced), tiny, tr))
            finally:
                tr.uninstall()
            rounds.append(perf_counter() - t_round)
        tr.write(out_dir / f"spans-{workload}-{seed}.csv.gz")
        for (_, a), (_, b) in zip(untraced, traced):
            for x, y in zip(a, b):
                if x.signature != y.signature:
                    report["problems"].append(f"traced result differs: {x.task.id}")
        metrics = tracing.layer_metrics(tr.spans, len(traced))
        mc_metrics, mc_runs = _mc_layer(tasks, refs, seed, tiny, traced, report)
        metrics.update(mc_metrics)
        census_metrics, census_runs = _census(refs, report)
        reached = {s[1] for s in tr.spans}
        report["census_layers"] = sorted({
            layer for layer in (name.rsplit(".", 1)[0] for name in metrics)
            if layer in tracing.SPAN_NAMES and layer not in reached})
        for name in metrics:
            if name.rsplit(".", 1)[0] in report["census_layers"]:
                metrics[name] = census_metrics[name]
        metrics["specfun.table_build_s"] = table_build_s
        cli_times, cli_failures = measure_cli(out_dir, 1 if tiny else CLI_REPEATS)
        metrics.update(cli_times)
        report["problems"] += cli_failures
        metrics["trace.overhead_frac"] = (
            sum(w for w, _ in traced) / sum(w for w, _ in untraced) - 1.0)
        report["metrics"] = metrics
        report["counts"] = {"traced_passes": len(traced), "spans": len(tr.spans)}
        runs = untraced + traced + mc_runs + census_runs
    outcomes = [o for _, outs in runs for o in outs]
    report["passes"] = len(runs)
    report["attempted"] = len(outcomes)
    report["failed"] = sum(not o.gate_ok for o in outcomes) + len(report["problems"])
    report["failed_tasks"] = sum(not o.ok for o in outcomes)
    report["known_defects"] = sorted({o.task.id for o in outcomes if o.gate_ok and not o.ok})
    report["miss_3se"] = sum(o.miss_3se for o in outcomes)
    report["mc_s_to_1pct"] = mc_s_to_1pct(traced if trace else runs)
    report["problems"] += sorted({f"{o.task.id}: {o.detail}" for o in outcomes if not o.gate_ok})
    return report


def _census(refs, report) -> tuple:
    """One traced pass over every workload's tiny task list.

    A layer the workload never reaches is measured here rather than read
    as 0. The seed is fixed, so the census does the same work every run.
    Returns its per-layer metrics and every pass it ran.
    """
    tasks = [t for w in workloads.WORKLOADS for t in workloads.build(w, tiny=True)]
    tr = tracing.Tracer()
    tr.install()
    try:
        census = run_pass(tasks, refs, CENSUS_SEED, 0, True, tr)
    finally:
        tr.uninstall()
    metrics = tracing.layer_metrics(tr.spans, 1)
    mc_metrics, mc_runs = _mc_layer(tasks, refs, CENSUS_SEED, True, [census], report)
    metrics.update(mc_metrics)
    return metrics, [census] + mc_runs


def _mc_layer(tasks, refs, seed, tiny, traced, report) -> tuple:
    """rates.mc metrics and the extra passes they ran.

    The per-call SE and 3-SE misses come from the traced passes; ns/sample
    with one thread is set against the same tasks run with all threads.
    """
    mc = [o for _, outs in traced for o in outs if o.task.func == "rate_monte_carlo"]
    metrics = {"rates.mc.rel_se_max": max((o.rel_se for o in mc), default=0.0),
               "rates.mc.miss_3se": sum(o.miss_3se for o in mc) / len(traced),
               "rates.mc.s_to_1pct": mc_s_to_1pct(traced),
               "rates.mc.ns_per_sample_1t": 0.0, "rates.mc.thread_speedup": 0.0}
    subset = [t for t in tasks if t.func == "rate_monte_carlo"][:MC_ONE_THREAD_TASKS]
    if not subset:
        return metrics, []
    threads = os.environ["DEPHASER_THREADS"]
    os.environ["DEPHASER_THREADS"] = "1"
    try:
        _, one = run_pass(subset, refs, seed, 0, tiny)
    finally:
        os.environ["DEPHASER_THREADS"] = threads
    # time the subset with all threads again: its timings in the full
    # passes interleave with the other tasks
    _, many = run_pass(subset, refs, seed, 0, tiny)
    samples = workloads.mc_samples(tiny) * len(subset)
    ns_one = 1e9 * sum(o.wall_s for o in one) / samples
    ns_many = 1e9 * sum(o.wall_s for o in many) / samples
    for x, y in zip(one, many):
        if x.signature != y.signature:
            report["problems"].append(f"result depends on DEPHASER_THREADS: {x.task.id}")
    metrics["rates.mc.ns_per_sample_1t"] = ns_one
    metrics["rates.mc.thread_speedup"] = ns_one / ns_many
    return metrics, [(0.0, one), (0.0, many)]
