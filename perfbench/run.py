"""Benchmark entry point. Run from the repository root:

    python3 perfbench/run.py --workload sweep|deep --seed N --seconds S --trace 0|1

With --trace 0 it prints the end-to-end metrics of untraced passes; with
--trace 1 the per-layer metrics of a traced run. The metric names and units
are those BENCHMARK.json declares. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. The full report, and
the spans of a traced run, are written to .perfbench-out/.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("sweep", "deep"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="a few cheap tasks per workload, for the benchmark's own tests")
    return p.parse_args(argv)


def report_lines(report: dict, declared: list) -> list:
    """Human-readable lines: one per metric, then failures and problems."""
    fp = report["fingerprint"]
    lines = [f"perfbench workload={report['workload']} seed={report['seed']} "
             f"trace={report['trace']} passes={report['passes']} "
             f"DEPHASER_THREADS={fp['DEPHASER_THREADS']}",
             "fingerprint " + json.dumps(fp, sort_keys=True)]
    counts = report["counts"]
    for m in declared:
        n = f"  n={counts[m['name']]}" if m["name"] in counts else ""
        lines.append(f"  {m['name']:<40} {report['metrics'][m['name']]:>16.6g} {m['unit']}{n}")
    lines.append(f"  {'failed_frac':<40} {report['failed_tasks'] / report['attempted']:>16.6g} "
                 f"frac  ({report['failed_tasks']} of {report['attempted']} tasks)")
    if report["mc_s_to_1pct"]:
        lines.append(f"  {'mc_miss_3se':<40} {report['miss_3se']:>16d} count  "
                     "(mc calls outside max(5 %, 3 SE) of the closed reference)")
        lines.append(f"  {'mc_s_to_1pct':<40} {report['mc_s_to_1pct']:>16.6g} s  "
                     "(sum over mc tasks of the median of wall * (rel_se / 1 %)^2)")
    if report.get("census_layers"):
        lines.append("measured on the census pass (not reached by this workload): "
                     + ", ".join(report["census_layers"]))
    lines += [f"known defect (failed as recorded): {t}" for t in report["known_defects"]]
    lines += [f"problem: {p}" for p in report["problems"]]
    return lines


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "dephaser" / "__init__.py").is_file():
        sys.stderr.write(f"error: no package source at {src / 'dephaser'}; "
                         "run from a checkout of the repository\n")
        return 2
    os.environ["DEPHASER_THREADS"] = str(len(os.sched_getaffinity(0)))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    sys.path[:0] = [str(src), str(HERE)]
    import harness

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    OUT_DIR.mkdir(exist_ok=True)
    report = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                         ROOT, OUT_DIR, tiny=args.tiny)
    name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    with open(OUT_DIR / name, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    for line in report_lines(report, declared):
        print(line)
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: {"value": report["metrics"][m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
