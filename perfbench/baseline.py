"""Measure the benchmark's spread over seeds and write a baseline record.

Usage, from the root of a checkout::

    python3 perfbench/baseline.py --seeds 1-10                 # spreads only
    python3 perfbench/baseline.py --seeds 1-10 --write         # + baseline.json

Each set runs every workload once per seed (workloads interleaved, so
slow drift of the host spreads evenly), with ``run_seconds`` from
BENCHMARK.json; it runs two such sets over the same seeds.
For every end-to-end metric and set it prints the median, the quartiles
and the spread (interquartile distance over the median) against a third
of the metric's bound, and how far each later set's median moved from
the first set's, against the bound. One traced run per workload, on the
default seed, gives the per-layer split. ``--write`` stores all of it in
``baseline.json`` with the host's core count, the Python and numpy
versions and the commit measured. Exit code 1 when a spread reaches a
third of its bound or a median moves by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

from run import DEFAULT_SEED, HERE, ROOT, invoke

# Sets of runs over the same seeds: two sets of the same code must agree.
SETS = 2


def parse_seeds(text):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def measure(workload, seed, seconds, trace):
    """One run's result, with the run's own wall time as ``wall_s``."""
    start = perf_counter()
    code, stdout, result = invoke(workload, seed, seconds, trace)
    if code != 0:
        sys.stdout.write(stdout)
        raise SystemExit(f"{workload} seed {seed} exited {code}")
    result["wall_s"] = perf_counter() - start
    return result


def summarize(values, bound):
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {
        "median": median, "q1": q1, "q3": q3, "spread": spread,
        "bound": bound, "steady": spread < bound / 3, "values": values,
    }


def environment():
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def run_set(workloads, seeds, seconds, bounds, units):
    """One run per workload and seed; per workload the summaries."""
    runs = {w: [] for w in workloads}
    for seed in seeds:
        for workload in workloads:
            result = measure(workload, seed, seconds, 0)
            runs[workload].append(result)
            row = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{workload:<20} seed {seed:<5} correct={result['correct']} {row}", flush=True)
    summary = {}
    for workload, results in runs.items():
        entry = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "run_wall_s": [r["wall_s"] for r in results],
            "end_to_end": {},
        }
        for name, bound in bounds.items():
            stats = summarize([r["metrics"][name]["value"] for r in results], bound)
            stats["unit"] = units[name]
            entry["end_to_end"][name] = stats
        summary[workload] = entry
    return summary


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    sets = []
    for number in range(1, SETS + 1):
        print(f"set {number}", flush=True)
        sets.append(run_set(workloads, seeds, spec["run_seconds"], bounds, units))

    ok = True
    record = {"environment": environment(), "run_seconds": spec["run_seconds"],
              "seeds": seeds, "sets": sets, "median_shift": {}, "layers": {}}
    for workload in workloads:
        print(f"\n{workload}:")
        for number, summary in enumerate(sets, 1):
            entry = summary[workload]
            ok = ok and entry["correct"]
            print(
                f" set {number}: correct={entry['correct']} failed {entry['failed']}/"
                f"{entry['attempted']}; longest run {max(entry['run_wall_s']):.1f} s"
            )
            for name, stats in entry["end_to_end"].items():
                ok = ok and stats["steady"]
                print(
                    f"  {name:<14} median {stats['median']:>10.4f} {units[name]:<3} "
                    f"q1 {stats['q1']:.4f} q3 {stats['q3']:.4f} spread {stats['spread']:.3f} "
                    f"(bound {stats['bound']}, a third {stats['bound'] / 3:.3f}) "
                    f"{'steady' if stats['steady'] else 'NOT STEADY'}"
                )
        shifts = record["median_shift"][workload] = {}
        for name, bound in bounds.items():
            first = sets[0][workload]["end_to_end"][name]["median"]
            shifts[name] = [
                s[workload]["end_to_end"][name]["median"] / first - 1.0 for s in sets[1:]
            ]
            agree = all(abs(shift) <= bound for shift in shifts[name])
            ok = ok and agree
            if shifts[name]:
                moved = ", ".join(f"{shift:+.3f}" for shift in shifts[name])
                print(f"  {name:<14} median moved {moved} from set 1 (bound {bound}) "
                      f"{'agree' if agree else 'DISAGREE'}")
        traced = measure(workload, DEFAULT_SEED, spec["run_seconds"], 1)
        record["layers"][workload] = {
            "seed": DEFAULT_SEED,
            "metrics": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    if args.write:
        (HERE / "baseline.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {HERE / 'baseline.json'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
