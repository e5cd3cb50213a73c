"""Run one benchmark workload (or all of them) and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload guided --seed 2018 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

``--trace 0`` measures the end-to-end metrics with nothing wrapped but the
batch timers. ``--trace 1`` runs an untraced campaign, one with every
layer's public functions wrapped in spans, and another untraced one, and
reports the per-layer split. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Exit codes: 0 ok; 1 an output check failed (the JSON still prints);
2 the program under ``src/`` cannot be imported; 3 the layer table no
longer matches ``src/`` (a wrapped name is gone or a layer went silent).
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from spans import DriftError, Patches, SpanRecorder, tail_percentile  # noqa: E402

EXPECTED = HERE / "expected.json"
OUT = HERE / "out"
DEFAULT_SEED = 2018
# Workbench builds timed before each campaign of an untraced run (the
# last ones built are the campaign's); setup_s is the median of every
# build in the run.
BUILDS_PER_CAMPAIGN = 2


def build_benches(workload, seed, samples, count):
    """Build ``count`` fresh workbenches, timing each; return the last
    ``workload.benches_per_campaign`` of them."""
    from repro.eval.workbench import Workbench

    kept = []
    for _ in range(max(count, workload.benches_per_campaign)):
        config = workload.config(seed)
        gc.collect()
        start = perf_counter()
        bench = Workbench.for_library(config)
        samples.append(perf_counter() - start)
        kept = (kept + [bench])[-workload.benches_per_campaign:]
    return kept


def run_campaign(workload, benches, timers):
    """One timed campaign: ``(outputs, run_s, batch samples, failed)``."""
    before = len(timers["batch"])
    gc.collect()
    start = perf_counter()
    outputs, failed = workload.run(benches)
    run_s = perf_counter() - start
    return outputs, run_s, timers["batch"][before:], failed


def load_expected():
    if not EXPECTED.exists():
        return {}
    return json.loads(EXPECTED.read_text(encoding="utf-8"))


def check_outputs(workload, campaigns):
    """Errors in a run's ``[(seed, outputs)]``: invariants, recorded outputs,
    and equal outputs for equal seeds. Returns ``(errors, pinned seeds)``."""
    recorded = load_expected().get(workload.name, {})
    errors, pinned, seen = [], [], {}
    for seed, outputs in campaigns:
        errors += [f"seed {seed}: {e}" for e in workload.invariants(outputs)]
        if seen.setdefault(seed, outputs) != outputs:
            errors.append(f"seed {seed}: two campaigns differ: {outputs} != {seen[seed]}")
        expected = recorded.get(str(seed))
        if expected is not None:
            pinned.append(seed)
            if expected != outputs:
                errors.append(f"seed {seed}: outputs {outputs} != recorded {expected}")
    return errors, sorted(set(pinned))


def record_expected(workload, campaigns):
    table = load_expected()
    for seed, outputs in campaigns:
        table.setdefault(workload.name, {})[str(seed)] = outputs
    EXPECTED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload, args):
    """Untraced: ``workload.repeats`` campaigns on ``--seed``, each after
    ``BUILDS_PER_CAMPAIGN`` timed workbench builds; medians over them.

    Batch samples are pooled over the campaigns. Returns ``(campaigns,
    attempted, failed, gated metrics, printed metrics)``.
    """
    setup, campaigns, run_times, batches, failed = [], [], [], [], 0
    with Patches() as patches:
        timers = workload.install_timers(patches)
        for _ in range(workload.repeats):
            benches = build_benches(workload, args.seed, setup, BUILDS_PER_CAMPAIGN)
            outputs, run_s, samples, bad = run_campaign(workload, benches, timers)
            benches = None
            campaigns.append((args.seed, outputs))
            run_times.append(run_s)
            batches += samples
            failed += bad
    values = {
        "setup_s": (statistics.median(setup), "s", f"median of n={len(setup)} builds"),
        "run_s": (
            statistics.median(run_times), "s",
            f"median of n={len(run_times)} campaigns: "
            + ", ".join(f"{t:.3f}" for t in run_times),
        ),
        "peak_rss_mb": (peak_rss_mb(), "MB", "process ru_maxrss"),
    }
    # Printed, not gated (see README.md); each only when the run has
    # samples for it, so a campaign that fails closed still reaches the
    # output check.
    shown = dict(values)
    if batches:
        shown["batch_p50_ms"] = (
            1e3 * statistics.median(batches), "ms", f"n={len(batches)} batches"
        )
    if len(batches) > 10:
        tail_pct, tail = tail_percentile(batches)
        shown["batch_tail_ms"] = (
            1e3 * tail, "ms", f"p{tail_pct:.1f} of n={len(batches)} batches"
        )
    restarts = timers.get("recovery", [])
    if restarts:
        shown["recovery_s"] = (
            statistics.median(restarts), "s", f"median of n={len(restarts)} restarts"
        )
    return campaigns, len(batches) + failed, failed, values, shown


def traced(workload, args):
    """An untraced campaign, one with every layer wrapped, another untraced.

    All three run ``--seed``. The untraced pair brackets the traced
    campaign, so the tracing overhead (traced run_s minus the median
    untraced run_s) is not skewed by the first campaign of a process
    running cold.
    """
    import layers

    setup, campaigns, plain_s, attempted, failed = [], [], [], 0, 0
    recorder = SpanRecorder()
    with Patches() as patches:
        timers = workload.install_timers(patches)
        for phase in ("plain", "traced", "plain"):
            with Patches() as wrapped:
                if phase == "traced":
                    layers.install(wrapped, recorder)
                recorder.run = "setup"
                benches = build_benches(
                    workload, args.seed, setup, workload.benches_per_campaign
                )
                recorder.run = "run"
                outputs, run_s, batches, bad = run_campaign(workload, benches, timers)
                benches = None
            campaigns.append((args.seed, outputs))
            attempted += len(batches) + bad
            failed += bad
            if phase == "plain":
                plain_s.append(run_s)
            else:
                traced_s = run_s
    problems = layers.separation_errors(workload.name, recorder)
    if problems:
        raise DriftError("; ".join(problems))
    OUT.mkdir(exist_ok=True)
    recorder.write(
        OUT / f"spans-{workload.name}-{args.seed}.jsonl",
        {"workload": workload.name, "seed": args.seed, "run_s": traced_s},
    )
    split = layers.layer_metrics(recorder, traced_s, statistics.median(plain_s))
    values = {
        name: (split[name], unit, "")
        for name, (unit, _source) in layers.LAYER_METRICS.items()
    }
    values["tracing_overhead_s"] = (
        split["tracing_overhead_s"], "s",
        "untraced: " + ", ".join(f"{t:.3f}" for t in plain_s),
    )
    return campaigns, attempted, failed, values, values


def run_one(args):
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if ROOT / "src" not in Path(repro.__file__).resolve().parents:
        print(f"perfbench: imported repro from {repro.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    import layers
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    try:
        layers.check_bindings()
        mode = traced if args.trace else end_to_end
        campaigns, attempted, failed, values, shown = mode(workload, args)
    except DriftError as exc:
        print(f"perfbench: layer table drifted from src/: {exc}", file=sys.stderr)
        return 3
    attempted = max(attempted, 1)
    errors, pinned = check_outputs(workload, campaigns)
    if args.record and not errors:
        record_expected(workload, campaigns)
        pinned = sorted({seed for seed, _ in campaigns})
    correct = not errors
    if not correct:
        failed = attempted
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace} campaigns={len(campaigns)}")
    for name, (value, unit, note) in shown.items():
        print(f"  {name:<42} {value:>14.6g} {unit:<6} {note}")
    print(f"  {'failed_ratio':<42} {failed / attempted:>14.6g} {'1':<6} {failed}/{attempted} batches")
    for seed, outputs in campaigns:
        print(f"  outputs seed {seed}: {json.dumps(outputs, sort_keys=True)}")
    check = f"recorded outputs for seeds {pinned}" if pinned else "no recorded outputs for these seeds"
    print(f"  check: {'ok' if correct else 'FAILED'} (invariants; {check})")
    for error in errors:
        print(f"  error: {error}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit, _n) in values.items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


def invoke(workload, seed, seconds, trace):
    """Run one workload in a process of its own (peak RSS is per process).

    Returns ``(exit code, standard output, result)``; the result is the
    parsed JSON of the last line, or None when the run printed none.
    """
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
    return proc.returncode, proc.stdout, result


def run_all(args):
    """Every workload in turn, each in its own process."""
    from workloads import WORKLOADS

    status = 0
    results = {}
    for name in WORKLOADS:
        code, stdout, results[name] = invoke(name, args.seed, args.seconds, args.trace)
        sys.stdout.write(stdout)
        status = status or code
    print(json.dumps(results))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=35.0,
        help="the run length budgeted for a run; the work a run does is fixed (README.md)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record", action="store_true",
        help="store this run's outputs as the expected outputs for its seed",
    )
    args = parser.parse_args(argv)
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or 'all'")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
