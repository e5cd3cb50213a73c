"""The layer table: which public functions are wrapped, and what they report.

Each entry wraps one public function of ``src/repro`` in a span named
after its layer. Functions that several layers' callers import by name
are patched at every call site, each checked against the defining
module first (see :func:`spans.check_same`). ``geometry`` is not
wrapped: it is called once per ray, so a wrapper would cost more than
the work; its time counts towards camera and mapping.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Tuple

from spans import Patches, SpanRecorder, check_same

# (span name, call-site target, defining target or None when they coincide)
SPANS: Tuple[Tuple[str, str, Optional[str]], ...] = (
    ("venue.build", "repro.eval.workbench:build_library", "repro.venue.library:build_library"),
    ("venue.build", "repro.eval.workbench:build_feature_world", "repro.venue.features:build_feature_world"),
    ("venue.build", "repro.eval.workbench:build_ground_truth", "repro.venue.ground_truth:build_ground_truth"),
    ("camera.take_photo", "repro.camera.capture:CaptureSimulator.take_photo", None),
    ("sfm.add_photos", "repro.sfm.reconstruction:IncrementalSfm.add_photos", None),
    ("sfm.sor", "repro.sfm.filters:IncrementalSorFilter.filter", None),
    ("sfm.sor", "repro.eval.datasets:sor_filter", "repro.sfm.filters:sor_filter"),
    ("sfm.sor", "repro.core.pipeline:sor_filter", "repro.sfm.filters:sor_filter"),
    ("mapping.update", "repro.mapping.incremental:IncrementalMapEngine.update", None),
    ("mapping.rebuild", "repro.eval.datasets:calculate_obstacles_map", "repro.mapping.obstacles:calculate_obstacles_map"),
    ("mapping.rebuild", "repro.eval.datasets:calculate_visibility_map", "repro.mapping.visibility:calculate_visibility_map"),
    ("core.process_batch", "repro.core.pipeline:SnapTaskPipeline.process_batch", None),
    ("core.find_unvisited", "repro.core.pipeline:find_unvisited", "repro.core.unvisited:find_unvisited"),
    ("core.quality", "repro.core.pipeline:check_photo_quality", "repro.core.quality:check_photo_quality"),
    ("crowd", "repro.crowd.guided:GuidedCampaign.run", None),
    ("crowd", "repro.crowd.participatory:UnguidedCollector.collect", None),
    ("crowd", "repro.crowd.opportunistic:OpportunisticCollector.collect", None),
    ("nav.navigate", "repro.nav.navigation:Navigator.navigate", None),
    ("nav.plan", "repro.nav.pathfinding:PathPlanner.plan", None),
    ("nav.locate", "repro.nav.localization:ImageLocalizer.locate", None),
    ("annotation", "repro.annotation.tool:AnnotationCampaign.run", None),
    ("annotation", "repro.annotation.processor:AnnotationProcessor.process", None),
    ("simkit.rng_init", "repro.simkit.rng:RngStream.__init__", None),
    ("simkit.loop", "repro.simkit.events:Simulator.run", None),
    ("simkit.loop", "repro.simkit.events:Simulator.step", None),
    ("server.handle_task_request", "repro.server.backend:BackendServer.handle_task_request", None),
    ("server.handle_photo_batch", "repro.server.backend:BackendServer.handle_photo_batch", None),
    ("server.handle_localization_query", "repro.server.backend:BackendServer.handle_localization_query", None),
    ("persist.checkpoint", "repro.persist.snapshot:Snapshotter.checkpoint", None),
    ("persist.copy", "repro.persist.snapshot:fast_deepcopy", "repro.persist.fastcopy:fast_deepcopy"),
    ("persist.copy", "repro.persist.recovery:fast_deepcopy", "repro.persist.fastcopy:fast_deepcopy"),
    ("persist.wal_append", "repro.persist.wal:WriteAheadLog.append", None),
    ("persist.recover", "repro.persist.recovery:RecoveryManager.recover", None),
    ("eval.evaluate_maps", "repro.eval.experiments:evaluate_maps", "repro.eval.metrics:evaluate_maps"),
    ("eval.evaluate_maps", "repro.eval.datasets:evaluate_maps", "repro.eval.metrics:evaluate_maps"),
)

SWEEP_TARGET = "repro.camera.capture:CaptureSimulator.sweep"


def _registration(counts: Counter, _args, report, _pre) -> None:
    counts["sfm.submitted"] += report.batch_size
    counts["sfm.registered"] += report.newly_registered
    counts["sfm.new_points"] += report.new_points


def _dirty(counts: Counter, _args, update, _pre) -> None:
    counts["mapping.dirty_cells"] += update.dirty_obstacle_cells


def _tasks(counts: Counter, _args, outcome, _pre) -> None:
    counts["core.tasks_issued"] += len(outcome.new_tasks)


def _step(counts: Counter, _args, stepped, _pre) -> None:
    counts["simkit.events"] += bool(stepped)


def _snapshot(counts: Counter, _args, snapshot, _pre) -> None:
    counts["persist.snapshot_bytes"] += len(snapshot.seal)


def _wal_size(args) -> int:
    return args[0].size_bytes


def _wal(counts: Counter, args, _position, size_before) -> None:
    counts["persist.wal_bytes"] += args[0].size_bytes - size_before


def _replayed(counts: Counter, _args, result, _pre) -> None:
    counts["persist.replayed_records"] += result.replayed_records


TALLIES = {
    "repro.sfm.reconstruction:IncrementalSfm.add_photos": (_registration, None),
    "repro.mapping.incremental:IncrementalMapEngine.update": (_dirty, None),
    "repro.core.pipeline:SnapTaskPipeline.process_batch": (_tasks, None),
    "repro.simkit.events:Simulator.step": (_step, None),
    "repro.persist.snapshot:Snapshotter.checkpoint": (_snapshot, None),
    "repro.persist.wal:WriteAheadLog.append": (_wal, _wal_size),
    "repro.persist.recovery:RecoveryManager.recover": (_replayed, None),
}


def check_bindings() -> None:
    """Every wrapped name must resolve before a run starts."""
    for _name, target, origin in SPANS:
        check_same(target, origin or target)
    check_same(SWEEP_TARGET, SWEEP_TARGET)


def install(patches: Patches, recorder: SpanRecorder) -> None:
    """Wrap every target in a span (call :func:`check_bindings` first)."""
    for name, target, _origin in SPANS:
        tally, before = TALLIES.get(target, (None, None))
        patches.install(target, recorder.span_wrapper(name, tally, before))
    patches.install(SWEEP_TARGET, recorder.yield_counter("camera.sweep_photos"))


# Per-layer metrics: name -> (unit, how it is read from the reduced spans).
# ``("calls", span)`` / ``("self_s", span)`` read the span table; a plain
# string reads a tally counter.
LAYER_METRICS: Dict[str, Tuple[str, object]] = {
    "venue.build.self_s": ("s", ("self_s", "venue.build")),
    "camera.take_photo.calls": ("count", ("calls", "camera.take_photo")),
    "camera.take_photo.self_s": ("s", ("self_s", "camera.take_photo")),
    "camera.sweep_photos": ("count", "camera.sweep_photos"),
    "sfm.add_photos.calls": ("count", ("calls", "sfm.add_photos")),
    "sfm.add_photos.self_s": ("s", ("self_s", "sfm.add_photos")),
    "sfm.registered_ratio": ("ratio", "sfm.registered_ratio"),
    "sfm.new_points": ("count", "sfm.new_points"),
    "sfm.sor.self_s": ("s", ("self_s", "sfm.sor")),
    "mapping.update.calls": ("count", ("calls", "mapping.update")),
    "mapping.update.self_s": ("s", ("self_s", "mapping.update")),
    "mapping.dirty_cells": ("count", "mapping.dirty_cells"),
    "mapping.rebuild.calls": ("count", ("calls", "mapping.rebuild")),
    "mapping.rebuild.self_s": ("s", ("self_s", "mapping.rebuild")),
    "core.process_batch.calls": ("count", ("calls", "core.process_batch")),
    "core.process_batch.self_s": ("s", ("self_s", "core.process_batch")),
    "core.quality.self_s": ("s", ("self_s", "core.quality")),
    "core.find_unvisited.calls": ("count", ("calls", "core.find_unvisited")),
    "core.find_unvisited.self_s": ("s", ("self_s", "core.find_unvisited")),
    "core.tasks_issued": ("count", "core.tasks_issued"),
    "crowd.self_s": ("s", ("self_s", "crowd")),
    "nav.navigate.calls": ("count", ("calls", "nav.navigate")),
    "nav.navigate.self_s": ("s", ("self_s", "nav.navigate")),
    "nav.plan.self_s": ("s", ("self_s", "nav.plan")),
    "nav.locate.self_s": ("s", ("self_s", "nav.locate")),
    "annotation.calls": ("count", ("calls", "annotation")),
    "annotation.self_s": ("s", ("self_s", "annotation")),
    "simkit.rng_streams": ("count", ("calls", "simkit.rng_init")),
    "simkit.rng_init.self_s": ("s", ("self_s", "simkit.rng_init")),
    "simkit.events": ("count", "simkit.events"),
    "simkit.loop.self_s": ("s", ("self_s", "simkit.loop")),
    "server.handle_task_request.calls": ("count", ("calls", "server.handle_task_request")),
    "server.handle_task_request.self_s": ("s", ("self_s", "server.handle_task_request")),
    "server.handle_photo_batch.calls": ("count", ("calls", "server.handle_photo_batch")),
    "server.handle_photo_batch.self_s": ("s", ("self_s", "server.handle_photo_batch")),
    "server.handle_localization_query.calls": ("count", ("calls", "server.handle_localization_query")),
    "server.handle_localization_query.self_s": ("s", ("self_s", "server.handle_localization_query")),
    "persist.checkpoint.calls": ("count", ("calls", "persist.checkpoint")),
    "persist.checkpoint.self_s": ("s", ("self_s", "persist.checkpoint")),
    "persist.copy.self_s": ("s", ("self_s", "persist.copy")),
    "persist.snapshot_bytes": ("B", "persist.snapshot_bytes"),
    "persist.wal_append.calls": ("count", ("calls", "persist.wal_append")),
    "persist.wal_append.self_s": ("s", ("self_s", "persist.wal_append")),
    "persist.wal_bytes": ("B", "persist.wal_bytes"),
    "persist.recover.self_s": ("s", ("self_s", "persist.recover")),
    "persist.replayed_records": ("count", "persist.replayed_records"),
    "eval.evaluate_maps.self_s": ("s", ("self_s", "eval.evaluate_maps")),
    "unattributed.self_s": ("s", "unattributed.self_s"),
    "tracing_overhead_s": ("s", "tracing_overhead_s"),
    "traced.run_s": ("s", "traced.run_s"),
}

# Layers each workload must exercise (at least one call) and layers it
# must not touch. A failure here means ``src/`` drifted away from the
# table above, or a workload stopped separating the layers it was chosen
# to separate.
NONZERO = {
    "guided": (
        "venue.build", "camera.take_photo", "camera.sweep_photos", "sfm.add_photos",
        "sfm.sor", "mapping.update", "core.process_batch", "core.find_unvisited",
        "core.quality", "crowd", "nav.navigate", "nav.plan", "annotation",
        "simkit.rng_init", "eval.evaluate_maps",
    ),
    "baselines": (
        "venue.build", "camera.take_photo", "sfm.add_photos", "sfm.sor",
        "mapping.rebuild", "crowd", "nav.plan", "simkit.rng_init", "eval.evaluate_maps",
    ),
    "durable-deployment": (
        "venue.build", "camera.take_photo", "camera.sweep_photos", "sfm.add_photos",
        "sfm.sor", "mapping.update", "core.process_batch", "core.find_unvisited",
        "nav.navigate", "nav.plan", "simkit.rng_init", "simkit.loop",
        "nav.locate", "server.handle_task_request", "server.handle_photo_batch",
        "server.handle_localization_query", "persist.checkpoint", "persist.copy",
        "persist.wal_append", "persist.recover",
    ),
}
PERSIST = ("persist.checkpoint", "persist.copy", "persist.wal_append", "persist.recover")
SERVER = (
    "server.handle_task_request", "server.handle_photo_batch",
    "server.handle_localization_query",
)
ZERO = {
    "guided": PERSIST + SERVER + ("mapping.rebuild", "simkit.loop"),
    "baselines": PERSIST + SERVER + (
        "mapping.update", "core.process_batch", "core.find_unvisited",
        "camera.sweep_photos", "annotation", "simkit.loop",
    ),
    "durable-deployment": ("mapping.rebuild", "eval.evaluate_maps"),
}


def layer_metrics(
    recorder: SpanRecorder, run_s: float, untraced_run_s: float
) -> Dict[str, float]:
    """Reduce a traced run to the per-layer metric values."""
    table = recorder.reduce("run")
    setup = recorder.reduce("setup")
    counts = recorder.counts
    derived = {
        "sfm.registered_ratio": (
            counts["sfm.registered"] / counts["sfm.submitted"] if counts["sfm.submitted"] else 0.0
        ),
        "unattributed.self_s": run_s - sum(row["self_s"] for row in table.values()),
        "tracing_overhead_s": run_s - untraced_run_s,
        "traced.run_s": run_s,
    }
    values: Dict[str, float] = {}
    for metric, (_unit, source) in LAYER_METRICS.items():
        if isinstance(source, tuple):
            field, span = source
            rows = setup if span == "venue.build" else table
            values[metric] = rows.get(span, {}).get(field, 0)
        elif source in derived:
            values[metric] = derived[source]
        else:
            values[metric] = counts[source]
    return values


def separation_errors(workload: str, recorder: SpanRecorder) -> List[str]:
    """Layers that were expected to be called (or not) but were not (or were)."""
    calls = {name: row["calls"] for name, row in recorder.reduce("run").items()}
    calls["venue.build"] = recorder.reduce("setup").get("venue.build", {}).get("calls", 0)
    calls["camera.sweep_photos"] = recorder.counts["camera.sweep_photos"]
    errors = [
        f"{workload}: layer {name} recorded no calls"
        for name in NONZERO[workload]
        if not calls.get(name)
    ]
    errors += [
        f"{workload}: layer {name} recorded {calls[name]} calls, expected none"
        for name in ZERO[workload]
        if calls.get(name)
    ]
    return errors

