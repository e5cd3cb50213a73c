"""The three benchmark workloads, their outputs and their output checks.

Every workload runs in one process on one thread as a closed loop: each
simulated participant waits for the backend's reply before its next
step. The workload seed becomes the configuration's master seed, so the
same seed gives the same campaign.

* ``guided`` — the paper's SnapTask campaign on the library venue, its
  first 30 tasks: 360° sweeps, incremental map updates, task generation
  and annotation escalation. No server, no persistence.
* ``baselines`` — the unguided participatory and opportunistic campaigns
  (paper Fig. 11): single photos and video frames in ~100-photo splits,
  each split followed by a full map rebuild.
* ``durable-deployment`` — 4 simulated clients against one backend on
  the discrete-event loop for 3600 simulated seconds, persistence on at
  the product defaults and one scheduled backend crash.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence, Tuple

from spans import Patches, StepTimer, timed_into

# guided: half the paper's 60-task budget. No seed tried (1-6, 2018, 4242)
# covers the venue within 30 tasks, so every campaign runs exactly 30
# tasks; run to coverage, campaign length followed the seed (42-46 photo
# tasks).
MAX_TASKS = 30
# durable-deployment: the crash lands after the third cadence checkpoint
# of the default seed's campaign; the backend stays down for a minute.
# The run stops at a fixed simulated horizon, before any seed covers the
# venue: time to coverage varies by about 15% between seeds, while four
# clients working for 3600 simulated seconds do nearly the same work on
# every seed (35 tasks, 4409-4412 events on seeds 1, 2, 3, 6, 9, 2018).
# The horizon sits between two checkpoints (the 35th batch is past the
# 32nd's checkpoint and well before the 40th's), so every seed takes the
# same number of them; at 4000 s some seeds ended on their 40th batch and
# paid for one checkpoint more.
N_CLIENTS = 4
CRASH_AT_S = 3_000.0
DOWNTIME_S = 60.0
UNTIL_S = 3_600.0


class Workload:
    """One workload: its configuration, its campaign and its checks."""

    name = ""
    benches_per_campaign = 1
    #: Campaigns per untraced run, all on the run's seed: the same
    #: campaign each time, so the median over them averages host noise
    #: and the output check sees every one reproduce the first.
    repeats = 2

    def config(self, seed: int):
        from repro.config import paper_config

        return paper_config(seed)

    def install_timers(self, patches: Patches) -> Dict[str, List[float]]:
        """Batch (and restart) timers: ``{"batch": samples, ...}``, each
        sample the host time of one call in seconds."""
        raise NotImplementedError

    def run(self, benches: Sequence[object]) -> Tuple[dict, int]:
        """Run one campaign: ``(outputs, failed operations)``.

        Operations are photo batches; the batch timer counts the
        committed ones, failed ones are added to the attempted count.
        """
        raise NotImplementedError

    def invariants(self, outputs: dict) -> List[str]:
        """Checks that hold for every seed."""
        raise NotImplementedError


class Guided(Workload):
    name = "guided"
    # Its campaign is the shortest, so a third one is cheap.
    repeats = 3

    def install_timers(self, patches):
        batches: List[float] = []
        patches.install(
            "repro.core.pipeline:SnapTaskPipeline.process_batch", timed_into(batches)
        )
        return {"batch": batches}

    def run(self, benches):
        from repro.eval.experiments import run_guided_experiment

        result = run_guided_experiment(benches[0], max_tasks=MAX_TASKS)
        run = result.run
        last = run.completed[-1].outcome if run.completed else run.bootstrap_outcome
        outputs = {
            "venue_covered": run.venue_covered,
            "photo_tasks": result.n_photo_tasks,
            "annotation_tasks": result.n_annotation_tasks,
            "collection_photos": run.n_collection_photos,
            "coverage_cells": last.coverage_cells,
        }
        return outputs, 0

    def invariants(self, outputs):
        errors = []
        tasks = outputs["photo_tasks"] + outputs["annotation_tasks"]
        if not outputs["venue_covered"] and tasks != MAX_TASKS:
            errors.append(f"guided campaign stopped after {tasks} tasks, uncovered")
        if outputs["photo_tasks"] < 1 or outputs["collection_photos"] < 1:
            errors.append("guided campaign ran no photo task")
        if outputs["coverage_cells"] < 1:
            errors.append("guided campaign covered no cell")
        return errors


class Baselines(Workload):
    name = "baselines"
    benches_per_campaign = 2

    def install_timers(self, patches):
        batches: List[float] = []
        patches.install(
            "repro.eval.datasets:IncrementalMapEvaluator.add_and_evaluate",
            timed_into(batches),
        )
        return {"batch": batches}

    def run(self, benches):
        from repro.eval.experiments import (
            run_opportunistic_experiment,
            run_unguided_experiment,
        )

        unguided = run_unguided_experiment(benches[0])
        opportunistic = run_opportunistic_experiment(benches[1])
        outputs = {}
        for key, result in (("unguided", unguided), ("opportunistic", opportunistic)):
            outputs[f"{key}_photos"] = result.n_photos_collected
            outputs[f"{key}_coverage_percent"] = result.series.final.coverage_percent
            outputs[f"{key}_coverage_cells"] = result.final_maps.covered_cells()
        return outputs, 0

    def invariants(self, outputs):
        errors = []
        for key in ("unguided", "opportunistic"):
            if outputs[f"{key}_photos"] < 1:
                errors.append(f"{key} campaign collected no photo")
            if not outputs[f"{key}_coverage_percent"] > 0.0:
                errors.append(f"{key} campaign covered nothing")
        return errors


class DurableDeployment(Workload):
    name = "durable-deployment"

    def config(self, seed):
        return super().config(seed).with_persistence()

    def install_timers(self, patches):
        steps = StepTimer(
            "repro.simkit.events:Simulator.step",
            marker="repro.core.pipeline:SnapTaskPipeline.process_batch",
        )
        steps.install(patches)
        restarts: List[float] = []
        patches.install("repro.persist.host:BackendHost.restart", timed_into(restarts))
        return {"batch": steps.samples, "recovery": restarts}

    def run(self, benches):
        from repro.errors import UnrecoverableStateError
        from repro.server import Deployment

        bench = benches[0]
        faults = dataclasses.replace(
            bench.config.network.faults, backend_crashes=((CRASH_AT_S, DOWNTIME_S),)
        )
        deployment = Deployment(bench, n_clients=N_CLIENTS, faults=faults)
        try:
            report = deployment.run(until_s=UNTIL_S)
        except UnrecoverableStateError:
            # A recovery that fails closed: the campaign is lost.
            return {"failed_closed": True}, 1
        audits = deployment.host.recovery_audits
        outputs = {
            "failed_closed": False,
            "venue_covered": report.venue_covered,
            "tasks_completed": report.tasks_completed,
            "tasks_failed": report.tasks_failed,
            "events_processed": report.events_processed,
            "photos_uploaded": report.photos_uploaded,
            "coverage_cells": report.coverage_cells,
            "backend_crashes": report.backend_crashes,
            "backend_recoveries": report.backend_recoveries,
            "audits_ok": all(audit.audit_ok for audit in audits),
            "snapshots_taken": report.snapshots_taken,
            "wal_records": report.wal_records,
        }
        # Shed and abandoned uploads are failed operations. ``tasks_failed``
        # counts photo tasks whose batches registered nothing, which
        # Algorithm 1 answers by escalating to a new task: an output of
        # the campaign (pinned per seed), not a failed operation.
        return outputs, report.uploads_abandoned + report.batches_shed

    def invariants(self, outputs):
        if outputs["failed_closed"]:
            return ["durable deployment failed closed (UnrecoverableStateError)"]
        errors = []
        if not outputs["audits_ok"]:
            errors.append("a recovery audit digest mismatched")
        if outputs["backend_crashes"] != 1 or outputs["backend_recoveries"] != 1:
            errors.append(
                f"expected 1 crash and 1 recovery, got {outputs['backend_crashes']} "
                f"and {outputs['backend_recoveries']}"
            )
        if outputs["snapshots_taken"] < 2:
            errors.append("no cadence checkpoint was taken")
        return errors


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (Guided(), Baselines(), DurableDeployment())
}
