"""Failing-seed shrinking: delta-debug a scenario to a minimal repro.

A fuzz failure arrives wrapped in incidental complexity — four clients,
three fault mechanisms, a big venue, a long horizon. The shrinker
greedily applies *reduction passes* (zero a fault axis, drop a dropout,
halve the horizon, simplify the venue, reset protocol knobs to their
defaults), keeping a candidate only when the re-run still fails with
the **same failure label** (same invariant / crash class — chasing a
different bug is not shrinking, it is finding). This is the classic
ddmin shape specialised to the scenario's named axes, which converge in
tens of runs rather than thousands because each axis is independent.

Every accepted step is recorded, so the artifact shows *what was
irrelevant* to the bug — often as informative as the repro itself.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Tuple

from .scenario import Scenario

#: Re-run budget for one shrink (each candidate costs one campaign run).
DEFAULT_SHRINK_BUDGET = 60

FailurePredicate = Callable[[Scenario], Optional[str]]


@dataclass
class ShrinkResult:
    """Outcome of one shrink: the minimal scenario and how we got there."""

    scenario: Scenario
    failure_label: str
    runs_used: int
    steps: List[str]

    @property
    def shrunk(self) -> bool:
        return bool(self.steps)


def _venue_candidates(s: Scenario) -> List[Tuple[str, Scenario]]:
    out: List[Tuple[str, Scenario]] = []
    if s.n_furniture > 0:
        out.append(("n_furniture=0", replace(s, n_furniture=0)))
    if s.glass_walls > 0:
        out.append(("glass_walls=0", replace(s, glass_walls=0)))
    if s.n_hotspots > 2:
        out.append(("n_hotspots=2", replace(s, n_hotspots=2)))
    if s.venue_width_m > 8.0 or s.venue_depth_m > 7.0:
        out.append(
            (
                "venue=8x7",
                replace(s, venue_width_m=8.0, venue_depth_m=7.0),
            )
        )
    return out


def _clients_for(s: Scenario, n: int) -> Scenario:
    """Reduce the fleet, dropping dropout entries that name removed clients."""
    keep = tuple(
        (cid, at) for cid, at in s.dropouts if int(cid.split("-")[-1]) < n
    )
    return replace(s, n_clients=n, dropouts=keep)


def _no_storage(s: Scenario) -> Scenario:
    """Zero the storage damage axes (inert without a crash schedule)."""
    return replace(
        s, wal_torn_tail=0.0, wal_dropped_flush=0.0, snapshot_corruption=0.0
    )


def _candidates(s: Scenario) -> List[Tuple[str, Scenario]]:
    """All reduction candidates for one greedy round, simplest-win first."""
    out: List[Tuple[str, Scenario]] = []
    # -- fault schedule: clear whole axes first (biggest simplification) --
    if s.dropouts:
        out.append(("dropouts=()", replace(s, dropouts=())))
        if len(s.dropouts) > 1:
            for i in range(len(s.dropouts)):
                kept = s.dropouts[:i] + s.dropouts[i + 1:]
                out.append((f"drop dropout #{i}", replace(s, dropouts=kept)))
    if s.dropout_hazard:
        out.append(("dropout_hazard=0", replace(s, dropout_hazard=0.0)))
    if s.duplicate_probability:
        out.append(("duplicate_probability=0", replace(s, duplicate_probability=0.0)))
    if s.drop_probability:
        out.append(("drop_probability=0", replace(s, drop_probability=0.0)))
    if s.jitter_s:
        out.append(("jitter_s=0", replace(s, jitter_s=0.0)))
    if s.disconnect_windows:
        out.append(("disconnect_windows=()", replace(s, disconnect_windows=())))
        if len(s.disconnect_windows) > 1:
            for i in range(len(s.disconnect_windows)):
                kept = s.disconnect_windows[:i] + s.disconnect_windows[i + 1:]
                out.append(
                    (f"drop disconnect #{i}", replace(s, disconnect_windows=kept))
                )
    # -- storage damage: zeroing an axis separates media-damage bugs
    #    from plain crash-recovery bugs (whole-axis cuts, like faults) --
    if s.snapshot_corruption:
        out.append(("snapshot_corruption=0", replace(s, snapshot_corruption=0.0)))
    if s.wal_torn_tail:
        out.append(("wal_torn_tail=0", replace(s, wal_torn_tail=0.0)))
    if s.wal_dropped_flush:
        out.append(("wal_dropped_flush=0", replace(s, wal_dropped_flush=0.0)))
    # -- durability: no crashes + no persistence is the biggest cut; a
    #    persistence-only repro (crashes gone, WAL/snapshots still on)
    #    separates recovery bugs from bookkeeping bugs. Dropping the
    #    crashes also drops the storage axes (they only act at crashes).
    if s.backend_crashes:
        out.append(
            (
                "backend_crashes=() persist=False",
                _no_storage(replace(s, backend_crashes=(), persist=False)),
            )
        )
        out.append(
            ("backend_crashes=()", _no_storage(replace(s, backend_crashes=())))
        )
        if len(s.backend_crashes) > 1:
            for i in range(len(s.backend_crashes)):
                kept = s.backend_crashes[:i] + s.backend_crashes[i + 1:]
                out.append((f"drop crash #{i}", replace(s, backend_crashes=kept)))
    elif s.persist:
        out.append(("persist=False", replace(s, persist=False)))
    if (s.persist or s.backend_crashes) and s.snapshot_every != 8:
        out.append(("snapshot_every=8", replace(s, snapshot_every=8)))
    if (s.persist or s.backend_crashes) and s.snapshot_retain != 3:
        out.append(("snapshot_retain=3", replace(s, snapshot_retain=3)))
    # -- crowd size --
    if s.n_clients > 1:
        out.append(("n_clients=1", _clients_for(s, 1)))
        half = s.n_clients // 2
        if half > 1:
            out.append((f"n_clients={half}", _clients_for(s, half)))
    # -- horizon --
    if s.until_s > 1000.0:
        quarter = max(1000.0, round(s.until_s / 4.0))
        half = max(1000.0, round(s.until_s / 2.0))
        out.append((f"until_s={quarter:.0f}", replace(s, until_s=quarter)))
        if half != quarter:
            out.append((f"until_s={half:.0f}", replace(s, until_s=half)))
    # -- venue geometry --
    out.extend(_venue_candidates(s))
    # -- protocol knobs back to defaults --
    if s.lease_duration_s != 600.0:
        out.append(("lease_duration_s=600", replace(s, lease_duration_s=600.0)))
    if s.rto_initial_s != 4.0:
        out.append(("rto_initial_s=4", replace(s, rto_initial_s=4.0)))
    if s.upload_subbatch != 45:
        out.append(("upload_subbatch=45", replace(s, upload_subbatch=45)))
    if s.poll_jitter_s:
        out.append(("poll_jitter_s=0", replace(s, poll_jitter_s=0.0)))
    # -- backend lane back to the unbounded-pool default --
    if s.sfm_workers is not None:
        out.append(
            ("sfm_workers=None", replace(s, sfm_workers=None, sfm_queue_limit=None))
        )
    if s.sfm_queue_limit is not None:
        out.append(("sfm_queue_limit=None", replace(s, sfm_queue_limit=None)))
    if s.max_tasks != 1:
        out.append(("max_tasks=1", replace(s, max_tasks=1)))
    # -- tighter checking finds the same bug earlier --
    if s.checkpoint_every > 1:
        out.append(("checkpoint_every=1", replace(s, checkpoint_every=1)))
    return out


def shrink_scenario(
    scenario: Scenario,
    fails: FailurePredicate,
    failure_label: str,
    max_runs: int = DEFAULT_SHRINK_BUDGET,
    progress: Optional[Callable[[str], None]] = None,
) -> ShrinkResult:
    """Greedily minimise ``scenario`` while ``fails`` keeps reproducing.

    ``fails(candidate)`` re-runs the candidate and returns its failure
    label (or ``None`` when it passes); only candidates reproducing
    ``failure_label`` exactly are accepted. Budget-bounded: at most
    ``max_runs`` candidate runs.
    """
    current = scenario
    steps: List[str] = []
    runs = 0
    improved = True
    while improved and runs < max_runs:
        improved = False
        for step, candidate in _candidates(current):
            if runs >= max_runs:
                break
            runs += 1
            if fails(candidate) == failure_label:
                current = candidate
                steps.append(step)
                if progress is not None:
                    progress(f"shrink: accepted {step} (run {runs}/{max_runs})")
                improved = True
                break  # restart passes from the simplified scenario
    return ShrinkResult(
        scenario=current,
        failure_label=failure_label,
        runs_used=runs,
        steps=steps,
    )
