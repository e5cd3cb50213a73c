"""From-scratch reference for Algorithm 1 lines 1-5 (the test oracle).

The product pipeline runs lines 1-5 on incremental engines. This module
is the one place that recomputes them from scratch on every batch, for
the differential suites and the DST scratch twin to diff against:
:class:`ScratchSfm` (line 1: dict view masks, full pending rescans, full
triangulation scans, eager snapshots), :class:`ScratchSorFilter` (line 2:
:func:`sor_filter`) and :class:`ScratchMapEngine` (lines 3-5:
:func:`scratch_maps` via the independent Algorithm 2 + 3 functions, and
:func:`scratch_coverage`). :func:`reference_pipeline` runs all three
inside a :class:`SnapTaskPipeline`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..annotation.textures import FEATURES_PER_TEXTURE
from ..camera.photo import Photo
from ..core.pipeline import SnapTaskPipeline
from ..mapping import CoverageMaps, Grid2D, GridSpec, MapUpdate
from ..mapping import calculate_obstacles_map, calculate_visibility_map
from ..sfm import IncrementalSfm, PointCloud, SfmModel, sor_filter
from ..sfm.pointcloud import CloudPoint
from ..sfm.reconstruction import WILDCARD_BUCKET
from ..venue.features import ARTIFICIAL_FEATURE_BASE, REFLECTION_FEATURE_BASE
from .mutations import _patched


class ScratchSfm(IncrementalSfm):
    """:class:`IncrementalSfm` with the full-rescan, dict-scan strategy."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # feature id -> bitmask of the buckets its observers saw it from.
        self._view_masks: Dict[int, int] = {}
        self._compat_masks = [int(m) for m in self._compat_arr]

    def model(self) -> SfmModel:
        points = [
            CloudPoint(fid, x, y, z, views)
            for fid, x, y, z, views in sorted(self._store.rows())
        ]
        return SfmModel(PointCloud(points), list(self._registered.values()))

    def _candidates(self) -> List[Photo]:
        return self._pending.photos()

    def _compatible_overlap(self, photo: Photo) -> int:
        buckets = self._photo_columns(photo)[1]
        masks = self._view_masks
        compat = self._compat_masks
        count = 0
        for fid, bucket in zip(photo.feature_ids, buckets):
            mask = masks.get(int(fid))
            if mask is None:
                continue
            if bucket == WILDCARD_BUCKET or mask & compat[bucket]:
                count += 1
        return count

    def _add_views(self, photo: Photo) -> None:
        full = self._full_mask
        for fid, bucket in zip(photo.feature_ids, self._photo_columns(photo)[1]):
            fid = int(fid)
            if bucket == WILDCARD_BUCKET:
                self._view_masks[fid] = full
            else:
                self._view_masks[fid] = self._view_masks.get(fid, 0) | (1 << int(bucket))

    def _register_rigs(self) -> int:
        known = set(self._feature_obs)
        rigs: Dict[int, List[Photo]] = {}
        for photo in self._pending.photos():
            artificial = [
                int(f)
                for f in photo.feature_ids
                if ARTIFICIAL_FEATURE_BASE <= f < REFLECTION_FEATURE_BASE
            ]
            if len(artificial) < self._config.rig_texture_matches:
                continue
            block = (artificial[0] - ARTIFICIAL_FEATURE_BASE) // FEATURES_PER_TEXTURE
            rigs.setdefault(block, []).append(photo)
        registered = 0
        for _block, photos in sorted(rigs.items()):
            if len(photos) < 2:
                continue
            union_matches = set()
            for photo in photos:
                union_matches |= {
                    f
                    for f in photo.feature_id_set()
                    if f < ARTIFICIAL_FEATURE_BASE and f in known
                }
            if len(union_matches) >= self._config.min_rig_anchor_matches:
                for photo in sorted(photos, key=lambda p: p.photo_id):
                    self._register(photo)
                    registered += 1
        return registered

    def _triangulate(self) -> None:
        min_views = self._config.min_views_per_point
        cols = self._cols
        for fid, observers in self._feature_obs.items():
            dense = cols.index_of(fid)
            if dense is not None and cols.has_point[dense]:
                continue
            if len(observers) < min_views:
                continue
            self._make_point(fid, dense, observers)


class ScratchSorFilter:
    """Line 2 from scratch: a fresh KD-tree query over the whole cloud."""

    def __init__(self, n_neighbors: int, std_ratio: float):
        self._n_neighbors = n_neighbors
        self._std_ratio = std_ratio

    def filter(self, cloud: PointCloud) -> PointCloud:
        return sor_filter(cloud, self._n_neighbors, self._std_ratio)


def scratch_maps(
    model: SfmModel, spec: GridSpec, threshold: int = 4, max_range: float = 5.0
) -> Tuple[Grid2D, Grid2D]:
    """Lines 3-4 from scratch: Algorithm 2 then Algorithm 3 over ``model``."""
    obstacles = calculate_obstacles_map(model.cloud, spec, threshold)
    visibility = calculate_visibility_map(model, obstacles, max_range)
    return obstacles, visibility


def scratch_coverage(
    obstacles: Grid2D, visibility: Grid2D, site_mask: Optional[np.ndarray] = None
) -> int:
    """Line 5: covered cells, (obstacles ∪ visibility) ∩ site mask."""
    covered = obstacles.nonzero_mask() | visibility.nonzero_mask()
    if site_mask is not None:
        covered = covered & site_mask
    return int(covered.sum())


class ScratchMapEngine:
    """Lines 3-5 rebuilt over the whole model on every ``update``."""

    def __init__(self, spec: GridSpec, config, site_mask=None):
        self._spec = spec
        self._threshold = config.tasks.obstacle_threshold
        self._max_range = config.sfm.visibility_range_m
        self._site_mask = site_mask

    def update(self, model: SfmModel, cloud: Optional[PointCloud] = None) -> MapUpdate:
        model = model if cloud is None else model.with_cloud(cloud)
        obstacles, visibility = scratch_maps(
            model, self._spec, self._threshold, self._max_range
        )
        return MapUpdate(
            maps=CoverageMaps(obstacles, visibility),
            covered_cells=scratch_coverage(obstacles, visibility, self._site_mask),
            # Everything is rebuilt: every point and camera is "new".
            points_added=len(model.cloud),
            cameras_added=model.n_cameras,
            dirty_obstacle_cells=self._spec.n_rows * self._spec.n_cols,
            points_removed=0, cameras_refreshed=0, cameras_reused=0,
        )


def reference_pipeline(
    world, config, spec, initial_position, rng, site_mask=None, telemetry=None
) -> SnapTaskPipeline:
    """A :class:`SnapTaskPipeline` (same arguments) whose lines 1-5 run
    from scratch; lines 6-20, task generation, are the product's own."""
    pipeline = SnapTaskPipeline(
        world, config, spec, initial_position, rng, site_mask=site_mask, telemetry=telemetry
    )
    pipeline._sfm = ScratchSfm(world, config.sfm, rng.child("sfm"), telemetry=telemetry)
    pipeline._sor = ScratchSorFilter(config.sfm.sor_neighbors, config.sfm.sor_std_ratio)
    pipeline._map_engine = ScratchMapEngine(spec, config, site_mask)
    return pipeline


def reference_pipelines():
    """Context manager: ``Workbench.make_pipeline`` builds reference
    pipelines (it resolves ``SnapTaskPipeline`` in its module per call)."""
    from ..eval import workbench

    return _patched(workbench, "SnapTaskPipeline", lambda _original: reference_pipeline)
