"""``BENCH_*.json``: machine-readable benchmark documents, one schema table.

Every committed benchmark document shares one envelope::

    {schema, generated_at, campaign, <rows>, <summary>}

and differs only in what its rows and summary hold. :data:`SCHEMAS`
states that per document kind; :func:`validate` dispatches on the
document's own ``schema`` field, so one validator (and one CI step)
covers every kind, in-repo, with no jsonschema dependency. What the
fields of a kind mean is documented by the benchmark that writes it.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from ..errors import ObservabilityError
from .export import PathLike
from .wallclock import utc_now_iso

#: Histogram-name prefix the pipeline phase table is derived from.
PHASE_PREFIX = "repro.pipeline.phase."

#: ``(label, row)`` pairs handed to a schema's rule function.
_Rows = List[Tuple[str, dict]]


def _numeric(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check(label: str, obj: dict, numeric, bools, mins) -> List[str]:
    """Type and lower-bound problems of one row or summary object."""
    problems = []
    for name in numeric:
        if not _numeric(obj.get(name)):
            problems.append(f"{label} field {name!r} not numeric")
    for name in bools:
        if not isinstance(obj.get(name), bool):
            problems.append(f"{label} field {name!r} not a bool")
    for name, bound in mins.items():
        if _numeric(obj.get(name)) and obj[name] < bound:
            problems.append(f"{label} field {name!r} below {bound}")
    return problems


def _pipeline_rules(rows: _Rows, metrics: dict) -> Iterable[str]:
    for name, snap in metrics.items():
        if not isinstance(snap, dict) or snap.get("type") not in (
            "counter", "gauge", "histogram",
        ):
            yield f"metric {name!r} has no valid type"


def _dst_rules(rows: _Rows, summary: dict) -> Iterable[str]:
    for label, row in rows:
        if row.get("mode") not in ("serial", "parallel"):
            yield f"{label} mode must be 'serial' or 'parallel'"
    speedup = summary.get("wall_speedup")
    if _numeric(speedup) and speedup <= 0:
        yield "summary wall_speedup must be positive"


def _recovery_rules(rows: _Rows, summary: dict) -> Iterable[str]:
    for label, row in rows:
        depth, tried = row.get("depth"), row.get("generations_tried")
        if _numeric(depth) and _numeric(tried) and tried != depth + 1:
            yield f"{label} generations_tried != depth + 1"


@dataclass(frozen=True)
class _Schema:
    """What one document kind holds beyond the shared envelope."""

    #: Key of the row collection: a non-empty list of row objects, or —
    #: when ``keyed`` — an object of named rows that may be empty.
    rows: str
    row_fields: Tuple[str, ...]
    summary_fields: Tuple[str, ...] = ()
    summary_bools: Tuple[str, ...] = ()
    #: Inclusive lower bounds on numeric row / summary fields.
    row_min: Dict[str, float] = field(default_factory=dict)
    summary_min: Dict[str, float] = field(default_factory=dict)
    #: The remaining checks, beyond type and bound; yields problems.
    rules: Optional[Callable[[_Rows, dict], Iterable[str]]] = None
    keyed: bool = False
    summary: str = "summary"


#: Every bench document kind, keyed by its ``schema`` string.
SCHEMAS: Dict[str, _Schema] = {
    # The summary of a pipeline document is the full metrics snapshot.
    "repro.bench.pipeline/v1": _Schema(
        rows="phases",
        row_fields=("count", "total_s", "mean_s", "p50_s", "max_s"),
        row_min={"count": 0},
        rules=_pipeline_rules,
        keyed=True,
        summary="metrics",
    ),
    "repro.bench.sfm/v1": _Schema(
        rows="batches",
        row_fields=(
            "batch",
            "points",
            "cameras",
            "pending",
            "scratch_ms",
            "incremental_ms",
            "speedup",
        ),
        summary_fields=(
            "late_from_batch",
            "late_batches",
            "late_scratch_ms",
            "late_incremental_ms",
            "late_speedup",
            "target_speedup",
        ),
    ),
    "repro.bench.backend/v1": _Schema(
        rows="rows",
        row_fields=(
            "workers",
            "queue_limit",
            "sim_time_s",
            "tasks_completed",
            "photos_uploaded",
            "batches_shed",
            "client_backpressure",
            "queue_wait_s",
            "peak_queue_depth",
            "service_time_s",
        ),
        summary_fields=(
            "rows",
            "baseline_tasks_completed",
            "max_queue_wait_s",
            "total_shed",
        ),
        row_min={"workers": 0, "queue_limit": -1},
    ),
    "repro.bench.dst/v1": _Schema(
        rows="runs",
        row_fields=(
            "jobs",
            "wall_s",
            "campaigns",
            "passed",
            "failed",
            "checks_run",
        ),
        summary_fields=(
            "campaigns",
            "jobs",
            "cpu_count",
            "serial_wall_s",
            "parallel_wall_s",
            "wall_speedup",
            "total_busy_s",
            "critical_path_s",
            "critical_path_speedup",
            "target_speedup",
        ),
        summary_bools=("byte_identical",),
        rules=_dst_rules,
    ),
    "repro.bench.recovery/v1": _Schema(
        rows="rows",
        row_fields=(
            "depth",
            "snapshot_seq",
            "generations_tried",
            "quarantined",
            "quarantined_bytes",
            "replayed_records",
            "wall_s",
        ),
        summary_fields=(
            "generations",
            "wal_records",
            "newest_replayed_records",
            "genesis_replayed_records",
            "newest_wall_s",
            "genesis_wall_s",
            "replay_amplification",
            "wall_amplification",
        ),
        summary_bools=("digest_identical",),
        row_min={"depth": 0},
        summary_min={"replay_amplification": 1.0},
        rules=_recovery_rules,
    ),
}


def bench_document(
    kind: str,
    rows: Union[List[dict], Dict[str, dict]],
    summary: dict,
    campaign: Optional[dict] = None,
) -> dict:
    """Build the ``repro.bench.<kind>/v1`` document (see :data:`SCHEMAS`)."""
    schema = f"repro.bench.{kind}/v1"
    spec = SCHEMAS[schema]
    return {
        "schema": schema,
        "generated_at": utc_now_iso(),
        "campaign": dict(campaign or {}),
        spec.rows: rows,
        spec.summary: summary,
    }


def pipeline_document(registry, campaign: Optional[dict] = None) -> dict:
    """Build the ``BENCH_pipeline.json`` document from a live registry."""
    phases: Dict[str, dict] = {}
    for name in registry.names():
        hist = registry.get(name)
        if not name.startswith(PHASE_PREFIX) or not hasattr(hist, "quantile"):
            continue
        phases[name[len(PHASE_PREFIX):]] = {
            "count": hist.count,
            "total_s": round(hist.total, 9),
            "mean_s": round(hist.mean, 9),
            "p50_s": round(hist.quantile(0.5), 9),
            "max_s": round(hist.max if hist.max is not None else 0.0, 9),
        }
    return bench_document("pipeline", phases, registry.snapshot(), campaign)


def validate(doc) -> List[str]:
    """Return a list of schema violations (empty == valid)."""
    if not isinstance(doc, dict):
        return ["document is not an object"]
    name = doc.get("schema")
    spec = SCHEMAS.get(name) if isinstance(name, str) else None
    if spec is None:
        return [f"schema is {name!r}, expected one of {sorted(SCHEMAS)}"]
    problems: List[str] = []
    if not isinstance(doc.get("generated_at"), str):
        problems.append("generated_at missing or not a string")
    if not isinstance(doc.get("campaign"), dict):
        problems.append("campaign missing or not an object")
    raw = doc.get(spec.rows)
    if spec.keyed and isinstance(raw, dict):
        labelled = [(f"{spec.rows}[{key!r}]", row) for key, row in raw.items()]
    elif not spec.keyed and isinstance(raw, list) and raw:
        labelled = [(f"{spec.rows}[{i}]", row) for i, row in enumerate(raw)]
    else:
        shape = "an object" if spec.keyed else "a non-empty list"
        problems.append(f"{spec.rows} missing or not {shape}")
        labelled = []
    rows: _Rows = []
    for label, row in labelled:
        if not isinstance(row, dict):
            problems.append(f"{label} is not an object")
            continue
        rows.append((label, row))
        problems.extend(_check(label, row, spec.row_fields, (), spec.row_min))
    summary = doc.get(spec.summary)
    if not isinstance(summary, dict):
        problems.append(f"{spec.summary} missing or not an object")
        summary = {}
    else:
        problems.extend(_check("summary", summary, spec.summary_fields,
                               spec.summary_bools, spec.summary_min))
    if spec.rules is not None:
        problems.extend(spec.rules(rows, summary))
    return problems


def assert_valid(doc) -> None:
    problems = validate(doc)
    if problems:
        raise ObservabilityError(
            "invalid bench document: " + "; ".join(problems[:10])
        )


def write(path: PathLike, doc: dict) -> pathlib.Path:
    """Validate ``doc`` and write it to ``path`` as indented JSON."""
    assert_valid(doc)
    path = pathlib.Path(path)
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def load_and_validate(path: PathLike) -> dict:
    """CI helper: load ``path``, validate by its own schema, return it."""
    doc = json.loads(pathlib.Path(path).read_text())
    assert_valid(doc)
    return doc
