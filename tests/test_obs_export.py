"""Exporter schemas: Chrome trace JSON, metrics JSON, BENCH_*.json."""

import copy
import json
import pathlib

import pytest

from repro.errors import ObservabilityError
from repro.obs import MetricsRegistry, Telemetry
from repro.obs.bench import (
    SCHEMAS,
    assert_valid,
    bench_document,
    load_and_validate,
    pipeline_document,
    validate,
    write,
)
from repro.obs.export import (
    METRICS_SCHEMA,
    assert_valid_chrome_trace,
    chrome_trace,
    chrome_trace_events,
    metrics_document,
    validate_chrome_trace,
    write_chrome_trace,
    write_metrics_json,
)
from repro.obs.tracing import Tracer


def _sample_tracer() -> Tracer:
    tracer = Tracer()
    with tracer.span("server.process_batch", category="server", photos=4):
        tracer.record("net.photo-batch", 1.0, 3.5, category="net", size_mb=10.0)
    tracer.instant("pipeline.registration", category="pipeline")
    tracer.counter("repro.sim.queue.depth", 3.0)
    return tracer


class TestChromeTrace:
    def test_events_schema_valid(self):
        doc = chrome_trace(_sample_tracer())
        assert validate_chrome_trace(doc) == []
        assert_valid_chrome_trace(doc)

    def test_x_events_use_sim_microseconds(self):
        events = chrome_trace_events(_sample_tracer())
        net = [e for e in events if e["name"] == "net.photo-batch"][0]
        assert net["ph"] == "X"
        assert net["ts"] == pytest.approx(1.0e6)
        assert net["dur"] == pytest.approx(2.5e6)
        assert net["args"]["size_mb"] == 10.0
        assert "span_id" in net["args"]

    def test_zero_width_spans_widened_to_one_us(self):
        events = chrome_trace_events(_sample_tracer())
        inst = [e for e in events if e["name"] == "pipeline.registration"][0]
        assert inst["dur"] == 1.0

    def test_parent_id_exported(self):
        events = chrome_trace_events(_sample_tracer())
        by_name = {e["name"]: e for e in events if e["ph"] == "X"}
        child = by_name["net.photo-batch"]
        parent = by_name["server.process_batch"]
        assert child["args"]["parent_id"] == parent["args"]["span_id"]

    def test_counter_events_and_metadata(self):
        events = chrome_trace_events(_sample_tracer())
        counters = [e for e in events if e["ph"] == "C"]
        assert counters and counters[0]["name"] == "repro.sim.queue.depth"
        metas = [e for e in events if e["ph"] == "M"]
        assert any(e["name"] == "process_name" for e in metas)
        thread_names = {
            e["args"]["name"] for e in metas if e["name"] == "thread_name"
        }
        assert {"server", "net", "pipeline"} <= thread_names

    def test_wall_ms_rides_along(self):
        events = chrome_trace_events(_sample_tracer())
        x = [e for e in events if e["ph"] == "X"][0]
        assert x["args"]["wall_ms"] >= 0.0

    def test_write_roundtrip(self, tmp_path):
        path = write_chrome_trace(_sample_tracer(), tmp_path / "trace.json")
        doc = json.loads(path.read_text())
        assert validate_chrome_trace(doc) == []
        assert doc["otherData"]["spans_recorded"] == 3

    def test_validator_rejects_malformed(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"traceEvents": 3}) != []
        bad_phase = {"traceEvents": [{"ph": "Z", "name": "x", "pid": 1}]}
        assert validate_chrome_trace(bad_phase) != []
        no_dur = {
            "traceEvents": [
                {"ph": "X", "name": "x", "pid": 1, "ts": 0.0, "args": {}}
            ]
        }
        assert validate_chrome_trace(no_dur) != []
        with pytest.raises(ObservabilityError):
            assert_valid_chrome_trace(no_dur)

    def test_non_json_attr_values_stringified(self):
        tracer = Tracer()
        tracer.record("x", 0.0, 1.0, obj=object())
        events = chrome_trace_events(tracer)
        x = [e for e in events if e["ph"] == "X"][0]
        assert isinstance(x["args"]["obj"], str)
        json.dumps(events)  # must be serialisable


class TestMetricsJson:
    def test_document_schema(self):
        reg = MetricsRegistry()
        reg.counter("repro.net.messages").inc(5)
        doc = metrics_document(reg)
        assert doc["schema"] == METRICS_SCHEMA
        assert doc["metrics"]["repro.net.messages"]["value"] == 5

    def test_write_roundtrip(self, tmp_path):
        reg = MetricsRegistry()
        reg.histogram("repro.client.walk_s", base=1.0).record(12.0)
        path = write_metrics_json(reg, tmp_path / "metrics.json")
        doc = json.loads(path.read_text())
        assert doc["metrics"]["repro.client.walk_s"]["count"] == 1


def _registry_with_phases() -> MetricsRegistry:
    reg = MetricsRegistry()
    for name in ("registration", "map_merge", "unvisited", "task_gen", "total"):
        h = reg.histogram(f"repro.pipeline.phase.{name}")
        h.record(0.01)
        h.record(0.03)
    reg.counter("repro.pipeline.batches").inc(2)
    return reg


def _valid_documents() -> dict:
    """One minimal valid document per bench kind."""
    return {
        "pipeline": pipeline_document(_registry_with_phases()),
        "sfm": bench_document(
            "sfm",
            [{"batch": 1, "points": 40, "cameras": 3, "pending": 0,
              "scratch_ms": 2.0, "incremental_ms": 0.5, "speedup": 4.0}],
            {"late_from_batch": 1, "late_batches": 1, "late_scratch_ms": 2.0,
             "late_incremental_ms": 0.5, "late_speedup": 4.0,
             "target_speedup": 3.0},
        ),
        "backend": bench_document(
            "backend",
            [
                {"workers": 0, "queue_limit": -1, "sim_time_s": 900.0,
                 "tasks_completed": 9, "photos_uploaded": 80,
                 "batches_shed": 0, "client_backpressure": 0,
                 "queue_wait_s": 0.0, "peak_queue_depth": 0,
                 "service_time_s": 0.0},
                {"workers": 1, "queue_limit": 0, "sim_time_s": 900.0,
                 "tasks_completed": 7, "photos_uploaded": 60,
                 "batches_shed": 4, "client_backpressure": 4,
                 "queue_wait_s": 0.0, "peak_queue_depth": 0,
                 "service_time_s": 30.0},
            ],
            {"rows": 2, "baseline_tasks_completed": 9,
             "max_queue_wait_s": 0.0, "total_shed": 4},
        ),
        "dst": bench_document(
            "dst",
            [
                {"mode": "serial", "jobs": 1, "wall_s": 4.0, "campaigns": 2,
                 "passed": 2, "failed": 0, "checks_run": 50},
                {"mode": "parallel", "jobs": 2, "wall_s": 2.0,
                 "campaigns": 2, "passed": 2, "failed": 0, "checks_run": 50},
            ],
            {"campaigns": 2, "jobs": 2, "cpu_count": 2, "serial_wall_s": 4.0,
             "parallel_wall_s": 2.0, "wall_speedup": 2.0,
             "total_busy_s": 4.0, "critical_path_s": 2.0,
             "critical_path_speedup": 2.0, "target_speedup": 1.5,
             "byte_identical": True},
        ),
        "recovery": bench_document(
            "recovery",
            [
                {"depth": 0, "snapshot_seq": 9, "generations_tried": 1,
                 "quarantined": 0, "quarantined_bytes": 0,
                 "replayed_records": 2, "wall_s": 0.1},
                {"depth": 1, "snapshot_seq": 5, "generations_tried": 2,
                 "quarantined": 1, "quarantined_bytes": 512,
                 "replayed_records": 6, "wall_s": 0.2},
            ],
            {"generations": 2, "wal_records": 6,
             "newest_replayed_records": 2, "genesis_replayed_records": 6,
             "newest_wall_s": 0.1, "genesis_wall_s": 0.2,
             "replay_amplification": 1.0, "wall_amplification": 2.0,
             "digest_identical": True},
        ),
    }


def _rows_of(doc: dict):
    return doc[SCHEMAS[doc["schema"]].rows]


def _row(doc: dict) -> dict:
    rows = _rows_of(doc)
    return rows[next(iter(rows))] if isinstance(rows, dict) else rows[0]


def _summary(doc: dict) -> dict:
    return doc[SCHEMAS[doc["schema"]].summary]


def _top(doc: dict) -> dict:
    return doc


def _set(where, key, value):
    """Mutation: set ``where(doc)[key] = value``."""
    return lambda doc: where(doc).__setitem__(key, value)


def _pop(where, key):
    """Mutation: delete ``where(doc)[key]``."""
    return lambda doc: where(doc).pop(key)


def _planted_violations(kind: str, doc: dict):
    """Yield ``(description, mutation, expected problem fragment)``: one
    planted violation per rule the validator enforces for ``kind``."""
    spec = SCHEMAS[doc["schema"]]
    first = next(iter(doc[spec.rows])) if spec.keyed else 0
    yield "unknown schema", _set(_top, "schema", "x/v1"), "schema is"
    yield "unhashable schema", _set(_top, "schema", ["x"]), "schema is"
    yield "generated_at missing", _pop(_top, "generated_at"), "generated_at"
    yield "campaign not object", _set(_top, "campaign", []), "campaign"
    yield "rows missing", _pop(_top, spec.rows), spec.rows
    yield "rows wrong type", _set(_top, spec.rows, "rows"), spec.rows
    yield "row not object", _set(_rows_of, first, 3), "is not an object"
    if not spec.keyed:
        yield "rows empty", _set(_top, spec.rows, []), spec.rows
    yield "summary missing", _pop(_top, spec.summary), spec.summary
    yield "summary not object", _set(_top, spec.summary, []), spec.summary
    for field, value in _row(doc).items():
        if isinstance(value, (int, float)):
            for bad in ("x", True, None):
                yield (f"row {field}={bad!r}", _set(_row, field, bad),
                       f"field {field!r} not numeric")
    for field, value in _summary(doc).items():
        if kind == "pipeline":
            break  # the metrics snapshot: checked by type below
        if isinstance(value, bool):
            yield (f"summary {field}=1", _set(_summary, field, 1),
                   f"field {field!r} not a bool")
            continue
        for bad in ("x", False):
            yield (f"summary {field}={bad!r}", _set(_summary, field, bad),
                   f"field {field!r} not numeric")
    if kind == "pipeline":
        yield "negative count", _set(_row, "count", -1), "'count' below 0"
        for bad in ({"value": 1}, {"type": "timer"}, 1):
            yield (f"metric {bad!r}", _set(_summary, "m", bad),
                   "no valid type")
    if kind == "backend":
        yield "workers < 0", _set(_row, "workers", -1), "'workers' below 0"
        yield ("queue_limit < -1", _set(_row, "queue_limit", -2),
               "'queue_limit' below -1")
    if kind == "dst":
        yield "unknown mode", _set(_row, "mode", "threads"), "mode must be"
        yield "missing mode", _pop(_row, "mode"), "mode must be"
        yield ("wall_speedup == 0", _set(_summary, "wall_speedup", 0.0),
               "wall_speedup must be positive")
    if kind == "recovery":
        # generations_tried stays depth + 1, so only the bound can fire.
        yield ("depth < 0",
               lambda d: _row(d).update(depth=-1, generations_tried=0),
               "'depth' below 0")
        yield ("generations_tried != depth + 1",
               _set(_row, "generations_tried", 2), "generations_tried")
        yield ("replay_amplification < 1",
               _set(_summary, "replay_amplification", 0.99),
               "'replay_amplification' below 1.0")


class TestBenchPipelineDocument:
    def test_document_valid_and_phase_rows(self):
        doc = pipeline_document(
            _registry_with_phases(), campaign={"seed": 2018}
        )
        assert validate(doc) == []
        assert doc["schema"] == "repro.bench.pipeline/v1"
        assert set(doc["phases"]) == {
            "registration", "map_merge", "unvisited", "task_gen", "total",
        }
        row = doc["phases"]["registration"]
        assert row["count"] == 2
        assert row["total_s"] == pytest.approx(0.04)
        assert row["mean_s"] == pytest.approx(0.02)
        assert row["max_s"] == pytest.approx(0.03)
        assert doc["campaign"] == {"seed": 2018}

    def test_write_validates_and_roundtrips(self, tmp_path):
        path = write(
            tmp_path / "BENCH_pipeline.json",
            pipeline_document(_registry_with_phases()),
        )
        doc = load_and_validate(path)
        assert doc["phases"]["total"]["count"] == 2

    def test_validator_rejects_mutations(self, tmp_path):
        # Every bench kind, one planted violation per rule; each must be
        # reported by the problem it plants, not by a side effect.
        docs = _valid_documents()
        assert {doc["schema"] for doc in docs.values()} == set(SCHEMAS)
        planted = 0
        for kind, doc in docs.items():
            assert validate(doc) == [], kind
            for what, mutate, expected in _planted_violations(kind, doc):
                bad = copy.deepcopy(doc)
                mutate(bad)
                problems = validate(bad)
                assert any(expected in p for p in problems), (
                    kind, what, problems
                )
                planted += 1
        assert planted > 100
        assert validate([]) != []
        with pytest.raises(ObservabilityError):
            assert_valid({"schema": "nope"})
        with pytest.raises(ObservabilityError):
            write(tmp_path / "bad.json", {"schema": ["unhashable"]})
        assert not (tmp_path / "bad.json").exists()

    def test_empty_registry_still_valid(self):
        doc = pipeline_document(MetricsRegistry())
        assert validate(doc) == []
        assert doc["phases"] == {}


RESULTS_DIR = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "results"

#: The headline claim each committed full-run document must keep making.
_COMMITTED_CLAIMS = {
    "repro.bench.pipeline/v1": lambda s: [],
    "repro.bench.sfm/v1": lambda s: [
        s["late_speedup"] >= s["target_speedup"],
    ],
    "repro.bench.backend/v1": lambda s: [
        s["max_queue_wait_s"] > 0,  # the bounded lane queued
        s["total_shed"] > 0,  # admission control shed
    ],
    "repro.bench.dst/v1": lambda s: [
        s["byte_identical"] is True,
        s["critical_path_speedup"] >= s["target_speedup"],
    ],
    "repro.bench.recovery/v1": lambda s: [
        s["digest_identical"] is True,
        s["genesis_replayed_records"] == s["wal_records"],
    ],
}


class TestCommittedBenchDocuments:
    @pytest.mark.parametrize(
        "path",
        sorted(RESULTS_DIR.glob("BENCH_*.json")),
        ids=lambda p: p.name,
    )
    def test_committed_document_valid_and_claims_hold(self, path):
        doc = load_and_validate(path)
        assert doc["campaign"].get("smoke") is not True, (
            f"{path.name} was written by a smoke run"
        )
        claims = _COMMITTED_CLAIMS[doc["schema"]](doc.get("summary"))
        assert all(claims), (path.name, claims, doc.get("summary"))

    def test_every_kind_is_committed(self):
        schemas = {
            json.loads(p.read_text())["schema"]
            for p in RESULTS_DIR.glob("BENCH_*.json")
        }
        assert schemas == set(SCHEMAS) == set(_COMMITTED_CLAIMS)


class TestTelemetryBundle:
    def test_disabled_is_shared_and_inert(self):
        a = Telemetry.disabled()
        b = Telemetry.disabled()
        assert a is b
        assert not a.enabled

    def test_enable_builds_live_pair(self):
        t = Telemetry.enable(span_capacity=16)
        assert t.enabled
        assert t.tracer.capacity == 16
        assert t.metrics.enabled
