"""Extension bench: campaign robustness under network faults and dropouts.

The paper's field deployment ran over real Wi-Fi with real volunteers
(Sec. V-B) but reports nothing about loss, retransmission, or worker
abandonment. This bench sweeps message-drop probability (with a fixed
duplicate rate and one mid-campaign client dropout) over the fault-
tolerant protocol and measures what the faults cost: extra sim-time to
the same coverage, retries, lease reaps/requeues, and traffic overhead
from retransmitted uploads.

The three sweep points are independent deployments, so they fan out
across the executor pool (``benchmarks/sweep.py``); each payload ships
the report plus the task-ledger summary the no-leaked-tasks assertions
need.

Finding: task leases + idempotent retransmission keep the campaign
converging to full venue coverage under 20% message loss; the cost is
bounded traffic overhead and a longer makespan, never a lost task.

Smoke mode (``REPRO_BENCH_SMOKE=1``, used by CI): the same sweep; only
the artefact moves to a temporary directory, so the run never rewrites
the committed ``ext_fault_tolerance.txt``.
"""

from .conftest import write_result
from .sweep import run_deployment_sweep

SIM_HORIZON_S = 60_000.0
DUPLICATE_P = 0.05
DROPOUT_AT_S = 1_000.0  # client-1 walks away mid-campaign in every run
N_CLIENTS = 3

DROPS = (0.0, 0.1, 0.2)


def test_bench_fault_tolerance_sweep(benchmark, results_dir):
    specs = [
        {
            "n_clients": N_CLIENTS,
            "drop_probability": drop,
            "duplicate_probability": DUPLICATE_P,
            "dropouts": {"client-1": DROPOUT_AT_S},
            "until_s": SIM_HORIZON_S,
            "max_events": 500_000,
        }
        for drop in DROPS
    ]

    def sweep():
        return dict(zip(DROPS, run_deployment_sweep(specs)))

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    baseline = results[0.0]["report"]
    lines = [
        "Extension: fault-tolerant protocol under message loss",
        f"(duplicate_p={DUPLICATE_P}, {N_CLIENTS} clients, client-1 drops out "
        f"at {DROPOUT_AT_S:.0f} s, horizon {SIM_HORIZON_S:.0f} s)",
        "",
        f"{'drop':>5} {'covered':>8} {'lost':>5} {'dup':>4} "
        f"{'retries':>8} {'requeued':>9} {'reaped':>7} {'traffic MB':>11} "
        f"{'overhead':>9}",
    ]
    for drop, payload in sorted(results.items()):
        report = payload["report"]
        overhead = report["total_traffic_mb"] / baseline["total_traffic_mb"] - 1.0
        lines.append(
            f"{drop:>5.2f} {str(report['venue_covered']):>8} "
            f"{report['messages_lost']:>5} {report['messages_duplicated']:>4} "
            f"{report['client_retries']:>8} {report['tasks_requeued']:>9} "
            f"{report['leases_expired']:>7} {report['total_traffic_mb']:>11.0f} "
            f"{overhead:>8.1%}"
        )
    lines.append("")
    lines.append(
        "leases + idempotent retransmission absorb loss, duplication and an "
        "abandoning worker: every sweep point reaches full venue coverage "
        "and every recorded task ends completed or failed — none leak."
    )
    write_result(results_dir, "ext_fault_tolerance", "\n".join(lines))

    for drop, payload in results.items():
        report = payload["report"]
        statuses = payload["tasks_by_status"]
        # The headline guarantee: coverage is reached despite the faults...
        assert report["venue_covered"], f"campaign stalled at drop={drop}"
        # ...and no task is permanently lost: every recorded task reached a
        # terminal state (completed/failed) or sits pending for pickup.
        assert sum(statuses.values()) == payload["recorded_tasks"]
        assert statuses.get("assigned", 0) == 0
        assert report["dropouts"] == 1
        if drop > 0.0:
            assert report["messages_lost"] > 0
            assert report["client_retries"] > 0

    # Faults cost bounded overhead, not runaway retransmission storms.
    worst = results[0.2]["report"]
    assert worst["total_traffic_mb"] <= baseline["total_traffic_mb"] * 2.0
    assert worst["client_retries"] >= results[0.1]["report"]["client_retries"]
