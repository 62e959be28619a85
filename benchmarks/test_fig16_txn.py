"""Figure 16 — 2PC transactions with speculative PREPARED views under faults."""

import pytest

from repro.bench.figures import FIG16

SCENARIOS = FIG16.full["scenarios"]
TXN_SIZES = FIG16.full["txn_sizes"]


@pytest.mark.benchmark(group="fig16")
def test_fig16_txn(benchmark, save_report):
    records = benchmark.pedantic(FIG16.run, rounds=1, iterations=1)
    save_report("fig16_txn", FIG16.render(records))

    assert len(records) == len(SCENARIOS) * len(TXN_SIZES)

    for record in records:
        cell = (record["scenario"], record["keys_per_txn"])
        # Every submitted transaction reached a known outcome: the client
        # never timed out a transaction into an unknown state, and
        # run_fig16_point already raised if the atomicity audit failed.
        assert record["unresolved"] == 0, cell
        assert (record["committed"] + record["aborted"]
                == record["submitted"]), cell
        assert record["committed"] > 0, cell
        assert record["commit_mean_ms"] > 0, cell
        # The speculative PREPARED view never lied in these runs: every
        # transaction whose participants all voted yes went on to commit.
        assert record["prepared_views"] == record["committed"] \
            + record["prepared_mismatched"] + record["prepared_unresolved"], \
            cell
        assert record["prepared_accuracy_pct"] == 100.0, cell

    by_cell = {(r["scenario"], r["keys_per_txn"]): r for r in records}

    # Baseline: no faults, no takeovers, no retries; aborts only from lock
    # conflicts, which grow with transaction size.
    for size in TXN_SIZES:
        base = by_cell[("baseline", size)]
        assert base["takeovers"] == 0
        assert base["client_retries"] == 0
        assert base["faults_applied"] == 0
        assert base["final_epoch"] == 1
    assert (by_cell[("baseline", 3)]["lock_conflicts"]
            > by_cell[("baseline", 1)]["lock_conflicts"])

    # Coordinator crash: exactly one standby takeover, epoch moved forward,
    # recovery well under a second, and the client paid retries while the
    # group was headless — but still resolved every transaction.
    for size in TXN_SIZES:
        crash = by_cell[("coordinator-crash-mid-commit", size)]
        assert crash["takeovers"] == 1, size
        assert crash["final_epoch"] == 2, size
        assert 0 < crash["time_to_recover_ms"] < 1_000.0, size
        assert crash["client_retries"] > 0, size
        assert crash["commit_p99_ms"] > by_cell[("baseline", size)][
            "commit_p99_ms"], size

    # Participant crash and partition: the protocol refuses to guess, so
    # transactions touching the silent node abort — more than baseline.
    for scenario in ("participant-crash-after-prepare", "wan-partition"):
        for size in TXN_SIZES:
            assert (by_cell[(scenario, size)]["abort_rate_pct"]
                    > by_cell[("baseline", size)]["abort_rate_pct"]), \
                (scenario, size)


@pytest.mark.slow
def test_fig16_decision_window_mismatch():
    """A wide decision-log window makes the speculative view fallible.

    With the decision write stretched to 60 ms, decisions queue behind the
    coordinator's serial log and the crash lands between PREPARED notices
    and durable decisions: the successor finds prepared-only transactions,
    its termination protocol aborts them, and the client's speculative
    "will commit" views turn out wrong — exactly the revocation path the
    Correctable API exists to expose.  The atomicity audit still passes:
    wrong speculation, correct outcome.
    """
    (record,) = FIG16.run(
        scenarios=("coordinator-crash-mid-commit",), txn_sizes=(2,),
        nodes=3, rate_txn_s=25.0, duration_ms=6_000.0,
        fault_at_ms=2_500.0, fault_duration_ms=2_500.0,
        decision_log_ms=60.0, record_count=120)
    assert record["takeovers"] == 1
    assert record["committed"] > 0
    assert record["prepared_mismatched"] > 0
    assert record["prepared_accuracy_pct"] < 100.0
    assert record["unresolved"] == 0
