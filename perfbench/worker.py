"""One round of one workload, in a fresh single-threaded process.

``run.py`` starts this file once per round and reads the JSON object it
prints as its last line.  A round is: set-up (import, build, preload,
generators) → first operation issued → serve in slices → drain → audit.
Host timings use ``perf_counter`` inside the process and ``monotonic`` for
the one interval that starts in the parent (spawn → first issue).

With ``--trace-file`` the round runs under ``cProfile`` — one profile for
set-up, one for everything after the first issue — and writes the phase
spans plus the per-layer table to that file.  Timings of a traced round are
only used for attribution, never as end-to-end numbers.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import heapq
import json
import os
import resource
import statistics
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from layers import LAYERS, SRC, UNATTRIBUTED, layer_of, unmapped_sources
from trace import Spans, attribute

#: A serve loop that has not finished after this many slices is stuck.
MAX_SLICES = 50_000


def _rss_bytes() -> int:
    with open("/proc/self/statm") as handle:
        return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def _percentile(values: List[float], p: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(p / 100.0 * len(ordered)))]


def _setup(name: str, seed: int, scale: float, spans: Spans
           ) -> Tuple[Any, Dict[str, float]]:
    """Everything before the first operation; returns the workload."""
    with spans.span("setup.import"):
        sys.path.insert(0, str(SRC))
        from workloads import WORKLOADS
    workload = WORKLOADS[name](seed, scale)
    with spans.span("setup.build"):
        workload.build()
    with spans.span("setup.preload"):
        started = time.perf_counter()
        items = workload.make_items()
        built = time.perf_counter()
        rss_before = _rss_bytes()
        rows = workload.install(items)
        installed = time.perf_counter()
        rss_after = _rss_bytes()
        del items
    with spans.span("setup.generators"):
        workload.prepare()
    return workload, {"rows": rows, "dataset_s": built - started,
                      "install_s": installed - built,
                      "install_rss_bytes": max(0, rss_after - rss_before)}


def _yardstick() -> float:
    """Seconds the host takes, right now, for a fixed bit of interpreter work.

    The box is a shared VM whose speed sags by 20-40% for seconds to minutes
    at a time.  One of these after every serve interval tells ``run.py`` how
    fast the host was around that interval (see ``run.steady_serve_s``).
    """
    started = time.perf_counter()
    heap: List[int] = []
    table: Dict[int, float] = {}
    total = 0.0
    for i in range(300):
        heapq.heappush(heap, (i * 7919) % 1013)
        table[i & 63] = total
        total += (i * 0.5) % 3.0
    while heap:
        total += heapq.heappop(heap)
    return time.perf_counter() - started


def _serve(workload: Any, spans: Spans) -> Dict[str, Any]:
    """First issue → serve slices → drain → audit."""
    env = workload.env
    #: (simulated now, host now, operations completed) at slice boundaries.
    marks: List[Tuple[float, float, int]] = []
    #: Host seconds of: start, each slice, drain, audit — the same simulated
    #: work in every round of a seed, so rounds compare interval by interval.
    intervals: List[float] = []
    #: One yardstick before the first interval and one after each.
    yardsticks = [_yardstick()]
    interval_started = time.perf_counter()

    def _interval_done() -> None:
        nonlocal interval_started
        now = time.perf_counter()
        intervals.append(now - interval_started)
        marks.append((env.now(), now, workload.completed()))
        yardsticks.append(_yardstick())
        interval_started = time.perf_counter()

    first_issue = time.monotonic()
    with spans.span("serve"):
        workload.start()
        _interval_done()
        while not workload.finished():
            if len(marks) > MAX_SLICES:
                raise RuntimeError(f"{workload.name}: serve loop did not "
                                   f"finish in {MAX_SLICES} slices")
            with spans.span("serve.slice"):
                env.run(until=env.now() + workload.slice_ms)
            _interval_done()
        events_served = env.scheduler.events_executed
    with spans.span("drain"):
        workload.drain()
        _interval_done()
    with spans.span("audit"):
        checks = workload.audit()
        _interval_done()
    return {"first_issue": first_issue, "marks": marks[:-1], "checks": checks,
            "events_served": events_served, "intervals_s": intervals,
            "yardsticks_s": yardsticks}


def _wall_around(marks: List[Tuple[float, float, int]], start_ms: float,
                 end_ms: float) -> float:
    """Host seconds of the slices that cover simulated ``[start, end]``."""
    before = [wall for now_ms, wall, _ in marks if now_ms < start_ms]
    after = [wall for now_ms, wall, _ in marks if now_ms >= end_ms]
    return (after[0] if after else marks[-1][1]) \
        - (before[-1] if before else marks[0][1])


def _host_counters(workload: Any, setup: Dict[str, float],
                   served: Dict[str, Any], spans: Spans) -> Dict[str, float]:
    """Per-layer numbers that depend on the host (timings, memory)."""
    marks = served["marks"]
    slice_us_per_op = [
        (wall - prev_wall) * 1e6 / (done - prev_done)
        for (_, prev_wall, prev_done), (_, wall, done)
        in zip(marks, marks[1:-1]) if done > prev_done]
    on_cassandra = workload.cassandra is not None
    values = {
        "sim.scheduler.us_per_event":
            spans.duration("serve") * 1e6 / max(1, served["events_served"]),
        "sim.scheduler.slice_us_per_op_p50":
            statistics.median(slice_us_per_op),
        "sim.scheduler.slice_us_per_op_p95": _percentile(slice_us_per_op, 95),
        "cassandra.storage.preload_keys_per_s":
            setup["rows"] / setup["install_s"] if on_cassandra else 0.0,
        "cassandra.storage.rss_bytes_per_row":
            setup["install_rss_bytes"] / setup["rows"] if on_cassandra else 0.0,
        "workloads.dataset_build_keys_per_s":
            setup["rows"] / setup["dataset_s"] if on_cassandra else 0.0,
        "cassandra.ring.keys_streamed_per_s": 0.0,
    }
    join = workload.join
    if join is not None and join.done:
        # Planning the ring change runs inside the slice that starts it.
        streaming_s = _wall_around(marks, join.started_at, join.completed_at)
        keys = sum(r.keys_streamed_in for r in workload.cassandra.replicas)
        values["cassandra.ring.keys_streamed_per_s"] = \
            keys / streaming_s if streaming_s > 0 else 0.0
    return values


def _layer_table(setup_profile: cProfile.Profile,
                 serve_profile: cProfile.Profile,
                 ops: int) -> Tuple[Dict[str, Dict[str, float]], float]:
    """The per-layer table and the unattributed share of all traced time."""
    setup = attribute(setup_profile, layer_of)
    serve = attribute(serve_profile, layer_of)
    serve_total = sum(row["self_s"] for row in serve.values())
    setup_total = sum(row["self_s"] for row in setup.values())
    table = {layer: {
        "serve_self_us_per_op": serve[layer]["self_s"] * 1e6 / ops,
        "serve_share": serve[layer]["self_s"] / serve_total,
        "calls_per_op": serve[layer]["calls"] / ops,
        "setup_self_s": setup[layer]["self_s"],
    } for layer in LAYERS}
    unattributed = (setup[UNATTRIBUTED]["self_s"]
                    + serve[UNATTRIBUTED]["self_s"])
    return table, unattributed / (setup_total + serve_total)


def run_round(name: str, seed: int, scale: float, spawned_at: float,
              trace_file: Optional[str]) -> Dict[str, Any]:
    spans = Spans(name)
    traced = trace_file is not None
    if traced:
        setup_profile, serve_profile = cProfile.Profile(), cProfile.Profile()
        with spans.span("setup"):
            workload, setup = setup_profile.runcall(
                _setup, name, seed, scale, spans)
        served = serve_profile.runcall(_serve, workload, spans)
    else:
        with spans.span("setup"):
            workload, setup = _setup(name, seed, scale, spans)
        served = _serve(workload, spans)

    out = workload.outcome()
    ops = out["completed"]
    env = workload.env
    final, prelim = out["final"], out["prelim"]
    sim = {
        "attempted": out["attempted"], "completed": ops,
        "shed": out["shed"], "failed": out["failed"],
        "measured_ops": out["measured_ops"], "window_ms": out["window_ms"],
        "events": env.scheduler.events_executed,
        "messages_sent": env.network.messages_sent,
        "messages_dropped": env.network.messages_dropped,
        "bytes": env.network.total_bytes(),
        "final_count": final.count, "final_mean_ms": final.mean(),
        "final_p50_ms": final.p50(), "final_p99_ms": final.p99(),
        "prelim_count": prelim.count, "prelim_mean_ms": prelim.mean(),
        "prelim_p50_ms": prelim.p50(),
        "matched": out["matched"], "diverged": out["diverged"],
        "missing_preliminary": out["missing_preliminary"],
    }
    counters = workload.counters(out)
    digest = hashlib.sha256(json.dumps(
        [sim, counters], sort_keys=True).encode()).hexdigest()
    counters.update(_host_counters(workload, setup, served, spans))

    serve_s = sum(served["intervals_s"])
    result: Dict[str, Any] = {
        "workload": name, "seed": seed, "scale": scale, "traced": traced,
        "digest": digest, "sim": sim, "checks": served["checks"],
        "counters": counters, "intervals_s": served["intervals_s"],
        "yardsticks_s": served["yardsticks_s"],
        "phases_s": {phase: spans.duration(phase) for phase in (
            "setup.import", "setup.build", "setup.preload",
            "setup.generators", "serve", "drain", "audit")},
        "end_to_end": {
            "setup_s": served["first_issue"] - spawned_at,
            "ops_per_s": ops / serve_s,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "sim_final_ms_p50": sim["final_p50_ms"],
            "sim_final_ms_p99": sim["final_p99_ms"],
            "sim_prelim_ms_p50": sim["prelim_p50_ms"],
            "sim_bytes_per_op": sim["bytes"] / ops,
            "sim_throughput_ops_s":
                sim["measured_ops"] / (sim["window_ms"] / 1000.0),
        },
    }
    if traced:
        layers, unattributed = _layer_table(setup_profile, serve_profile,
                                            ops)
        result["layers"] = layers
        result["unattributed_share"] = unattributed
        result["checks"]["every_source_file_has_a_layer"] = \
            not unmapped_sources()
        result["checks"]["unattributed_under_5_percent"] = unattributed < 0.05
        os.makedirs(os.path.dirname(trace_file), exist_ok=True)
        with open(trace_file, "w") as handle:
            json.dump({"workload": name, "seed": seed, "scale": scale,
                       "unattributed_share": unattributed,
                       "layers": layers, "spans": spans.records}, handle)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="parent's time.monotonic() just before spawn")
    parser.add_argument("--trace-file", default=None)
    args = parser.parse_args()
    result = run_round(args.workload, args.seed, args.scale,
                       args.spawned_at, args.trace_file)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
