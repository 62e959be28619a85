"""perfbench: the repository's benchmark.

    python3 perfbench/run.py --workload cass-closed-a --seed 7 --seconds 10 --trace 0

runs one workload as a sequence of *rounds*.  A round is a fresh,
single-threaded subprocess (``worker.py``) that sets the cluster up, serves
a fixed amount of simulated work and checks its outputs; rounds of the same
seed repeat until ``--seconds`` of serve time have been measured (at least
three, so set-up is timed several times).  Nothing runs in parallel.
Set-up time and memory are medians over the rounds, throughput is corrected
for the host's speed interval by interval (see ``steady_serve_s``), and the
simulated metrics are exact for a seed and must be identical in every
round.

``--trace 1`` instead runs two untraced rounds and one under the profile
hook, and reports the per-layer metrics.  Without ``--workload`` all four
workloads run in turn.  The last line of standard output is one JSON object
per ``BENCHMARK.json``'s contract.  See ``README.md`` for the metric
definitions, ``--quick``, ``--calibrate`` and ``--check-surface``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

from layers import BENCH_DIR, LAYERS, PACKAGE, REPO, SRC

OUT_DIR = BENCH_DIR / "out"
SPEC_PATH = REPO / "BENCHMARK.json"

#: Every name perfbench imports from ``src/``; ``--check-surface`` resolves
#: each one, and ``test_perfbench.py`` checks the list against the imports.
SURFACE = {
    "repro.apps.tickets": ["TicketSeller"],
    "repro.bench.common": ["cassandra_config_for", "make_kv_issue",
                           "make_generator_factory"],
    "repro.bench.fig14_open_loop": ["make_session_issue"],
    "repro.bench.fig15_rebalance": ["make_rebalance_issue",
                                    "count_lost_acked_writes",
                                    "skew_workload"],
    "repro.bindings.cassandra": ["CassandraBinding"],
    "repro.bindings.zookeeper": ["ZooKeeperQueueBinding"],
    "repro.cassandra_sim.config": ["CassandraConfig"],
    "repro.cassandra_sim.coordinator": ["FusedRead", "FusedWrite"],
    "repro.cassandra_sim.storage": ["ColumnarTable"],
    "repro.core.client": ["CorrectableClient"],
    "repro.core.cluster_spec": ["ClusterSpec"],
    "repro.faults": ["FaultInjector", "FaultScheduleBuilder",
                     "cassandra_aliases"],
    "repro.metrics.latency": ["LatencyRecorder"],
    "repro.sim.environment": ["SimEnvironment"],
    "repro.sim.rand": ["derive_rng"],
    "repro.sim.topology": ["Region", "round_robin_regions"],
    "repro.workloads.arrivals": ["ArrivalProcess", "make_arrival_process"],
    "repro.workloads.runner": ["ClosedLoopRunner", "OpenLoopRunner",
                               "_OpenOp"],
    "repro.workloads.ycsb": ["OperationGenerator", "workload_by_name"],
    "repro.zookeeper_sim.cluster": ["ZooKeeperCluster"],
    "repro.zookeeper_sim.config": ["ZooKeeperConfig"],
}

#: One round's size relative to the sizes in ``workloads.py``.
FULL_SCALE = 1.0
QUICK_SCALE = 0.1
MIN_ROUNDS = 4
#: Yardsticks on either side of an interval that estimate the host's speed
#: during it, and the interval length beyond which they no longer can.
YARDSTICK_WINDOW = 5
LONG_INTERVAL_S = 0.1
ROUND_TIMEOUT_S = 170
#: ``--calibrate`` mirrors the acceptance procedure: two sets of ten seeds.
CALIBRATION_SEEDS = tuple(range(1, 11))


class BenchmarkError(Exception):
    """The benchmark could not produce a trustworthy result."""


# ---------------------------------------------------------------------------
# the import surface
# ---------------------------------------------------------------------------

def check_surface() -> List[str]:
    """Problems resolving :data:`SURFACE` (empty when everything is there)."""
    if not PACKAGE.is_dir():
        return [f"{PACKAGE} does not exist; perfbench measures the simulator "
                f"under src/ and cannot run without it"]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    problems = []
    for module_name, names in SURFACE.items():
        try:
            module = importlib.import_module(module_name)
        except ImportError as exc:
            problems.append(f"cannot import {module_name} from {SRC}: {exc}")
            continue
        problems.extend(
            f"{module_name}.{name} is gone (renamed or removed?); perfbench "
            f"uses it — update perfbench/workloads.py and run.SURFACE"
            for name in names if not hasattr(module, name))
    return problems


# ---------------------------------------------------------------------------
# rounds and runs
# ---------------------------------------------------------------------------

def load_spec() -> Dict[str, Any]:
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def run_round(workload: str, seed: int, scale: float,
              traced: bool = False) -> Dict[str, Any]:
    """One fresh worker process; returns the JSON object it printed."""
    command = [sys.executable, str(BENCH_DIR / "worker.py"),
               "--workload", workload, "--seed", str(seed),
               "--scale", repr(scale),
               "--spawned-at", repr(time.monotonic())]
    if traced:
        command += ["--trace-file", str(OUT_DIR / f"trace-{workload}.json")]
    # subprocess.run kills and reaps the worker itself on a timeout.
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=ROUND_TIMEOUT_S)
    if done.returncode != 0:
        raise BenchmarkError(f"{workload}: worker exited with "
                             f"{done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float,
                 repeats: Optional[int], scale: float,
                 traced: bool) -> Dict[str, Any]:
    """All rounds of one run, checked and summarised."""
    rounds: List[Dict[str, Any]] = []
    if traced:
        repeats = 2
    served_s = 0.0
    while (len(rounds) < repeats if repeats
           else len(rounds) < MIN_ROUNDS or served_s < seconds):
        rounds.append(run_round(workload, seed, scale))
        served_s += sum(rounds[-1]["intervals_s"])
    failures = [f"round {index}: check {name} failed"
                for index, result in enumerate(rounds)
                for name, ok in result["checks"].items() if not ok]
    first = rounds[0]
    if any(r["digest"] != first["digest"]
           or len(r["intervals_s"]) != len(first["intervals_s"])
           for r in rounds):
        failures.append("rounds of one seed differ: sim digests "
                        + ", ".join(r["digest"][:12] for r in rounds))
    end_to_end = {
        name: _quartiles([r["end_to_end"][name] for r in rounds])
        for name in first["end_to_end"]}
    ops = first["sim"]["completed"]
    end_to_end["ops_per_s"]["value"] = ops / steady_serve_s(rounds)
    summary: Dict[str, Any] = {
        "workload": workload, "seed": seed, "scale": scale,
        "rounds": len(rounds), "digest": first["digest"],
        "attempted": sum(r["sim"]["attempted"] for r in rounds),
        "failed": sum(r["sim"]["failed"] for r in rounds),
        "end_to_end": end_to_end, "failures": failures,
        "sim": first["sim"],
        "phases_s": {phase: statistics.median(r["phases_s"][phase]
                                              for r in rounds)
                     for phase in first["phases_s"]},
    }
    if traced:
        trace = run_round(workload, seed, scale, traced=True)
        failures.extend(f"traced round: check {name} failed"
                        for name, ok in trace["checks"].items() if not ok)
        if trace["digest"] != first["digest"]:
            failures.append("the traced round changed the sim digest")
        totals = [sum(r["intervals_s"]) for r in rounds]
        per_layer = dict(first["counters"])
        per_layer.update({
            f"{layer}.{metric}": value
            for layer, row in trace["layers"].items()
            for metric, value in row.items()})
        per_layer.update({
            "bench-glue.trace_overhead_ratio":
                sum(trace["intervals_s"]) / statistics.median(totals),
            "bench-glue.repeat_spread":
                (max(totals) - min(totals)) / statistics.median(totals),
            # 48 bits of the digest: exact in a JSON number.
            "bench-glue.sim_digest": int(first["digest"][:12], 16),
        })
        summary["per_layer"] = per_layer
        summary["layers"] = trace["layers"]
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{workload}.json", "w") as handle:
        json.dump({"summary": summary, "rounds": rounds}, handle, indent=1)
    return summary


def steady_serve_s(rounds: Sequence[Dict[str, Any]]) -> float:
    """Serve time of one round on a host running at its observed best.

    The host's speed sags by 20-40% for seconds to minutes at a time
    (README, "steadiness", has the measurements).  Every round of a seed
    does the same simulated work in the same intervals (start, each slice,
    drain, audit), so the rounds are repeated measurements of each interval,
    and the worker times a fixed yardstick of interpreter work after every
    interval, which slows down with the simulator.

    A short interval costs its time scaled by ``floor / local`` — the
    fastest yardstick of the run over the mean of the yardsticks around the
    interval — and the median over the rounds is taken.  An interval too
    long for its neighbouring yardsticks to say how the host ran during it
    is not scaled (that made it noisier); its fastest round counts, since
    the host only ever adds time.
    """
    floor = min(min(r["yardsticks_s"]) for r in rounds)
    total = 0.0
    for index, samples in enumerate(zip(*(r["intervals_s"] for r in rounds))):
        if statistics.median(samples) > LONG_INTERVAL_S:
            total += min(samples)
            continue
        window = slice(max(0, index - YARDSTICK_WINDOW),
                       index + YARDSTICK_WINDOW + 2)
        total += statistics.median(
            seconds * floor / statistics.mean(r["yardsticks_s"][window])
            for seconds, r in zip(samples, rounds))
    return total


def _quartiles(values: Sequence[float]) -> Dict[str, float]:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def result_line(summary: Dict[str, Any], spec: Dict[str, Any],
                traced: bool) -> Dict[str, Any]:
    """The contract's result object; fails on any metric-name mismatch."""
    declared = spec["per_layer" if traced else "end_to_end"]
    if traced:
        measured = summary["per_layer"]
    else:
        measured = {name: stats["value"]
                    for name, stats in summary["end_to_end"].items()}
    names = [metric["name"] for metric in declared]
    if set(names) != set(measured):
        raise BenchmarkError(
            "metric names differ from BENCHMARK.json: missing "
            f"{sorted(set(names) - set(measured))}, undeclared "
            f"{sorted(set(measured) - set(names))}")
    return {
        "correct": not summary["failures"],
        "attempted": summary["attempted"], "failed": summary["failed"],
        "metrics": {metric["name"]: {"value": measured[metric["name"]],
                                     "unit": metric["unit"]}
                    for metric in declared},
    }


def print_report(summary: Dict[str, Any], spec: Dict[str, Any]) -> None:
    units = {metric["name"]: metric["unit"]
             for metric in spec["end_to_end"] + spec["per_layer"]}
    print(f"== {summary['workload']}  seed {summary['seed']}  "
          f"{summary['rounds']} rounds at scale {summary['scale']}  "
          f"digest {summary['digest'][:12]} ==")
    print(f"  {'end-to-end metric':<24}{'value':>14}{'q1':>14}{'q3':>14}"
          f"{'n':>4}  unit")
    for name, stats in summary["end_to_end"].items():
        print(f"  {name:<24}{stats['value']:>14.4f}{stats['q1']:>14.4f}"
              f"{stats['q3']:>14.4f}{stats['n']:>4}  {units[name]}")
    print("  (ops_per_s is at the host's best observed speed, see "
          "steady_serve_s; its q1/q3 are the raw per-round rates)")
    phases = "  ".join(f"{phase} {seconds:.3f}s"
                       for phase, seconds in summary["phases_s"].items())
    print(f"  phases (median): {phases}")
    if "per_layer" in summary:
        metrics = list(next(iter(summary["layers"].values())))
        print(f"  {'layer':<20}" + "".join(f"{m:>22}" for m in metrics))
        for layer in LAYERS:
            row = summary["layers"][layer]
            print(f"  {layer:<20}"
                  + "".join(f"{row[m]:>22.4f}" for m in metrics))
        for name, value in summary["per_layer"].items():
            if name.split(".")[-1] not in metrics:
                print(f"  {name:<48}{value:>18.6g}  {units[name]}")
    for failure in summary["failures"]:
        print(f"  FAILED: {failure}")
    if not summary["failures"]:
        print("  all output checks passed")


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

def calibrate(spec: Dict[str, Any], workloads: Sequence[str], seconds: float,
              scale: float) -> bool:
    """Run everything twice over ten seeds; print spreads beside bounds.

    Per end-to-end metric and workload: the interquartile range of the ten
    per-seed values as a share of their median (for both sets), and how much
    worse the second set's median is than the first's.  Every simulated
    number must be identical between the two runs of a seed, and every seed
    must give its own digest.
    """
    lines: List[str] = []
    ok = True
    for workload in workloads:
        sets = [[run_workload(workload, seed, seconds, None, scale, False)
                 for seed in CALIBRATION_SEEDS] for _ in range(2)]
        for first, second in zip(*sets):
            if first["failures"] or second["failures"]:
                ok = False
                lines.append(f"{workload} seed {first['seed']}: "
                             f"{first['failures'] + second['failures']}")
            if first["sim"] != second["sim"] \
                    or first["digest"] != second["digest"]:
                ok = False
                lines.append(f"{workload} seed {first['seed']}: simulated "
                             f"results differ between two runs of one seed")
        if len({run["digest"] for run in sets[0]}) != len(CALIBRATION_SEEDS):
            ok = False
            lines.append(f"{workload}: two seeds share a sim digest")
        lines.append(f"== {workload}: {len(CALIBRATION_SEEDS)} seeds x 2 sets, "
                     f"rounds per run "
                     f"{sorted({run['rounds'] for s in sets for run in s})} ==")
        lines.append(f"  {'metric':<24}{'median 1':>14}{'median 2':>14}"
                     f"{'spread 1':>10}{'spread 2':>10}{'worse by':>10}"
                     f"{'bound':>8}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians, spreads = [], []
            for runs in sets:
                values = [run["end_to_end"][name]["value"] for run in runs]
                q1, _, q3 = statistics.quantiles(values, n=4)
                medians.append(statistics.median(values))
                spreads.append((q3 - q1) / medians[-1])
            worse = (medians[1] - medians[0]) / medians[0]
            if metric["better"] == "higher":
                worse = -worse
            within = worse <= bound and (
                name == "setup_s" or max(spreads) <= bound)
            ok = ok and within
            lines.append(
                f"  {name:<24}{medians[0]:>14.4f}{medians[1]:>14.4f}"
                f"{spreads[0]:>10.4f}{spreads[1]:>10.4f}{worse:>+10.4f}"
                f"{bound:>8.2f}{'' if within else '  OUTSIDE BOUND'}")
        for name in ("setup_s", "ops_per_s"):
            for index, runs in enumerate(sets, start=1):
                lines.append(f"  {name} by seed, set {index}: " + " ".join(
                    f"{run['end_to_end'][name]['value']:.4g}"
                    for run in runs))
    lines.append("calibration " + ("passed" if ok else "FAILED"))
    text = "\n".join(lines)
    print(text)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "calibration.txt").write_text(text + "\n")
    return ok


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="serve time to measure per run")
    parser.add_argument("--repeats", type=int,
                        help="exactly this many rounds, whatever --seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="1: per-layer metrics from a traced round")
    parser.add_argument("--quick", action="store_true",
                        help="tenth-size rounds, two per workload")
    parser.add_argument("--calibrate", action="store_true")
    parser.add_argument("--check-surface", action="store_true")
    args = parser.parse_args(argv)

    problems = check_surface()
    if problems:
        print("perfbench cannot reach the program it measures:\n  "
              + "\n  ".join(problems), file=sys.stderr)
        return 2
    if args.check_surface:
        print(f"import surface ok: {sum(map(len, SURFACE.values()))} names "
              f"in {len(SURFACE)} modules")
        return 0
    spec = load_spec()
    scale = QUICK_SCALE if args.quick else FULL_SCALE
    repeats = 2 if args.quick and not args.repeats else args.repeats
    names = [w["name"] for w in spec["workloads"]]
    if args.workload:
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; "
                         f"BENCHMARK.json has {names}")
        names = [args.workload]
    if args.calibrate:
        return 0 if calibrate(spec, names, args.seconds, scale) else 1
    correct = True
    try:
        for name in names:
            summary = run_workload(name, args.seed, args.seconds, repeats,
                                   scale, bool(args.trace))
            print_report(summary, spec)
            line = result_line(summary, spec, bool(args.trace))
            correct = correct and line["correct"]
            print(json.dumps(line))
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench failed: {exc}", file=sys.stderr)
        return 1
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
