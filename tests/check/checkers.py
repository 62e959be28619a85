"""Checkers over a :class:`history.History` (importable as ``checkers``);
each returns the problems it found, one line each.

* :func:`well_formed`, the Correctable contract per operation: exactly one
  final or error and nothing after it; every view a value written to its
  key (by an update invoked before the view arrived) or the key's time-zero
  value; in an observed history, a read's final is the newest version of
  an attempt that answered, and no attempt answers older than the
  preliminary it flushed (after a client failover the preliminary may come
  from another attempt than the final, and be newer); ``degraded`` exactly
  when the coordinator answered below the quorum asked.
* :func:`runner_figures`: each load runner's :class:`RunResult` (counts,
  latency samples, divergence pairs) re-derived from the operations it
  issued through the history.
* :func:`lost_acked_writes`: the keys whose newest acknowledged write
  their current owners no longer hold (omniscient: the replicas' tables).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import List

from repro.cassandra_sim.storage import resolve


def well_formed(history) -> List[str]:
    problems: List[str] = []
    written = defaultdict(list)  # key -> [(invoked at, value)]
    for op in history.ops:
        if op.kind == "update":
            written[op.key].append((op.invoked_at, op.value))
    for n, op in enumerate(history.ops):
        name = f"op {n} ({op.kind} {op.key!r} at {op.invoked_at})"
        kinds = op.kinds()
        answers = len(op.answers)
        if answers != 1:
            problems.append(f"{name}: {answers} answers, not one")
        elif "preliminary" in kinds[kinds.index(op.answers[0][0]):]:
            problems.append(f"{name}: a preliminary after its answer")
        newest = {None if version is None else version.timestamp
                  for version, _ in op.answered}
        for version, preliminary in op.answered:
            if preliminary is not None and (
                    version is None
                    or version.timestamp < preliminary.timestamp):
                problems.append(f"{name}: an attempt answered {version} older "
                                f"than the preliminary it flushed "
                                f"{preliminary}")
        for call, at in zip(op.calls, op.times):
            if call[0] == "error":
                continue
            if call.value != history.initial(op.key) and not any(
                    value == call.value and invoked_at <= at
                    for invoked_at, value in written[op.key]):
                problems.append(f"{name}: {call[0]} {call.value!r} was "
                                f"never written")
            if call[0] == "preliminary":
                continue
            if op.answered and call.stamp not in newest:
                problems.append(f"{name}: final {call.stamp} is no answering "
                                f"attempt's newest version")
            if op.reached and call.degraded not in {
                    reached < asked for reached, asked in op.reached}:
                problems.append(f"{name}: degraded={call.degraded} with "
                                f"{op.reached} (answers, quorum)")
    return problems


def runner_figures(history) -> List[str]:
    problems: List[str] = []
    runners = {op.runner for op in history.ops} - {None}
    for runner in sorted(runners, key=lambda runner: runner.label):
        derived = Counter()
        samples = {"final": [], "preliminary": []}
        for op in history.ops:
            if op.runner is not runner or not op.answers:
                continue
            answer = op.answers[0]
            index = op.calls.index(answer)
            derived["total_ops"] += 1
            derived["failed_ops"] += answer[0] == "error"
            derived["degraded_ops"] += answer[0] == "final" and answer.degraded
            if not runner._measure_start <= op.arrived_at \
                    or op.times[index] > runner._measure_end:
                continue
            queue_delay = op.invoked_at - op.arrived_at
            derived["measured_ops"] += 1
            derived["update" if op.kind == "update" else "read"] += 1
            samples["final"].append(answer.latency_ms + queue_delay)
            if not op.icg or answer[0] == "error":
                continue
            views = [call for call in op.calls[:index]
                     if call[0] == "preliminary"]
            if views:
                samples["preliminary"].append(views[-1].latency_ms
                                              + queue_delay)
            derived["missing_preliminary" if not views else
                    "diverged" if views[-1].value != answer.value
                    and not answer.is_confirmation else "matched"] += 1
        result, divergence = runner.result, runner.result.divergence
        summary = result.summary()
        recorded = {
            "total_ops": result.total_ops, "failed_ops": summary["failed_ops"],
            "degraded_ops": summary["degraded_ops"],
            "measured_ops": summary["measured_ops"],
            "update": result.update_latency.count,
            "read": result.read_latency.count,
            "matched": divergence.matched, "diverged": divergence.diverged,
            "missing_preliminary": divergence.missing_preliminary}
        problems += [f"{runner.label} {name}: recorded {count}, history "
                     f"{derived[name]}" for name, count in recorded.items()
                     if count != derived[name]]
        problems += [f"{runner.label} {name} latencies differ"
                     for name, recorder in (
                         ("final", result.final_latency),
                         ("preliminary", result.preliminary_latency))
                     if sorted(samples[name]) != sorted(recorder.samples())]
    return problems


def lost_acked_writes(history, cluster) -> List[str]:
    acked = {}
    for op in history.ops:
        if op.kind == "update" and op.kinds() == ["final"]:
            stamp = op.calls[0].stamp
            acked[op.key] = max(acked.get(op.key, stamp), stamp)
    problems = []
    for key, stamp in acked.items():
        newest = resolve([cluster.replica_by_name(name).table.get(key)
                          for name in cluster.partitioner.replicas_for(key)])
        if newest is None or newest.timestamp < stamp:
            problems.append(f"{key}: acked {stamp}, owners hold {newest}")
    return problems
