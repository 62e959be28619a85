"""Checks on the benchmark itself: ``python -m pytest perfbench -q``.

Outside ``testpaths`` on purpose, so the tier-1 suite does not grow.  One
``--quick --trace 1`` pass over all four workloads (under 30 s) backs most
of the tests.
"""

from __future__ import annotations

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import layers  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), *args],
                          capture_output=True, text=True, timeout=170)


def _why(done: subprocess.CompletedProcess) -> str:
    """What a failed run said, for the assertion message."""
    return done.stderr + "\n".join(
        line for line in done.stdout.splitlines() if "FAILED" in line)


def _result_lines(stdout: str) -> list:
    return [json.loads(line) for line in stdout.splitlines()
            if line.startswith('{"correct"')]


@pytest.fixture(scope="module")
def spec() -> dict:
    return run.load_spec()


@pytest.fixture(scope="module")
def quick_traced() -> subprocess.CompletedProcess:
    return _run("--quick", "--trace", "1")


def test_benchmark_json_meets_the_contract(spec):
    assert list(spec) == ["command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"]
    assert spec["paths"] == ["perfbench"]
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = []
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
        names.append(metric["name"])
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names), "a name is used twice"
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert run.SPEC_PATH.stat().st_size <= 64 * 1024


def test_every_per_layer_metric_names_a_known_layer(spec):
    for metric in spec["per_layer"]:
        layer = metric["name"].rsplit(".", 1)[0]
        assert layer in layers.LAYERS, metric["name"]


def test_every_source_file_has_exactly_one_layer():
    assert layers.unmapped_sources() == []
    assert layers.layer_of(str(BENCH_DIR / "run.py")) == "bench-glue"
    assert layers.layer_of("/usr/lib/python3/heapq.py") is None


def test_surface_lists_exactly_what_perfbench_imports():
    imported: dict = {}
    for path in BENCH_DIR.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module \
                    and node.module.split(".")[0] == "repro":
                imported.setdefault(node.module, set()).update(
                    alias.name for alias in node.names)
    assert imported == {module: set(names)
                        for module, names in run.SURFACE.items()}


def test_check_surface_passes_and_names_what_is_missing(monkeypatch):
    assert run.check_surface() == []
    monkeypatch.setitem(run.SURFACE, "repro.bench.common", ["no_such_name"])
    problems = run.check_surface()
    assert len(problems) == 1 and "no_such_name" in problems[0]


def test_quick_traced_run_prints_the_declared_names(spec, quick_traced):
    assert quick_traced.returncode == 0, _why(quick_traced)
    workloads = [w["name"] for w in spec["workloads"]]
    headers = re.findall(r"^== (\S+) ", quick_traced.stdout, re.MULTILINE)
    assert headers == workloads
    lines = _result_lines(quick_traced.stdout)
    assert len(lines) == len(workloads)
    declared = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    for line in lines:
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["attempted"] >= 1
        assert [(name, metric["unit"])
                for name, metric in line["metrics"].items()] == declared
    for name, _unit in declared:
        assert name in quick_traced.stdout


def test_trace_files_attribute_at_least_95_percent(spec, quick_traced):
    assert quick_traced.returncode == 0, _why(quick_traced)
    for workload in spec["workloads"]:
        trace = json.loads(
            (run.OUT_DIR / f"trace-{workload['name']}.json").read_text())
        assert trace["unattributed_share"] < 0.05
        names = {span["name"] for span in trace["spans"]}
        assert {"setup.import", "setup.build", "setup.preload",
                "setup.generators", "serve", "serve.slice", "drain",
                "audit"} <= names


def test_quick_untraced_run_prints_the_end_to_end_names(spec):
    done = _run("--quick", "--trace", "0", "--workload", "zk-tickets")
    assert done.returncode == 0, _why(done)
    (line,) = _result_lines(done.stdout)
    assert list(line["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert all(metric["value"] > 0 for metric in line["metrics"].values())
    assert done.stdout.splitlines()[-1].startswith('{"correct"')


def test_digest_repeats_for_a_seed_and_differs_between_seeds():
    digests = [run.run_round("zk-tickets", seed, run.QUICK_SCALE)["digest"]
               for seed in (1, 1, 2)]
    assert digests[0] == digests[1] != digests[2]
