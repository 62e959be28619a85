"""Tests for the figure-regeneration command line."""

import pytest

from repro.bench.cli import (
    build_parser,
    figure_names,
    main,
    run_figure,
)


class TestParser:
    def test_accepts_every_figure(self):
        parser = build_parser()
        for name in figure_names():
            args = parser.parse_args([name, "--quick"])
            assert args.figure == name and args.quick

    def test_rejects_unknown_figure(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_seed_parsed(self):
        args = build_parser().parse_args(["fig12", "--seed", "7"])
        assert args.seed == 7

    def test_perf_options_parsed(self):
        args = build_parser().parse_args(
            ["perf", "--quick", "--profile", "10", "--repeats", "2",
             "--label", "x", "--perf-scenario", "fig09-zk-queue",
             "--no-save", "--check-regression"])
        assert args.figure == "perf" and args.quick
        assert args.profile == 10 and args.repeats == 2
        assert args.label == "x"
        assert args.perf_scenarios == ["fig09-zk-queue"]
        assert args.no_save and args.check_regression

    def test_show_budget_parsed(self):
        args = build_parser().parse_args(["perf", "--show-budget"])
        assert args.show_budget
        assert not build_parser().parse_args(["perf"]).show_budget

    def test_jobs_parsed(self):
        args = build_parser().parse_args(["fig06", "--quick", "--jobs", "4"])
        assert args.jobs == "4"
        assert build_parser().parse_args(["fig06", "--jobs", "auto"]).jobs \
            == "auto"
        assert build_parser().parse_args(["fig06"]).jobs == "1"


class TestRunFigure:
    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            run_figure("fig99")

    def test_quick_fig09_produces_report(self):
        report = run_figure("fig09", quick=True)
        assert "Figure 9" in report
        assert "leader" in report

    def test_quick_fig12_with_seed(self):
        report = run_figure("fig12", quick=True, seed=9)
        assert "Figure 12" in report

    def test_main_prints_report(self, capsys):
        assert main(["fig09", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Figure 9" in out

    def test_parallel_report_matches_serial(self):
        assert run_figure("fig09", quick=True, jobs=2) == \
            run_figure("fig09", quick=True)

    def test_bad_jobs_value_rejected(self):
        with pytest.raises(ValueError):
            run_figure("fig09", quick=True, jobs="warp")

    def test_main_reports_bad_jobs_cleanly(self, capsys):
        assert main(["fig09", "--quick", "--jobs", "warp"]) == 2
        assert "jobs" in capsys.readouterr().err


class TestShowBudget:
    def test_comparison_table_with_committed_reference(self):
        from repro.bench.perf import format_budget_comparison

        fresh = {"profiled_s": 2.0,
                 "shares": {"scheduler": 0.30, "network": 0.20,
                            "workload": 0.10, "metrics": 0.05,
                            "protocol": 0.25, "other": 0.10}}
        committed = {"profiled_s": 2.1,
                     "shares": {"scheduler": 0.25, "network": 0.20,
                                "workload": 0.10, "metrics": 0.05,
                                "protocol": 0.33, "other": 0.07}}
        table = format_budget_comparison("fig09-zk-queue", fresh, committed)
        assert "Budget vs committed: fig09-zk-queue" in table
        assert "committed" in table and "fresh" in table
        # scheduler grew 5 points, protocol shrank 8 points.
        assert "+5.0" in table and "-8.0" in table

    def test_comparison_table_without_reference(self):
        from repro.bench.perf import format_budget_comparison

        fresh = {"profiled_s": 1.0,
                 "shares": {"scheduler": 0.5, "network": 0.1, "workload": 0.1,
                            "metrics": 0.1, "protocol": 0.1, "other": 0.1}}
        table = format_budget_comparison("fig09-zk-queue", fresh, None)
        assert "no committed budget" in table
        assert "50.0%" in table

    def test_main_perf_show_budget_prints_comparison(self, tmp_path, capsys):
        from repro.bench.perf import main_perf

        output = tmp_path / "perf.json"
        assert main_perf(quick=True, repeats=1, show_budget=True,
                         scenarios=["fig09-zk-queue"], save=False,
                         output=str(output)) == 0
        out = capsys.readouterr().out
        assert "Budget vs committed: fig09-zk-queue" in out
        # A fresh trajectory has no committed budget to compare against.
        assert "no committed budget" in out
        # --show-budget alone prints no cProfile top-N listing.
        assert "cProfile top" not in out
