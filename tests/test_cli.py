"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main

FAST = ["--runs", "25", "--estimator-dim", "8", "--cache-kb", "4"]


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.runs == 300
        assert args.platform == "rand"
        assert args.workload == "tvca"
        assert args.shards == 1

    def test_campaign_is_alias_of_run(self):
        args = build_parser().parse_args(["campaign"])
        assert args.runs == 300
        assert args.platform == "rand"
        assert args.func is build_parser().parse_args(["run"]).func

    def test_analyse_cutoff(self):
        args = build_parser().parse_args(["analyse", "--cutoff", "1e-12"])
        assert args.cutoff == 1e-12

    def test_adaptive_flags(self):
        args = build_parser().parse_args(["run"])
        assert args.until_converged is False
        args = build_parser().parse_args(
            ["run", "--until-converged", "--tolerance", "0.05",
             "--conv-step", "50", "--conv-block", "5"]
        )
        assert args.until_converged is True
        assert args.tolerance == 0.05
        assert args.conv_step == 50
        assert args.conv_block == 5
        assert args.conv_probability == 1e-9

    def test_bad_adaptive_knobs_exit_2(self, capsys):
        code = main(["run", "--runs", "20", "--until-converged",
                     "--conv-step", "5"])
        assert code == 2
        assert "step must be >= 10" in capsys.readouterr().err

    def test_contention_flags(self):
        args = build_parser().parse_args(["run"])
        assert args.cores == 1
        assert args.co_runner is None
        args = build_parser().parse_args(
            ["run", "--cores", "4", "--co-runner", "opponent-memory-hammer"]
        )
        assert args.cores == 4
        assert args.co_runner == "opponent-memory-hammer"

    def test_contend_defaults(self):
        args = build_parser().parse_args(["contend"])
        assert args.cores == 4
        assert args.workload == "matmul"
        assert args.scenarios is None
        assert args.co_runner is None

    def test_unknown_co_runner_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--co-runner", "nope"])

    def test_analysis_flags(self):
        args = build_parser().parse_args(["analyse"])
        assert args.method == "block-maxima-gumbel"
        assert args.ci is None
        assert args.bootstrap == 200
        assert args.bootstrap_kind == "parametric"
        args = build_parser().parse_args(
            ["analyse", "--method", "auto", "--ci", "0.95",
             "--bootstrap", "500", "--bootstrap-kind", "block"]
        )
        assert args.method == "auto"
        assert args.ci == 0.95
        assert args.bootstrap == 500
        assert args.bootstrap_kind == "block"

    def test_unknown_method_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["analyse", "--method", "nope"])

    def test_bad_ci_exits_2_before_any_run(self, capsys):
        # Validation must fire before the campaign burns its budget:
        # a huge --runs returning this fast proves no run happened.
        code = main(["run", "--runs", "10000000", "--ci", "1.5"])
        assert code == 2
        assert "ci must be in (0, 1)" in capsys.readouterr().err
        code = main(["contend", "--runs", "10000000", "--bootstrap", "5"])
        assert code == 2
        assert "bootstrap" in capsys.readouterr().err


class TestCommands:
    def test_campaign_writes_per_path_artifact(self, tmp_path, capsys):
        out = tmp_path / "campaign.json"
        code = main(["campaign", *FAST, "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == "repro.campaign/1"
        assert payload["platform"]["name"] == "RAND"
        # Per-path data survives saving (no pooling into one sample).
        assert sum(
            len(p["values"]) for p in payload["samples"]["paths"].values()
        ) == 25
        assert len(payload["records"]) == 25
        assert "TVCA@RAND" in capsys.readouterr().out

    def test_run_sharded_matches_serial(self, tmp_path):
        serial, sharded = tmp_path / "serial.json", tmp_path / "sharded.json"
        assert main(["run", *FAST, "--out", str(serial)]) == 0
        assert main(["run", *FAST, "--shards", "4", "--out", str(sharded)]) == 0
        a = json.loads(serial.read_text())
        b = json.loads(sharded.read_text())
        assert a["samples"] == b["samples"]

    def test_campaign_det_platform(self, capsys):
        code = main(["campaign", *FAST, "--platform", "det"])
        assert code == 0
        assert "TVCA@DET" in capsys.readouterr().out

    def test_run_kernel_workload(self, capsys):
        code = main(["run", "--runs", "5", "--workload", "matmul"])
        assert code == 0
        assert "matmul_8@RAND" in capsys.readouterr().out

    def test_analyse_saved_legacy_sample(self, tmp_path, capsys):
        from repro.workloads.synthetic import cache_like_samples
        from repro.harness.measurements import ExecutionTimeSample

        sample = ExecutionTimeSample(
            values=cache_like_samples(600, seed=3), label="saved"
        )
        path = tmp_path / "s.json"
        path.write_text(sample.to_json())
        code = main(["analyse", "--sample", str(path), "--cutoff", "1e-9"])
        out = capsys.readouterr().out
        assert code == 0
        assert "pWCET" in out
        assert "pWCET@1e-09" in out

    def test_analyse_artifact_keeps_paths(self, tmp_path, capsys):
        out = tmp_path / "campaign.json"
        main(["run", "--runs", "150", "--workload", "synthetic-cache",
              "--out", str(out)])
        capsys.readouterr()
        code = main(["analyse", "--sample", str(out)])
        report = capsys.readouterr().out
        assert code == 0
        assert "pWCET" in report

    def test_run_until_converged(self, tmp_path, capsys):
        out = tmp_path / "adaptive.json"
        code = main([
            "run", "--runs", "2000", "--workload", "synthetic-cache",
            "--until-converged", "--conv-block", "5", "--conv-step", "50",
            "--out", str(out),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "adaptive:" in printed
        assert "converged" in printed
        payload = json.loads(out.read_text())
        assert payload["convergence"]["converged"] is True
        assert payload["config"]["runs_requested"] == 2000
        assert payload["config"]["runs_used"] < 2000
        assert len(payload["records"]) == payload["config"]["runs_used"]

    def test_analyse_surfaces_convergence(self, tmp_path, capsys):
        out = tmp_path / "adaptive.json"
        main([
            "run", "--runs", "2000", "--workload", "synthetic-cache",
            "--until-converged", "--conv-block", "5", "--conv-step", "50",
            "--out", str(out),
        ])
        capsys.readouterr()
        code = main(["analyse", "--sample", str(out)])
        printed = capsys.readouterr().out
        assert code == 0
        assert "adaptive:" in printed
        assert "pWCET" in printed

    def test_compare_runs(self, capsys):
        code = main(["compare", *FAST])
        out = capsys.readouterr().out
        assert code == 0
        assert "MBTA" in out
        assert "RAND/DET average ratio" in out

    def test_list_registries(self, capsys):
        code = main(["list"])
        out = capsys.readouterr().out
        assert code == 0
        assert "tvca" in out
        assert "rand" in out
        assert "det" in out

    def test_list_shows_scenarios_and_core_counts(self, capsys):
        code = main(["list"])
        out = capsys.readouterr().out
        assert code == 0
        assert "scenarios (--co-runner):" in out
        assert "opponent-memory-hammer" in out
        assert "isolation" in out
        assert "default cores: 4" in out

    def test_list_shows_estimators(self, capsys):
        code = main(["list"])
        out = capsys.readouterr().out
        assert code == 0
        assert "estimators (--method):" in out
        assert "block-maxima-gumbel" in out
        assert "pot-gpd" in out
        assert "gev" in out
        assert "auto" in out

    def test_analyse_auto_ci_prints_bands_and_rationale(self, tmp_path, capsys):
        from repro.harness.measurements import ExecutionTimeSample
        from repro.workloads.synthetic import cache_like_samples

        sample = ExecutionTimeSample(
            values=cache_like_samples(900, seed=61), label="banded"
        )
        path = tmp_path / "s.json"
        path.write_text(sample.to_json())
        code = main([
            "analyse", "--sample", str(path), "--method", "auto",
            "--ci", "0.95", "--cutoff", "1e-12",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "selection: auto:" in out
        assert "fit quality:" in out
        assert "bootstrap band" in out
        assert "CI lower" in out
        assert "95% CI at 1e-12:" in out

    def test_analyse_pot_method(self, tmp_path, capsys):
        from repro.harness.measurements import ExecutionTimeSample
        from repro.workloads.synthetic import cache_like_samples

        sample = ExecutionTimeSample(
            values=cache_like_samples(900, seed=62), label="pot"
        )
        path = tmp_path / "s.json"
        path.write_text(sample.to_json())
        code = main(["analyse", "--sample", str(path), "--method", "pot-gpd"])
        out = capsys.readouterr().out
        assert code == 0
        assert "estimator: pot-gpd" in out
        assert "GPD" in out

    def test_run_ci_attaches_analysis_to_artifact(self, tmp_path, capsys):
        out_path = tmp_path / "banded.json"
        code = main([
            "run", "--runs", "150", "--workload", "synthetic-cache",
            "--ci", "0.9", "--out", str(out_path),
        ])
        printed = capsys.readouterr().out
        assert code == 0
        assert "90% CI" in printed
        payload = json.loads(out_path.read_text())
        assert payload["analysis"]["ci"] == 0.9
        band = next(iter(payload["analysis"]["paths"].values()))["band"]
        assert band["level"] == 0.9
        assert len(band["lower"]) == len(band["cutoffs"])

    def test_analyse_reanalyse_artifact_with_other_method(
        self, tmp_path, capsys
    ):
        first = tmp_path / "c.json"
        main([
            "run", "--runs", "150", "--workload", "synthetic-cache",
            "--ci", "0.9", "--out", str(first),
        ])
        capsys.readouterr()
        second = tmp_path / "c2.json"
        code = main([
            "analyse", "--sample", str(first), "--method", "pot-gpd",
            "--ci", "0.95", "--out", str(second),
        ])
        report = capsys.readouterr().out
        assert code == 0
        assert "estimator: pot-gpd" in report
        payload = json.loads(second.read_text())
        assert payload["analysis"]["method"] == "pot-gpd"
        # The raw samples are still there for the next re-analysis.
        assert payload["samples"]["paths"]

    def test_analyse_out_warns_on_legacy_sample(self, tmp_path, capsys):
        from repro.harness.measurements import ExecutionTimeSample
        from repro.workloads.synthetic import cache_like_samples

        sample = ExecutionTimeSample(
            values=cache_like_samples(600, seed=63), label="legacy"
        )
        path = tmp_path / "s.json"
        path.write_text(sample.to_json())
        out = tmp_path / "never.json"
        code = main([
            "analyse", "--sample", str(path), "--out", str(out),
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert not out.exists()
        assert "--out ignored" in captured.err

    def test_contend_ci_reports_band_overlap(self, capsys):
        code = main([
            "contend", "--workload", "table-walk", "--runs", "400",
            "--cutoff", "1e-9", "--ci", "0.9", "--bootstrap", "100",
        ])
        printed = capsys.readouterr().out
        assert code == 0
        assert "ci |" in printed or " ci " in printed
        assert (
            "separated above isolation" in printed
            or "overlaps isolation" in printed
        )

    def test_run_with_co_runner_records_scenario(self, tmp_path, capsys):
        out = tmp_path / "contended.json"
        code = main([
            "run", "--workload", "matmul", "--runs", "5", "--cores", "4",
            "--co-runner", "opponent-memory-hammer", "--out", str(out),
        ])
        assert code == 0
        assert "matmul_8+opponent-memory-hammer@RAND" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["config"]["scenario"] == "opponent-memory-hammer"
        assert payload["platform"]["num_cores"] == 4
        record = payload["records"][0]
        assert record["metadata"]["co_runner"] == "memory-hammer"
        assert set(record["metadata"]["per_core_cycles"]) == {"0", "1", "2", "3"}

    def test_unsupported_workload_for_co_scheduling_exits_2(self, capsys):
        code = main([
            "run", "--workload", "synthetic-cache", "--runs", "2",
            "--cores", "2", "--co-runner", "opponent-cpu",
        ])
        assert code == 2
        assert "co-scheduling" in capsys.readouterr().err

    def test_co_runner_needs_multicore_platform(self, capsys):
        code = main([
            "run", "--workload", "matmul", "--runs", "2",
            "--co-runner", "opponent-cpu",
        ])
        assert code == 2
        assert "at least 2 cores" in capsys.readouterr().err

    def test_contend_co_runner_shorthand(self, capsys):
        code = main([
            "contend", "--workload", "matmul", "--runs", "4",
            "--co-runner", "opponent-cpu",
        ])
        printed = capsys.readouterr().out
        assert code == 0
        assert "isolation:" in printed
        assert "opponent-cpu:" in printed
        assert "opponent-memory-hammer" not in printed

    def test_contend_rejects_scenarios_plus_co_runner(self, capsys):
        code = main([
            "contend", "--runs", "2", "--scenarios", "isolation",
            "--co-runner", "opponent-cpu",
        ])
        assert code == 2
        assert "not both" in capsys.readouterr().err

    def test_contend_renders_comparison(self, tmp_path, capsys):
        out = tmp_path / "contend.csv"
        code = main([
            "contend", "--workload", "table-walk", "--runs", "20",
            "--out", str(out),
        ])
        printed = capsys.readouterr().out
        assert code == 0
        assert "isolation:" in printed
        assert "opponent-memory-hammer:" in printed
        assert "vs isolation" in printed
        csv = out.read_text()
        assert csv.startswith("scenario,statistic,value")
        assert "opponent-memory-hammer,mean," in csv
        # Written through the atomic UTF-8 path: exact bytes, no temp
        # file left next to the output.
        from repro.api import CampaignRequest
        from repro.harness import compare_scenarios_request
        from repro.viz import contention_csv

        base = CampaignRequest(
            workload="table-walk", runs=20,
            platform_kwargs={"num_cores": 4, "cache_kb": 4},
        )
        summary = compare_scenarios_request(base).summary()
        assert out.read_bytes() == (contention_csv(summary) + "\n").encode()
        assert [p.name for p in tmp_path.iterdir()] == ["contend.csv"]
