"""Tests for the ``rota`` command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_subcommands(self):
        parser = build_parser()
        for command in (
            ["table2"],
            ["utilization"],
            ["heatmaps"],
            ["walkthrough"],
            ["usage-diff"],
            ["projection"],
            ["lifetime"],
            ["upper-bound"],
            ["sweep"],
            ["overhead"],
            ["ablations"],
            ["faults"],
            ["all"],
        ):
            args = parser.parse_args(command)
            assert callable(args.func)

    def test_unknown_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nope"])

    def test_every_subcommand_help_formats(self):
        """Regression: a bare ``%`` in a registered param's help crashes
        argparse's %-interpolating help formatter at ``--help`` time."""
        parser = build_parser()
        for name, sub in parser._subparsers._group_actions[0].choices.items():
            text = sub.format_help()
            assert name in text

    def test_fleet_accuracy_subcommand(self):
        parser = build_parser()
        args = parser.parse_args(
            [
                "fleet-accuracy",
                "--slo", "SqueezeNet=tolerant:0.1",
                "--slo", "ResNet-50=exact",
                "--max-loss", "0.08",
                "--model", "approximation",
                "--min-alive", "0.8",
            ]
        )
        assert callable(args.func)
        assert args.slo == ["SqueezeNet=tolerant:0.1", "ResNet-50=exact"]
        assert args.max_loss == 0.08
        assert args.model == "approximation"

    def test_fleet_accuracy_model_choices_enforced(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet-accuracy", "--model", "oracle"])

    def test_jobs_flag_where_fanout_exists(self):
        parser = build_parser()
        assert parser.parse_args(["all", "--jobs", "4"]).jobs == 4
        assert parser.parse_args(["lifetime", "-j", "2"]).jobs == 2
        assert parser.parse_args(["sweep", "--jobs", "0"]).jobs == 0
        assert parser.parse_args(["all"]).jobs is None

    def test_mapping_search_subcommand(self):
        args = build_parser().parse_args(
            ["mapping-search", "--objective", "wear", "--search", "beam",
             "--beam-width", "4", "--limit", "2"]
        )
        assert callable(args.func)
        assert args.objective == "wear"
        assert args.search == "beam"
        assert args.beam_width == 4

    def test_mapping_search_choices_enforced(self, capsys):
        """The CLI rejects the same values the service 400s on."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["mapping-search", "--objective", "banana"])
        err = capsys.readouterr().err
        assert "invalid choice: 'banana'" in err
        assert "energy-wear" in err
        with pytest.raises(SystemExit):
            build_parser().parse_args(["mapping-search", "--search", "dfs"])
        assert "invalid choice: 'dfs'" in capsys.readouterr().err

    def test_cache_subcommand(self):
        args = build_parser().parse_args(["cache"])
        assert callable(args.func)
        assert not args.clear
        assert build_parser().parse_args(["cache", "--clear"]).clear

    def test_faults_subcommand(self):
        args = build_parser().parse_args(
            ["faults", "--dead", "0,0", "--dead", "3,2", "--no-wearout", "-j", "1"]
        )
        assert callable(args.func)
        assert args.dead == ["0,0", "3,2"]
        assert args.no_wearout
        assert args.deaths == 3
        assert args.iterations == 300
        assert args.jobs == 1


class TestMain:
    def test_table2_prints_roster(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "SqueezeNet" in out
        assert "Llama v2" in out

    def test_overhead_prints_claim(self, capsys):
        assert main(["overhead"]) == 0
        assert "0.3%" in capsys.readouterr().out

    def test_walkthrough_prints_paper_example(self, capsys):
        assert main(["walkthrough"]) == 0
        out = capsys.readouterr().out
        assert "X=7" in out

    def test_lifetime_with_reduced_iterations(self, capsys):
        assert main(["lifetime", "--iterations", "5"]) == 0
        out = capsys.readouterr().out
        assert "RWL+RO" in out
        assert "AVG" in out

    def test_usage_diff_small(self, capsys):
        assert main(["usage-diff", "--iterations", "20"]) == 0
        assert "baseline" in capsys.readouterr().out

    def test_faults_command(self, capsys):
        assert main(["faults", "--iterations", "20", "--deaths", "1", "-j", "1"]) == 0
        out = capsys.readouterr().out
        assert "Fault study" in out
        assert "Degradation curve" in out
        assert "dead=" in out  # heatmap legend with the dead-PE overlay

    def test_library_errors_exit_nonzero_with_one_line(self, capsys):
        code = main(["faults", "--network", "NoSuchNet", "-j", "1"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("rota: error:")
        assert "NoSuchNet" in captured.err
        assert "Traceback" not in captured.err

    def test_bad_dead_coordinate_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["faults", "--dead", "zero,zero", "-j", "1"])

    def test_configuration_errors_exit_nonzero(self, capsys):
        assert main(["faults", "--deaths", "0", "-j", "1"]) == 2
        assert "deaths" in capsys.readouterr().err


class TestExtensionsCommand:
    def test_extensions_prints_all_studies(self, capsys):
        assert main(["extensions", "--iterations", "30"]) == 0
        out = capsys.readouterr().out
        assert "policy comparison" in out
        assert "Monte Carlo" in out
        assert "objective" in out
        assert "Weibull" in out

    def test_projection_command(self, capsys):
        assert main(["projection", "--iterations", "20"]) == 0
        assert "R_diff" in capsys.readouterr().out

    def test_heatmaps_command(self, capsys):
        assert main(["heatmaps", "--iterations", "2"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 3a" in out and "Fig. 3b" in out

    def test_utilization_with_network(self, capsys):
        assert main(["utilization", "--network", "Sqz"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 2a" in out and "Fig. 2b" in out

    def test_profile_command(self, capsys):
        assert main(["profile", "--network", "Sqz", "--limit", "3"]) == 0
        out = capsys.readouterr().out
        assert "Profile" in out
        assert "more layers" in out

    def test_export_command(self, capsys, tmp_path):
        assert main(["export", "--network", "Sqz", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "rota_wl_controller.v" in out
        assert (tmp_path / "controller_program.json").exists()
        assert (tmp_path / "rota_wl_controller.v").exists()
        assert (tmp_path / "scalesim" / "squeezenet.cfg").exists()

    def test_unfold_command(self, capsys):
        assert main(["unfold"]) == 0
        assert "unfolded torus walk" in capsys.readouterr().out

    def test_attribution_command(self, capsys):
        assert main(["attribution", "--network", "Sqz", "--limit", "3"]) == 0
        out = capsys.readouterr().out
        assert "Wear attribution" in out
        assert "conv1" in out

    def test_scorecard_command(self, capsys):
        assert main(["scorecard", "--iterations", "30"]) == 0
        out = capsys.readouterr().out
        assert "Reproduction scorecard" in out
        assert "claims hold" in out


class TestCacheCommand:
    def test_cache_info(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_RESULT_CACHE", "on")
        assert main(["cache"]) == 0
        out = capsys.readouterr().out
        assert "result cache" in out
        assert "0 entries" in out
        assert "schedule cache" in out

    def test_cache_clear(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_RESULT_CACHE", "on")
        from repro.runtime import ResultCache

        ResultCache().put("deadbeef", {"x": 1})
        assert main(["cache", "--clear"]) == 0
        out = capsys.readouterr().out
        assert "cleared 1 cached results" in out
        assert "0 entries" in out

    def test_lifetime_accepts_jobs(self, capsys):
        assert main(["lifetime", "--iterations", "2", "--jobs", "1"]) == 0
        assert "AVG" in capsys.readouterr().out


class TestRegistryCli:
    def test_version_flag(self, capsys):
        import pytest

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("rota ")

    def test_list_enumerates_registry(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        from repro.experiments.registry import spec_ids

        for spec_id in spec_ids():
            assert spec_id in out

    def test_list_tag_filter(self, capsys):
        assert main(["list", "--tag", "fault"]) == 0
        out = capsys.readouterr().out
        assert "faults" in out
        assert "table2" not in out

    def test_json_flag_emits_structured_result(self, capsys):
        import json

        assert main(["table2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"] == "Table2Result"
        assert payload["networks"]

    def test_list_json(self, capsys):
        import json

        assert main(["list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {entry["id"] for entry in payload} >= {"table2", "faults"}

    def test_help_does_not_import_driver_modules(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        probe = (
            "import sys\n"
            "import repro.cli\n"
            "try:\n"
            "    repro.cli.main(['--help'])\n"
            "except SystemExit:\n"
            "    pass\n"
            "allowed = {'registry', 'result'}\n"
            "bad = [name for name in sys.modules\n"
            "       if name.startswith('repro.experiments.')\n"
            "       and name.split('.')[-1] not in allowed]\n"
            "assert not bad, f'drivers imported by --help: {bad}'\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
        result = subprocess.run(
            [sys.executable, "-c", probe],
            env=env,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr


class TestServeAndPruneParsing:
    def test_serve_subcommand_defaults(self):
        # `serve` is an alias of `gateway`: the gateway's defaults.
        args = build_parser().parse_args(["serve"])
        assert callable(args.func)
        assert args.host == "127.0.0.1"
        assert args.port == 8764
        assert args.jobs == 4
        assert args.queue_depth == 64
        assert args.start_method == "spawn"
        assert args.request_timeout == 300.0
        assert args.breaker_threshold == 5
        assert args.breaker_cooldown == 30.0

    def test_serve_flags(self):
        args = build_parser().parse_args(
            ["serve", "--host", "0.0.0.0", "--port", "0", "-j", "4",
             "--queue-depth", "5", "--request-timeout", "2.5",
             "--breaker-threshold", "2", "--breaker-cooldown", "0.5"]
        )
        assert (args.host, args.port, args.jobs) == ("0.0.0.0", 0, 4)
        assert args.queue_depth == 5
        assert args.request_timeout == 2.5
        assert args.breaker_threshold == 2
        assert args.breaker_cooldown == 0.5

    def test_cache_prune_flags(self):
        args = build_parser().parse_args(["cache", "--prune", "--max-bytes", "1024"])
        assert args.prune and args.max_bytes == 1024
        assert not build_parser().parse_args(["cache"]).prune

    def test_cache_prune_without_bound_is_an_error(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_MAX_BYTES", raising=False)
        assert main(["cache", "--prune"]) == 2
        assert "max-bytes" in capsys.readouterr().err

    def test_cache_prune_reports_summary(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_RESULT_CACHE", "on")
        monkeypatch.delenv("REPRO_CACHE_MAX_BYTES", raising=False)
        from repro.runtime import ResultCache

        cache = ResultCache()
        for index in range(3):
            cache.put(f"k{index}", list(range(100)))
        assert main(["cache", "--prune", "--max-bytes", "0"]) == 0
        out = capsys.readouterr().out
        assert "pruned 3 cached result(s)" in out
        assert "0 entries" in out
