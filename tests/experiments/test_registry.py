"""Registry completeness and the structured-result contract.

These tests are the enforcement arm of the experiment registry: every
spec must have a CLI subcommand, a report artifact writer, and a JSON
round-trippable result; every CLI experiment subcommand must resolve to
a registry entry. A driver added without registering (or registered
without wiring) fails here, not in production.
"""

import json

import pytest

from repro.cli import build_parser
from repro.errors import ConfigurationError
from repro.experiments.registry import (
    ExperimentSpec,
    Param,
    RunManifest,
    all_specs,
    get_spec,
    package_version,
    run_experiment,
    spec_ids,
)
from repro.experiments.result import ExperimentResult, encode_json, to_jsonable

#: Cheap parameter overrides so result-contract tests stay fast. Every
#: registered experiment appears here or runs fast at its defaults.
FAST_PARAMS = {
    "heatmaps": {"iterations": 2},
    "usage-diff": {"iterations": 5},
    "projection": {"iterations": 5},
    "lifetime": {"iterations": 2},
    "sweep": {"iterations": 2},
    "faults": {"max_iterations": 10, "deaths": 1},
    "fleet-lifetime": {"num_requests": 60, "scenarios": 2},
    "fleet-policies": {"num_requests": 60},
    "fleet-degradation": {"num_requests": 60},
    "fleet-accuracy": {"num_requests": 60},
    "ablations": {},
    "extensions": {"iterations": 10},
    "attribution": {"limit": 2},
    "profile": {"limit": 2},
    "scorecard": {"iterations": 10},
    "mapping-search": {"limit": 2, "beam_width": 2},
}

#: Subcommands that are utilities, not experiments.
UTILITY_COMMANDS = {
    "list", "export", "report", "cache", "all", "serve", "gateway", "bench",
}


def _cli_subcommands():
    parser = build_parser()
    return set(parser._subparsers._group_actions[0].choices)


class TestRegistryShape:
    def test_ids_are_unique_and_ordered(self):
        ids = spec_ids()
        assert len(ids) == len(set(ids))
        assert ids[0] == "table2"  # paper order starts at Table II

    def test_figure_tag_matches_rota_all_sections(self):
        figures = spec_ids(tag="figure")
        assert figures == (
            "table2",
            "utilization",
            "heatmaps",
            "unfold",
            "walkthrough",
            "usage-diff",
            "projection",
            "lifetime",
            "upper-bound",
            "sweep",
            "overhead",
        )

    def test_every_spec_resolves_to_a_callable(self):
        for spec in all_specs():
            assert callable(spec.resolve()), spec.id

    def test_unknown_spec_rejected(self):
        with pytest.raises(ConfigurationError):
            get_spec("nope")

    def test_param_schema_validates_kind(self):
        with pytest.raises(ConfigurationError):
            Param(name="x", kind="banana")
        with pytest.raises(ConfigurationError):
            Param(name="x", kind="int", invert=True)

    def test_choices_only_for_strings_and_must_cover_default(self):
        with pytest.raises(ConfigurationError):
            Param(name="x", kind="int", choices=("1", "2"))
        with pytest.raises(ConfigurationError):
            Param(name="x", kind="str", default="c", choices=("a", "b"))
        param = Param(name="x", kind="str", default="a", choices=("a", "b"))
        assert param.choices == ("a", "b")

    def test_mapping_search_choices_pin_the_dataflow_enums(self):
        """The spec's hardcoded choice literals must track the library.

        The registry stays import-light (no driver imports at module
        load), so the choices are literals; this test is what keeps them
        from drifting when OBJECTIVES or SEARCH_MODES grow.
        """
        from repro.dataflow.evaluate import OBJECTIVES
        from repro.dataflow.search import SEARCH_MODES

        spec = get_spec("mapping-search")
        by_name = {param.name: param for param in spec.params}
        assert by_name["objective"].choices == OBJECTIVES
        assert by_name["search"].choices == SEARCH_MODES

    def test_fleet_accuracy_choices_pin_the_accuracy_models(self):
        """The --model choice literals must track the accuracy registry."""
        from repro.accuracy.model import ACCURACY_MODEL_NAMES

        spec = get_spec("fleet-accuracy")
        by_name = {param.name: param for param in spec.params}
        assert by_name["model"].choices == ACCURACY_MODEL_NAMES
        assert by_name["model"].kwarg == "accuracy_model"
        assert by_name["slo"].convert == "slo_pairs"

    def test_duplicate_registration_rejected(self):
        from repro.experiments.registry import register

        with pytest.raises(ConfigurationError):
            register(
                ExperimentSpec(
                    id="table2",
                    title="dup",
                    artifact="dup",
                    runner="repro.experiments.table2:run_table2",
                )
            )


class TestCliCompleteness:
    def test_every_spec_has_a_cli_subcommand(self):
        commands = _cli_subcommands()
        for spec in all_specs():
            assert spec.id in commands, f"spec {spec.id} has no subcommand"

    def test_every_experiment_subcommand_has_a_spec(self):
        ids = set(spec_ids())
        for command in _cli_subcommands() - UTILITY_COMMANDS:
            assert command in ids, f"subcommand {command} is not registered"

    def test_every_spec_has_a_report_writer(self):
        from repro.experiments.report import writer_for

        for spec in all_specs():
            assert callable(writer_for(spec.id)), spec.id


class TestResultContract:
    @pytest.mark.parametrize("spec_id", [spec.id for spec in all_specs()])
    def test_result_round_trips_through_json(self, spec_id):
        spec = get_spec(spec_id)
        run = run_experiment(spec_id, **FAST_PARAMS.get(spec_id, {}))
        assert isinstance(run.result, ExperimentResult)
        text = run.result.format()
        assert isinstance(text, str) and text
        payload = run.result.to_dict()
        assert payload["result"] == type(run.result).__name__
        encoded = json.dumps(payload)
        assert json.loads(encoded) == payload
        # The wire encoder gives the same bytes as the dict path.
        for value, plain in (
            (run.result, payload),
            (run.manifest, run.manifest.to_dict()),
        ):
            assert encode_json(value) == json.dumps(
                plain, sort_keys=True, separators=(",", ":")
            ).encode()

    def test_unknown_parameter_rejected_before_driver_import(self):
        with pytest.raises(ConfigurationError, match="does not accept"):
            run_experiment("table2", banana=1)


class TestRunManifest:
    def test_manifest_records_phases_cache_and_version(self):
        run = run_experiment("heatmaps", iterations=2)
        manifest = run.manifest
        assert isinstance(manifest, RunManifest)
        assert manifest.spec_id == "heatmaps"
        assert manifest.version == package_version()
        assert manifest.wall_seconds > 0
        assert [phase.name for phase in manifest.phases] == ["import", "run"]
        counts = manifest.cache_counts
        assert set(counts) == {
            "hits", "misses", "puts", "evictions", "corruptions"
        }
        # REPRO_RESULT_CACHE=off in tests: every policy lookup misses.
        assert counts["misses"] > 0
        # Per-policy fan-out goes through ParallelRunner → task timings.
        assert manifest.tasks
        assert all(len(task) == 4 for task in manifest.tasks)
        # A clean run reports every resilience counter at zero.
        assert set(manifest.resilience_counts) == {
            "retries",
            "timeouts",
            "quarantined",
            "checkpoint_skips",
            "cache_corruptions",
        }
        assert not any(manifest.resilience_counts.values())
        assert manifest.accelerator != ""

    def test_package_version_is_read_once_per_process(
        self, monkeypatch, tmp_path
    ):
        import importlib.metadata

        from repro.gateway import GatewayJobManager

        lookups = []
        real_version = importlib.metadata.version

        def counting_version(name):
            lookups.append(name)
            return real_version(name)

        monkeypatch.setattr(importlib.metadata, "version", counting_version)
        package_version.cache_clear()
        try:
            for _ in range(3):
                run_experiment("unfold")
            # The workers never start: submits only compute content keys.
            manager = GatewayJobManager(
                workers=1, cache_dir=str(tmp_path), start_method="fork"
            )
            try:
                for x in (2, 3, 4):
                    manager.submit("unfold", {"x": x})
            finally:
                manager.shutdown()
        finally:
            package_version.cache_clear()
        assert lookups == ["repro"]

    def test_manifest_is_json_safe(self):
        run = run_experiment("unfold")
        payload = run.manifest.to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["params"] == []

    def test_manifest_format_mentions_cache(self):
        run = run_experiment("unfold")
        text = run.manifest.format()
        assert "cache" in text
        assert "unfold" in text


class TestSpecJsonability:
    def test_specs_are_plain_data(self):
        payload = to_jsonable(list(all_specs()))
        assert json.loads(json.dumps(payload)) == payload


class TestValidateParams:
    def _spec(self, spec_id):
        from repro.experiments.registry import get_spec

        return get_spec(spec_id)

    def test_defaults_fill_omitted(self):
        from repro.experiments.registry import validate_params

        assert validate_params(self._spec("unfold"), {}) == {"x": 8, "y": 8}

    def test_values_pass_through_and_kwarg_mapping(self):
        from repro.experiments.registry import validate_params

        params = validate_params(
            self._spec("faults"), {"iterations": 5, "wearout": False}
        )
        # The public name "iterations" maps onto the runner's
        # max_iterations, exactly like the CLI flag does.
        assert params["max_iterations"] == 5
        assert params["wearout"] is False

    def test_unknown_field_listed(self):
        import pytest

        from repro.experiments.registry import ParamValidationError, validate_params

        with pytest.raises(ParamValidationError) as excinfo:
            validate_params(self._spec("unfold"), {"bogus": 1})
        assert "bogus" in excinfo.value.errors

    def test_type_errors_per_field(self):
        import pytest

        from repro.experiments.registry import ParamValidationError, validate_params

        with pytest.raises(ParamValidationError) as excinfo:
            validate_params(
                self._spec("faults"),
                {"iterations": "ten", "wearout": "yes", "network": 5},
            )
        assert set(excinfo.value.errors) == {"iterations", "wearout", "network"}

    def test_bool_is_not_an_int(self):
        import pytest

        from repro.experiments.registry import ParamValidationError, validate_params

        with pytest.raises(ParamValidationError):
            validate_params(self._spec("unfold"), {"x": True})

    def test_float_accepts_int(self):
        from repro.experiments.registry import validate_params

        params = validate_params(self._spec("faults"), {"mean_budget": 3})
        assert params["mean_budget"] == 3.0

    def test_repeat_converter_applies(self):
        from repro.experiments.registry import validate_params

        params = validate_params(self._spec("faults"), {"dead": ["0,0", "3,2"]})
        assert params["dead"] == ((0, 0), (3, 2))

    def test_repeat_converter_failure_is_field_error(self):
        import pytest

        from repro.experiments.registry import ParamValidationError, validate_params

        with pytest.raises(ParamValidationError) as excinfo:
            validate_params(self._spec("faults"), {"dead": ["zero,zero"]})
        assert "dead" in excinfo.value.errors

    def test_null_only_where_default_is_null(self):
        import pytest

        from repro.experiments.registry import ParamValidationError, validate_params

        # network on "utilization" defaults to None: null is allowed.
        params = validate_params(self._spec("utilization"), {"network": None})
        assert params["network"] is None
        with pytest.raises(ParamValidationError):
            validate_params(self._spec("unfold"), {"x": None})

    def test_non_mapping_rejected(self):
        import pytest

        from repro.experiments.registry import ParamValidationError, validate_params

        with pytest.raises(ParamValidationError):
            validate_params(self._spec("unfold"), ["x", 1])

    def test_choice_violation_is_a_field_error(self):
        import pytest

        from repro.experiments.registry import ParamValidationError, validate_params

        with pytest.raises(ParamValidationError) as excinfo:
            validate_params(
                self._spec("mapping-search"),
                {"objective": "banana", "search": "dfs"},
            )
        errors = excinfo.value.errors
        assert set(errors) == {"objective", "search"}
        assert "banana" in errors["objective"]
        assert "energy-wear" in errors["objective"]

    def test_choice_values_pass(self):
        from repro.experiments.registry import validate_params

        params = validate_params(
            self._spec("mapping-search"), {"objective": "wear", "search": "greedy"}
        )
        assert params["objective"] == "wear"
        assert params["search"] == "greedy"
