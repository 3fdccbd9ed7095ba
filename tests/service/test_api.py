"""The transport-independent API contract, driven against the gateway's
job manager over ``fork`` worker processes (no sockets)."""

import json
import math
import time

import pytest

from repro.experiments.registry import spec_ids
from repro.gateway import ApiResponse, GatewayAPI, GatewayJobManager


def wait_state(manager, job_id, timeout=60.0):
    deadline = time.monotonic() + timeout
    while True:
        job = manager.get(job_id)
        if job.done:
            return job
        if time.monotonic() > deadline:
            raise AssertionError(f"job {job_id} stuck in {job.state}")
        time.sleep(0.01)


@pytest.fixture
def api(tmp_path):
    manager = GatewayJobManager(
        workers=2,
        queue_depth=4,
        cache_dir=str(tmp_path),
        start_method="fork",
    )
    manager.start()
    yield GatewayAPI(manager)
    manager.shutdown()


@pytest.fixture
def cold_api(tmp_path):
    """API over a manager whose workers never run (queueing tests)."""
    manager = GatewayJobManager(
        workers=1,
        queue_depth=2,
        cache_dir=str(tmp_path),
        start_method="fork",
    )
    yield GatewayAPI(manager)
    manager.shutdown()


class TestHealthAndMetrics:
    def test_healthz(self, api):
        response = api.handle("GET", "/healthz", None)
        assert response.status == 200
        assert response.payload["status"] == "ok"
        assert response.payload["uptime_seconds"] >= 0

    def test_metrics_shape(self, api):
        response = api.handle("GET", "/metrics", None)
        assert response.status == 200
        payload = response.payload
        assert set(payload) >= {"uptime_seconds", "queue", "jobs", "cache", "tasks"}
        assert payload["jobs"]["submitted"] == 0
        assert payload["queue"]["depth"] == 0

    def test_wrong_method(self, api):
        response = api.handle("POST", "/healthz", None)
        assert response.status == 405
        assert response.payload["error"]["code"] == "method-not-allowed"
        assert ("Allow", "GET") in response.headers


class TestExperimentEndpoints:
    def test_list_covers_whole_registry(self, api):
        response = api.handle("GET", "/v1/experiments", None)
        assert response.status == 200
        listed = {entry["id"] for entry in response.payload["experiments"]}
        assert listed == set(spec_ids())

    def test_detail_includes_param_schema(self, api):
        response = api.handle("GET", "/v1/experiments/unfold", None)
        assert response.status == 200
        spec = response.payload["experiment"]
        assert spec["id"] == "unfold"
        assert {param["name"] for param in spec["params"]} == {"x", "y"}

    def test_unknown_experiment_404(self, api):
        response = api.handle("GET", "/v1/experiments/nope", None)
        assert response.status == 404
        assert response.payload["error"]["code"] == "unknown-experiment"

    def test_unknown_route_404(self, api):
        response = api.handle("GET", "/v2/everything", None)
        assert response.status == 404
        assert response.payload["error"]["code"] == "not-found"


class TestSubmission:
    def test_submit_returns_202_with_location(self, api):
        response = api.handle(
            "POST", "/v1/experiments/unfold/runs", {"x": 4, "y": 4}
        )
        assert response.status == 202
        job = response.payload["job"]
        assert job["spec_id"] == "unfold"
        assert response.payload["status_url"] == f"/v1/runs/{job['id']}"
        assert ("Location", f"/v1/runs/{job['id']}") in response.headers
        wait_state(api.manager, job["id"])

    def test_validation_errors_are_per_field(self, api):
        response = api.handle(
            "POST",
            "/v1/experiments/unfold/runs",
            {"x": "four", "y": True, "bogus": 1},
        )
        assert response.status == 400
        error = response.payload["error"]
        assert error["code"] == "invalid-params"
        assert set(error["fields"]) == {"x", "y", "bogus"}
        assert "integer" in error["fields"]["x"]
        assert "unknown parameter" in error["fields"]["bogus"]

    def test_submit_to_unknown_experiment_404(self, api):
        response = api.handle("POST", "/v1/experiments/nope/runs", {})
        assert response.status == 404
        assert response.payload["error"]["code"] == "unknown-experiment"

    def test_converter_errors_become_field_errors(self, api):
        response = api.handle(
            "POST", "/v1/experiments/faults/runs", {"dead": ["zero,zero"]}
        )
        assert response.status == 400
        assert "dead" in response.payload["error"]["fields"]

    def test_queue_full_maps_to_429(self, cold_api):
        # Distinct params: an identical submission would coalesce onto
        # the queued one instead of taking a queue slot.
        def post(x):
            return cold_api.handle(
                "POST", "/v1/experiments/unfold/runs", {"x": x}
            )

        assert post(2).status == 202
        assert post(3).status == 202
        response = post(4)
        assert response.status == 429
        assert response.payload["error"]["code"] == "queue-full"
        assert ("Retry-After", "1") in response.headers

    def test_submit_during_shutdown_maps_to_503(self, tmp_path):
        manager = GatewayJobManager(
            workers=1,
            queue_depth=2,
            cache_dir=str(tmp_path),
            start_method="fork",
        )
        manager.start()
        manager.shutdown()
        response = GatewayAPI(manager).handle(
            "POST", "/v1/experiments/unfold/runs", {}
        )
        assert response.status == 503
        assert response.payload["error"]["code"] == "shutting-down"


class TestChoiceValidation:
    """Enumerated string params reject bad values per field (400)."""

    def test_bad_objective_is_a_field_error(self, api):
        response = api.handle(
            "POST", "/v1/experiments/mapping-search/runs", {"objective": "banana"}
        )
        assert response.status == 400
        error = response.payload["error"]
        assert error["code"] == "invalid-params"
        assert set(error["fields"]) == {"objective"}
        assert "'banana'" in error["fields"]["objective"]
        assert "energy-wear" in error["fields"]["objective"]

    def test_bad_search_mode_is_a_field_error(self, api):
        response = api.handle(
            "POST", "/v1/experiments/mapping-search/runs", {"search": "dfs"}
        )
        assert response.status == 400
        fields = response.payload["error"]["fields"]
        assert set(fields) == {"search"}
        assert "beam" in fields["search"]

    def test_bad_fields_reported_together(self, api):
        response = api.handle(
            "POST",
            "/v1/experiments/mapping-search/runs",
            {"objective": "banana", "search": "dfs", "beam_width": "wide"},
        )
        assert response.status == 400
        assert set(response.payload["error"]["fields"]) == {
            "objective",
            "search",
            "beam_width",
        }

    def test_valid_choices_accepted(self, api):
        response = api.handle(
            "POST",
            "/v1/experiments/mapping-search/runs",
            {"objective": "wear", "search": "greedy", "limit": 1},
        )
        assert response.status == 202
        wait_state(api.manager, response.payload["job"]["id"])


class TestRunEndpoints:
    def test_run_detail_reaches_done_with_result(self, api):
        submitted = api.handle(
            "POST", "/v1/experiments/unfold/runs", {"x": 4, "y": 4}
        )
        job_id = submitted.payload["job"]["id"]
        wait_state(api.manager, job_id)
        response = api.handle("GET", f"/v1/runs/{job_id}", None)
        assert response.status == 200
        body = json.loads(response.body())
        assert body["state"] == "done"
        assert body["result"]["result"] == "Fig4Result"
        assert body["manifest"]["spec_id"] == "unfold"

    def test_failed_run_carries_structured_error(self, api):
        submitted = api.handle(
            "POST",
            "/v1/experiments/walkthrough/runs",
            {"network": "NoSuchNet"},
        )
        job_id = submitted.payload["job"]["id"]
        job = wait_state(api.manager, job_id)
        assert job.state == "failed"
        response = api.handle("GET", f"/v1/runs/{job_id}", None)
        # The ReproError surfaces as a structured error on the job, not
        # a traceback or a 500 — the HTTP twin of CLI exit code 2.
        assert response.status == 200
        assert response.payload["error"]["code"] == "repro-error"
        assert "NoSuchNet" in response.payload["error"]["message"]
        assert response.payload["result"] is None

    def test_unknown_run_404(self, api):
        response = api.handle("GET", "/v1/runs/run-999999-deadbeef", None)
        assert response.status == 404
        assert response.payload["error"]["code"] == "unknown-job"

    def test_list_runs(self, api):
        submitted = api.handle("POST", "/v1/experiments/unfold/runs", {})
        job_id = submitted.payload["job"]["id"]
        wait_state(api.manager, job_id)
        response = api.handle("GET", "/v1/runs", None)
        assert response.status == 200
        assert [run["id"] for run in response.payload["runs"]] == [job_id]
        # Summaries stay light: no result body on the list endpoint.
        assert "result" not in response.payload["runs"][0]

    def test_handle_never_raises(self, api):
        # Even a nonsense params type becomes a structured response.
        response = api.handle("POST", "/v1/experiments/unfold/runs", "not-a-dict")
        assert response.status == 400


def _canonical(raw):
    """Re-encode parsed JSON so NaN compares equal to NaN."""
    return json.dumps(json.loads(raw), sort_keys=True)


def _assert_keys_sorted(raw):
    def check(pairs):
        keys = [key for key, _ in pairs]
        assert keys == sorted(keys)
        return dict(pairs)

    json.loads(raw, object_pairs_hook=check)


class TestResponseBody:
    """The one wire encoding every response body uses."""

    # Fig. 7's R_diff is inf while the minimum usage is 0, so infinite
    # and NaN floats do reach real response bodies.
    PAYLOAD = {
        "zeta": {"r_diff": math.inf, "floor": -math.inf, "ratio": math.nan},
        "label": "Wärme – 摩耗 ✓",
        "alpha": [1, 2.5, {"y": None, "b": True}],
        "nested": {"outer": {"z": 1, "a": {"m": "n", "c": []}}},
    }

    def test_matches_the_indented_encoding_once_parsed(self):
        body = ApiResponse(200, self.PAYLOAD).body()
        legacy = json.dumps(self.PAYLOAD, indent=2, sort_keys=True)
        assert _canonical(body) == _canonical(legacy)
        parsed = json.loads(body)
        assert parsed["zeta"]["r_diff"] == math.inf
        assert parsed["zeta"]["floor"] == -math.inf
        assert math.isnan(parsed["zeta"]["ratio"])
        assert parsed["label"] == self.PAYLOAD["label"]

    def test_is_compact_with_sorted_keys_and_standard_spellings(self):
        body = ApiResponse(200, self.PAYLOAD).body()
        _assert_keys_sorted(body)
        assert b"\n" not in body and b": " not in body
        assert b'"r_diff":Infinity' in body
        assert b'"floor":-Infinity' in body
        assert b'"ratio":NaN' in body
        body.decode("ascii")  # non-ASCII text is escaped, as before

    def test_not_modified_has_no_body(self):
        assert ApiResponse(304, {"ignored": 1}).body() == b""

