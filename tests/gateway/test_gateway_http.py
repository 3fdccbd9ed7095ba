"""End-to-end gateway tests: a real asyncio front end over real worker
processes on a random port.

Covers the PR's acceptance criteria directly over HTTP:

* K concurrent identical POSTs produce exactly one execution (asserted
  through ``/metrics``, not timing);
* the SSE stream delivers monotonically increasing sequence numbers
  and terminates with the run's final state;
* ETag polling answers 304 (no body) while the job state is unchanged;
* ``/healthz`` proves the pool is N worker *processes* wide;
* the payload served by ``GET /v1/runs/<id>`` equals the experiment's
  direct ``to_dict()`` output (the ``rota <exp> --json`` contract).
"""

import http.client
import json
import threading
import time
import urllib.error
import urllib.request
from urllib.parse import urlsplit

import pytest

from repro.cli import build_parser
from repro.experiments.registry import run_experiment
from repro.gateway import GatewayConfig, GatewayService

#: Cheap parity sweep: no-param, int-param, and str-param schemas.
PARITY_CASES = [
    ("table2", {}, {}),
    ("unfold", {"x": 5, "y": 4}, {"x": 5, "y": 4}),
    ("walkthrough", {"network": "SqueezeNet"}, {"network": "SqueezeNet"}),
    ("fleet-accuracy", {"requests": 40}, {"num_requests": 40}),
]

TERMINAL = ("done", "failed", "cancelled", "timeout")


@pytest.fixture(scope="module")
def gateway(tmp_path_factory):
    svc = GatewayService(
        GatewayConfig(
            port=0,
            workers=2,
            queue_depth=32,
            start_method="fork",
            cache_dir=str(tmp_path_factory.mktemp("gateway-cache")),
        )
    )
    svc.start()
    yield svc
    svc.shutdown()


def request(service, method, path, body=None, headers=None):
    """One HTTP round-trip; returns (status, headers, parsed payload)."""
    data = None if body is None else json.dumps(body).encode("utf-8")
    all_headers = dict(headers or {})
    if data:
        all_headers["Content-Type"] = "application/json"
    req = urllib.request.Request(
        service.url + path, data=data, method=method, headers=all_headers
    )
    try:
        with urllib.request.urlopen(req, timeout=60) as response:
            return (
                response.status,
                dict(response.headers),
                json.loads(response.read() or b"null"),
            )
    except urllib.error.HTTPError as error:
        raw = error.read()
        return (
            error.code,
            dict(error.headers),
            json.loads(raw) if raw else None,
        )


def wait_terminal(service, job_id, timeout=120.0):
    deadline = time.monotonic() + timeout
    while True:
        status, _, body = request(service, "GET", f"/v1/runs/{job_id}")
        assert status in (200, 504), body
        if body["state"] in TERMINAL:
            return body
        assert time.monotonic() < deadline, f"job {job_id} stuck"
        time.sleep(0.05)


class TestHealthz:
    def test_pool_is_two_processes_wide(self, gateway):
        status, _, body = request(gateway, "GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["workers_alive"] == 2
        assert len(body["workers"]) == 2
        pids = set()
        for row in body["workers"]:
            assert row["kind"] == "process"
            assert row["alive"] is True
            assert row["ready"] is True
            assert isinstance(row["pid"], int)
            pids.add(row["pid"])
        # Two distinct OS processes, neither of them the gateway itself.
        import os

        assert len(pids) == 2
        assert os.getpid() not in pids

    def test_tier_is_accept_when_idle(self, gateway):
        _, _, body = request(gateway, "GET", "/healthz")
        assert body["tier"] == "accept"


class TestCoalescing:
    def test_concurrent_identical_posts_execute_once(self, gateway):
        _, _, before = request(gateway, "GET", "/metrics")
        params = {"iterations": 31}
        results = []

        def post():
            results.append(
                request(
                    gateway, "POST", "/v1/experiments/lifetime/runs", params
                )
            )

        threads = [threading.Thread(target=post) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        job_ids = []
        for status, _, body in results:
            assert status == 202, body
            job_ids.append(body["job"]["id"])
        bodies = [wait_terminal(gateway, job_id) for job_id in job_ids]
        assert all(body["state"] == "done" for body in bodies)
        # Every follower serves the primary's payload, byte-identical.
        assert all(
            body["result"] == bodies[0]["result"] for body in bodies[1:]
        )
        _, _, after = request(gateway, "GET", "/metrics")
        executed = (
            after["gateway"]["executions_dispatched"]
            - before["gateway"]["executions_dispatched"]
        )
        coalesced = (
            after["gateway"]["coalesced"] - before["gateway"]["coalesced"]
        )
        assert executed == 1
        assert coalesced == 5
        assert after["gateway"]["coalesce_ratio"] > 0

    def test_coalesced_flag_on_follower_jobs(self, gateway):
        params = {"iterations": 33}
        first = request(
            gateway, "POST", "/v1/experiments/lifetime/runs", params
        )
        second = request(
            gateway, "POST", "/v1/experiments/lifetime/runs", params
        )
        flags = {
            first[2]["job"]["coalesced"],
            second[2]["job"]["coalesced"],
        }
        # One primary, one follower (submission order is serialized here).
        assert flags == {True, False}
        for response in (first, second):
            assert wait_terminal(gateway, response[2]["job"]["id"])[
                "state"
            ] == "done"


class TestStreaming:
    def sse_stream(self, gateway, job_id, headers=None):
        parts = urlsplit(gateway.url)
        conn = http.client.HTTPConnection(
            parts.hostname, parts.port, timeout=120
        )
        all_headers = {"Accept": "text/event-stream"}
        all_headers.update(headers or {})
        conn.request("GET", f"/v1/runs/{job_id}/events", headers=all_headers)
        response = conn.getresponse()
        content_type = response.getheader("Content-Type")
        raw = response.read().decode()
        conn.close()
        return response.status, content_type, raw

    def test_sse_is_monotonic_and_terminates(self, gateway):
        status, _, body = request(
            gateway,
            "POST",
            "/v1/experiments/lifetime/runs",
            {"iterations": 35},
        )
        assert status == 202
        job_id = body["job"]["id"]
        # The terminal event closes the stream, so a plain read-to-EOF
        # returns the complete frame sequence.
        status, content_type, raw = self.sse_stream(gateway, job_id)
        assert status == 200
        assert content_type == "text/event-stream"
        seqs = [
            int(line.split(": ", 1)[1])
            for line in raw.splitlines()
            if line.startswith("id: ")
        ]
        states = [
            line.split(": ", 1)[1]
            for line in raw.splitlines()
            if line.startswith("event: ")
        ]
        assert seqs == sorted(seqs)
        assert len(seqs) == len(set(seqs))
        assert states[0] == "queued"
        assert states[-1] in TERMINAL
        data_lines = [
            json.loads(line.split(": ", 1)[1])
            for line in raw.splitlines()
            if line.startswith("data: ")
        ]
        assert [event["seq"] for event in data_lines] == seqs
        assert all(event["job_id"] == job_id for event in data_lines)

    def test_last_event_id_resumes_past_the_cursor(self, gateway):
        _, _, body = request(
            gateway,
            "POST",
            "/v1/experiments/lifetime/runs",
            {"iterations": 36},
        )
        job_id = body["job"]["id"]
        wait_terminal(gateway, job_id)
        _, _, raw = self.sse_stream(
            gateway, job_id, headers={"Last-Event-ID": "1"}
        )
        seqs = [
            int(line.split(": ", 1)[1])
            for line in raw.splitlines()
            if line.startswith("id: ")
        ]
        assert seqs and min(seqs) == 2

    def test_events_fallback_is_json_without_accept_header(self, gateway):
        _, _, body = request(
            gateway,
            "POST",
            "/v1/experiments/lifetime/runs",
            {"iterations": 37},
        )
        job_id = body["job"]["id"]
        wait_terminal(gateway, job_id)
        status, _, events_body = request(
            gateway, "GET", f"/v1/runs/{job_id}/events"
        )
        assert status == 200
        assert events_body["terminal"] is True
        states = [event["state"] for event in events_body["events"]]
        assert states[0] == "queued"
        assert states[-1] == "done"

    def test_sse_unknown_job_is_404(self, gateway):
        status, content_type, raw = self.sse_stream(gateway, "run-nope")
        assert status == 404
        assert json.loads(raw)["error"]["code"] == "unknown-job"


class TestConditionalPolling:
    def test_etag_poll_304_on_unchanged_state(self, gateway):
        _, _, body = request(
            gateway,
            "POST",
            "/v1/experiments/lifetime/runs",
            {"iterations": 38},
        )
        job_id = body["job"]["id"]
        wait_terminal(gateway, job_id)
        status, headers, body = request(gateway, "GET", f"/v1/runs/{job_id}")
        assert status == 200
        etag = headers["ETag"]
        _, _, before = request(gateway, "GET", "/metrics")
        status, headers, body = request(
            gateway,
            "GET",
            f"/v1/runs/{job_id}",
            headers={"If-None-Match": etag},
        )
        assert status == 304
        assert body is None  # 304 carries no body
        assert headers["ETag"] == etag
        _, _, after = request(gateway, "GET", "/metrics")
        assert (
            after["gateway"]["not_modified"]
            > before["gateway"]["not_modified"]
        )

    def test_etag_changes_across_states(self, gateway):
        status, _, body = request(
            gateway,
            "POST",
            "/v1/experiments/lifetime/runs",
            {"iterations": 39},
        )
        job_id = body["job"]["id"]
        _, first_headers, _ = request(gateway, "GET", f"/v1/runs/{job_id}")
        wait_terminal(gateway, job_id)
        _, final_headers, _ = request(gateway, "GET", f"/v1/runs/{job_id}")
        assert first_headers["ETag"] != final_headers["ETag"]


class TestParity:
    @pytest.mark.parametrize(
        "spec_id,params,kwargs",
        PARITY_CASES,
        ids=[case[0] for case in PARITY_CASES],
    )
    def test_run_payload_matches_cli_json(
        self, gateway, spec_id, params, kwargs
    ):
        status, _, body = request(
            gateway, "POST", f"/v1/experiments/{spec_id}/runs", params
        )
        assert status == 202, body
        detail = wait_terminal(gateway, body["job"]["id"])
        assert detail["state"] == "done", detail["error"]
        direct = run_experiment(spec_id, **kwargs).result.to_dict()
        assert detail["result"] == json.loads(json.dumps(direct))
        assert detail["manifest"]["spec_id"] == spec_id

    def test_serve_resolves_to_the_gateway_command(self):
        parser = build_parser()
        serve = vars(parser.parse_args(["serve"]))
        gateway = vars(parser.parse_args(["gateway"]))
        assert serve.pop("command") == "serve"
        assert gateway.pop("command") == "gateway"
        # Same handler, same flags, same defaults (port 8764, 4 workers).
        assert serve == gateway
        assert (serve["port"], serve["jobs"]) == (8764, 4)

    def test_validation_error_shape_matches_serve(self, gateway):
        status, _, body = request(
            gateway, "POST", "/v1/experiments/unfold/runs", {"x": "wide"}
        )
        assert status == 400
        assert body["error"]["code"] == "invalid-params"
        assert "x" in body["error"]["fields"]

    def test_metrics_exposes_gateway_section(self, gateway):
        _, _, body = request(gateway, "GET", "/metrics")
        section = body["gateway"]
        assert {
            "coalesced",
            "coalesce_ratio",
            "executions_dispatched",
            "keys_in_flight",
            "keys_quarantined",
            "not_modified",
            "sse_streams",
            "backpressure",
        } <= set(section)
        assert section["backpressure"]["tier"] in (
            "accept",
            "coalesce-only",
            "shed",
            "draining",
        )
        assert section["backpressure"]["retry_after_hint"] >= 1


class TestShutdown:
    def test_drain_summary_counts_coalesced(self, tmp_path):
        svc = GatewayService(
            GatewayConfig(
                port=0,
                workers=1,
                start_method="fork",
                cache_dir=str(tmp_path),
            )
        )
        svc.start()
        params = {"iterations": 32}
        first = request(svc, "POST", "/v1/experiments/lifetime/runs", params)
        second = request(svc, "POST", "/v1/experiments/lifetime/runs", params)
        for response in (first, second):
            assert response[0] == 202
            wait_terminal(svc, response[2]["job"]["id"])
        summary = svc.shutdown()
        assert "drained" in summary
        assert "1 coalesced" in summary
        with pytest.raises(urllib.error.URLError):
            urllib.request.urlopen(svc.url + "/healthz", timeout=2)
