"""Gateway resilience: dead-worker respawn, deadline termination,
poisoned-key quarantine, backpressure tiers, and signal-driven drains.

These tests drive the real worker-process pool (``fork`` start method
for startup speed), killing workers with real signals and watching the
supervisor replace them — the serving twin of the chaos suite's
process-pool tests.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.gateway import GatewayConfig, GatewayService
from repro.gateway.jobs import GatewayJobManager
from repro.resilience import CircuitBreaker

TERMINAL = ("done", "failed", "cancelled", "timeout")
_SRC = Path(__file__).resolve().parent.parent.parent / "src"


def wait_for(predicate, timeout=30.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def submit(manager, spec_id="lifetime", **params):
    return manager.submit(spec_id, params)


@pytest.fixture
def manager(tmp_path):
    mgr = GatewayJobManager(
        workers=1,
        queue_depth=8,
        cache_dir=str(tmp_path),
        start_method="fork",
    )
    mgr.start()
    yield mgr
    mgr.shutdown(timeout=10.0)


class TestWorkerRespawn:
    def test_killed_worker_is_replaced_and_task_retried(self, manager):
        job = submit(manager, iterations=60)
        assert wait_for(lambda: manager.get(job.id).state == "running")
        victim_pid = manager.worker_health()[0]["pid"]
        os.kill(victim_pid, signal.SIGKILL)
        # The supervisor respawns the worker and redispatches the task
        # (attempt 2 of the default 2), which then completes.
        assert wait_for(lambda: manager.get(job.id).state in TERMINAL, 60.0)
        assert manager.get(job.id).state == "done"
        health = manager.worker_health()[0]
        assert health["restarts"] >= 1
        assert health["pid"] != victim_pid
        assert manager.metrics.task_retries >= 1

    def test_repeated_crashes_quarantine_the_key(self, tmp_path):
        mgr = GatewayJobManager(
            workers=1,
            queue_depth=8,
            cache_dir=str(tmp_path),
            start_method="fork",
            task_attempts=1,  # first crash condemns the key
        )
        mgr.start()
        try:
            job = submit(mgr, iterations=55)
            assert wait_for(lambda: mgr.get(job.id).state == "running")
            os.kill(mgr.worker_health()[0]["pid"], signal.SIGKILL)
            assert wait_for(lambda: mgr.get(job.id).state in TERMINAL, 60.0)
            failed = mgr.get(job.id)
            assert failed.state == "failed"
            assert failed.error["code"] == "worker-crash"
            assert mgr.metrics.keys_quarantined == 1
            # Identical submissions now fail fast with the poisoned error.
            from repro.resilience import PoisonedTaskError

            with pytest.raises(PoisonedTaskError):
                submit(mgr, iterations=55)
            # Different params are a different key and still execute.
            other = submit(mgr, iterations=25)
            assert wait_for(lambda: mgr.get(other.id).state in TERMINAL, 60.0)
            assert mgr.get(other.id).state == "done"
        finally:
            mgr.shutdown(timeout=10.0)


class TestDeadline:
    def test_overrunning_task_times_out_and_worker_is_replaced(self, tmp_path):
        mgr = GatewayJobManager(
            workers=1,
            queue_depth=8,
            cache_dir=str(tmp_path),
            start_method="fork",
            job_timeout=0.05,
        )
        mgr.start()
        try:
            pid_before = mgr.worker_health()[0]["pid"]
            job = submit(mgr, iterations=60)
            assert wait_for(lambda: mgr.get(job.id).state in TERMINAL, 60.0)
            timed_out = mgr.get(job.id)
            assert timed_out.state == "timeout"
            assert timed_out.error["code"] == "timeout"
            assert wait_for(
                lambda: mgr.worker_health()[0]["pid"] != pid_before, 30.0
            )
        finally:
            mgr.shutdown(timeout=10.0)


class TestBackpressureTiers:
    def test_queue_full_coalesces_identical_but_429s_unique(self, tmp_path):
        svc = GatewayService(
            GatewayConfig(
                port=0,
                workers=1,
                queue_depth=1,
                start_method="fork",
                cache_dir=str(tmp_path),
            )
        )
        svc.start()
        try:
            def post(params):
                req = urllib.request.Request(
                    svc.url + "/v1/experiments/lifetime/runs",
                    data=json.dumps(params).encode(),
                    method="POST",
                    headers={"Content-Type": "application/json"},
                )
                try:
                    with urllib.request.urlopen(req, timeout=30) as response:
                        return response.status, dict(response.headers), (
                            json.loads(response.read())
                        )
                except urllib.error.HTTPError as error:
                    return error.code, dict(error.headers), json.loads(
                        error.read()
                    )

            # Occupy the single worker, then fill the depth-1 queue.
            status, _, first = post({"iterations": 60})
            assert status == 202
            assert wait_for(lambda: svc.manager.running_count() == 1)
            status, _, _ = post({"iterations": 50})
            assert status == 202
            assert wait_for(lambda: svc.manager.queue_depth() == 1)
            assert svc.manager.tier() == "coalesce-only"
            # Unique work is rejected with the computed hint...
            status, headers, body = post({"iterations": 40})
            assert status == 429
            assert body["error"]["code"] == "queue-full"
            assert int(headers["Retry-After"]) >= 1
            # ...but an identical in-flight submission still coalesces.
            status, _, body = post({"iterations": 60})
            assert status == 202
            assert body["job"]["coalesced"] is True
        finally:
            svc.shutdown()


@pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGINT])
class TestSignalDrain:
    def spawn(self, command):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(_SRC) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        line = proc.stdout.readline()
        assert "listening on" in line, line
        return proc

    def test_gateway_drains_on_signal(self, sig):
        proc = self.spawn(
            [
                sys.executable,
                "-m",
                "repro",
                "gateway",
                "--port",
                "0",
                "--jobs",
                "1",
                "--start-method",
                "fork",
            ]
        )
        proc.send_signal(sig)
        output, _ = proc.communicate(timeout=60)
        assert proc.returncode == 0
        assert "rota gateway drained" in output

    def test_serve_drains_on_signal(self, sig):
        # The alias runs the gateway with its default (spawn) workers.
        proc = self.spawn(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "-j", "1"]
        )
        proc.send_signal(sig)
        output, _ = proc.communicate(timeout=60)
        assert proc.returncode == 0
        assert "rota gateway drained" in output


class _ParkingBreaker(CircuitBreaker):
    """A closed breaker whose first ``check()`` parks until released."""

    def __init__(self):
        super().__init__()
        self.parked = threading.Event()
        self.release = threading.Event()
        self._first = True

    def check(self):
        if self._first:
            self._first = False
            self.parked.set()
            self.release.wait(30.0)
        super().check()


class TestCoalesceRace:
    def test_identical_submit_cannot_open_the_key_twice(
        self, tmp_path, monkeypatch
    ):
        """Attach-or-open is one decision: while the first identical
        submitter is between its attach miss and its open (parked in
        the breaker check), the others must wait, not open the key
        themselves and lose their followers to the first one's open."""
        import repro.experiments.registry as registry

        real_run = registry.run_experiment

        def slow_run(spec_id, **params):
            time.sleep(0.5)
            return real_run(spec_id, **params)

        # Fork workers inherit the patch made before start().
        monkeypatch.setattr(registry, "run_experiment", slow_run)
        breaker = _ParkingBreaker()
        mgr = GatewayJobManager(
            workers=1,
            queue_depth=8,
            breaker=breaker,
            cache_dir=str(tmp_path),
            cache_enabled=False,
            start_method="fork",
        )
        mgr.start()
        try:
            jobs = []

            def submit_one():
                jobs.append(mgr.submit("unfold", {"x": 3, "y": 5}))

            first = threading.Thread(target=submit_one)
            first.start()
            assert breaker.parked.wait(10.0)
            others = [threading.Thread(target=submit_one) for _ in range(2)]
            for thread in others:
                thread.start()
                thread.join(0.5)
            breaker.release.set()
            for thread in [first] + others:
                thread.join(30.0)
            assert len(jobs) == 3
            assert wait_for(
                lambda: all(mgr.get(job.id).done for job in jobs), 20.0
            ), [mgr.get(job.id).state for job in jobs]
            assert [mgr.get(job.id).state for job in jobs] == ["done"] * 3
            assert mgr.metrics.executions_dispatched == 1
            assert mgr.metrics.jobs_coalesced == 2
        finally:
            mgr.shutdown(timeout=10.0)
