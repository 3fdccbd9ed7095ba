#!/usr/bin/env python3
"""End-to-end benchmark of ``rota gateway`` on seeded workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload studies --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-check

One invocation launches ``python -m repro gateway --port 0 --jobs 2``
(spawn workers, an empty cache directory per launch) in its own process
group, sets it up (ready handshake plus one untimed warm-up pass over the
workload's request classes), drives the seeded workload for ``--seconds``
from a single-threaded asyncio client holding at most two connections,
tears the gateway down, verifies every result against an in-process
reference run, and prints every metric with its unit. The last stdout
line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``; per-layer metrics
with ``--trace 1``, which adds a second, traced pass of the same seeded
workload and prints the per-layer table).

Any exit path (success, failed check, timeout, SIGTERM or SIGINT) tears
every gateway down the same way: SIGTERM and drain, SIGKILL to the
group, then a ``/proc`` scan; a survivor is killed and fails the run.
Without a result line the exit code is non-zero: 2 when the repository
sources are missing, 3 when interrupted or out of time.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import signal
import subprocess
import sys
import time
import uuid
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import client  # noqa: E402
import procs  # noqa: E402
import report  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

#: Whole-invocation budget; the contract allows 180 s.
BUDGET_S = 170
#: The untraced pass sets up this many times (a fresh gateway and cache
#: each time) and reports the median; the traced pass sets up once.
SETUPS = 2
READY_TIMEOUT_S = 90.0
#: Peak RSS covers set-up and this many results of the timed window.
RSS_WINDOW_RESULTS = 100
#: A calibration time moving by more than this share between the start
#: and the end of a run, or CPU time stolen by the hypervisor above
#: STEAL_SHARE, flags the run as noisy (neither rescales a metric).
DRIFT_SHARE = 0.25
STEAL_SHARE = 0.05

def declared_metrics() -> Dict[str, Dict[str, str]]:
    """Metric name -> unit, per kind, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        kind: {metric["name"]: metric["unit"] for metric in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


class Interrupted(SystemExit):
    """A signal or the time budget ended the run early."""


def _interrupt(signum: int, frame: Any) -> None:
    raise Interrupted(f"stopped by {signal.Signals(signum).name}")


#: Every gateway launched by this process, torn down on any exit path.
LIVE: List[procs.Gateway] = []


def say(line: str) -> None:
    print(line, flush=True)


async def _warm(port: int, waves, sampler) -> List[client.Outcome]:
    return await client.Client(port, verify.inspect, sampler).waves(waves)


async def _window(
    port: int, workload: workloads.Workload, seconds: float, sampler, traced: Optional[Path]
):
    # The gateway keeps every finished job's payload, so its memory grows
    # with the results served; sampling stops after a fixed number of
    # them so peak RSS measures the same work at any speed.
    # Result bodies are parsed and digested after the window, so the
    # client takes as little CPU as it can from the gateway while timed.
    received: List[Tuple[client.Outcome, bytes]] = []
    load = client.Client(
        port,
        lambda outcome, body: received.append((outcome, body)),
        lambda: sampler() if load.completed < RSS_WINDOW_RESULTS else None,
    )
    before = await load.get_json("/metrics")
    if traced is not None:
        (traced / "window").touch()  # later spans count toward the window
    if workload.loop == "closed":
        outcomes, start, end = await load.closed_loop(workload, seconds)
    else:
        outcomes, start, end = await load.open_loop(workload)
    after = await load.get_json("/metrics")
    for outcome, body in received:
        verify.inspect(outcome, body)
    return before, outcomes, start, end, after


def measure(
    workdir: Path,
    workload: workloads.Workload,
    seconds: float,
    traced: Optional[Path] = None,
) -> report.Pass:
    """Set up (possibly several times), drive one window, tear down."""
    p = report.Pass(closed=workload.loop == "closed")
    while True:
        start = time.perf_counter()
        gateway = procs.Gateway(
            ROOT, workdir / f"gateway-{len(LIVE)}", report.WORKERS,
            workload.result_cache, traced,
        )
        LIVE.append(gateway)
        port = gateway.wait_ready(READY_TIMEOUT_S)
        sampler = procs.RssSampler(gateway.pgid)
        p.warm += asyncio.run(_warm(port, workload.warmup, sampler))
        p.setup_s.append(time.perf_counter() - start)
        if traced is not None or len(p.setup_s) >= SETUPS:
            break
        p.survivors += gateway.teardown().survivors
    p.cache_dir = gateway.cache_dir
    p.metrics_before, p.window, p.start, p.end, p.metrics_after = asyncio.run(
        _window(port, workload, seconds, sampler, traced)
    )
    p.peak_rss_bytes = sampler.peak_bytes
    outcome = gateway.teardown()
    p.survivors += outcome.survivors
    say(
        f"teardown: drained={outcome.drained} "
        f"group-killed={len(outcome.group_killed)} survivors={len(outcome.survivors)}"
    )
    if traced is not None:
        p.trace = report.merge_trace(traced)
    return p


def check_results(passes: List[report.Pass]) -> Tuple[int, int, Dict[str, str]]:
    """Verify every result of every pass; returns attempted, failed, pairs."""
    sent = {o.request.key: o.request for p in passes for o in p.outcomes()}
    references = verify.references(ROOT, passes[0].cache_dir, sent.values())
    attempted = failed = 0
    pairs: Dict[str, str] = {}
    for p in passes:
        for o in p.outcomes():
            attempted += 1
            if o.error is None and o.facts.get("result_digest") != references[o.request.key]:
                o.error = "result differs from the in-process reference"
            if o.error is not None:
                failed += 1
                say(f"FAILED {o.request.key}: {o.error}")
            else:
                pairs[o.request.key] = o.facts["result_digest"]
    return attempted, failed, pairs


def run(args: argparse.Namespace, workdir: Path) -> Dict[str, Any]:
    workload = workloads.make(args.workload, args.seed, args.seconds)
    say(f"workload: {workload.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    say(f"environment: {json.dumps(procs.environment_record(), sort_keys=True)}")
    calibration = procs.calibration_ms()
    steal_start = procs.cpu_jiffies()
    say(f"schedule_digest: {workload.digest()}")

    plain = measure(workdir / "plain", workload, args.seconds)
    passes = [plain]
    if args.trace:
        trace_dir = workdir / "spans"
        trace_dir.mkdir(parents=True)
        passes.append(measure(workdir / "traced", workload, args.seconds, trace_dir))
    attempted, failed, pairs = check_results(passes)

    steal_end = procs.cpu_jiffies()
    steal = (steal_end[0] - steal_start[0]) / max(1, steal_end[1] - steal_start[1])
    calibration_end = procs.calibration_ms()
    drift = abs(calibration_end / calibration - 1.0) > DRIFT_SHARE or steal > STEAL_SHARE
    say(
        f"host.calibration_ms: start={calibration:.3f} end={calibration_end:.3f}; "
        f"cpu steal {steal:.1%}; drift_flag={drift}"
    )
    say(f"results_digest: {verify.results_digest(pairs)} over {len(pairs)} distinct requests")
    say(f"setup_s samples: {[round(s, 3) for s in plain.setup_s]}")
    say(
        f"requests: attempted={attempted} failed={failed} "
        f"failed_ratio={failed / attempted:.6f} window={len(plain.window)} "
        f"verified_in_window={len(plain.verified())}"
    )
    survivors = [s for p in passes for s in p.survivors]
    for line in survivors:
        say(f"SURVIVOR killed: {line}")
    gateway_tiers = [report.gateway_layers(p) for p in passes]
    correct = (
        failed == 0
        and not survivors
        and all(
            layers["gateway.pool.restarts"] == 0 and layers["gateway.pool.task_retries"] == 0
            for layers in gateway_tiers
        )
    )
    if args.trace:
        traced = passes[1]
        overhead = traced.throughput() / plain.throughput() if plain.verified() else 0.0
        metrics = {**gateway_tiers[0], **report.traced_layers(traced.trace, overhead)}
        metrics["host.calibration_ms"] = calibration
        say(report.layer_table(workload.name, plain, gateway_tiers[0], traced.trace))
    else:
        metrics = report.end_to_end(plain, workload.latency_limit_ms)
        latencies = [o.latency_ms for o in plain.verified()]
        say(
            f"whole window: latency_p50_ms={report.percentile(latencies, 50):.4g} "
            f"latency_p90_ms={report.percentile(latencies, 90):.4g} "
            f"over {len(latencies)} results"
        )
    units = declared_metrics()["per_layer" if args.trace else "end_to_end"]
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics disagree with BENCHMARK.json: {sorted(set(metrics) ^ set(units))}"
        )
    for name, value in metrics.items():
        say(f"{name}: {value:.6g} {units[name]}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


# ---------------------------------------------------------------------------
# Self-check: nothing survives a killed gateway or an interrupted run.
# ---------------------------------------------------------------------------

SELF_CHECK_ENV = "PERFBENCH_SELF_CHECK"


def _check_killed_gateway(workdir: Path) -> bool:
    workload = workloads.make("serve-dup", 1, 10.0)
    gateway = procs.Gateway(ROOT, workdir / "killed", report.WORKERS, True)
    LIVE.append(gateway)
    port = gateway.wait_ready(READY_TIMEOUT_S)

    async def drive() -> None:
        asyncio.get_running_loop().call_later(2.0, gateway.kill_main)
        await client.Client(port, verify.inspect).open_loop(workload)

    asyncio.run(drive())
    orphans = procs.find_processes(gateway.marker, gateway.pgid)
    say(f"after SIGKILL of the gateway: {len(orphans)} orphaned process(es)")
    for pid in orphans:
        say(f"  {procs.describe(pid)}")
    outcome = gateway.teardown()
    left = procs.find_processes(gateway.marker, gateway.pgid)
    ok = bool(orphans) and not outcome.survivors and not left
    say(f"killed-gateway check: {'PASS' if ok else 'FAIL'} (left={left})")
    return ok


def _check_interrupted_run(signum: int) -> bool:
    tag = uuid.uuid4().hex
    env = dict(os.environ, **{SELF_CHECK_ENV: tag})
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", "serve-dup",
        "--seed", "1", "--seconds", "10", "--trace", "0",
    ]
    child = subprocess.Popen(
        command, cwd=str(ROOT), env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    # Wait until a gateway and its workers are up, then past the set-ups
    # (two ~5 s samples) into the timed window.
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline and len(procs.find_processes(tag, None, SELF_CHECK_ENV)) < 4:
        time.sleep(0.1)
    time.sleep(17.0)
    during = len(procs.find_processes(tag, None, SELF_CHECK_ENV))
    child.send_signal(signum)
    try:
        out, err = child.communicate(timeout=60.0)
    except subprocess.TimeoutExpired:
        child.kill()
        out, err = child.communicate()
    left = procs.find_processes(tag, None, SELF_CHECK_ENV)
    for pid in left:
        os.kill(pid, signal.SIGKILL)
    printed_result = out.strip().splitlines()[-1:] and out.strip().splitlines()[-1].startswith(b"{")
    ok = during >= 4 and child.returncode != 0 and not printed_result and not left
    say(
        f"{signal.Signals(signum).name} mid-run check: {'PASS' if ok else 'FAIL'} "
        f"(processes during={during}, exit={child.returncode}, left={left})"
    )
    return ok


def self_check(workdir: Path) -> int:
    results = [
        _check_killed_gateway(workdir),
        _check_interrupted_run(signal.SIGTERM),
        _check_interrupted_run(signal.SIGINT),
    ]
    return 0 if all(results) else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--self-check", action="store_true",
        help="show that no process survives a killed gateway or an interrupted run",
    )
    args = parser.parse_args(argv)
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGALRM):
        signal.signal(signum, _interrupt)
    signal.alarm(BUDGET_S if not args.self_check else 3 * BUDGET_S)
    procs.become_subreaper()
    workdir = ROOT / ".perfbench" / uuid.uuid4().hex
    workdir.mkdir(parents=True)
    try:
        if args.self_check:
            return self_check(workdir)
        result = run(args, workdir)
    except Interrupted as stop:
        print(f"perfbench: {stop}; no result", file=sys.stderr)
        return 3
    finally:
        signal.pthread_sigmask(
            signal.SIG_BLOCK, {signal.SIGTERM, signal.SIGINT, signal.SIGALRM}
        )
        signal.alarm(0)
        for gateway in LIVE:
            for line in gateway.teardown().survivors:
                print(f"perfbench: killed survivor {line}", file=sys.stderr)
        procs.reap_children()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
