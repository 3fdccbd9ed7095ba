"""Open-loop load test against the serving front door (CLI, not pytest).

Spawns a ``rota gateway`` subprocess (or targets ``--base-url``), offers
a seeded duplicated-traffic scenario built from the fleet simulator's
arrival processes, and prints what the service sustained: RPS,
submit-to-terminal p50/p99, error budget, and the coalesce ratio read
back from ``/metrics``.

``--smoke`` is the CI gate (the ``load-smoke`` job): a small pinned
scenario that must finish with **zero 5xx responses**, a **coalesce
ratio above zero** (concurrent identical submissions really shared
executions), and — when this script spawned the gateway — a **clean
SIGTERM drain** (exit 0 and the drain summary line).

Usage::

    python benchmarks/bench_service_load.py --smoke --workers 2
    python benchmarks/bench_service_load.py --base-url http://127.0.0.1:8764
    python benchmarks/bench_service_load.py --json > load.json

The module is importable (pytest may collect ``bench_*.py`` files); all
work happens under ``main()``.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    try:
        import repro  # noqa: F401
    except ImportError:
        sys.path.insert(0, str(_SRC))


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="open-loop load test for rota gateway"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=(
            "small pinned scenario with hard gates: zero 5xx, coalesce "
            "ratio > 0, clean SIGTERM drain"
        ),
    )
    parser.add_argument(
        "--base-url",
        default=None,
        help=(
            "drive an already-running service instead of spawning a "
            "gateway (skips the drain gate)"
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=4,
        help="worker processes for the spawned gateway",
    )
    parser.add_argument(
        "--requests", type=int, default=None, help="override request count"
    )
    parser.add_argument(
        "--rate", type=float, default=None, help="override offered rate (rps)"
    )
    parser.add_argument(
        "--kind",
        default="poisson",
        choices=("poisson", "bursty"),
        help="arrival process shape",
    )
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument(
        "--start-method",
        default="fork",
        choices=("spawn", "fork", "forkserver"),
        help="start method for the spawned gateway's workers",
    )
    parser.add_argument(
        "--json",
        dest="json_output",
        action="store_true",
        help="print the report as JSON instead of the summary table",
    )
    return parser.parse_args(argv)


def _spawn_gateway(args, cache_dir):
    """Start ``rota gateway`` on an ephemeral port; returns (proc, url)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "gateway",
            "--port",
            "0",
            "--jobs",
            str(args.workers),
            "--start-method",
            args.start_method,
            "--cache-dir",
            cache_dir,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    line = proc.stdout.readline()
    if "listening on" not in line:
        proc.kill()
        raise RuntimeError(f"gateway failed to start: {line.strip()!r}")
    url = line.split("listening on ")[1].split()[0]
    return proc, url


def _drain_gateway(proc):
    """SIGTERM the spawned gateway; returns (exit_code, remaining output)."""
    proc.send_signal(signal.SIGTERM)
    output, _ = proc.communicate(timeout=60)
    return proc.returncode, output


def main(argv=None):
    args = _parse_args(argv)
    from repro.gateway.loadgen import LoadScenario, default_scenario, run_load

    scenario = default_scenario(smoke=args.smoke)
    scenario = LoadScenario(
        classes=scenario.classes,
        num_requests=args.requests or scenario.num_requests,
        rate_rps=args.rate or scenario.rate_rps,
        kind=args.kind,
        seed=args.seed,
    )

    proc = None
    drain = None
    try:
        if args.base_url:
            base_url = args.base_url.rstrip("/")
        else:
            cache_dir = tempfile.mkdtemp(prefix="rota-load-cache-")
            proc, base_url = _spawn_gateway(args, cache_dir)
        report = run_load(base_url, scenario)
    finally:
        if proc is not None:
            drain = _drain_gateway(proc)

    body = report.to_dict()
    if drain is not None:
        body["drain"] = {"exit_code": drain[0], "output": drain[1].strip()}
    if args.json_output:
        print(json.dumps(body, indent=2, sort_keys=True))
    else:
        print(report.format())
        if drain is not None:
            print(f"  drain      exit {drain[0]}: {drain[1].strip()}")

    if args.smoke:
        failures = []
        if report.errors_5xx:
            failures.append(f"{report.errors_5xx} 5xx responses (want 0)")
        if report.completed != report.offered:
            failures.append(
                f"only {report.completed}/{report.offered} completed"
            )
        if report.coalesce_ratio <= 0.0:
            failures.append("coalesce ratio is 0 (no sharing observed)")
        if drain is not None:
            code, output = drain
            if code != 0:
                failures.append(f"gateway exited {code} after SIGTERM")
            if "drained" not in output:
                failures.append("no drain summary after SIGTERM")
        if failures:
            print(
                "load smoke FAILED: " + "; ".join(failures), file=sys.stderr
            )
            return 1
        print("load smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
