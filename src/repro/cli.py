"""Command-line interface: ``rota <experiment>`` / ``python -m repro``.

The experiment subcommands are generated from
:mod:`repro.experiments.registry` — one subcommand per
:class:`~repro.experiments.registry.ExperimentSpec`, with flags built
from its parameter schema. Every experiment subcommand accepts
``--json`` to print the result's ``to_dict()`` payload instead of the
paper-style table, and ``rota list`` enumerates the registry.

Driver modules import lazily: ``rota --help``, ``rota list``, and
``rota --version`` never load an experiment module (and therefore none
of the scheduler stack behind one).

``rota all`` runs the full evaluation section in order; the utility
subcommands (``export``, ``report``, ``cache``, ``gateway``) stay
hand-written because they orchestrate files or processes rather than
run one experiment. ``rota gateway`` (alias ``rota serve``) exposes the
same registry over HTTP through a pool of worker processes (see
:mod:`repro.gateway`).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional

from repro.errors import ReproError
from repro.experiments.registry import (
    CONVERTERS,
    ExperimentSpec,
    all_specs,
    get_spec,
    package_version,
    run_experiment,
)


def _collect_params(spec: ExperimentSpec, args: argparse.Namespace) -> Dict[str, Any]:
    """Translate parsed CLI flags into the spec's runner kwargs."""
    params: Dict[str, Any] = {}
    for param in spec.params:
        value = getattr(args, param.dest)
        if param.kind == "flag":
            value = not value if param.invert else bool(value)
        elif param.kind == "repeat":
            value = list(value)
            if param.convert:
                value = CONVERTERS[param.convert](value)
        params[param.runner_kwarg] = value
    return params


def _run_spec_command(args: argparse.Namespace) -> str:
    """Dispatch one registry-generated subcommand."""
    spec = get_spec(args.spec_id)
    run = run_experiment(spec.id, **_collect_params(spec, args))
    if getattr(args, "json_output", False):
        return json.dumps(run.result.to_dict(), indent=2, sort_keys=True)
    return run.result.format()


def _cmd_list(args: argparse.Namespace) -> str:
    """Enumerate every registered experiment."""
    tags = [tag.strip() for tag in (args.tags or "").split(",") if tag.strip()]
    if args.tag:
        tags.append(args.tag)
    if tags:
        specs = tuple(
            spec
            for spec in all_specs()
            if any(tag in spec.tags for tag in tags)
        )
    else:
        specs = all_specs()
    if getattr(args, "json_output", False):
        from repro.experiments.result import to_jsonable

        return json.dumps(
            [to_jsonable(spec) for spec in specs], indent=2, sort_keys=True
        )
    id_width = max((len(spec.id) for spec in specs), default=0)
    artifact_width = max((len(spec.artifact) for spec in specs), default=0)
    lines = [
        f"{len(specs)} experiments (run with `rota <id>`; add --json for "
        f"structured output):"
    ]
    for spec in specs:
        tags = ",".join(spec.tags)
        lines.append(
            f"  {spec.id:<{id_width}}  {spec.artifact:<{artifact_width}}  "
            f"[{tags}]  {spec.title}"
        )
    return "\n".join(lines)


def _cmd_export(args: argparse.Namespace) -> str:
    from pathlib import Path

    from repro.core.program import program_from_execution
    from repro.core.rtl import emit_controller_verilog
    from repro.dataflow.scalesim import export_scalesim
    from repro.experiments.common import execution_for, paper_accelerator
    from repro.workloads.registry import get_network

    accelerator = paper_accelerator()
    network = get_network(args.network)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    scalesim = export_scalesim(accelerator, network, out / "scalesim")
    execution = execution_for(network.name, accelerator)
    program = program_from_execution(
        execution, accelerator.width, accelerator.height
    )
    program_path = program.save(out / "controller_program.json")
    rtl = emit_controller_verilog(accelerator.width, accelerator.height)
    rtl_path = out / "rota_wl_controller.v"
    rtl_path.write_text(rtl.verilog)

    written = list(scalesim.files) + [program_path, rtl_path.resolve()]
    lines = [f"exported {network.name} artifacts to {out.resolve()}:"]
    lines.extend(f"  {path}" for path in written)
    return "\n".join(lines)


def _cmd_report(args: argparse.Namespace) -> str:
    from repro.experiments.report import write_report

    manifest = write_report(args.out)
    return manifest.format()


def _render_section(spec_id: str) -> str:
    """Run one ``rota all`` section (module-level so pools can pickle it)."""
    spec = get_spec(spec_id)
    params = spec.defaults
    params.update(dict(spec.all_params))
    return spec.resolve()(**params).format()


def _cmd_all(args: argparse.Namespace) -> str:
    from repro.runtime import ParallelRunner

    sections = [spec.id for spec in all_specs(tag="figure")]
    runner = ParallelRunner(args.jobs)
    rendered = runner.map(_render_section, sections, labels=sections)
    return "\n\n".join(rendered)


def _cmd_cache(args: argparse.Namespace) -> str:
    from repro.dataflow.scheduler import _disk_cache_path
    from repro.runtime import result_cache
    from repro.runtime.cache import max_bytes_env

    cache = result_cache()
    lines = []
    verify_report = None
    if args.clear:
        removed = cache.clear()
        lines.append(f"cleared {removed} cached results")
    if args.verify:
        verify_report = cache.verify()
        lines.append(verify_report.format())
    if args.prune:
        limit = args.max_bytes if args.max_bytes is not None else max_bytes_env()
        if limit is None:
            raise ReproError(
                "cache --prune needs a bound: pass --max-bytes N or set "
                "REPRO_CACHE_MAX_BYTES"
            )
        pruned = cache.prune(limit)
        lines.append(
            f"pruned {pruned} cached result(s) to fit {limit} bytes "
            f"(oldest first)"
        )
    lines.append(cache.stats().format())
    schedule_path = _disk_cache_path()
    if schedule_path is not None:
        lines.append(
            f"schedule cache at {schedule_path} "
            f"({'present' if schedule_path.exists() else 'empty'}; "
            f"delete the file to clear)"
        )
    if verify_report is not None and verify_report.corrupt:
        print("\n".join(lines))
        raise ReproError(
            f"cache --verify found {verify_report.corrupt} corrupt "
            f"entr{'y' if verify_report.corrupt == 1 else 'ies'} "
            f"(quarantined under corrupt/)"
        )
    return "\n".join(lines)


def _cmd_bench(args: argparse.Namespace) -> str:
    from pathlib import Path

    from repro.bench import (
        compare_snapshots,
        latest_snapshot_path,
        load_snapshot,
        next_snapshot_path,
        run_bench,
    )

    root = Path(args.dir)
    baseline_path = latest_snapshot_path(root)
    if args.check and baseline_path is None:
        raise ReproError(
            f"bench --check needs a committed BENCH_<n>.json baseline "
            f"under {root.resolve()}"
        )
    snapshot = run_bench(smoke=args.smoke)
    lines = [snapshot.format()]
    if not args.no_write:
        destination = (
            Path(args.out)
            if args.out
            else next_snapshot_path(root, number=args.number)
        )
        written = snapshot.save(destination)
        lines.append(f"wrote {written}")
    if args.check:
        report = compare_snapshots(
            load_snapshot(baseline_path), snapshot, threshold=args.threshold
        )
        lines.append(f"baseline: {baseline_path}")
        lines.append(report.format())
        if not report.ok:
            print("\n".join(lines))
            raise ReproError(
                f"performance regression vs {baseline_path.name}: "
                + "; ".join(delta.name for delta in report.regressions)
            )
    return "\n".join(lines)


def _cmd_gateway(args: argparse.Namespace) -> str:
    from repro.gateway import GatewayConfig, serve_gateway

    return serve_gateway(
        GatewayConfig(
            host=args.host,
            port=args.port,
            workers=args.jobs,
            queue_depth=args.queue_depth,
            request_timeout=args.request_timeout,
            breaker_threshold=args.breaker_threshold,
            breaker_cooldown=args.breaker_cooldown,
            task_attempts=args.task_attempts,
            start_method=args.start_method,
            cache_dir=args.cache_dir,
        )
    )


def _add_jobs_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=None,
        help=(
            "worker processes (default: $REPRO_JOBS or 1 = serial; "
            "0 = all CPUs); results are identical at any value"
        ),
    )


_ARG_TYPES = {"int": int, "float": float}


def _add_spec_parser(
    sub: argparse._SubParsersAction,
    spec: ExperimentSpec,
    json_parent: argparse.ArgumentParser,
) -> None:
    """Generate one subcommand from an experiment spec."""
    parser = sub.add_parser(spec.id, help=spec.title, parents=[json_parent])
    for param in spec.params:
        flags = [param.cli_flag]
        if param.short:
            flags.append(param.short)
        kwargs: Dict[str, Any] = {}
        if param.help:
            kwargs["help"] = param.help
        if param.metavar:
            kwargs["metavar"] = param.metavar
        if param.kind == "flag":
            parser.add_argument(*flags, action="store_true", **kwargs)
        elif param.kind == "repeat":
            parser.add_argument(*flags, action="append", default=[], **kwargs)
        else:
            if param.kind in _ARG_TYPES:
                kwargs["type"] = _ARG_TYPES[param.kind]
            if param.choices is not None:
                kwargs["choices"] = list(param.choices)
            parser.add_argument(*flags, default=param.default, **kwargs)
    parser.set_defaults(func=_run_spec_command, spec_id=spec.id)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="rota",
        description=(
            "RoTA reproduction: rotational torus accelerator wear-leveling "
            "(DATE 2025). Each subcommand regenerates one paper artifact."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"rota {package_version()}"
    )
    json_parent = argparse.ArgumentParser(add_help=False)
    json_parent.add_argument(
        "--json",
        dest="json_output",
        action="store_true",
        help="print the result as structured JSON instead of tables",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for spec in all_specs():
        _add_spec_parser(sub, spec, json_parent)

    p = sub.add_parser(
        "list",
        help="enumerate every registered experiment",
        parents=[json_parent],
    )
    p.add_argument(
        "--tag", default=None, help="only experiments carrying this tag"
    )
    p.add_argument(
        "--tags",
        default=None,
        metavar="TAG[,TAG...]",
        help="only experiments carrying any of these comma-separated tags",
    )
    p.set_defaults(func=_cmd_list)

    p = sub.add_parser(
        "export",
        help="SCALE-Sim files, controller firmware JSON, and Verilog for a network",
    )
    p.add_argument("--network", default="SqueezeNet")
    p.add_argument("--out", default="rota-export")
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser(
        "report", help="write every artifact (tables, CSVs, PPM heatmaps) to a dir"
    )
    p.add_argument("--out", default="rota-report")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser(
        "cache",
        help=(
            "show (or --clear / --prune / --verify) the persistent "
            "result cache"
        ),
    )
    p.add_argument("--clear", action="store_true", help="delete cached results")
    p.add_argument(
        "--verify",
        action="store_true",
        help=(
            "checksum-verify every entry, quarantine corrupt ones under "
            "corrupt/, and exit nonzero if any were found"
        ),
    )
    p.add_argument(
        "--prune",
        action="store_true",
        help="evict oldest entries until the cache fits --max-bytes",
    )
    p.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        metavar="N",
        help=(
            "disk bound for --prune (default: $REPRO_CACHE_MAX_BYTES, "
            "which is also enforced on every cache write)"
        ),
    )
    p.set_defaults(func=_cmd_cache)

    p = sub.add_parser(
        "bench",
        help=(
            "run the perf snapshot suite, record BENCH_<n>.json, and "
            "optionally gate on the committed baseline"
        ),
    )
    p.add_argument(
        "--smoke",
        action="store_true",
        help="pinned CI configuration (small MC batches, full-scale engine)",
    )
    p.add_argument(
        "--check",
        action="store_true",
        help=(
            "compare against the latest committed BENCH_<n>.json and exit "
            "nonzero on any regression past --threshold"
        ),
    )
    p.add_argument(
        "--threshold",
        type=float,
        default=0.30,
        metavar="FRACTION",
        help="relative regression tolerance for --check (default 0.30)",
    )
    p.add_argument(
        "--dir",
        default=".",
        help="directory holding the BENCH_<n>.json trajectory (repo root)",
    )
    p.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="explicit output path (default: next numbered BENCH_<n>.json)",
    )
    p.add_argument(
        "--number",
        type=int,
        default=None,
        metavar="N",
        help="force the snapshot number instead of latest+1",
    )
    p.add_argument(
        "--no-write",
        action="store_true",
        help="run and print (and --check) without writing a snapshot file",
    )
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser(
        "gateway",
        aliases=["serve"],
        help=(
            "HTTP service over the experiment registry: asyncio front end, "
            "N worker processes, request coalescing, SSE progress streams, "
            "and tiered backpressure"
        ),
        description="`rota serve` is an alias of `rota gateway`.",
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument("--port", type=int, default=8764, help="bind port")
    p.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=4,
        help="worker processes executing runs (one experiment each)",
    )
    p.add_argument(
        "--queue-depth",
        type=int,
        default=64,
        metavar="N",
        help=(
            "max pending unique executions before the coalesce-only tier "
            "(identical in-flight submissions still attach; unique work "
            "gets 429 + computed Retry-After)"
        ),
    )
    p.add_argument(
        "--request-timeout",
        type=float,
        default=300.0,
        metavar="SECONDS",
        help=(
            "per-request socket timeout and per-execution wall-clock "
            "budget; an overrunning worker is terminated (HTTP 504)"
        ),
    )
    p.add_argument(
        "--breaker-threshold",
        type=int,
        default=5,
        metavar="N",
        help=(
            "consecutive execution failures that open the circuit "
            "breaker (the shed tier: 503 + Retry-After)"
        ),
    )
    p.add_argument(
        "--breaker-cooldown",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="seconds the breaker stays open before a half-open probe",
    )
    p.add_argument(
        "--task-attempts",
        type=int,
        default=2,
        metavar="N",
        help=(
            "worker-crash retries before a content key is quarantined "
            "(identical submissions then fail fast with 422)"
        ),
    )
    p.add_argument(
        "--start-method",
        default="spawn",
        choices=("spawn", "fork", "forkserver"),
        help="multiprocessing start method for worker processes",
    )
    p.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help=(
            "explicit warm-hit result cache directory for the workers "
            "(default: $REPRO_RESULT_CACHE resolution)"
        ),
    )
    p.set_defaults(func=_cmd_gateway)

    p = sub.add_parser("all", help="every table and figure in order")
    _add_jobs_flag(p)
    p.set_defaults(func=_cmd_all)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        print(args.func(args))
    except BrokenPipeError:
        # Downstream pager/head closed the pipe — normal shell usage.
        return 0
    except ReproError as error:
        # Library errors are user-facing (bad network name, impossible
        # config, ...): one line on stderr, nonzero exit, no traceback.
        print(f"rota: error: {error}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
