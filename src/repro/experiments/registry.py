"""Declarative experiment registry: one spec per paper artifact.

Every experiment the reproduction can run is described here *as data*:
a stable id, the paper artifact it regenerates, a typed parameter
schema, classification tags, and the dotted path of its driver
function. The CLI (`rota <id>`), the full-report writer, `rota all`,
and the scorecard all iterate this registry instead of maintaining
parallel hand-edited lists — adding an experiment is one
:func:`register` call, and the completeness tests
(``tests/experiments/test_registry.py``) fail if any consumer falls
out of sync.

The module is deliberately lightweight: no driver (or numpy) import
happens until a spec's runner is resolved, so ``rota --help``,
``rota list``, and ``rota --version`` never pay the simulation stack's
import cost.

:func:`run_experiment` is the single execution entrypoint. It wraps
the driver call with observability — phase wall times, result-cache
hit/miss counts, parallel-runner task timings, the accelerator
fingerprint, and the package version — and returns the result together
with a :class:`RunManifest` that ``rota report`` persists as
``manifest.json``.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.errors import ConfigurationError, ReproError
from repro.experiments.result import ExperimentResult, JsonResultMixin, to_jsonable

__all__ = [
    "ExperimentRun",
    "ExperimentSpec",
    "Param",
    "ParamValidationError",
    "PhaseTiming",
    "RunManifest",
    "all_specs",
    "get_spec",
    "package_version",
    "run_experiment",
    "spec_ids",
    "validate_params",
]


@lru_cache(maxsize=None)
def package_version() -> str:
    """The installed package version (falls back to the source tree's).

    Looked up once per process: it cannot change while the process runs,
    and every run manifest and gateway content key asks for it.
    """
    try:
        from importlib.metadata import PackageNotFoundError, version

        try:
            return version("repro")
        except PackageNotFoundError:
            pass
    except ImportError:  # pragma: no cover - importlib.metadata is 3.8+
        pass
    try:
        from repro import __version__

        return __version__
    except ImportError:  # pragma: no cover - package half-installed
        return "unknown"


def _parse_dead_coords(specs: List[str]) -> Tuple[Tuple[int, int], ...]:
    """Parse ``--dead U,V`` coordinate options (CLI-facing errors)."""
    coords = []
    for spec in specs:
        try:
            u, v = (int(part) for part in spec.split(","))
        except ValueError:
            raise SystemExit(f"--dead expects 'U,V' integer pairs, got {spec!r}")
        coords.append((u, v))
    return tuple(coords)


def _parse_workload_mix(specs: List[str]) -> Tuple[Tuple[str, float], ...]:
    """Parse ``--mix NAME=WEIGHT`` options into plain (name, weight) pairs.

    Stays plain data (the fleet drivers build the actual
    ``WorkloadMix``), so the registry keeps its no-numpy import rule.
    """
    entries = []
    for spec in specs:
        name, separator, weight = spec.partition("=")
        if not separator or not name:
            raise SystemExit(f"--mix expects 'NAME=WEIGHT' pairs, got {spec!r}")
        try:
            value = float(weight)
        except ValueError:
            raise SystemExit(
                f"--mix weight must be a number, got {weight!r} in {spec!r}"
            )
        entries.append((name, value))
    return tuple(entries)


def _parse_slo_pairs(specs: List[str]) -> Tuple[Tuple[str, str], ...]:
    """Parse ``--slo NAME=CLASS`` options into plain (name, spec) pairs.

    The class spelling (``exact`` or ``tolerant:0.05``) stays a string —
    the accuracy driver parses it via
    :func:`repro.accuracy.slo.parse_slo` — so the registry keeps its
    no-driver-imports rule.
    """
    pairs = []
    for spec in specs:
        name, separator, slo_class = spec.partition("=")
        if not separator or not name or not slo_class:
            raise SystemExit(
                f"--slo expects 'NAME=CLASS' pairs "
                f"(CLASS: exact or tolerant:MAX_LOSS), got {spec!r}"
            )
        pairs.append((name, slo_class))
    return tuple(pairs)


#: Named CLI-value converters a :class:`Param` may reference. Kept as a
#: registry (not lambdas on the spec) so specs stay picklable plain data.
CONVERTERS: Dict[str, Callable[[Any], Any]] = {
    "dead_coords": _parse_dead_coords,
    "workload_mix": _parse_workload_mix,
    "slo_pairs": _parse_slo_pairs,
}

#: Types a parameter schema may declare, mapped to argparse behavior.
PARAM_KINDS = ("int", "float", "str", "flag", "repeat")


@dataclass(frozen=True)
class Param:
    """One experiment parameter: schema for both the CLI and the runner.

    Parameters
    ----------
    name:
        The runner's keyword-argument name (snake_case).
    kind:
        One of :data:`PARAM_KINDS`; ``"flag"`` is a boolean switch and
        ``"repeat"`` an appendable string option.
    default:
        Value used when the flag is omitted (must match the runner's
        own default so CLI and API behavior agree).
    help:
        CLI help text.
    flag:
        Override the CLI flag spelling (default ``--<name>`` with
        underscores dashed). Used for negated flags (``--no-wearout``).
    short:
        Optional short flag (e.g. ``-j``).
    metavar:
        Optional argparse metavar.
    kwarg:
        Override the keyword the runner receives (default ``name``);
        e.g. the CLI's uniform ``--iterations`` maps onto the fault
        study's ``max_iterations``.
    convert:
        Key into :data:`CONVERTERS` applied to the CLI value before the
        runner sees it.
    invert:
        For ``"flag"``: the runner receives the *negation* of the
        switch (``--no-wearout`` → ``wearout=False``).
    choices:
        Closed vocabulary for ``"str"`` parameters. The CLI rejects
        other spellings via argparse ``choices``; the JSON validator
        turns them into a per-field 400. Kept as literals on the spec
        (not imported from the driver) to preserve the registry's
        no-driver-import rule — ``tests/experiments/test_registry.py``
        pins them against the driver's own tuples.
    """

    name: str
    kind: str = "str"
    default: Any = None
    help: str = ""
    flag: Optional[str] = None
    short: Optional[str] = None
    metavar: Optional[str] = None
    kwarg: Optional[str] = None
    convert: Optional[str] = None
    invert: bool = False
    choices: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.kind not in PARAM_KINDS:
            raise ConfigurationError(
                f"param {self.name!r} has unknown kind {self.kind!r}; "
                f"expected one of {PARAM_KINDS}"
            )
        if self.invert and self.kind != "flag":
            raise ConfigurationError(
                f"param {self.name!r}: invert only applies to flags"
            )
        if self.choices is not None:
            if self.kind != "str":
                raise ConfigurationError(
                    f"param {self.name!r}: choices only apply to str params"
                )
            if self.default is not None and self.default not in self.choices:
                raise ConfigurationError(
                    f"param {self.name!r}: default {self.default!r} is not "
                    f"one of its choices {self.choices}"
                )

    @property
    def cli_flag(self) -> str:
        """The long CLI flag, e.g. ``--mean-budget``."""
        return self.flag or "--" + self.name.replace("_", "-")

    @property
    def dest(self) -> str:
        """The argparse namespace attribute this parameter lands in."""
        return self.cli_flag.lstrip("-").replace("-", "_")

    @property
    def runner_kwarg(self) -> str:
        """The keyword the runner function receives."""
        return self.kwarg or self.name


def _jobs_param() -> Param:
    """The uniform ``--jobs`` flag (every fan-out experiment gets it)."""
    return Param(
        name="jobs",
        kind="int",
        default=None,
        short="-j",
        help=(
            "worker processes (default: $REPRO_JOBS or 1 = serial; "
            "0 = all CPUs); results are identical at any value"
        ),
    )


def _iterations_param(default: int, help: str = "") -> Param:
    return Param(name="iterations", kind="int", default=default, help=help)


def _resume_param() -> Param:
    """The uniform ``--resume`` flag (every Monte Carlo driver gets it)."""
    return Param(
        name="resume",
        kind="str",
        default=None,
        metavar="DIR",
        kwarg="checkpoint",
        help=(
            "checkpoint journal directory: completed Monte Carlo chunks "
            "are recorded there and a rerun of the same configuration "
            "skips them (bit-identical output to an uninterrupted run)"
        ),
    )


def _network_param(default: Optional[str], help: str = "") -> Param:
    return Param(name="network", kind="str", default=default, help=help)


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one runnable experiment.

    ``runner`` is a lazy dotted path (``"module:function"``); the module
    is imported only when the experiment actually runs, keeping
    registry iteration (help text, ``rota list``) free of driver
    imports.
    """

    id: str
    title: str
    artifact: str
    runner: str
    params: Tuple[Param, ...] = ()
    tags: Tuple[str, ...] = ()
    all_params: Tuple[Tuple[str, Any], ...] = ()

    def resolve(self) -> Callable[..., ExperimentResult]:
        """Import and return the driver function."""
        module_name, _, function_name = self.runner.partition(":")
        if not function_name:
            raise ConfigurationError(
                f"spec {self.id!r} runner must be 'module:function', "
                f"got {self.runner!r}"
            )
        module = importlib.import_module(module_name)
        return getattr(module, function_name)

    def param(self, name: str) -> Param:
        """Look up one parameter by name."""
        for param in self.params:
            if param.name == name:
                return param
        raise KeyError(name)

    @property
    def defaults(self) -> Dict[str, Any]:
        """Runner kwargs when every parameter is left at its default."""
        return {param.runner_kwarg: param.default for param in self.params}


_REGISTRY: Dict[str, ExperimentSpec] = {}


def register(spec: ExperimentSpec) -> ExperimentSpec:
    """Add a spec to the registry (ids are unique)."""
    if spec.id in _REGISTRY:
        raise ConfigurationError(f"duplicate experiment id {spec.id!r}")
    _REGISTRY[spec.id] = spec
    return spec


def get_spec(spec_id: str) -> ExperimentSpec:
    """Look up one spec by id."""
    try:
        return _REGISTRY[spec_id]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ConfigurationError(
            f"unknown experiment {spec_id!r}; known: {known}"
        ) from None


def all_specs(tag: Optional[str] = None) -> Tuple[ExperimentSpec, ...]:
    """Every spec in registration (paper) order, optionally tag-filtered."""
    specs = tuple(_REGISTRY.values())
    if tag is None:
        return specs
    return tuple(spec for spec in specs if tag in spec.tags)


def spec_ids(tag: Optional[str] = None) -> Tuple[str, ...]:
    """Registered experiment ids, optionally filtered by tag."""
    return tuple(spec.id for spec in all_specs(tag))


# ---------------------------------------------------------------------------
# Parameter validation: the JSON-facing half of the Param schema.
# ---------------------------------------------------------------------------


class ParamValidationError(ConfigurationError):
    """A params mapping failed schema validation.

    ``errors`` maps each offending field name to a human-readable
    message; the service layer turns this into a 400 response with
    per-field errors, mirroring the CLI's argparse rejections.
    """

    def __init__(self, spec_id: str, errors: Mapping[str, str]) -> None:
        self.spec_id = spec_id
        self.errors: Dict[str, str] = dict(errors)
        detail = "; ".join(
            f"{name}: {message}" for name, message in sorted(self.errors.items())
        )
        super().__init__(f"invalid parameters for experiment {spec_id!r}: {detail}")


def _validate_value(param: Param, value: Any) -> Tuple[Any, Optional[str]]:
    """Check one supplied value against its schema; returns (value, error)."""
    if value is None:
        if param.default is None:
            return None, None
        return None, f"must not be null (omit the field for the default)"
    if param.kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            return None, f"expected an integer, got {type(value).__name__}"
        return value, None
    if param.kind == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return None, f"expected a number, got {type(value).__name__}"
        return float(value), None
    if param.kind == "str":
        if not isinstance(value, str):
            return None, f"expected a string, got {type(value).__name__}"
        if param.choices is not None and value not in param.choices:
            return None, (
                f"must be one of {list(param.choices)}, got {value!r}"
            )
        return value, None
    if param.kind == "flag":
        if not isinstance(value, bool):
            return None, f"expected a boolean, got {type(value).__name__}"
        return value, None
    # "repeat": a list of strings, optionally run through a converter
    # (the same one the CLI applies to repeated flags).
    if not isinstance(value, (list, tuple)):
        return None, f"expected a list of strings, got {type(value).__name__}"
    items = list(value)
    for item in items:
        if not isinstance(item, str):
            return None, (
                f"expected a list of strings, got item of type "
                f"{type(item).__name__}"
            )
    if param.convert:
        try:
            return CONVERTERS[param.convert](items), None
        # Converters are CLI-facing and may bail with SystemExit; the
        # API must turn that into a field error, not a dead worker.
        except (SystemExit, ReproError, ValueError, TypeError) as error:
            return None, str(error) or "invalid value"
    return items, None


def validate_params(spec: ExperimentSpec, raw: Mapping[str, Any]) -> Dict[str, Any]:
    """Validate a JSON-shaped params mapping against ``spec``'s schema.

    Fields are the public parameter names (``spec.params[i].name`` —
    what the CLI flags are derived from); omitted fields take their
    defaults. Returns the runner kwargs ready for
    :func:`run_experiment`. Raises :class:`ParamValidationError`
    carrying one message per offending field — unknown names, wrong
    JSON types, or converter rejections.
    """
    if not isinstance(raw, Mapping):
        raise ParamValidationError(
            spec.id, {"params": f"expected an object, got {type(raw).__name__}"}
        )
    errors: Dict[str, str] = {}
    known = {param.name: param for param in spec.params}
    for name in raw:
        if not isinstance(name, str) or name not in known:
            errors[str(name)] = (
                f"unknown parameter; schema: {sorted(known) or 'none'}"
            )
    params: Dict[str, Any] = {}
    for name, param in known.items():
        if name not in raw:
            params[param.runner_kwarg] = param.default
            continue
        value, error = _validate_value(param, raw[name])
        if error is not None:
            errors[name] = error
        else:
            params[param.runner_kwarg] = value
    if errors:
        raise ParamValidationError(spec.id, errors)
    return params


# ---------------------------------------------------------------------------
# Observability: the per-run manifest.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhaseTiming:
    """Wall time of one named phase of a run."""

    name: str
    seconds: float


@dataclass(frozen=True)
class RunManifest(JsonResultMixin):
    """Everything observable about one experiment (or report) run."""

    spec_id: str
    params: Tuple[Tuple[str, Any], ...]
    version: str
    accelerator: str
    started_at: float
    wall_seconds: float
    phases: Tuple[PhaseTiming, ...]
    cache: Tuple[Tuple[str, int], ...]  # hits / misses / puts / ...
    tasks: Tuple[Tuple[str, float, str, bool], ...]  # label, secs, mode, retried
    resilience: Tuple[Tuple[str, int], ...] = ()  # retries / timeouts / ...

    @property
    def cache_counts(self) -> Dict[str, int]:
        """Cache counters as a dict."""
        return dict(self.cache)

    @property
    def resilience_counts(self) -> Dict[str, int]:
        """Resilience counters as a dict."""
        return dict(self.resilience)

    def format(self) -> str:
        """One-paragraph human summary."""
        counts = self.cache_counts
        lines = [
            f"run manifest — {self.spec_id} (repro {self.version}), "
            f"{self.wall_seconds:.2f}s wall",
            f"  cache: {counts.get('hits', 0)} hits, "
            f"{counts.get('misses', 0)} misses, {counts.get('puts', 0)} puts",
        ]
        for phase in self.phases:
            lines.append(f"  phase {phase.name}: {phase.seconds:.2f}s")
        if self.tasks:
            total = sum(task[1] for task in self.tasks)
            lines.append(
                f"  {len(self.tasks)} runner task(s), {total:.2f}s task time"
            )
        resilience = self.resilience_counts
        if any(resilience.values()):
            detail = ", ".join(
                f"{count} {name.replace('_', ' ')}"
                for name, count in sorted(resilience.items())
                if count
            )
            lines.append(f"  resilience: {detail}")
        return "\n".join(lines)


@dataclass(frozen=True)
class ExperimentRun:
    """One executed experiment: its result plus the run manifest."""

    spec: ExperimentSpec
    result: ExperimentResult
    manifest: RunManifest


def _accelerator_fingerprint() -> str:
    """Fingerprint of the paper evaluation platform (best effort)."""
    try:
        from repro.experiments.common import paper_accelerator
        from repro.runtime import accelerator_fingerprint

        return accelerator_fingerprint(paper_accelerator())
    except Exception:  # pragma: no cover - fingerprinting must not fail a run
        return "unavailable"


def run_experiment(spec_id: str, **params: Any) -> ExperimentRun:
    """Run one registered experiment with full observability.

    Unknown parameter names raise
    :class:`~repro.errors.ConfigurationError` before any driver import.
    The returned manifest records the import and run phases, every
    result-cache hit/miss/put, and every
    :class:`~repro.runtime.parallel.ParallelRunner` task timing the run
    produced.
    """
    spec = get_spec(spec_id)
    known = {param.runner_kwarg for param in spec.params}
    unknown = set(params) - known
    if unknown:
        raise ConfigurationError(
            f"experiment {spec_id!r} does not accept parameter(s) "
            f"{sorted(unknown)}; schema: {sorted(known) or 'none'}"
        )
    from repro.runtime import collect_metrics

    started_at = time.time()
    start = time.perf_counter()
    with collect_metrics() as metrics:
        import_start = time.perf_counter()
        runner = spec.resolve()
        import_seconds = time.perf_counter() - import_start
        run_start = time.perf_counter()
        result = runner(**params)
        run_seconds = time.perf_counter() - run_start
    manifest = RunManifest(
        spec_id=spec.id,
        params=tuple(sorted((key, to_jsonable(value)) for key, value in params.items())),
        version=package_version(),
        accelerator=_accelerator_fingerprint(),
        started_at=started_at,
        wall_seconds=time.perf_counter() - start,
        phases=(
            PhaseTiming(name="import", seconds=import_seconds),
            PhaseTiming(name="run", seconds=run_seconds),
        ),
        cache=tuple(sorted(metrics.cache_summary().items())),
        tasks=tuple(
            (
                timing.label,
                timing.seconds,
                timing.mode,
                bool(getattr(timing, "retried", False)),
            )
            for timing in metrics.task_timings
        ),
        resilience=tuple(sorted(metrics.resilience_summary().items())),
    )
    return ExperimentRun(spec=spec, result=result, manifest=manifest)


# ---------------------------------------------------------------------------
# The registry itself: one spec per paper artifact, in paper order.
# ---------------------------------------------------------------------------

register(
    ExperimentSpec(
        id="table2",
        title="Table II workload roster",
        artifact="Table II",
        runner="repro.experiments.table2:run_table2",
        tags=("figure",),
    )
)

register(
    ExperimentSpec(
        id="utilization",
        title="Fig. 2 PE utilization",
        artifact="Fig. 2",
        runner="repro.experiments.fig2:run_utilization",
        params=(
            _network_param(None, help="also show per-layer (Fig. 2b)"),
        ),
        tags=("figure",),
        all_params=(("network", "SqueezeNet"),),
    )
)

register(
    ExperimentSpec(
        id="heatmaps",
        title="Fig. 3 usage heatmaps",
        artifact="Fig. 3",
        runner="repro.experiments.fig3:run_fig3",
        params=(_iterations_param(10), _jobs_param()),
        tags=("figure",),
    )
)

register(
    ExperimentSpec(
        id="unfold",
        title="Fig. 4 unfolded torus walk",
        artifact="Fig. 4",
        runner="repro.experiments.fig4:run_fig4",
        params=(
            Param(name="x", kind="int", default=8),
            Param(name="y", kind="int", default=8),
        ),
        tags=("figure",),
    )
)

register(
    ExperimentSpec(
        id="walkthrough",
        title="Fig. 5 RWL closed-form walk-through",
        artifact="Fig. 5 / Table I",
        runner="repro.experiments.fig5:run_fig5",
        params=(_network_param("ResNet-50"),),
        tags=("figure",),
    )
)

register(
    ExperimentSpec(
        id="usage-diff",
        title="Fig. 6 max usage difference",
        artifact="Fig. 6",
        runner="repro.experiments.fig6:run_fig6",
        params=(
            _network_param("SqueezeNet"),
            _iterations_param(1000),
            _jobs_param(),
        ),
        tags=("figure",),
    )
)

register(
    ExperimentSpec(
        id="projection",
        title="Fig. 7 lifetime vs R_diff",
        artifact="Fig. 7",
        runner="repro.experiments.fig7:run_fig7",
        params=(
            _network_param("SqueezeNet"),
            _iterations_param(200),
            _jobs_param(),
        ),
        tags=("figure",),
    )
)

register(
    ExperimentSpec(
        id="lifetime",
        title="Fig. 8 lifetime improvement per workload",
        artifact="Fig. 8",
        runner="repro.experiments.fig8:run_fig8",
        params=(_iterations_param(200), _jobs_param()),
        tags=("figure",),
    )
)

register(
    ExperimentSpec(
        id="upper-bound",
        title="Fig. 9 layer-wise improvement vs ceiling",
        artifact="Fig. 9",
        runner="repro.experiments.fig9:run_fig9",
        tags=("figure",),
    )
)

register(
    ExperimentSpec(
        id="sweep",
        title="Fig. 10 PE-array size sweep",
        artifact="Fig. 10",
        runner="repro.experiments.fig10:run_fig10",
        params=(
            _network_param("SqueezeNet"),
            _iterations_param(200),
            _jobs_param(),
        ),
        tags=("figure",),
    )
)

register(
    ExperimentSpec(
        id="overhead",
        title="Sec. V-D area/cycle overhead",
        artifact="Sec. V-D",
        runner="repro.experiments.overhead:run_overhead",
        tags=("figure",),
    )
)

register(
    ExperimentSpec(
        id="faults",
        title="fault study: run past PE wear-out deaths, report degradation",
        artifact="fault study (extension)",
        runner="repro.experiments.faults:run_fault_study",
        params=(
            _network_param("SqueezeNet"),
            Param(
                name="dead",
                kind="repeat",
                default=(),
                metavar="U,V",
                convert="dead_coords",
                help="inject an explicit dead PE (repeatable)",
            ),
            Param(
                name="wearout",
                kind="flag",
                flag="--no-wearout",
                invert=True,
                default=True,
                help="disable Weibull wear-out deaths (explicit --dead faults only)",
            ),
            Param(
                name="deaths", kind="int", default=3,
                help="stop after N wear-out deaths",
            ),
            Param(
                name="iterations", kind="int", default=300,
                kwarg="max_iterations", help="iteration cap",
            ),
            Param(
                name="mean_budget",
                kind="float",
                default=None,
                help="mean per-PE endurance budget (default: auto-calibrated)",
            ),
            Param(name="seed", kind="int", default=2025),
            Param(
                name="scenarios", kind="int", default=0,
                help="also run an N-scenario lifetime Monte Carlo",
            ),
            Param(
                name="heatmaps",
                kind="flag",
                flag="--no-heatmaps",
                invert=True,
                default=True,
                kwarg="show_heatmaps",
                help="skip dead-PE heatmaps",
            ),
            _resume_param(),
            _jobs_param(),
        ),
        tags=("fault",),
    )
)

def _fleet_shared_params(num_requests_default: int) -> Tuple[Param, ...]:
    """Parameters every fleet experiment shares."""
    return (
        Param(
            name="devices", kind="int", default=4,
            help="accelerators in the fleet",
        ),
        Param(
            name="traffic", kind="str", default="bursty",
            help="arrival process: poisson or bursty",
        ),
        Param(
            name="requests", kind="int", default=num_requests_default,
            kwarg="num_requests", help="requests to offer",
        ),
        Param(
            name="rate", kind="float", default=None, kwarg="rate_rps",
            # A bare "%" here would crash argparse's ``--help`` formatter
            # (help strings are %-interpolated), hence the 0.7 spelling.
            help="arrival rate in req/s (default: auto-calibrated to "
                 "~0.7 fleet utilization)",
        ),
        Param(
            name="mix",
            kind="repeat",
            default=(),
            metavar="NAME=WEIGHT",
            convert="workload_mix",
            help="workload mix entry (repeatable; default: "
                 "SqueezeNet=0.7 ResNet-50=0.3)",
        ),
        Param(
            name="mean_budget",
            kind="float",
            default=None,
            help="mean per-PE endurance budget (default: no wear-out deaths; "
                 "lifetime is projected from final wear rates)",
        ),
        Param(name="seed", kind="int", default=2025),
    )


register(
    ExperimentSpec(
        id="fleet-lifetime",
        title="fleet study: one dispatch policy in detail",
        artifact="fleet lifetime (extension)",
        runner="repro.experiments.fleet:run_fleet_lifetime",
        params=(
            Param(
                name="policy", kind="str", default="rotational",
                help="dispatch policy: round_robin, least_outstanding, "
                     "least_wear, or rotational",
            ),
            *_fleet_shared_params(400),
            Param(
                name="scenarios", kind="int", default=0,
                help="also run an N-scenario traffic/budget Monte Carlo",
            ),
            Param(
                name="heatmaps",
                kind="flag",
                flag="--no-heatmaps",
                invert=True,
                default=True,
                kwarg="show_heatmaps",
                help="skip per-device heatmaps",
            ),
            _resume_param(),
            _jobs_param(),
        ),
        tags=("fleet",),
    )
)

register(
    ExperimentSpec(
        id="fleet-policies",
        title="fleet study: dispatch-policy comparison on shared traffic",
        artifact="fleet policy table (extension)",
        runner="repro.experiments.fleet:run_fleet_policies",
        params=(
            *_fleet_shared_params(300),
            _resume_param(),
            _jobs_param(),
        ),
        tags=("fleet",),
    )
)

register(
    ExperimentSpec(
        id="fleet-degradation",
        title="fleet study: retire-early vs serve-degraded under wear-out",
        artifact="fleet degradation (extension)",
        runner="repro.experiments.fleet:run_fleet_degradation",
        params=(
            Param(
                name="policy", kind="str", default="rotational",
                help="dispatch policy the strategies share",
            ),
            *_fleet_shared_params(400),
            _resume_param(),
            _jobs_param(),
        ),
        tags=("fleet",),
    )
)

register(
    ExperimentSpec(
        id="fleet-accuracy",
        title="fleet study: SLO-routed dispatch with degraded service",
        artifact="accuracy/lifetime/throughput Pareto (extension)",
        runner="repro.experiments.accuracy:run_fleet_accuracy",
        params=(
            *_fleet_shared_params(400),
            Param(
                name="slo",
                kind="repeat",
                default=(),
                metavar="NAME=CLASS",
                convert="slo_pairs",
                kwarg="slos",
                help="SLO class per workload (repeatable; CLASS: exact or "
                     "tolerant:MAX_LOSS; default: heaviest mix entry "
                     "tolerant of --max-loss, rest exact)",
            ),
            Param(
                name="max_loss", kind="float", default=0.12,
                help="accuracy-loss budget of the default tolerant class",
            ),
            Param(
                name="model",
                kind="str",
                default="pruning",
                choices=("pruning", "approximation"),
                kwarg="accuracy_model",
                help="degradation style of worn devices",
            ),
            Param(
                name="min_alive", kind="float", default=0.75,
                kwarg="min_alive_fraction",
                help="alive fraction below which a device retires "
                     "(retire mode) or serves degraded (approx mode)",
            ),
            Param(
                name="scenarios", kind="int", default=0,
                help="also run an N-scenario traffic/budget Monte Carlo "
                     "per (policy, mode) pairing",
            ),
            _resume_param(),
            _jobs_param(),
        ),
        tags=("fleet", "accuracy"),
    )
)

register(
    ExperimentSpec(
        id="ablations",
        title="design-choice ablations",
        artifact="design ablations (DESIGN.md Sec. 4)",
        runner="repro.experiments.ablation:run_ablations",
        params=(_jobs_param(),),
        tags=("ablation",),
    )
)

register(
    ExperimentSpec(
        id="extensions",
        title="extension studies: policy comparison, Monte Carlo, objectives",
        artifact="extension studies",
        runner="repro.experiments.extensions:run_extensions",
        params=(_iterations_param(500), _jobs_param()),
        tags=("extension",),
    )
)

register(
    ExperimentSpec(
        id="attribution",
        title="which layers stress the hottest PE (baseline)",
        artifact="wear attribution (analysis)",
        runner="repro.experiments.diagnostics:run_attribution",
        params=(
            _network_param("SqueezeNet"),
            Param(name="limit", kind="int", default=10),
        ),
        tags=("analysis",),
    )
)

register(
    ExperimentSpec(
        id="profile",
        title="per-layer network profile",
        artifact="network profile (analysis)",
        runner="repro.experiments.diagnostics:run_profile",
        params=(
            _network_param("SqueezeNet"),
            Param(name="limit", kind="int", default=None),
        ),
        tags=("analysis",),
    )
)

register(
    ExperimentSpec(
        id="mapping-search",
        title="wear-aware mapping search: Pareto table per layer",
        artifact="mapping search (analysis)",
        runner="repro.experiments.mapping_search:run_mapping_search",
        params=(
            _network_param("SqueezeNet"),
            Param(
                name="objective",
                kind="str",
                default="energy-wear",
                # Literals mirror repro.dataflow.evaluate.OBJECTIVES /
                # repro.dataflow.search.SEARCH_MODES (pinned by
                # tests/experiments/test_registry.py) so the registry
                # stays import-light.
                choices=("energy", "latency", "edp", "wear", "energy-wear"),
                help="search objective (lexicographic; see docs)",
            ),
            Param(
                name="search",
                kind="str",
                default="beam",
                choices=("greedy", "exhaustive", "beam"),
                help="search mode: greedy (legacy), exhaustive, or beam",
            ),
            Param(
                name="beam_width", kind="int", default=8,
                help="spatial skeletons surviving to temporal enumeration",
            ),
            Param(
                name="tolerance", kind="float", default=0.05,
                help="max energy overhead vs the greedy baseline the "
                     "wear-optimal pick may pay (fraction, default 0.05)",
            ),
            Param(
                name="max_points", kind="int", default=6,
                help="Pareto points shown per layer",
            ),
            Param(
                name="limit", kind="int", default=None,
                help="only report the first N distinct layers",
            ),
            _jobs_param(),
        ),
        tags=("analysis", "mapping"),
    )
)

register(
    ExperimentSpec(
        id="scorecard",
        title="re-check every paper-shape claim (pass/fail table)",
        artifact="reproduction scorecard",
        runner="repro.experiments.scorecard:run_scorecard",
        params=(_iterations_param(100),),
        tags=("scorecard",),
    )
)
