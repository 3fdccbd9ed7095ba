"""The ``fleet-accuracy`` study: SLO-routed dispatch on degraded fleets.

Four (policy, mode) pairings face identical seeded traffic and identical
per-device endurance fields (common random numbers):

* ``round_robin`` / ``rotational`` in ``retire`` mode — the PR-5
  baselines: exact service, devices leave the fleet at
  ``min_alive_fraction``;
* ``slo_aware`` / ``slo_rotational`` in ``serve-degraded-approx`` mode —
  the accuracy-aware stack: worn devices keep serving tolerant traffic
  at model-predicted loss, exact traffic routes to loss-free devices.

The result is a three-axis Pareto comparison — fleet time-to-first-
retirement vs sustained throughput vs p99 delivered accuracy loss — with
the headline that SLO-aware dispatch extends time-to-retirement versus
``rotational`` at bounded loss on the default skewed bursty scenario.
Delivered loss is fixed at admission (see
:meth:`~repro.fleet.device.FleetDevice.admit`), so under SLO routing
the p99 delivered loss is bounded by the configured budget by
construction — the property the CI accuracy-smoke job asserts.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.accuracy.model import ACCURACY_MODEL_NAMES, calibrate_profiles
from repro.accuracy.slo import SLOClass, parse_slo
from repro.analysis.report import format_table
from repro.arch.accelerator import Accelerator
from repro.errors import ConfigurationError
from repro.experiments.common import paper_accelerator
from repro.experiments.fleet import (
    DEFAULT_SEED,
    _calibrated_fleet_budget,
    _check_traffic_kind,
    _resolve_mix,
)
from repro.experiments.result import JsonResultMixin
from repro.fleet.device import build_profiles
from repro.fleet.montecarlo import calibrated_rate, sample_fleet_scenarios
from repro.fleet.simulate import FleetConfig, simulate_fleet
from repro.fleet.traffic import WorkloadMix, make_traffic
from repro.resilience import CheckpointJournal
from repro.runtime import ParallelRunner, accelerator_fingerprint, content_hash

#: The (policy, device mode) pairings the bracket compares, in table order.
ACCURACY_BRACKET = (
    ("round_robin", "retire"),
    ("rotational", "retire"),
    ("slo_aware", "serve-degraded-approx"),
    ("slo_rotational", "serve-degraded-approx"),
)


def _resolve_slos(
    mix: WorkloadMix,
    slos: Sequence[Tuple[str, str]],
    max_loss: float,
) -> WorkloadMix:
    """Attach SLO classes to the mix.

    Explicit ``(workload, class-spec)`` pairs win; with none given, the
    heaviest-weight workload is tolerant of ``max_loss`` and the rest
    stay exact — the skewed default where the bulk of the traffic can
    absorb degraded service but the tail cannot.
    """
    if slos:
        return mix.with_slos(
            (name, parse_slo(spec)) for name, spec in slos
        )
    weights = {name: weight for name, weight in mix.entries}
    bulk = max(mix.names, key=lambda name: (weights[name], name))
    return mix.with_slos(((bulk, SLOClass.tolerant(max_loss)),))


@dataclass(frozen=True)
class FleetAccuracyRow:
    """One (policy, mode) pairing's record on the shared scenario."""

    policy: str
    mode: str
    time_to_first_retirement_s: float
    retirement_censored: bool
    throughput_rps: float
    latency_p99_s: float
    delivered_loss_mean: float
    delivered_loss_p99: float
    slo_violations: int
    completed: int
    rejected: int
    dropped: int
    pe_deaths: int
    devices_retired: int
    mttf_series_s: float
    #: Whether the row sits on the (retirement, throughput, loss)
    #: Pareto frontier of the bracket.
    pareto: bool = False
    #: Scenario-Monte-Carlo aggregates (``None`` when ``scenarios=0``).
    scenario_mean_retirement_s: Optional[float] = None
    scenario_worst_loss_p99: Optional[float] = None


def _dominates(a: FleetAccuracyRow, b: FleetAccuracyRow) -> bool:
    """Whether ``a`` Pareto-dominates ``b`` on the three study axes."""
    axes_a = (
        a.time_to_first_retirement_s,
        a.throughput_rps,
        -a.delivered_loss_p99,
    )
    axes_b = (
        b.time_to_first_retirement_s,
        b.throughput_rps,
        -b.delivered_loss_p99,
    )
    return all(x >= y for x, y in zip(axes_a, axes_b)) and axes_a != axes_b


def _mark_pareto(
    rows: Sequence[FleetAccuracyRow],
) -> Tuple[FleetAccuracyRow, ...]:
    return tuple(
        replace(
            row,
            pareto=not any(
                _dominates(other, row) for other in rows if other is not row
            ),
        )
        for row in rows
    )


@dataclass(frozen=True)
class FleetAccuracyResult(JsonResultMixin):
    """The SLO-routed dispatch bracket (``rota fleet-accuracy``)."""

    num_devices: int
    traffic: str
    num_requests: int
    rate_rps: float
    mean_budget: float
    max_loss: float
    accuracy_model: str
    min_alive_fraction: float
    seed: int
    slo_classes: Tuple[Tuple[str, str], ...]
    rows: Tuple[FleetAccuracyRow, ...]

    def row_for(self, policy: str) -> FleetAccuracyRow:
        """Look up one pairing's row by policy name."""
        for row in self.rows:
            if row.policy == policy:
                return row
        raise KeyError(policy)

    def retirement_vs(
        self, policy: str, baseline: str = "rotational"
    ) -> float:
        """Time-to-first-retirement ratio of ``policy`` over ``baseline``."""
        return (
            self.row_for(policy).time_to_first_retirement_s
            / self.row_for(baseline).time_to_first_retirement_s
        )

    @property
    def headline(self) -> str:
        """The study's one-line claim."""
        best = self.row_for("slo_aware")
        bound = "holds" if best.delivered_loss_p99 <= self.max_loss else "BROKEN"
        censored = " (no device retired)" if best.retirement_censored else ""
        return (
            f"slo_aware extends fleet time-to-retirement "
            f"{self.retirement_vs('slo_aware'):.2f}x vs rotational{censored}; "
            f"p99 delivered loss {best.delivered_loss_p99:.4f} <= "
            f"{self.max_loss:g} budget {bound}"
        )

    def format(self) -> str:
        """Bracket table, SLO classes, and the headline."""
        table = format_table(
            (
                "policy",
                "mode",
                "retire at (s)",
                "tput (req/s)",
                "p99 (ms)",
                "p99 loss",
                "viol",
                "compl",
                "rej",
                "retired",
                "pareto",
            ),
            [
                (
                    row.policy,
                    row.mode,
                    f"{row.time_to_first_retirement_s:.4g}"
                    + (">" if row.retirement_censored else ""),
                    f"{row.throughput_rps:.2f}",
                    f"{row.latency_p99_s * 1e3:.1f}",
                    f"{row.delivered_loss_p99:.4f}",
                    row.slo_violations,
                    row.completed,
                    row.rejected + row.dropped,
                    row.devices_retired,
                    "*" if row.pareto else "",
                )
                for row in self.rows
            ],
            title=(
                f"Accuracy-aware serving — {self.num_devices} devices, "
                f"{self.traffic} traffic ({self.num_requests} requests "
                f"@ {self.rate_rps:.1f} req/s), mean budget "
                f"{self.mean_budget:.0f}, model {self.accuracy_model}, "
                f"seed {self.seed}"
            ),
        )
        slo_lines = "\n".join(
            f"  {name}: {spec}" for name, spec in self.slo_classes
        )
        parts = [table, f"SLO classes:\n{slo_lines}", self.headline]
        if any(row.scenario_mean_retirement_s is not None for row in self.rows):
            parts.append(
                format_table(
                    ("policy", "mean retire at (s)", "worst p99 loss"),
                    [
                        (
                            row.policy,
                            f"{row.scenario_mean_retirement_s:.4g}",
                            f"{row.scenario_worst_loss_p99:.4f}",
                        )
                        for row in self.rows
                        if row.scenario_mean_retirement_s is not None
                    ],
                    title="Scenario Monte Carlo (traffic + budgets resampled)",
                )
            )
        return "\n\n".join(parts)


def _accuracy_task(spec: Tuple) -> FleetAccuracyRow:
    """Run one bracket pairing (module-level so pools can pickle it)."""
    profiles, requests, accelerator, config, budget_seed, accuracy_profiles = spec
    result = simulate_fleet(
        profiles,
        requests,
        accelerator=accelerator,
        config=config,
        seed=budget_seed,
        accuracy_profiles=accuracy_profiles,
    )
    return FleetAccuracyRow(
        policy=config.policy,
        mode=config.mode,
        time_to_first_retirement_s=result.time_to_first_retirement_s,
        retirement_censored=result.retirement_censored,
        throughput_rps=result.throughput_rps,
        latency_p99_s=result.latency_p99_s,
        delivered_loss_mean=result.delivered_loss_mean,
        delivered_loss_p99=result.delivered_loss_p99,
        slo_violations=result.slo_violations,
        completed=result.completed,
        rejected=result.rejected,
        dropped=result.dropped,
        pe_deaths=len(result.pe_deaths),
        devices_retired=config.num_devices - result.devices_alive_at_end,
        mttf_series_s=result.mttf_series_s,
    )


def run_fleet_accuracy(
    devices: int = 4,
    traffic: str = "bursty",
    num_requests: int = 400,
    rate_rps: Optional[float] = None,
    mix: Sequence[Tuple[str, float]] = (),
    slos: Sequence[Tuple[str, str]] = (),
    max_loss: float = 0.12,
    accuracy_model: str = "pruning",
    min_alive_fraction: float = 0.75,
    mean_budget: Optional[float] = None,
    seed: int = DEFAULT_SEED,
    scenarios: int = 0,
    checkpoint: Optional[str] = None,
    jobs: Optional[int] = None,
    accelerator: Optional[Accelerator] = None,
) -> FleetAccuracyResult:
    """Compare exact-retire baselines against SLO-routed degraded service.

    All four pairings face the same SLO-tagged request sequence and the
    same sampled per-device endurance fields, so differences are
    attributable to (policy, mode) alone. ``mean_budget=None``
    auto-calibrates so PEs die mid-run (the regime where degraded
    service matters); ``slos`` overrides the default contract set
    (heaviest-weight workload tolerant of ``max_loss``, rest exact).
    ``scenarios > 0`` adds a per-pairing Monte Carlo over resampled
    traffic and budgets — the same scenario seeds for every pairing —
    fanned out over ``jobs`` workers, chunk-invariant and resumable via
    ``checkpoint``.
    """
    _check_traffic_kind(traffic)
    if not 0.0 < max_loss < 1.0:
        raise ConfigurationError(
            f"max_loss must be in (0, 1), got {max_loss}"
        )
    if accuracy_model not in ACCURACY_MODEL_NAMES:
        raise ConfigurationError(
            f"unknown accuracy model {accuracy_model!r}; "
            f"known: {ACCURACY_MODEL_NAMES}"
        )
    workload_mix = _resolve_slos(_resolve_mix(mix), slos, max_loss)
    accelerator = accelerator or paper_accelerator()
    profiles = build_profiles(workload_mix.names, accelerator)
    # Pin the per-workload accuracy calibration here and ship it to
    # workers, so a sweep never depends on worker-local memo state.
    accuracy_profiles = calibrate_profiles(workload_mix.names)
    if mean_budget is None:
        mean_budget = _calibrated_fleet_budget(
            profiles, workload_mix, devices, num_requests
        )
    reference = FleetConfig(
        num_devices=devices,
        policy=ACCURACY_BRACKET[0][0],
        mean_budget=mean_budget,
        min_alive_fraction=min_alive_fraction,
    )
    if rate_rps is None:
        rate_rps = calibrated_rate(profiles, workload_mix, reference)
    sequence = np.random.SeedSequence(seed)
    traffic_seed, budget_seed, montecarlo_seed = sequence.spawn(3)
    requests = make_traffic(
        traffic, num_requests, rate_rps, mix=workload_mix, seed=traffic_seed
    )
    configs = [
        FleetConfig(
            num_devices=devices,
            policy=policy,
            mean_budget=mean_budget,
            min_alive_fraction=min_alive_fraction,
            mode=mode,
            accuracy_model=accuracy_model if mode != "retire" else None,
        )
        for policy, mode in ACCURACY_BRACKET
    ]
    journal = None
    if checkpoint is not None:
        journal = CheckpointJournal(
            os.path.join(checkpoint, "bracket"),
            run_key=content_hash(
                "fleet-accuracy",
                accelerator_fingerprint(accelerator),
                devices,
                traffic,
                num_requests,
                float(rate_rps),
                workload_mix,
                float(mean_budget),
                float(max_loss),
                accuracy_model,
                float(min_alive_fraction),
                seed,
            ),
        )
    runner = ParallelRunner(jobs)
    rows = runner.map(
        _accuracy_task,
        [
            (
                profiles,
                requests,
                accelerator,
                config,
                budget_seed,
                accuracy_profiles,
            )
            for config in configs
        ],
        labels=[policy for policy, _ in ACCURACY_BRACKET],
        checkpoint=journal,
    )
    if scenarios:
        augmented = []
        for row, config in zip(rows, configs):
            samples = sample_fleet_scenarios(
                accelerator,
                config=config,
                traffic_kind=traffic,
                num_requests=num_requests,
                rate_rps=rate_rps,
                mix=workload_mix,
                profiles=profiles,
                num_scenarios=scenarios,
                seed=montecarlo_seed,
                jobs=jobs,
                checkpoint=(
                    None
                    if checkpoint is None
                    else os.path.join(checkpoint, f"mc-{config.policy}")
                ),
            )
            augmented.append(
                replace(
                    row,
                    scenario_mean_retirement_s=(
                        samples.mean_time_to_first_retirement_s
                    ),
                    scenario_worst_loss_p99=samples.worst_delivered_loss_p99,
                )
            )
        rows = augmented
    return FleetAccuracyResult(
        num_devices=devices,
        traffic=traffic,
        num_requests=num_requests,
        rate_rps=float(rate_rps),
        mean_budget=float(mean_budget),
        max_loss=float(max_loss),
        accuracy_model=accuracy_model,
        min_alive_fraction=float(min_alive_fraction),
        seed=seed,
        slo_classes=tuple(
            (name, workload_mix.slo_for(name).name)
            for name in workload_mix.names
        ),
        rows=_mark_pareto(rows),
    )
