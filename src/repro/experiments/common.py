"""Shared plumbing for the experiment drivers.

Centralizes the paper's evaluation setup (Eyeriss-style 14x12 array,
energy-optimal scheduling) plus the caches and the parallel fan-out so
that drivers, benches, and examples never schedule the same network —
or re-run the same policy — twice.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch.accelerator import Accelerator
from repro.arch.presets import eyeriss_v1
from repro.core.engine import RunResult, WearLevelingEngine
from repro.core.policies import StrideTrigger, make_policy
from repro.dataflow.scheduler import SchedulerOptions
from repro.dataflow.simulator import DataflowSimulator, NetworkExecution
from repro.dataflow.tiling import TileStream
from repro.runtime import (
    CACHE_SCHEMA_VERSION,
    Memo,
    ParallelRunner,
    ResultCache,
    accelerator_fingerprint,
    content_hash,
    result_cache,
)
from repro.workloads.registry import get_network

#: Iteration counts of the paper's transient experiments (Fig. 6a / 6b-7).
PAPER_ITERATIONS = 1000
PAPER_ZOOM_ITERATIONS = 200

#: The three schemes compared throughout Section V.
POLICY_NAMES = ("baseline", "rwl", "rwl+ro")

#: Per-process schedule cache. Each entry is a full
#: :class:`NetworkExecution`, keyed on the network, the accelerator
#: fingerprint and the scheduler options; bounded like every
#: :class:`~repro.runtime.memo.Memo` by ``REPRO_EXECUTION_CACHE_SIZE``.
_EXECUTIONS = Memo()

#: Content keys of whole tile-stream sets, by value: the enabled result
#: store keys each policy run on one of these instead of re-tokenizing
#: every stream on every call.
_STREAM_FINGERPRINTS = Memo()


def paper_accelerator(torus: bool = True) -> Accelerator:
    """The paper's evaluation platform: Eyeriss-style 14x12 array."""
    return eyeriss_v1(torus=torus)


def execution_for(
    network_name: str,
    accelerator: Optional[Accelerator] = None,
    options: Optional[SchedulerOptions] = None,
) -> NetworkExecution:
    """Schedule one Table II network (cached per process, LRU-bounded).

    The cache keys on the *full* accelerator configuration (via its
    content fingerprint), not just the array dimensions — two
    accelerators with identical width/height but different buffer or
    NoC configurations schedule differently and must not share entries.
    The least recently used entry is evicted once the cache exceeds
    ``REPRO_EXECUTION_CACHE_SIZE`` entries; concurrent callers of one
    key receive the same object.
    """
    accelerator = accelerator or paper_accelerator()
    options = SchedulerOptions() if options is None else options
    network = get_network(network_name)
    return _EXECUTIONS.get_or_build(
        (network.name, accelerator_fingerprint(accelerator), options),
        lambda: DataflowSimulator(accelerator, options).execute_network(
            network.layers, name=network.name
        ),
    )


def streams_for(
    network_name: str,
    accelerator: Optional[Accelerator] = None,
    options: Optional[SchedulerOptions] = None,
) -> List[TileStream]:
    """The per-layer tile streams of one network (cached per process)."""
    return execution_for(network_name, accelerator, options).streams()


def run_policy_key(
    accelerator: Accelerator,
    policy_name: str,
    trigger: StrideTrigger,
    streams: Sequence[TileStream],
    iterations: int,
    record_trace: bool,
    record_snapshots: bool,
) -> str:
    """Content key of one policy run, for the persistent result cache.

    Covers everything that determines the engine's output: the full
    accelerator configuration, the policy and its trigger, the exact
    tile streams (through their set's fingerprint, computed once per
    distinct stream set), the iteration count, what gets recorded, and
    the cache schema version (bumped when engine semantics change).
    """
    streams = tuple(streams)
    return content_hash(
        "run_policy",
        CACHE_SCHEMA_VERSION,
        accelerator_fingerprint(accelerator),
        policy_name,
        trigger,
        _STREAM_FINGERPRINTS.get_or_build(
            streams, lambda: content_hash("streams", streams)
        ),
        iterations,
        record_trace,
        record_snapshots,
    )


def _policy_task(spec: Tuple) -> RunResult:
    """Run one policy over one stream set (module-level for pickling)."""
    (
        accelerator,
        policy_name,
        trigger,
        streams,
        iterations,
        record_trace,
        record_snapshots,
    ) = spec
    policy = make_policy(policy_name, trigger)
    target = accelerator.as_torus() if policy.requires_torus else accelerator.as_mesh()
    engine = WearLevelingEngine(target, policy)
    # The analytic orbit fold is bit-identical to the iterative walk,
    # serves Fig. 7's per-iteration snapshots from its prefix table, and
    # falls back automatically for requests it cannot serve exactly
    # (e.g. closed-loop policies).
    return engine.run(
        streams,
        iterations=iterations,
        record_trace=record_trace,
        record_snapshots=record_snapshots,
        mode="analytic",
    )


def run_policies(
    streams: Sequence[TileStream],
    accelerator: Optional[Accelerator] = None,
    policies: Sequence[str] = POLICY_NAMES,
    iterations: int = PAPER_ITERATIONS,
    record_trace: bool = True,
    record_snapshots: bool = False,
    trigger: StrideTrigger = StrideTrigger.ORIGIN,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
) -> Dict[str, RunResult]:
    """Run the same tile streams under several policies.

    The baseline runs on the mesh variant of the accelerator (it needs no
    torus) and the striding policies on the torus variant, matching the
    paper's baseline-vs-RoTA comparison. Results share identical total
    work, so Eq. 4 applies directly to any pair of count arrays.

    Policies that miss the persistent result cache fan out over a
    :class:`~repro.runtime.parallel.ParallelRunner` (``jobs=None`` reads
    ``REPRO_JOBS``; the default is serial). Serial and parallel runs
    return bit-identical results, and cache hits skip the engine
    entirely. Pass ``cache`` to use a non-default store (tests), or
    disable caching globally with ``REPRO_RESULT_CACHE=off``.
    """
    accelerator = accelerator or paper_accelerator()
    streams = tuple(streams)
    store = result_cache() if cache is None else cache
    results: Dict[str, RunResult] = {}
    pending: List[Tuple[str, Optional[str]]] = []
    for name in policies:
        # A disabled store never reads the key (it still counts the
        # miss), so building one would be wasted work.
        key = None
        if store.enabled:
            key = run_policy_key(
                accelerator, name, trigger, streams, iterations,
                record_trace, record_snapshots,
            )
        hit = store.get(key)
        if isinstance(hit, RunResult):
            results[name] = hit
        else:
            pending.append((name, key))
    if pending:
        runner = ParallelRunner(jobs)
        specs = [
            (
                accelerator,
                name,
                trigger,
                streams,
                iterations,
                record_trace,
                record_snapshots,
            )
            for name, _ in pending
        ]
        fresh = runner.map(_policy_task, specs, labels=[name for name, _ in pending])
        for (name, key), result in zip(pending, fresh):
            results[name] = result
            store.put(key, result)
    return {name: results[name] for name in policies}
