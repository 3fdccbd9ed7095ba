"""Property tests: the analytic orbit fold ≡ the iterative engine.

The fast path's whole contract is *bit-identical* equivalence — counts,
per-iteration trace, final carried state, death records, degradation
accounting, and even the memo keys the run leaves behind (both paths
route layers through the same memoized helper). Randomized shapes,
policies, iteration counts, cycle weights, static fault sets, and
endurance budgets all exercise it here. The orbit records the fold
shares across engines in one process are checked the same way, cold
and warm, together with the inputs their key must cover.
"""

import re
import sys
import threading
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.accelerator import Accelerator
from repro.arch.array import PEArray
from repro.arch.topology import Topology
from repro.core import engine as engine_module
from repro.core.engine import WearLevelingEngine, simulate_policy
from repro.core.extra_policies import RandomStartPolicy
from repro.core.policies import StrideTrigger, make_policy
from repro.dataflow.tiling import TileStream
from repro.errors import SimulationError
from repro.experiments.common import paper_accelerator, run_policy_key
from repro.faults.injection import EnduranceBudgets
from repro.faults.state import FaultState

from tests.conftest import make_stream


def torus(w, h):
    return Accelerator(
        name=f"t{w}x{h}", array=PEArray(width=w, height=h, topology=Topology.TORUS)
    )


def random_streams(draw, w, h, max_layers=4):
    num_layers = draw(st.integers(1, max_layers))
    streams = []
    for index in range(num_layers):
        streams.append(
            make_stream(
                name=f"layer{index}",
                x=draw(st.integers(1, w)),
                y=draw(st.integers(1, h)),
                z=draw(st.integers(1, 40)),
                tile_cycles=draw(st.integers(0, 5)),
            )
        )
    return streams


INT_TRACE_COLUMNS = (
    "iteration", "tiles_seen", "max_usage", "min_usage", "max_difference"
)


def assert_same_trace(expected, actual):
    """Every trace column identical, array-wise (``inf`` R_diff included)."""
    for name in INT_TRACE_COLUMNS:
        assert getattr(actual, name).dtype == np.int64
        assert np.array_equal(getattr(expected, name), getattr(actual, name))
    assert actual.r_diff.dtype == np.float64
    assert np.array_equal(expected.r_diff, actual.r_diff)
    assert expected.layer == actual.layer
    assert expected == actual


def assert_equivalent(iterative, analytic):
    assert np.array_equal(iterative.counts, analytic.counts)
    assert_same_trace(iterative.trace, analytic.trace)
    assert iterative.final_state == analytic.final_state
    assert iterative.iterations == analytic.iterations
    assert iterative.death_events == analytic.death_events
    assert iterative.dead_pes == analytic.dead_pes
    assert iterative.degradation == analytic.degradation
    if iterative.snapshots is None:
        assert analytic.snapshots is None
        return
    assert analytic.snapshots is not None
    assert len(iterative.snapshots) == len(analytic.snapshots)
    for expected, actual in zip(iterative.snapshots, analytic.snapshots):
        assert expected.dtype == actual.dtype
        assert np.array_equal(expected, actual)


class TestFaultFreeEquivalence:
    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_bit_identical_across_policies_and_shapes(self, data):
        draw = data.draw
        w = draw(st.integers(2, 8))
        h = draw(st.integers(2, 7))
        accelerator = torus(w, h)
        streams = random_streams(draw, w, h)
        policy_name = draw(st.sampled_from(["baseline", "rwl", "rwl+ro"]))
        iterations = draw(st.integers(1, 60))
        record_trace = draw(st.booleans())
        record_snapshots = draw(st.booleans())
        cycle_weighted = draw(st.booleans())

        reference = WearLevelingEngine(
            accelerator, make_policy(policy_name), cycle_weighted=cycle_weighted
        )
        fast = WearLevelingEngine(
            accelerator, make_policy(policy_name), cycle_weighted=cycle_weighted
        )
        expected = reference.run(
            streams,
            iterations=iterations,
            record_trace=record_trace,
            record_snapshots=record_snapshots,
        )
        actual = fast.run(
            streams,
            iterations=iterations,
            record_trace=record_trace,
            record_snapshots=record_snapshots,
            mode="analytic",
        )
        assert reference.last_run_mode == "iterative"
        assert fast.last_run_mode == "analytic"
        assert_equivalent(expected, actual)
        # Both paths populate the same memoized layer deltas.
        assert set(reference._batch_memo) == set(fast._batch_memo)
        assert reference.state == fast.state

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_with_static_faults(self, data):
        draw = data.draw
        w = draw(st.integers(3, 8))
        h = draw(st.integers(3, 7))
        accelerator = torus(w, h)
        # Leave at least a row and a column of slack so killed PEs can
        # always be remapped around.
        streams = random_streams(draw, w - 1, h - 1, max_layers=3)
        policy_name = draw(st.sampled_from(["baseline", "rwl", "rwl+ro"]))
        iterations = draw(st.integers(1, 30))
        record_snapshots = draw(st.booleans())
        num_dead = draw(st.integers(1, 3))
        coords = draw(
            st.lists(
                st.tuples(st.integers(0, w - 1), st.integers(0, h - 1)),
                min_size=num_dead,
                max_size=num_dead,
                unique=True,
            )
        )

        def engine():
            return WearLevelingEngine(
                accelerator,
                make_policy(policy_name),
                fault_state=FaultState.from_coords(accelerator.array, coords),
            )

        reference, fast = engine(), engine()
        expected = reference.run(
            streams, iterations=iterations, record_snapshots=record_snapshots
        )
        actual = fast.run(
            streams,
            iterations=iterations,
            record_snapshots=record_snapshots,
            mode="analytic",
        )
        assert fast.last_run_mode == "analytic"
        assert_equivalent(expected, actual)
        assert set(reference._fault_batch_memo) == set(fast._fault_batch_memo)

    @pytest.mark.parametrize("policy_name", ["baseline", "rwl", "rwl+ro"])
    def test_snapshots_across_tail_closure_and_periods(self, policy_name):
        """Snapshots stay exact whether a run ends inside the explicitly
        replayed prefix, right at orbit closure, or several whole periods
        plus a remainder past it."""
        accelerator = torus(6, 4)
        streams = [
            make_stream(name="a", x=5, y=4, z=6),
            make_stream(name="b", x=2, y=3, z=5, tile_cycles=3),
        ]
        walker = WearLevelingEngine(accelerator, make_policy(policy_name))
        seen = {}
        while walker.state not in seen:
            seen[walker.state] = len(seen)
            walker.run(streams, iterations=1, record_trace=False)
        distinct = len(seen)
        period = distinct - seen[walker.state]
        counts = {
            1,
            max(1, distinct - 1),
            distinct,
            distinct + 1,
            distinct + 3 * period + period // 2,
        }
        for iterations in sorted(counts):
            reference = WearLevelingEngine(accelerator, make_policy(policy_name))
            fast = WearLevelingEngine(accelerator, make_policy(policy_name))
            expected = reference.run(
                streams, iterations=iterations, record_snapshots=True
            )
            actual = fast.run(
                streams,
                iterations=iterations,
                record_snapshots=True,
                mode="analytic",
            )
            assert fast.last_run_mode == "analytic"
            assert len(actual.snapshots) == iterations
            assert_equivalent(expected, actual)

    def test_carried_state_across_sequential_runs(self, small_torus):
        """A second run starts mid-orbit; the fold must honor it."""
        streams = [make_stream(x=3, y=2, z=7), make_stream(x=2, y=3, z=5)]
        reference = WearLevelingEngine(small_torus, make_policy("rwl+ro"))
        fast = WearLevelingEngine(small_torus, make_policy("rwl+ro"))
        for chunk in (13, 29):
            expected = reference.run(streams, iterations=chunk)
            actual = fast.run(streams, iterations=chunk, mode="analytic")
            assert_equivalent(expected, actual)


class TestBudgetedEquivalence:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_death_timing_and_counts_identical(self, data):
        draw = data.draw
        w = draw(st.integers(2, 7))
        h = draw(st.integers(2, 6))
        accelerator = torus(w, h)
        streams = random_streams(draw, w, h, max_layers=3)
        policy_name = draw(st.sampled_from(["baseline", "rwl", "rwl+ro"]))
        iterations = draw(st.integers(1, 200))
        # Budgets low enough that deaths actually happen mid-run for
        # many draws, high enough that some runs stay death-free.
        scale = draw(st.floats(0.5, 60.0))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        budget_field = np.maximum(
            1.0, rng.uniform(0.5, 1.5, size=(h, w)) * scale * 10
        )
        stop = draw(st.one_of(st.none(), st.integers(1, 4)))

        def engine():
            return WearLevelingEngine(
                accelerator,
                make_policy(policy_name),
                budgets=EnduranceBudgets(budgets=budget_field.copy()),
            )

        reference, fast = engine(), engine()
        # Low budgets on tiny arrays can kill every PE mid-run; both
        # paths must then fail identically instead of diverging.
        try:
            expected = reference.run(
                streams,
                iterations=iterations,
                record_trace=False,
                stop_after_deaths=stop,
            )
        except SimulationError as error:
            with pytest.raises(SimulationError, match=re.escape(str(error))):
                fast.run(
                    streams,
                    iterations=iterations,
                    record_trace=False,
                    stop_after_deaths=stop,
                    mode="analytic",
                )
            return
        actual = fast.run(
            streams,
            iterations=iterations,
            record_trace=False,
            stop_after_deaths=stop,
            mode="analytic",
        )
        assert fast.last_run_mode == "analytic"
        assert_equivalent(expected, actual)


class TestFallback:
    def test_snapshots_take_fast_path(self, small_torus):
        engine = WearLevelingEngine(small_torus, make_policy("rwl+ro"))
        result = engine.run(
            [make_stream()], iterations=3, record_snapshots=True, mode="analytic"
        )
        assert engine.last_run_mode == "analytic"
        assert len(result.snapshots) == 3

    def test_snapshots_with_budgets_fall_back(self, small_torus):
        h, w = small_torus.array.shape
        engine = WearLevelingEngine(
            small_torus,
            make_policy("rwl+ro"),
            budgets=EnduranceBudgets(budgets=np.full((h, w), 1e9)),
        )
        result = engine.run(
            [make_stream()],
            iterations=3,
            record_trace=False,
            record_snapshots=True,
            mode="analytic",
        )
        assert engine.last_run_mode == "iterative"
        assert len(result.snapshots) == 3

    def test_layer_granularity_falls_back(self, small_torus):
        engine = WearLevelingEngine(small_torus, make_policy("rwl+ro"))
        result = engine.run(
            [make_stream()],
            iterations=2,
            trace_granularity="layer",
            mode="analytic",
        )
        assert engine.last_run_mode == "iterative"
        assert len(result.trace) == 2

    def test_traced_budget_run_falls_back(self, small_torus):
        h, w = small_torus.array.shape
        engine = WearLevelingEngine(
            small_torus,
            make_policy("rwl+ro"),
            budgets=EnduranceBudgets(budgets=np.full((h, w), 1e9)),
        )
        engine.run([make_stream()], iterations=2, mode="analytic")
        assert engine.last_run_mode == "iterative"

    def test_untraced_budget_run_takes_fast_path(self, small_torus):
        h, w = small_torus.array.shape
        engine = WearLevelingEngine(
            small_torus,
            make_policy("rwl+ro"),
            budgets=EnduranceBudgets(budgets=np.full((h, w), 1e9)),
        )
        engine.run(
            [make_stream()], iterations=2, record_trace=False, mode="analytic"
        )
        assert engine.last_run_mode == "analytic"

    def test_invalid_mode_rejected(self, small_torus):
        engine = WearLevelingEngine(small_torus, make_policy("rwl+ro"))
        with pytest.raises(SimulationError):
            engine.run([make_stream()], mode="magic")

    def test_simulate_policy_passes_mode_through(self, small_torus):
        streams = [make_stream(x=3, y=2, z=9)]
        expected = simulate_policy(
            small_torus, streams, make_policy("rwl+ro"), iterations=11
        )
        actual = simulate_policy(
            small_torus,
            streams,
            make_policy("rwl+ro"),
            iterations=11,
            mode="analytic",
        )
        assert_equivalent(expected, actual)


OPEN_LOOP_POLICIES = ["baseline", "rwl", "rwl+ro", "diagonal", "random"]


def count_walks(engine):
    """Record every real position walk ``engine`` makes from now on."""
    walks = []
    real = engine._compute_layer_direct

    def counted(*args):
        walks.append(args)
        return real(*args)

    engine._compute_layer_direct = counted
    return walks


def shapes_of(engine, streams):
    return [(stream, *engine._validate_stream(stream)) for stream in streams]


class TestSharedOrbitRecords:
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_cold_then_warm_equal_iterative(self, data):
        """A warm run reuses records built at another iteration count
        and other recording flags, and still matches the iterative walk,
        ``_batch_memo`` key set included."""
        draw = data.draw
        w = draw(st.integers(2, 8))
        h = draw(st.integers(2, 7))
        accelerator = torus(w, h)
        streams = random_streams(draw, w, h)
        policy_name = draw(st.sampled_from(OPEN_LOOP_POLICIES))
        cycle_weighted = draw(st.booleans())
        requests = [
            (draw(st.integers(1, 60)), draw(st.booleans()), draw(st.booleans()))
            for _ in range(2)
        ]
        engine_module._ORBIT_RECORDS.clear()
        for iterations, record_trace, record_snapshots in requests:
            reference = WearLevelingEngine(
                accelerator, make_policy(policy_name), cycle_weighted=cycle_weighted
            )
            fast = WearLevelingEngine(
                accelerator, make_policy(policy_name), cycle_weighted=cycle_weighted
            )
            walks = count_walks(fast)
            expected = reference.run(
                streams,
                iterations=iterations,
                record_trace=record_trace,
                record_snapshots=record_snapshots,
            )
            actual = fast.run(
                streams,
                iterations=iterations,
                record_trace=record_trace,
                record_snapshots=record_snapshots,
                mode="analytic",
            )
            assert fast.last_run_mode == "analytic"
            assert_equivalent(expected, actual)
            assert set(reference._batch_memo) == set(fast._batch_memo)
            assert reference.state == fast.state
        (cold, _, _), (warm, _, _) = requests
        if warm <= cold:
            # Every record the warm run needs is already shared.
            assert walks == []

    def test_dead_pes_bypass_the_memo(self, small_torus):
        engine_module._ORBIT_RECORDS.clear()
        streams = [make_stream(x=2, y=2, z=5), make_stream(x=3, y=1, z=4)]
        faulty = WearLevelingEngine(
            small_torus,
            make_policy("rwl+ro"),
            fault_state=FaultState.from_coords(small_torus.array, [(1, 1)]),
        )
        faulty.run(streams, iterations=6, mode="analytic")
        assert faulty.last_run_mode == "analytic"
        assert faulty._shared_records(shapes_of(faulty, streams)) is None
        assert len(engine_module._ORBIT_RECORDS) == 0
        # An empty fault set takes the fault-free path, memo included.
        clean = WearLevelingEngine(
            small_torus,
            make_policy("rwl+ro"),
            fault_state=FaultState.none(small_torus.array),
        )
        clean.run(streams, iterations=6, mode="analytic")
        assert len(engine_module._ORBIT_RECORDS) == 1

    def test_concurrent_engines_share_one_table(self):
        """Engines on several threads fill one orbit table at once and
        each still matches the iterative walk."""
        accelerator = torus(7, 6)
        streams = [
            make_stream(name="a", x=3, y=2, z=7),
            make_stream(name="b", x=5, y=4, z=11),
            make_stream(name="c", x=2, y=5, z=3),
        ]
        counts = (5, 17, 40)
        expected = {
            iterations: WearLevelingEngine(accelerator, make_policy("rwl+ro")).run(
                streams, iterations=iterations
            )
            for iterations in counts
        }
        engine_module._ORBIT_RECORDS.clear()
        errors = []

        def hammer(offset):
            try:
                for step in range(30):
                    iterations = counts[(step + offset) % len(counts)]
                    engine = WearLevelingEngine(accelerator, make_policy("rwl+ro"))
                    actual = engine.run(streams, iterations=iterations, mode="analytic")
                    assert_equivalent(expected[iterations], actual)
            except Exception as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=hammer, args=(offset,)) for offset in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(engine_module._ORBIT_RECORDS) == 1

    def test_shared_records_are_read_only(self, small_torus):
        engine_module._ORBIT_RECORDS.clear()
        streams = [make_stream(x=3, y=2, z=7), make_stream(x=2, y=3, z=5)]
        engine = WearLevelingEngine(small_torus, make_policy("rwl+ro"))
        result = engine.run(streams, iterations=9, mode="analytic")
        table = engine._shared_records(shapes_of(engine, streams))
        assert table
        for record, entries in table.values():
            with pytest.raises(ValueError):
                record.delta[0, 0] += 1
            assert entries
            for _, (delta, *_) in entries:
                with pytest.raises(ValueError):
                    delta[0, 0] += 1
        # Results handed to callers stay theirs to modify.
        result.counts[0, 0] += 1

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_changing_any_key_input_misses(self, data):
        draw = data.draw
        mutation = draw(
            st.sampled_from(
                [
                    "policy",
                    "trigger",
                    "seed",
                    "weighting",
                    "topology",
                    "dims",
                    "x",
                    "y",
                    "num_tiles",
                    "weight",
                    "entry",
                ]
            )
        )
        w = draw(st.integers(3, 7))
        h = draw(st.integers(3, 6))
        layers = [
            (draw(st.integers(1, w)), draw(st.integers(1, h)),
             draw(st.integers(1, 30)), draw(st.integers(1, 4)))
            for _ in range(draw(st.integers(1, 3)))
        ]
        base = {
            "policy": draw(st.sampled_from(OPEN_LOOP_POLICIES)),
            "trigger": draw(st.sampled_from(list(StrideTrigger))),
            "seed": draw(st.integers(0, 100)),
            "weighted": draw(st.booleans()),
            "topology": Topology.TORUS,
            "dims": (w, h),
            "layers": layers,
        }
        if mutation == "trigger":
            base["policy"] = draw(st.sampled_from(["rwl", "rwl+ro"]))
        if mutation == "seed":
            base["policy"] = "random"
        if mutation == "topology":
            base["policy"] = "baseline"
        if mutation == "weight":
            base["weighted"] = True
        changed = dict(base, layers=list(layers))
        index = draw(st.integers(0, len(layers) - 1))
        x, y, z, cycles = layers[index]
        if mutation == "policy":
            changed["policy"] = draw(
                st.sampled_from([p for p in OPEN_LOOP_POLICIES if p != base["policy"]])
            )
        elif mutation == "trigger":
            changed["trigger"] = next(t for t in StrideTrigger if t != base["trigger"])
        elif mutation == "seed":
            changed["seed"] = base["seed"] + 1
        elif mutation == "weighting":
            changed["weighted"] = not base["weighted"]
        elif mutation == "topology":
            changed["topology"] = Topology.MESH
        elif mutation == "dims":
            changed["dims"] = (w + draw(st.integers(0, 1)), h + 1)
        elif mutation == "x":
            changed["layers"][index] = (x - 1 if x > 1 else x + 1, y, z, cycles)
        elif mutation == "y":
            changed["layers"][index] = (x, y - 1 if y > 1 else y + 1, z, cycles)
        elif mutation == "num_tiles":
            changed["layers"][index] = (x, y, z + 1, cycles)
        elif mutation == "weight":
            changed["layers"][index] = (x, y, z, cycles + 1)

        def build(config):
            if config["policy"] == "random":
                policy = RandomStartPolicy(seed=config["seed"])
            else:
                policy = make_policy(config["policy"], config["trigger"])
            width, height = config["dims"]
            accelerator = Accelerator(
                name="memo-key",
                array=PEArray(width=width, height=height, topology=config["topology"]),
            )
            engine = WearLevelingEngine(
                accelerator, policy, cycle_weighted=config["weighted"]
            )
            streams = [
                make_stream(name=f"l{i}", x=lx, y=ly, z=lz, tile_cycles=lc)
                for i, (lx, ly, lz, lc) in enumerate(config["layers"])
            ]
            return engine, streams

        engine_module._ORBIT_RECORDS.clear()
        engine, streams = build(base)
        engine.run(streams, iterations=1, record_trace=False, mode="analytic")
        table = engine._shared_records(shapes_of(engine, streams))
        assert set(table) == {engine.policy.initial_state()}

        other, other_streams = build(changed)
        walks = count_walks(other)
        if mutation == "entry":
            entry = (1, 0) if engine.policy.initial_state() != (1, 0) else (2, 0)
            other._state = entry
            assert other._shared_records(shapes_of(other, other_streams)) is table
            assert entry not in table
        else:
            assert other._shared_records(shapes_of(other, other_streams)) is not table
        other.run(other_streams, iterations=1, record_trace=False, mode="analytic")
        assert walks  # a miss walks the layers afresh


class TestRunPolicyKey:
    def test_every_stream_field_changes_the_key(self):
        accelerator = paper_accelerator()
        streams = [
            make_stream(name="a", x=3, y=2, z=7, tile_bytes=5, tile_macs=6, tile_cycles=2),
            make_stream(name="b", x=2, y=3, z=5, tile_bytes=1, tile_macs=2, tile_cycles=3),
        ]

        def key(candidate):
            return run_policy_key(
                accelerator, "rwl+ro", StrideTrigger.ORIGIN, candidate, 10, True, False
            )

        seen = {key(streams)}
        assert key([replace(stream) for stream in streams]) in seen
        for index, stream in enumerate(streams):
            for field in fields(TileStream):
                value = getattr(stream, field.name)
                bumped = value + "'" if isinstance(value, str) else value + 1
                mutated = list(streams)
                mutated[index] = replace(stream, **{field.name: bumped})
                changed = key(mutated)
                assert changed not in seen, (index, field.name)
                seen.add(changed)
