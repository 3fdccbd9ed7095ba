"""Property tests: the analytic orbit fold ≡ the iterative engine.

The fast path's whole contract is *bit-identical* equivalence — counts,
per-iteration trace, final carried state, death records, degradation
accounting, and even the memo keys the run leaves behind (both paths
route layers through the same memoized helper). Randomized shapes,
policies, iteration counts, cycle weights, static fault sets, and
endurance budgets all exercise it here.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.accelerator import Accelerator
from repro.arch.array import PEArray
from repro.arch.topology import Topology
from repro.core.engine import WearLevelingEngine, simulate_policy
from repro.core.policies import make_policy
from repro.errors import SimulationError
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


def assert_equivalent(iterative, analytic):
    assert np.array_equal(iterative.counts, analytic.counts)
    assert iterative.trace == analytic.trace
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
