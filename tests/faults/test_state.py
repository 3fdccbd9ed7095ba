"""Tests for :mod:`repro.faults.state`."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.array import PEArray
from repro.arch.topology import Topology
from repro.errors import ConfigurationError
from repro.faults.state import DeathEvent, DegradationStats, FaultState


class TestFaultState:
    def test_fresh_state_is_fault_free(self, small_torus):
        state = FaultState.none(small_torus.array)
        assert not state.any_dead
        assert state.num_dead == 0
        assert state.num_alive == 20
        assert state.alive_fraction == 1.0
        assert state.dead_coords() == []
        assert not state.dead_mask.any()

    def test_from_coords(self, small_torus):
        state = FaultState.from_coords(small_torus.array, [(0, 0), (3, 2)])
        assert state.num_dead == 2
        assert state.is_dead(0, 0)
        assert state.is_dead(3, 2)
        assert not state.is_dead(1, 1)
        # mask is indexed [v, u], like the usage ledger
        assert state.dead_mask[2, 3]
        assert not state.dead_mask[3, 2]

    def test_dead_coords_row_major_deterministic(self, small_torus):
        state = FaultState.from_coords(small_torus.array, [(4, 3), (0, 0), (2, 1)])
        assert state.dead_coords() == [(0, 0), (2, 1), (4, 3)]

    def test_kill_is_idempotent_and_versioned(self, small_torus):
        state = FaultState.none(small_torus.array)
        assert state.version == 0
        assert state.kill(1, 1)
        assert state.version == 1
        assert not state.kill(1, 1)  # already dead
        assert state.version == 1
        assert state.num_dead == 1

    def test_revive_all(self, small_torus):
        state = FaultState.from_coords(small_torus.array, [(1, 1)])
        version = state.version
        state.revive_all()
        assert not state.any_dead
        assert state.version > version
        state.revive_all()  # no change, no version bump
        assert state.version == version + 1

    def test_copy_is_independent(self, small_torus):
        state = FaultState.from_coords(small_torus.array, [(1, 1)])
        clone = state.copy()
        clone.kill(2, 2)
        assert state.num_dead == 1
        assert clone.num_dead == 2

    def test_dead_mask_is_read_only(self, small_torus):
        state = FaultState.none(small_torus.array)
        with pytest.raises(ValueError):
            state.dead_mask[0, 0] = True

    def test_out_of_range_coordinates_rejected(self, small_torus):
        state = FaultState.none(small_torus.array)
        with pytest.raises(ConfigurationError):
            state.kill(5, 0)
        with pytest.raises(ConfigurationError):
            state.is_dead(0, 4)
        with pytest.raises(ConfigurationError):
            FaultState.from_coords(small_torus.array, [(-1, 0)])


_ARRAY = PEArray(width=4, height=3, topology=Topology.TORUS)
_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("kill"),
            st.integers(0, _ARRAY.width - 1),
            st.integers(0, _ARRAY.height - 1),
        ),
        st.tuples(st.just("revive_all")),
        st.tuples(st.just("copy")),
    ),
    max_size=40,
)


class TestCountedReads:
    """The kept dead count always agrees with the mask it summarizes."""

    @staticmethod
    def assert_consistent(state, dead, version):
        mask = state.dead_mask
        assert state.num_dead == int(mask.sum()) == len(dead)
        assert state.any_dead == bool(mask.any())
        assert state.num_alive == _ARRAY.num_pes - len(dead)
        assert state.alive_fraction == state.num_alive / _ARRAY.num_pes
        assert set(state.dead_coords()) == dead
        assert state.version == version

    @given(ops=_OPS)
    @settings(max_examples=200, deadline=None)
    def test_counts_track_the_mask(self, ops):
        state = FaultState.none(_ARRAY)
        dead, version = set(), 0
        # Every state left behind by ``copy`` with its expected contents:
        # later mutations of the clone must not reach it.
        originals = []
        for op in ops:
            if op[0] == "kill":
                _, u, v = op
                assert state.kill(u, v) == ((u, v) not in dead)
                if (u, v) not in dead:
                    dead.add((u, v))
                    version += 1
            elif op[0] == "revive_all":
                state.revive_all()
                if dead:
                    dead.clear()
                    version += 1
            else:
                originals.append((state, set(dead), version))
                state = state.copy()
            self.assert_consistent(state, dead, version)
        for original, original_dead, original_version in originals:
            self.assert_consistent(original, original_dead, original_version)


class TestDeathEvent:
    def test_coord(self):
        event = DeathEvent(iteration=7, layer="conv1", u=3, v=2, usage=101)
        assert event.coord == (3, 2)


class TestDegradationStats:
    def test_no_degradation(self):
        stats = DegradationStats(nominal_tiles=100, executed_slots=100)
        assert stats.slowdown == 1.0
        assert stats.usable_throughput == 1.0

    def test_split_tiles_cost_slots(self):
        stats = DegradationStats(nominal_tiles=100, executed_slots=125)
        assert stats.slowdown == pytest.approx(1.25)
        assert stats.usable_throughput == pytest.approx(0.8)

    def test_empty_run(self):
        stats = DegradationStats(nominal_tiles=0, executed_slots=0)
        assert stats.slowdown == 1.0
        assert stats.usable_throughput == 1.0
