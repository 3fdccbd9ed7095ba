"""Device-state invariants: every memoized read equals its from-scratch value.

:class:`~repro.fleet.device.FleetDevice` keeps ``can_accept`` as a
plain attribute and memoizes ``service_seconds``, ``peak_wear``,
``predicted_loss`` and the retirement test on the fault version or the
completion count. These tests drive one device through random
``enqueue`` / ``complete`` / ``start_next`` / ``faults.kill`` sequences
(single PEs or whole rows)
and, after every step, compare each read against a shadow model that
recomputes it from the operations alone.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.accuracy.model import accuracy_profile_for, make_accuracy_model
from repro.arch.accelerator import Accelerator
from repro.arch.array import PEArray
from repro.arch.topology import Topology
from repro.errors import SimulationError
from repro.faults.injection import EnduranceBudgets
from repro.fleet.device import DEVICE_MODES, FleetDevice, WorkloadProfile
from repro.fleet.traffic import Request

#: Six PEs, so random kill sequences regularly empty the whole array.
ACCELERATOR = Accelerator(
    name="tiny-3x2-torus",
    array=PEArray(width=3, height=2, topology=Topology.TORUS),
)
SHAPE = ACCELERATOR.array.shape
NUM_PES = ACCELERATOR.array.num_pes
WORKLOADS = ("SqueezeNet", "ResNet-50")
CLOCK_MHZ = 200.0

operations = st.lists(
    st.one_of(
        st.tuples(st.just("enqueue"), st.integers(0, len(WORKLOADS) - 1)),
        st.tuples(st.just("complete")),
        st.tuples(st.just("start_next")),
        st.tuples(
            st.just("kill"),
            st.integers(0, SHAPE[1] - 1),
            st.integers(0, SHAPE[0] - 1),
        ),
        st.tuples(st.just("kill_row"), st.integers(0, SHAPE[0] - 1)),
    ),
    min_size=1,
    max_size=80,
)


def _counts(draw_seed):
    rng = np.random.default_rng(draw_seed)
    return {
        name: WorkloadProfile(
            workload=name,
            counts=rng.integers(0, 6, size=SHAPE),
            cycles=int(rng.integers(1, 10_000_000)),
        )
        for name in WORKLOADS
    }


class Shadow:
    """The device's observable state, recomputed from the operations."""

    def __init__(self, device, budgets, queue_limit, min_alive_fraction, mode):
        self.device = device
        self.budgets = budgets
        self.queue_limit = queue_limit
        self.min_alive_fraction = min_alive_fraction
        self.mode = mode
        self.ledger = np.zeros(SHAPE, dtype=np.int64)
        self.dead = np.zeros(SHAPE, dtype=bool)
        self.alive = True
        self.busy = None
        self.queue = []
        self.model = make_accuracy_model("pruning")

    @property
    def num_alive(self):
        return NUM_PES - int(self.dead.sum())

    @property
    def degraded(self):
        return (
            self.mode == "serve-degraded-approx"
            and self.alive
            and self.num_alive / NUM_PES < self.min_alive_fraction
        )

    def can_accept(self):
        return self.alive and len(self.queue) < self.queue_limit

    def service_seconds(self, profile):
        if self.degraded:
            return profile.cycles / (CLOCK_MHZ * 1e6)
        slowdown = NUM_PES / self.num_alive if self.num_alive else float("inf")
        return profile.cycles / (CLOCK_MHZ * 1e6) * slowdown

    def peak_wear(self):
        if self.budgets is None:
            return float(self.ledger.max())
        return float((self.ledger / self.budgets).max())

    def predicted_loss(self, workload):
        if not self.alive:
            return float("inf")
        if not self.degraded:
            return 0.0
        dead_fraction = 1.0 - self.num_alive / NUM_PES
        return self.model.loss(dead_fraction, accuracy_profile_for(workload))

    def complete(self, profile):
        self.busy = None
        self.ledger += profile.counts
        if self.budgets is not None:
            self.dead |= self.ledger >= self.budgets
        if self.alive:
            if self.mode == "retire":
                retired = self.num_alive / NUM_PES < self.min_alive_fraction
            else:
                retired = self.num_alive == 0
            if retired:
                self.alive = False
                dropped, self.queue = self.queue, []
                return dropped
        return []

    def check(self, profiles):
        device = self.device
        assert device.alive == self.alive
        assert device.can_accept == self.can_accept()
        assert device.outstanding == len(self.queue) + (self.busy is not None)
        assert np.array_equal(device.faults.dead_mask, self.dead)
        assert device.peak_wear == self.peak_wear()
        for name, profile in profiles.items():
            assert device.service_seconds(profile) == self.service_seconds(profile)
            assert device.predicted_loss(name) == self.predicted_loss(name)


@pytest.mark.parametrize("mode", DEVICE_MODES)
@pytest.mark.parametrize("with_budgets", [False, True], ids=["free", "budgets"])
@settings(max_examples=60, deadline=None)
@given(
    ops=operations,
    seed=st.integers(0, 2**16),
    queue_limit=st.integers(1, 3),
    min_alive_fraction=st.sampled_from([0.3, 0.75, 1.0]),
)
def test_reads_match_from_scratch_state(
    mode, with_budgets, ops, seed, queue_limit, min_alive_fraction
):
    profiles = _counts(seed)
    budgets = None
    if with_budgets:
        budgets = np.random.default_rng(seed + 1).uniform(4.0, 40.0, size=SHAPE)
    device = FleetDevice(
        0,
        ACCELERATOR,
        budgets=None if budgets is None else EnduranceBudgets(budgets),
        queue_limit=queue_limit,
        clock_mhz=CLOCK_MHZ,
        min_alive_fraction=min_alive_fraction,
        mode=mode,
    )
    shadow = Shadow(device, budgets, queue_limit, min_alive_fraction, mode)
    shadow.check(profiles)
    now = 0.0
    for index, op in enumerate(ops):
        kind = op[0]
        if kind == "enqueue":
            profile = profiles[WORKLOADS[op[1]]]
            request = Request(index=index, arrival_s=now, workload=profile.workload)
            if not shadow.can_accept():
                with pytest.raises(SimulationError):
                    device.enqueue(request, profile)
            elif shadow.busy is None:
                assert device.enqueue(request, profile) is True
                shadow.busy = profile
            else:
                assert device.enqueue(request, profile) is False
                shadow.queue.append(request)
        elif kind == "complete":
            now += 1.0
            if shadow.busy is None:
                with pytest.raises(SimulationError):
                    device.complete(now)
                continue
            _, _, dropped = device.complete(now)
            expected = shadow.complete(shadow.busy)
            assert dropped == expected
            if not shadow.alive:
                assert device.death_time_s is not None
        elif kind == "start_next":
            if shadow.busy is not None:
                with pytest.raises(SimulationError):
                    device.start_next()
                continue
            started = device.start_next()
            if shadow.queue:
                head = shadow.queue.pop(0)
                assert started is profiles[head.workload]
                shadow.busy = started
            else:
                assert started is None
        elif kind == "kill":
            _, u, v = op
            device.faults.kill(u, v)
            shadow.dead[v, u] = True
        else:
            _, v = op
            for u in range(SHAPE[1]):
                device.faults.kill(u, v)
            shadow.dead[v, :] = True
        shadow.check(profiles)
