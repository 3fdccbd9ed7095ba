"""Device-state invariants: every memoized read equals its from-scratch value.

:class:`~repro.fleet.device.FleetDevice` keeps ``can_accept`` as a
plain attribute, memoizes the service-time factor, ``peak_wear``,
``predicted_loss`` and the retirement test on the fault version or the
completion count, defers wear application, and checks budgets on an
int64 ``ceil(budget) - ledger`` array. These tests drive one device
through random ``admit`` / ``finish`` / ``faults.kill`` sequences
(single PEs or whole rows) and, after every step, compare each read and
every returned completion time, delivered loss and PE death against a
shadow model that recomputes them from the operations alone.
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
        st.tuples(st.just("admit"), st.integers(0, len(WORKLOADS) - 1)),
        st.tuples(st.just("finish")),
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
        #: ``(request index, profile, admitted loss)`` in service / queued.
        self.busy = None
        self.queue = []
        self.dropped = 0
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

    def finish(self, now):
        """Finish the request in service; returns what ``finish`` should."""
        index, profile, loss = self.busy
        self.busy = None
        self.ledger += profile.counts
        deaths = []
        if self.budgets is not None:
            crossed = (self.ledger >= self.budgets) & ~self.dead
            rows, cols = np.nonzero(crossed)
            deaths = [(now, u, v) for v, u in zip(rows.tolist(), cols.tolist())]
            self.dead |= crossed
        if self.alive:
            if self.mode == "retire":
                retired = self.num_alive / NUM_PES < self.min_alive_fraction
            else:
                retired = self.num_alive == 0
            if retired:
                self.alive = False
                self.dropped += len(self.queue)
                self.queue = []
        finish_s = None
        if self.queue:
            self.busy = self.queue.pop(0)
            finish_s = now + self.service_seconds(self.busy[1])
        return index, loss, finish_s, deaths

    def check(self, profiles):
        device = self.device
        assert device.alive == self.alive
        assert device.can_accept == self.can_accept()
        assert device.outstanding == len(self.queue) + (self.busy is not None)
        assert device.dropped == self.dropped
        assert np.array_equal(device.faults.dead_mask, self.dead)
        assert device.peak_wear == self.peak_wear()
        for name in profiles:
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
        if kind == "admit":
            profile = profiles[WORKLOADS[op[1]]]
            if not shadow.can_accept():
                with pytest.raises(SimulationError):
                    device.admit(index, profile.workload, profile, now)
                continue
            entry = (index, profile, shadow.predicted_loss(profile.workload))
            finish_s = device.admit(index, profile.workload, profile, now)
            if shadow.busy is None:
                assert finish_s == now + shadow.service_seconds(profile)
                shadow.busy = entry
            else:
                assert finish_s is None
                shadow.queue.append(entry)
        elif kind == "finish":
            now += 1.0
            if shadow.busy is None:
                with pytest.raises(SimulationError):
                    device.finish(now)
                continue
            finished, loss, finish_s, deaths = device.finish(now)
            expected = shadow.finish(now)
            assert (finished, loss, finish_s) == expected[:3]
            assert [(d.time_s, d.u, d.v) for d in deaths] == expected[3]
            if not shadow.alive:
                assert device.death_time_s is not None
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


#: Budget fields for the crossing check: integral ones from
#: ``EnduranceBudgets.uniform`` (a PE dies the moment its ledger reaches
#: the budget), integral per-PE draws, and fractional draws (it dies at
#: the next integer up).
budget_fields = st.one_of(
    st.integers(1, 30).map(
        lambda budget: EnduranceBudgets.uniform(ACCELERATOR.array, budget).budgets
    ),
    st.lists(st.integers(1, 30), min_size=NUM_PES, max_size=NUM_PES).map(
        lambda values: np.array(values, dtype=float).reshape(SHAPE)
    ),
    st.lists(
        st.floats(0.5, 30.0, allow_nan=False), min_size=NUM_PES, max_size=NUM_PES
    ).map(lambda values: np.array(values).reshape(SHAPE)),
)


@settings(max_examples=100, deadline=None)
@given(
    budgets=budget_fields,
    wear=st.lists(
        st.lists(st.integers(0, 4), min_size=NUM_PES, max_size=NUM_PES),
        min_size=1,
        max_size=4,
    ),
    order=st.lists(st.integers(0, 3), min_size=1, max_size=60),
)
def test_remaining_budget_check_matches_a_ledger_scan(budgets, wear, order):
    """The int64 ``ceil(budget) - ledger <= 0`` check kills exactly the
    PEs a from-scratch ``ledger >= budget`` scan does: at the same
    completion, at the same time, at the same coordinates."""
    profiles = [
        WorkloadProfile(f"w{i}", np.array(counts).reshape(SHAPE), cycles=1000)
        for i, counts in enumerate(wear)
    ]
    device = FleetDevice(
        0,
        ACCELERATOR,
        budgets=EnduranceBudgets(budgets),
        queue_limit=len(order),
        min_alive_fraction=1e-9,
        mode="serve-degraded-approx",
    )
    ledger = np.zeros(SHAPE, dtype=np.int64)
    dead = np.zeros(SHAPE, dtype=bool)
    for step, pick in enumerate(order):
        if not device.alive:
            break
        profile = profiles[pick % len(profiles)]
        device.admit(step, profile.workload, profile, now=float(step))
        _, _, _, deaths = device.finish(step + 0.5)
        ledger += profile.counts
        crossed = (ledger >= budgets) & ~dead
        dead |= crossed
        rows, cols = np.nonzero(crossed)
        expected = [(step + 0.5, u, v) for v, u in zip(rows.tolist(), cols.tolist())]
        assert [(d.time_s, d.u, d.v) for d in deaths] == expected
        assert np.array_equal(device.faults.dead_mask, dead)
    assert np.array_equal(device.ledger, ledger)
