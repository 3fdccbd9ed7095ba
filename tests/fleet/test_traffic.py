"""Tests for the seeded arrival-process generators."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.accuracy.slo import SLOClass
from repro.errors import ConfigurationError
from repro.fleet.traffic import (
    Request,
    Traffic,
    WorkloadMix,
    bursty_requests,
    make_traffic,
    poisson_requests,
    replay_requests,
)

MIX = WorkloadMix((("light", 3.0), ("heavy", 1.0)))


class TestWorkloadMix:
    def test_probabilities_normalize(self):
        assert MIX.probabilities.tolist() == [0.75, 0.25]
        assert MIX.names == ("light", "heavy")

    def test_uniform(self):
        mix = WorkloadMix.uniform(["a", "b"])
        assert mix.probabilities.tolist() == [0.5, 0.5]

    def test_default_skewed_mix_is_light_heavy(self):
        mix = WorkloadMix.default_skewed()
        assert mix.names == ("SqueezeNet", "ResNet-50")
        assert mix.probabilities[0] > mix.probabilities[1]

    def test_rejects_empty_and_bad_weights(self):
        with pytest.raises(ConfigurationError):
            WorkloadMix(())
        with pytest.raises(ConfigurationError):
            WorkloadMix((("a", 0.0),))
        with pytest.raises(ConfigurationError):
            WorkloadMix((("a", 1.0), ("a", 2.0)))


class TestPoisson:
    def test_deterministic_per_seed(self):
        a = poisson_requests(50, 10.0, MIX, seed=3)
        b = poisson_requests(50, 10.0, MIX, seed=3)
        c = poisson_requests(50, 10.0, MIX, seed=4)
        assert a == b
        assert a != c

    def test_arrivals_increase_and_index(self):
        requests = poisson_requests(30, 5.0, MIX, seed=1)
        arrivals = [r.arrival_s for r in requests]
        assert arrivals == sorted(arrivals)
        assert [r.index for r in requests] == list(range(30))

    def test_long_run_rate_roughly_matches(self):
        requests = poisson_requests(2000, 10.0, MIX, seed=7)
        realized = len(requests) / requests[-1].arrival_s
        assert realized == pytest.approx(10.0, rel=0.15)

    def test_mix_frequencies_follow_probabilities(self):
        requests = poisson_requests(2000, 10.0, MIX, seed=7)
        light = sum(1 for r in requests if r.workload == "light")
        assert light / len(requests) == pytest.approx(0.75, abs=0.05)

    def test_rejects_bad_shape(self):
        with pytest.raises(ConfigurationError):
            poisson_requests(0, 10.0, MIX)
        with pytest.raises(ConfigurationError):
            poisson_requests(10, 0.0, MIX)


class TestBursty:
    def test_deterministic_per_seed(self):
        a = bursty_requests(60, 10.0, MIX, seed=3)
        assert a == bursty_requests(60, 10.0, MIX, seed=3)
        assert a != bursty_requests(60, 10.0, MIX, seed=4)

    def test_bursts_carry_a_single_workload(self):
        """Consecutive same-burst requests share one workload, so the
        number of workload *switches* is far below the i.i.d. count."""
        requests = bursty_requests(400, 10.0, MIX, seed=5, burst_mean=10.0)
        switches = sum(
            1
            for earlier, later in zip(requests, requests[1:])
            if earlier.workload != later.workload
        )
        # i.i.d. draws would switch ~2*p*(1-p)=37.5% of the time.
        assert switches / len(requests) < 0.25

    def test_long_run_rate_roughly_matches(self):
        requests = bursty_requests(3000, 10.0, MIX, seed=9)
        realized = len(requests) / requests[-1].arrival_s
        assert realized == pytest.approx(10.0, rel=0.3)

    def test_rejects_bad_burst_parameters(self):
        with pytest.raises(ConfigurationError):
            bursty_requests(10, 1.0, MIX, burst_mean=0.5)
        with pytest.raises(ConfigurationError):
            bursty_requests(10, 1.0, MIX, burstiness=0.0)


class TestReplay:
    def test_wraps_trace(self):
        requests = replay_requests([(0.0, "a"), (1.5, "b"), (1.5, "a")])
        assert [r.workload for r in requests] == ["a", "b", "a"]
        assert [r.index for r in requests] == [0, 1, 2]

    def test_rejects_decreasing_or_empty(self):
        with pytest.raises(ConfigurationError):
            replay_requests([])
        with pytest.raises(ConfigurationError):
            replay_requests([(1.0, "a"), (0.5, "b")])
        with pytest.raises(ConfigurationError):
            replay_requests([(0.0, "")])


TOLERANT = SLOClass.tolerant(0.2)


class TestTraffic:
    """The columnar stream behaves as the tuple of requests it replaces."""

    def stream(self):
        return Traffic([0.5, 1.25, 3.0], ["a", "b", "a"], [TOLERANT, TOLERANT, TOLERANT])

    def rows(self):
        return (
            Request(0, 0.5, "a", TOLERANT),
            Request(1, 1.25, "b", TOLERANT),
            Request(2, 3.0, "a", TOLERANT),
        )

    def test_indexes_iterates_and_slices_as_rows(self):
        traffic, rows = self.stream(), self.rows()
        assert len(traffic) == 3
        assert tuple(traffic) == rows
        assert traffic[1] == rows[1] and traffic[-1] == rows[-1]
        assert traffic[1:] == rows[1:]  # a tuple, indices kept
        with pytest.raises(IndexError):
            traffic[3]

    def test_compares_equal_to_streams_and_row_sequences(self):
        traffic = self.stream()
        assert traffic == self.stream()
        assert traffic == self.rows() and traffic == list(self.rows())
        assert traffic != Traffic([0.5, 1.25, 3.0], ["a", "b", "a"])
        assert traffic != self.rows()[:2]

    def test_slo_defaults_to_exact(self):
        traffic = Traffic([0.0, 1.0], ["a", "b"])
        assert {request.slo for request in traffic} == {SLOClass.exact()}

    def test_is_read_only(self):
        traffic = self.stream()
        with pytest.raises(ValueError):
            traffic.arrival_s[0] = 9.0
        with pytest.raises(AttributeError):
            traffic.workload = ("c", "c", "c")

    def test_pickles_and_reads_back_from_rows(self):
        traffic = self.stream()
        clone = pickle.loads(pickle.dumps(traffic))
        assert clone == traffic
        assert not clone.arrival_s.flags.writeable
        assert Traffic.from_requests(self.rows()) == traffic

    def test_rejects_ragged_columns(self):
        with pytest.raises(ConfigurationError):
            Traffic([0.0, 1.0], ["a"])
        with pytest.raises(ConfigurationError):
            Traffic([0.0], ["a"], [TOLERANT, TOLERANT])

    def test_generators_return_columns(self):
        for traffic in (
            poisson_requests(5, 1.0, MIX, seed=1),
            bursty_requests(5, 1.0, MIX, seed=1),
            replay_requests([(0.0, "a")]),
        ):
            assert isinstance(traffic, Traffic)


class TestMakeTraffic:
    def test_dispatches_by_kind(self):
        seed = np.random.SeedSequence(3)
        poisson = make_traffic("poisson", 20, 5.0, mix=MIX, seed=seed)
        bursty = make_traffic("bursty", 20, 5.0, mix=MIX, seed=seed)
        assert len(poisson) == len(bursty) == 20
        assert poisson != bursty

    def test_defaults_to_skewed_mix(self):
        requests = make_traffic("poisson", 20, 5.0)
        assert {r.workload for r in requests} <= {"SqueezeNet", "ResNet-50"}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            make_traffic("fractal", 10, 1.0)


def reference_bursty_requests(
    num_requests, rate_rps, mix, seed, burst_mean=8.0, burstiness=4.0
):
    """The generator's loop as it was written with ``rng.choice``."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    names = mix.names
    probabilities = mix.probabilities
    slos = {name: mix.slo_for(name) for name in names}
    intra_gap_mean = 1.0 / (rate_rps * burstiness)
    idle_mean = max(
        burst_mean / rate_rps - (burst_mean - 1.0) * intra_gap_mean,
        1.0 / rate_rps,
    )
    requests = []
    clock = 0.0
    while len(requests) < num_requests:
        clock += rng.exponential(idle_mean)
        length = 1 + rng.geometric(1.0 / burst_mean)
        workload = names[rng.choice(len(names), p=probabilities)]
        for position in range(int(length)):
            if len(requests) >= num_requests:
                break
            if position:
                clock += rng.exponential(intra_gap_mean)
            requests.append(
                Request(
                    index=len(requests),
                    arrival_s=clock,
                    workload=workload,
                    slo=slos[workload],
                )
            )
    return tuple(requests)


mixes = st.lists(
    st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
    min_size=1,
    max_size=6,
).map(
    lambda weights: WorkloadMix(
        tuple((f"w{i}", weight) for i, weight in enumerate(weights)),
        slos=(("w0", SLOClass.tolerant(0.1)),),
    )
)


class TestBurstyDrawStream:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        mix=mixes,
        num_requests=st.integers(min_value=1, max_value=300),
        rate_rps=st.floats(min_value=0.1, max_value=1e4),
        burst_mean=st.floats(min_value=1.0, max_value=40.0),
    )
    def test_matches_the_rng_choice_loop(
        self, seed, mix, num_requests, rate_rps, burst_mean
    ):
        expected = reference_bursty_requests(
            num_requests, rate_rps, mix, seed, burst_mean=burst_mean
        )
        actual = bursty_requests(
            num_requests, rate_rps, mix, seed=seed, burst_mean=burst_mean
        )
        assert actual == expected
