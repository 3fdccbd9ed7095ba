"""The columnar engine trace behaves as a read-only sequence of points."""

import pickle
from dataclasses import asdict

import numpy as np
import pytest

from repro.core.engine import Trace, TracePoint, WearLevelingEngine
from repro.core.policies import make_policy
from repro.errors import SimulationError
from repro.experiments.result import to_jsonable
from repro.runtime.cache import ResultCache

from tests.conftest import make_stream


def traced_run(accelerator, iterations=30, **kwargs):
    streams = [make_stream("a", x=3, y=2, z=7), make_stream("b", x=5, y=4, z=3)]
    engine = WearLevelingEngine(accelerator, make_policy("rwl+ro"))
    return engine.run(streams, iterations=iterations, mode="analytic", **kwargs)


def point(iteration, high, low, layer=""):
    """The reference point: ``R_diff`` by Python's ``int / int``."""
    diff = high - low
    r_diff = 0.0 if diff == 0 else float("inf") if low == 0 else diff / low
    return TracePoint(iteration, 10 * iteration, high, low, diff, r_diff, layer)


@pytest.fixture
def points():
    return (point(1, 0, 0), point(2, 5, 0), point(3, 7, 3), point(4, 2**40 + 1, 3))


@pytest.fixture
def trace(points):
    return Trace(
        [p.iteration for p in points],
        [p.tiles_seen for p in points],
        [p.max_usage for p in points],
        [p.min_usage for p in points],
    )


class TestSequenceContract:
    def test_iteration_yields_the_reference_points(self, trace, points):
        assert tuple(trace) == points
        assert len(trace) == len(points)
        assert trace == points
        assert trace == list(points)

    def test_r_diff_cases_match_python_division(self, trace, points):
        assert trace.r_diff.tolist() == [p.r_diff for p in points]
        assert trace.r_diff[0] == 0.0 and trace.r_diff[1] == float("inf")

    def test_indexing_yields_plain_points(self, trace, points):
        assert trace[2] == points[2]
        assert trace[-1] == points[-1]
        assert type(trace[0].max_usage) is int
        assert type(trace[0].r_diff) is float
        with pytest.raises(IndexError):
            trace[len(points)]

    def test_slicing_yields_a_trace(self, trace, points):
        head = trace[:2]
        assert isinstance(head, Trace)
        assert head == points[:2]
        assert trace[1::2] == points[1::2]
        assert len(trace[5:]) == 0

    def test_equality_against_traces(self, trace, points):
        twin = Trace(
            trace.iteration, trace.tiles_seen, trace.max_usage, trace.min_usage
        )
        assert trace == twin
        assert trace != trace[:3]
        assert trace != Trace(
            trace.iteration, trace.tiles_seen, trace.max_usage + 1, trace.min_usage
        )
        labelled = Trace(
            trace.iteration,
            trace.tiles_seen,
            trace.max_usage,
            trace.min_usage,
            layer=["x"] * len(points),
        )
        assert trace != labelled
        assert trace != points[:3]
        assert trace != "not a trace"

    def test_empty_trace_is_falsy(self):
        assert not Trace()
        assert Trace() == ()
        assert to_jsonable(Trace()) == []

    def test_mismatched_columns_rejected(self):
        with pytest.raises(SimulationError):
            Trace([1, 2], [1], [1, 2], [0, 0])
        with pytest.raises(SimulationError):
            Trace([1], [1], [1], [0], layer=["a", "b"])


class TestReadOnly:
    def test_columns_and_attributes_are_frozen(self, trace):
        for name in Trace.__slots__:
            column = getattr(trace, name)
            if isinstance(column, np.ndarray):
                assert not column.flags.writeable
        with pytest.raises(ValueError):
            trace.max_usage[0] = 1
        with pytest.raises(AttributeError):
            trace.max_usage = np.zeros(4, dtype=np.int64)

    def test_caller_arrays_are_copied(self):
        high = np.array([3, 4], dtype=np.int64)
        trace = Trace([1, 2], [1, 2], high, [1, 1])
        high[0] = 99
        assert trace.max_usage.tolist() == [3, 4]
        assert high.flags.writeable


class TestSerialization:
    def test_to_jsonable_emits_point_dicts_in_field_order(self, trace, points):
        records = to_jsonable(trace)
        assert records == [asdict(p) for p in points]
        assert [list(record) for record in records] == [
            list(asdict(points[0]))
        ] * len(points)

    def test_pickle_round_trip(self, trace):
        restored = pickle.loads(pickle.dumps(trace))
        assert restored == trace
        assert tuple(restored) == tuple(trace)
        assert not restored.max_usage.flags.writeable

    def test_pickled_layer_trace_keeps_its_labels(self, small_torus):
        result = traced_run(small_torus, iterations=3, trace_granularity="layer")
        restored = pickle.loads(pickle.dumps(result))
        assert restored.trace == result.trace
        assert restored.trace.layer == ("a", "b") * 3

    def test_result_cache_round_trip(self, small_torus, tmp_path):
        result = traced_run(small_torus)
        cache = ResultCache(tmp_path, enabled=True)
        cache.put("traced", result)
        restored = cache.get("traced")
        assert restored is not None
        assert restored.trace == result.trace
        assert tuple(restored.trace) == tuple(result.trace)
        assert np.array_equal(restored.r_diff_trace(), result.r_diff_trace())


class TestRunResultColumns:
    def test_series_are_the_trace_columns(self, small_torus):
        result = traced_run(small_torus)
        assert result.max_difference_trace() is result.trace.max_difference
        assert result.r_diff_trace() is result.trace.r_diff
        assert result.max_difference_trace().dtype == np.int64
        assert result.r_diff_trace().dtype == np.float64
        assert result.trace[-1].max_difference == result.max_difference

    def test_untraced_run_has_an_empty_trace(self, small_torus):
        result = traced_run(small_torus, record_trace=False)
        assert len(result.trace) == 0
        assert result.max_difference_trace().size == 0
