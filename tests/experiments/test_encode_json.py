"""The wire encoder writes exactly what the C encoder writes.

:func:`~repro.experiments.result.encode_json` writes engine traces row
by row from their columns and splices already-encoded fragments in as
they are. Its output must equal ``json.dumps(to_jsonable(value),
sort_keys=True, separators=(",", ":")).encode()`` byte for byte: for
every registered experiment's result and manifest (see
``test_registry.py``), and here for any trace the columns can hold,
non-finite ratios, non-ASCII layer names, empty traces and int64
extremes included.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import Trace
from repro.experiments.result import EncodedJson, encode_json, to_jsonable

INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
RATIOS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("inf"), float("-inf"), float("nan"), 0.0, -0.0]),
)


def reference(value) -> bytes:
    return json.dumps(
        to_jsonable(value), sort_keys=True, separators=(",", ":")
    ).encode()


@st.composite
def traces(draw):
    size = draw(st.integers(min_value=0, max_value=12))
    ints = [draw(st.lists(INT64, min_size=size, max_size=size)) for _ in range(4)]
    layers = draw(
        st.one_of(
            st.none(),
            st.lists(
                st.sampled_from(["", "conv1", "blöck_3", "層", 'q"\\\n']) | st.text(),
                min_size=size,
                max_size=size,
            ),
        )
    )
    trace = Trace(*ints, layer=layers)
    if draw(st.booleans()):
        # r_diff is derived; overwrite it to reach every float spelling.
        ratios = np.array(draw(st.lists(RATIOS, min_size=size, max_size=size)))
        object.__setattr__(trace, "r_diff", ratios.astype(np.float64))
    return trace


@settings(max_examples=200, deadline=None)
@given(traces())
def test_trace_matches_the_c_encoder(trace):
    assert encode_json(trace) == reference(trace)


@settings(max_examples=50, deadline=None)
@given(traces(), st.dictionaries(st.text(), st.integers() | st.text(), max_size=3))
def test_containers_holding_traces_match(trace, plain):
    value = {"z": [trace, plain, 1.5], "a": {"trace": trace, **plain}, 3: None}
    assert encode_json(value) == reference(value)


def test_empty_trace_is_an_empty_array():
    assert encode_json(Trace()) == b"[]"


def test_fragments_are_spliced_as_they_are():
    fragment = encode_json({"b": [1, 2], "a": "x"})
    assert isinstance(fragment, EncodedJson)
    body = encode_json({"state": "done", "result": fragment, "n": [fragment]})
    assert body == (
        b'{"n":[{"a":"x","b":[1,2]}],"result":{"a":"x","b":[1,2]},'
        b'"state":"done"}'
    )
    assert json.loads(body)["result"] == {"a": "x", "b": [1, 2]}
