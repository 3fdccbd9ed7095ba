"""Bit-for-bit pins of the Fig. 6/7 trace payloads.

The engine's per-iteration traces feed the ``usage-diff`` (Fig. 6) and
``projection`` (Fig. 7) results, their ``--json`` payloads and the CSV
export. How a trace is stored and serialized is tuned for speed, and
tuning must never move a byte. These tests hash canonical JSON of
``run_experiment(...).result.to_dict()`` and the bytes of
:func:`~repro.analysis.export.trace_to_csv`, and compare the SHA-256
against digests recorded before the trace representation changed.

950 iterations run well past every orbit's closing, so those payloads
cover both the replayed prefix and the folded remainder of the analytic
engine for all three schemes; at 20 iterations RWL+RO (a 21-iteration
orbit on these networks) is still replaying its prefix.

Floats are hashed by their exact ``repr`` with one exception: Fig. 7's
relative lifetime runs a vectorized ``power``/``sum`` whose last bit
depends on the host's SIMD path, so it is rounded to nine significant
digits. Its input snapshots are pinned exactly through ``r_diff``.
"""

import hashlib
import json

import pytest

from repro.analysis.export import trace_to_csv
from repro.experiments.registry import run_experiment


def _canonical(value, key=""):
    """Plain data with relative-lifetime floats rounded (see module doc)."""
    if isinstance(value, dict):
        return {name: _canonical(item, name) for name, item in value.items()}
    if isinstance(value, list):
        return [_canonical(item, key) for item in value]
    if isinstance(value, float) and key == "relative_lifetime":
        return float(f"{value:.9g}")
    return value


def digest(payload) -> str:
    """SHA-256 of the canonical JSON of a ``to_dict()`` payload."""
    text = json.dumps(_canonical(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


#: (spec id, network, iterations) -> digest of ``result.to_dict()``.
PAYLOAD_DIGESTS = {
    ("usage-diff", "ViT", 20): (
        "69f9e06c1e94714c74b2bda5e26c6aaebd3e4170583e7753ce0a7eaade611870"
    ),
    ("usage-diff", "ViT", 950): (
        "4ba22d6c8111d619b40eeb36e641d9735217922874430fe4582546e475747c49"
    ),
    ("usage-diff", "Llama v2", 20): (
        "70201f94d20de9a31be9f2a580206f9e8ffab113d426dbb7c3ca6d41e6e1adff"
    ),
    ("usage-diff", "Llama v2", 950): (
        "62574fc635ed62f96dfdbbf4ada12564c850757ba0a0a7cf5f85fff43e0f2a06"
    ),
    ("projection", "ViT", 190): (
        "405226c64f0bd924b61f6e913ad69728070fb48305b2bb2acd58467ea03b1717"
    ),
    ("projection", "Llama v2", 190): (
        "772e004d767904238113225c653595421d5e7ac07dad38ea44c089d3d45f8b4a"
    ),
}

#: Digest of the CSV export of ViT's 950-iteration RWL+RO trace.
CSV_DIGEST = (
    "c19b49142536fb213349b94ae2c9319293556a473a3cd4fe77143b496af8b550"
)


@pytest.mark.parametrize(
    "case", sorted(PAYLOAD_DIGESTS), ids=lambda case: "-".join(map(str, case))
)
def test_payload_is_pinned(case):
    spec_id, network, iterations = case
    run = run_experiment(spec_id, network=network, iterations=iterations, jobs=1)
    assert digest(run.result.to_dict()) == PAYLOAD_DIGESTS[case]


def test_trace_csv_is_pinned(tmp_path):
    run = run_experiment("usage-diff", network="ViT", iterations=950, jobs=1)
    path = trace_to_csv(run.result.results["rwl+ro"], tmp_path / "trace.csv")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CSV_DIGEST
