"""Bit-for-bit pins of the traffic generators' request streams.

:func:`~repro.fleet.traffic.poisson_requests` and
:func:`~repro.fleet.traffic.bursty_requests` feed every fleet study, so
a stream that moves by one bit moves every fleet result. How a stream
is drawn and stored is tuned for speed; these tests hash its columns
(arrival times by exact ``repr``, workload names, SLO classes) and
compare the SHA-256 against digests recorded before the generators were
vectorized.

The cases cover several seeds (plain integers and spawned
:class:`~numpy.random.SeedSequence` children, as the studies pass),
rates, and mixes with and without SLO classes. Every bursty case ends
inside a burst (checked when the digests were recorded), so the
truncated final burst is pinned too.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.accuracy.slo import SLOClass
from repro.fleet.traffic import WorkloadMix, bursty_requests, poisson_requests

MIXES = {
    "skewed": WorkloadMix.default_skewed(),
    "three-slo": WorkloadMix(
        (("SqueezeNet", 5.0), ("ResNet-50", 2.0), ("ViT", 1.0)),
        slos=(
            ("SqueezeNet", SLOClass.tolerant(0.12)),
            ("ViT", SLOClass.tolerant(0.3)),
        ),
    ),
    "single": WorkloadMix.uniform(["Llama v2"]),
}


def _seed(seed):
    """An integer seed, or ``("spawned", n)`` for the first child of ``n``."""
    if isinstance(seed, tuple):
        return np.random.SeedSequence(seed[1]).spawn(2)[0]
    return seed


#: (kind, num_requests, rate_rps, mix, seed, burst_mean) -> digest.
STREAM_DIGESTS = {
    ("poisson", 500, 5.0, "skewed", 0, None): (
        "0cca12be3a71a5b7b11fcf68b772f5ee480433575f911be3606d543963ec4998"
    ),
    ("poisson", 500, 1000.0, "three-slo", 2025, None): (
        "38a7784717a14bebb38bcdf54a35a8c30ae8fa8b5913d4b931631a70c7daa1a3"
    ),
    ("poisson", 1, 12.5, "single", 7, None): (
        "5f8422244f8f984a604924109b2043f8d618b904b7ebfa28451816c96e9672fb"
    ),
    ("poisson", 1600, 40.0, "skewed", ("spawned", 413), None): (
        "9b5d24e7dc6b4e801d6ee9214205a67a5175c4681b6488f1051af38b33d8b0aa"
    ),
    ("bursty", 500, 5.0, "skewed", 0, 8.0): (
        "deb6e5411c2935d7cb871c5e6c776d361cf3cf6c9b16c2c2ff06e0706a0262fc"
    ),
    ("bursty", 500, 1000.0, "three-slo", 2025, 8.0): (
        "8345658c224ccbae47239a4b56cd27114edce256ae9d2390ca8a645ceaab9a09"
    ),
    ("bursty", 1, 12.5, "single", 7, 8.0): (
        "e12bdcab222a6f1522ce2d7e974b1edb80f5208f67478a871aabd88b2cfb4c5f"
    ),
    ("bursty", 37, 20.0, "three-slo", 11, 40.0): (
        "b7f566cc533dc2dda1fa342b1ff0ae499d286a252c7336512c356f3821a116f4"
    ),
    ("bursty", 301, 3.0, "skewed", 5, 1.0): (
        "67f92374c60d3acdd4d37404cb072863581455d8b37d096ccf81df1b835380ac"
    ),
    ("bursty", 1600, 40.0, "skewed", ("spawned", 413), 8.0): (
        "d77a26846064e702dca68946aff69bd6c7b275c69ce12be8b3ea5a5f360e3bb9"
    ),
}


def stream(case):
    kind, num_requests, rate_rps, mix, seed, burst_mean = case
    if kind == "poisson":
        return poisson_requests(num_requests, rate_rps, MIXES[mix], seed=_seed(seed))
    return bursty_requests(
        num_requests, rate_rps, MIXES[mix], seed=_seed(seed), burst_mean=burst_mean
    )


def digest(requests) -> str:
    """SHA-256 of a request stream's columns as canonical JSON."""
    columns = {
        "index": [request.index for request in requests],
        "arrival_s": [request.arrival_s for request in requests],
        "workload": [request.workload for request in requests],
        "slo": [[request.slo.name, request.slo.max_loss] for request in requests],
    }
    text = json.dumps(columns, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "case", list(STREAM_DIGESTS), ids=lambda case: "-".join(map(str, case))
)
def test_stream_is_pinned(case):
    requests = stream(case)
    assert len(requests) == case[1]
    assert digest(requests) == STREAM_DIGESTS[case]
