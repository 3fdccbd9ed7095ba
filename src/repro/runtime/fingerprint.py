"""Stable content hashing for cache keys.

The persistent result cache (:mod:`repro.runtime.cache`) and the
scheduler's on-disk cache address entries by *content*: a key is the
SHA-256 of a canonical tokenization of everything that determines the
result — accelerator configuration, scheduler options, tile streams,
policy, iteration count, and a cache schema version. Two processes (or
two machines) computing the same experiment therefore agree on the key
without any coordination, and any change to an input changes the key.

Tokenization is deliberately conservative: only plain data
(dataclasses, enums, numpy arrays, containers, primitives) is accepted,
and unknown objects raise instead of falling back to ``repr`` — a cache
key silently derived from an object's address would alias distinct
configurations.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields, is_dataclass
from enum import Enum
from typing import Any, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.runtime.memo import Memo

#: Bump whenever the semantics of cached results change (e.g. the engine
#: produces different counts for the same inputs). Part of every key, so
#: stale entries from older code miss instead of aliasing.
#: 3: RunManifest grew resilience counters and per-task retry flags.
#: 4: RunResult.trace became a columnar Trace instead of a tuple of
#: TracePoints.
#: 5: gateway warm-hit entries hold the result and manifest as encoded
#: JSON bytes instead of dicts.
CACHE_SCHEMA_VERSION = 5


def _tokenize(value: Any) -> Any:
    """Convert a value into a JSON-serializable canonical token."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        # repr round-trips doubles exactly; json would too, but keeping
        # the token a string sidesteps locale/precision ambiguity.
        return ["float", repr(value)]
    if isinstance(value, Enum):
        return ["enum", type(value).__name__, _tokenize(value.value)]
    if isinstance(value, np.ndarray):
        digest = hashlib.sha256(np.ascontiguousarray(value).tobytes()).hexdigest()
        return ["ndarray", str(value.dtype), list(value.shape), digest]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return ["float", repr(float(value))]
    if isinstance(value, bytes):
        return ["bytes", hashlib.sha256(value).hexdigest()]
    if isinstance(value, np.random.SeedSequence):
        # Checkpoint journals key Monte Carlo runs by their seed
        # sequence; entropy + spawn_key fully determine the stream.
        return [
            "seedseq",
            _tokenize(value.entropy),
            [_tokenize(part) for part in value.spawn_key],
            int(value.pool_size),
        ]
    if is_dataclass(value) and not isinstance(value, type):
        return [
            "dataclass",
            type(value).__name__,
            [[f.name, _tokenize(getattr(value, f.name))] for f in fields(value)],
        ]
    if isinstance(value, dict):
        items = [[_tokenize(k), _tokenize(v)] for k, v in value.items()]
        items.sort(key=lambda pair: json.dumps(pair[0], sort_keys=True))
        return ["dict", items]
    if isinstance(value, (list, tuple)):
        return ["seq", [_tokenize(item) for item in value]]
    if isinstance(value, (set, frozenset)):
        tokens = [_tokenize(item) for item in value]
        tokens.sort(key=lambda token: json.dumps(token, sort_keys=True))
        return ["set", tokens]
    raise ConfigurationError(
        f"cannot fingerprint object of type {type(value).__name__}; "
        f"pass plain data (dataclasses, enums, arrays, containers)"
    )


def content_hash(*parts: Any) -> str:
    """Stable SHA-256 content key of the given parts (hex, 40 chars).

    Identical inputs produce identical keys across processes, Python
    versions, and machines; any differing field produces a different
    key. Accepts dataclasses, enums, numpy arrays, dicts, sequences,
    sets, and primitives — anything else raises
    :class:`~repro.errors.ConfigurationError`.
    """
    payload = json.dumps(
        _tokenize(list(parts)), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:40]


#: Fingerprints by accelerator value (``Accelerator`` is a frozen,
#: hashable dataclass), so each distinct configuration is serialized and
#: hashed once per process.
_FINGERPRINTS = Memo()


def accelerator_fingerprint(accelerator) -> str:
    """Content key of a full accelerator configuration.

    Uses the serialization round-trip dict, so every hardware parameter
    (buffers, NoC, DRAM, clock, topology) participates — two
    accelerators with equal array dimensions but different buffer or NoC
    configurations hash differently. Memoized per distinct value: equal
    accelerators share one fingerprint.
    """
    from repro.arch.serialize import accelerator_to_dict

    return _FINGERPRINTS.get_or_build(
        accelerator,
        lambda: content_hash("accelerator", accelerator_to_dict(accelerator)),
    )


def seed_sequence(seed: Union[int, np.random.SeedSequence]) -> np.random.SeedSequence:
    """A fresh :class:`numpy.random.SeedSequence` from a seed's identity.

    A passed-in sequence is rebuilt from its ``(entropy, spawn_key)``
    rather than used as is: ``spawn()`` advances the caller's child
    counter, so spawning from the caller's object would make a second
    call with the same object (the common-random-numbers brackets share
    one) draw different children, and make results depend on call order.
    """
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(entropy=seed.entropy, spawn_key=seed.spawn_key)
    return np.random.SeedSequence(seed)
