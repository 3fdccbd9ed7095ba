"""The experiment result contract: ``format()`` text + ``to_dict()`` JSON.

Every driver returns a frozen dataclass with the artifact's data series.
Historically those objects only knew how to print themselves
(``format()``); this module adds the structured half of the contract so
dashboards, regression trackers, and ``rota <cmd> --json`` can consume
results without scraping tables:

* :func:`to_jsonable` — one shared recursive converter (numpy arrays →
  lists, nested dataclasses → dicts, enums → values, paths → strings,
  engine traces → one dict per point);
* :func:`encode_json` — the wire encoder: the compact, key-sorted JSON
  bytes of the same data, with engine traces written straight from
  their columns and already-encoded :class:`EncodedJson` fragments
  spliced in as they are;
* :class:`JsonResultMixin` — gives a result dataclass a ``to_dict()``
  built on that converter, tagged with the concrete result type;
* :class:`ExperimentResult` — the structural protocol the registry and
  the CLI program against.

The round-trip contract: ``json.loads(json.dumps(r.to_dict()))`` equals
``r.to_dict()`` for every registered experiment, and ``encode_json(r)``
is byte-identical to ``json.dumps(r.to_dict(), sort_keys=True,
separators=(",", ":")).encode()`` (both covered by
``tests/experiments/test_registry.py``).
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from enum import Enum
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from pathlib import PurePath
from typing import Any, Dict, Iterable, List, Tuple

try:  # pragma: no cover - typing.Protocol is 3.8+; repo floor is 3.9
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[misc]
        return cls


__all__ = [
    "EncodedJson",
    "ExperimentResult",
    "JsonResultMixin",
    "encode_json",
    "to_jsonable",
]


class EncodedJson(bytes):
    """Bytes that already are the wire JSON of one value.

    :func:`encode_json` returns one, and splices any it meets inside the
    value it encodes as they are, so a result encoded once (in a pool
    worker) travels to the HTTP body and the warm-result cache without
    being decoded or encoded again.
    """

    __slots__ = ()


#: The C encoder, configured as the wire format: compact, sorted keys.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

#: ``float.__repr__`` spellings of the non-finite values, and JSON's.
_NON_FINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


@lru_cache(maxsize=None)
def _field_names(cls: type) -> Tuple[str, ...]:
    """A dataclass's field names, looked up once per class."""
    return tuple(field_.name for field_ in fields(cls))


def to_jsonable(value: Any) -> Any:
    """Convert a result value into JSON-serializable plain data.

    Handles the types experiment results are built from: primitives,
    numpy scalars/arrays (``tolist()``), enums (their values), paths
    (strings), dataclasses (field dicts, recursively), containers, and
    engine :class:`~repro.core.engine.Trace` columns (one
    :class:`~repro.core.engine.TracePoint` field dict per point).
    Dict keys become strings, as JSON requires. Anything else raises
    ``TypeError`` — a result holding an unconvertible object is a bug,
    not something to ``repr`` away silently.
    """
    return _convert(value, False)


def encode_json(value: Any) -> EncodedJson:
    """The wire JSON of ``value``, encoded once.

    Byte-identical to ``json.dumps(to_jsonable(value), sort_keys=True,
    separators=(",", ":")).encode()``; a result object encodes as its
    tagged :meth:`JsonResultMixin.to_dict` payload. Subtrees of plain
    data are converted as :func:`to_jsonable` converts them and go to
    the C encoder in one call each. Only the containers that hold an
    engine trace or an :class:`EncodedJson` fragment are written here:
    traces row by row from their columns, with no per-point dicts, and
    fragments unchanged.
    """
    if isinstance(value, JsonResultMixin):
        value = value._tagged_fields()
    converted = _convert(value, True)
    if isinstance(converted, EncodedJson):
        return converted
    return EncodedJson(_ENCODER.encode(converted).encode())


def _convert(value: Any, encode: bool) -> Any:
    """:func:`to_jsonable`; with ``encode``, traces and the containers
    holding them (or holding fragments) come back as :class:`EncodedJson`."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Enum):
        return _convert(value.value, encode)
    if isinstance(value, PurePath):
        return str(value)
    # Numpy is imported lazily so this module stays cheap for `rota list`.
    type_name = type(value).__module__
    if type_name.startswith("numpy"):
        if hasattr(value, "tolist"):
            return value.tolist()
        return value.item()
    if is_dataclass(value) and not isinstance(value, type):
        mapping = {
            name: _convert(getattr(value, name), encode)
            for name in _field_names(type(value))
        }
        return _splice_object(mapping) if encode else mapping
    if isinstance(value, dict):
        mapping = {
            str(key): _convert(item, encode) for key, item in value.items()
        }
        return _splice_object(mapping) if encode else mapping
    if isinstance(value, (list, tuple, set, frozenset)):
        items = list(value)
        if isinstance(value, (set, frozenset)):
            items.sort(key=repr)
        converted = [_convert(item, encode) for item in items]
        return _splice_array(converted) if encode else converted
    if encode and isinstance(value, EncodedJson):
        return value
    from repro.core.engine import Trace, TracePoint

    if isinstance(value, Trace):
        if encode:
            return _encode_trace(value)
        # The columns are already plain ints/floats/strs: one zip pass.
        names = _field_names(TracePoint)
        return [dict(zip(names, row)) for row in zip(*value.columns())]
    raise TypeError(
        f"cannot convert {type(value).__name__} to JSON-safe data; "
        f"experiment results must be built from plain data"
    )


def _encoded(value: Any) -> bytes:
    """One converted value as wire bytes (fragments as they are)."""
    if isinstance(value, EncodedJson):
        return value
    return _ENCODER.encode(value).encode()


def _splice_object(mapping: Dict[str, Any]) -> Any:
    """``mapping`` as is, or as bytes when a value is already bytes."""
    if EncodedJson not in map(type, mapping.values()):
        return mapping
    # Sorted as the C encoder sorts: the (key, value) pairs, by key.
    return EncodedJson(
        b"{"
        + b",".join(
            encode_basestring_ascii(key).encode() + b":" + _encoded(item)
            for key, item in sorted(mapping.items())
        )
        + b"}"
    )


def _splice_array(items: List[Any]) -> Any:
    """``items`` as is, or as bytes when an item is already bytes."""
    if EncodedJson not in map(type, items):
        return items
    return EncodedJson(b"[" + b",".join(map(_encoded, items)) + b"]")


def _encode_trace(trace: Any) -> EncodedJson:
    """A trace's wire JSON, one row per point, written from its columns.

    The same text the C encoder gives for the list of
    :class:`~repro.core.engine.TracePoint` field dicts: keys in sorted
    order, ints by ``int.__repr__``, floats by ``float.__repr__`` with
    JSON's spelling of the non-finite values, strings ASCII-escaped.
    """
    from repro.core.engine import TracePoint

    columns = dict(zip(_field_names(TracePoint), trace.columns()))
    columns["r_diff"] = _float_texts(columns["r_diff"])
    names = {name: encode_basestring_ascii(name) for name in set(trace.layer)}
    columns["layer"] = list(map(names.__getitem__, columns["layer"]))
    keys = sorted(columns)
    row = "{" + ",".join(f"{encode_basestring_ascii(key)}:%s" for key in keys) + "}"
    rows = ",".join([row % point for point in zip(*map(columns.get, keys))])
    return EncodedJson(f"[{rows}]".encode())


def _float_texts(values: Iterable[float]) -> List[str]:
    """JSON text of each float: ``repr``, or ``Infinity``/``-Infinity``/``NaN``."""
    texts = list(map(float.__repr__, values))
    if not _NON_FINITE.keys().isdisjoint(texts):
        texts = [_NON_FINITE.get(text, text) for text in texts]
    return texts


class JsonResultMixin:
    """Adds the structured half of the result contract to a dataclass.

    ``to_dict()`` recurses through every field with :func:`to_jsonable`
    and tags the payload with the concrete result type under
    ``"result"``, so mixed JSON streams stay self-describing;
    :func:`encode_json` gives the same payload as wire bytes.
    """

    def _tagged_fields(self) -> Dict[str, Any]:
        """The type tag plus every field's raw value."""
        if not is_dataclass(self):
            raise TypeError(
                f"{type(self).__name__} must be a dataclass to use "
                f"JsonResultMixin"
            )
        payload: Dict[str, Any] = {"result": type(self).__name__}
        for name in _field_names(type(self)):
            payload[name] = getattr(self, name)
        return payload

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict of every field (numpy arrays become lists)."""
        return to_jsonable(self._tagged_fields())


@runtime_checkable
class ExperimentResult(Protocol):
    """What the registry, CLI, and report writer require of a result."""

    def format(self) -> str:
        """Human-readable text (the paper-style rows)."""
        ...

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe structured payload."""
        ...
