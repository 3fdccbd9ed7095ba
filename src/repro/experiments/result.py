"""The experiment result contract: ``format()`` text + ``to_dict()`` JSON.

Every driver returns a frozen dataclass with the artifact's data series.
Historically those objects only knew how to print themselves
(``format()``); this module adds the structured half of the contract so
dashboards, regression trackers, and ``rota <cmd> --json`` can consume
results without scraping tables:

* :func:`to_jsonable` — one shared recursive converter (numpy arrays →
  lists, nested dataclasses → dicts, enums → values, paths → strings,
  engine traces → one dict per point);
* :class:`JsonResultMixin` — gives a result dataclass a ``to_dict()``
  built on that converter, tagged with the concrete result type;
* :class:`ExperimentResult` — the structural protocol the registry and
  the CLI program against.

The round-trip contract: ``json.loads(json.dumps(r.to_dict()))`` equals
``r.to_dict()`` for every registered experiment (covered by
``tests/experiments/test_registry.py``).
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from enum import Enum
from functools import lru_cache
from pathlib import PurePath
from typing import Any, Dict, Tuple

try:  # pragma: no cover - typing.Protocol is 3.8+; repo floor is 3.9
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[misc]
        return cls


__all__ = ["ExperimentResult", "JsonResultMixin", "to_jsonable"]


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
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Enum):
        return to_jsonable(value.value)
    if isinstance(value, PurePath):
        return str(value)
    # Numpy is imported lazily so this module stays cheap for `rota list`.
    type_name = type(value).__module__
    if type_name.startswith("numpy"):
        if hasattr(value, "tolist"):
            return value.tolist()
        return value.item()
    if is_dataclass(value) and not isinstance(value, type):
        return {
            name: to_jsonable(getattr(value, name))
            for name in _field_names(type(value))
        }
    if isinstance(value, dict):
        return {str(key): to_jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = list(value)
        if isinstance(value, (set, frozenset)):
            items.sort(key=repr)
        return [to_jsonable(item) for item in items]
    from repro.core.engine import Trace, TracePoint

    if isinstance(value, Trace):
        # The columns are already plain ints/floats/strs: one zip pass.
        names = _field_names(TracePoint)
        return [dict(zip(names, row)) for row in zip(*value.columns())]
    raise TypeError(
        f"cannot convert {type(value).__name__} to JSON-safe data; "
        f"experiment results must be built from plain data"
    )


class JsonResultMixin:
    """Adds the structured half of the result contract to a dataclass.

    ``to_dict()`` recurses through every field with :func:`to_jsonable`
    and tags the payload with the concrete result type under
    ``"result"``, so mixed JSON streams stay self-describing.
    """

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict of every field (numpy arrays become lists)."""
        if not is_dataclass(self):
            raise TypeError(
                f"{type(self).__name__} must be a dataclass to use "
                f"JsonResultMixin"
            )
        payload: Dict[str, Any] = {"result": type(self).__name__}
        for name in _field_names(type(self)):
            payload[name] = to_jsonable(getattr(self, name))
        return payload


@runtime_checkable
class ExperimentResult(Protocol):
    """What the registry, CLI, and report writer require of a result."""

    def format(self) -> str:
        """Human-readable text (the paper-style rows)."""
        ...

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe structured payload."""
        ...
