"""CSV and JSON export of experiment results.

Every figure driver produces structured rows; these helpers serialize
them (and raw engine traces) to CSV — and arbitrary result payloads to
JSON — so downstream users can re-plot the reproduction's data with
their own tooling. Only the standard library's ``csv`` and ``json``
modules are used; files are written atomically via a temp file.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np

from repro.core.engine import RunResult
from repro.errors import SimulationError


def write_csv(path, headers: Sequence[str], rows: Iterable[Sequence]) -> Path:
    """Write rows to ``path`` atomically and return the resolved path."""
    if not headers:
        raise SimulationError("CSV export needs at least one column")
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    materialized = [tuple(row) for row in rows]
    for index, row in enumerate(materialized):
        if len(row) != len(headers):
            raise SimulationError(
                f"CSV row {index} has {len(row)} cells, expected {len(headers)}"
            )
    handle, temp_name = tempfile.mkstemp(
        dir=str(target.parent), suffix=".csv.tmp", text=True
    )
    try:
        with os.fdopen(handle, "w", newline="") as stream:
            writer = csv.writer(stream)
            writer.writerow(headers)
            writer.writerows(materialized)
        os.replace(temp_name, target)
    except BaseException:
        if os.path.exists(temp_name):
            os.unlink(temp_name)
        raise
    return target.resolve()


def trace_to_csv(result: RunResult, path) -> Path:
    """Export an engine run's per-iteration imbalance trace."""
    if not result.trace:
        raise SimulationError(
            "run has no trace; rerun the engine with record_trace=True"
        )
    headers = (
        "iteration",
        "tiles_seen",
        "max_usage",
        "min_usage",
        "max_difference",
        "r_diff",
    )
    # Every column but ``layer``, in header order.
    rows = zip(*result.trace.columns()[: len(headers)])
    return write_csv(path, headers, rows)


def counts_to_csv(counts: np.ndarray, path) -> Path:
    """Export a usage heatmap as ``(row, col, usage)`` triples."""
    array = np.asarray(counts)
    if array.ndim != 2:
        raise SimulationError(f"usage export needs a 2-D array, got {array.shape}")
    rows = [
        (row, col, int(array[row, col]))
        for row in range(array.shape[0])
        for col in range(array.shape[1])
    ]
    return write_csv(path, ("row", "col", "usage"), rows)


def write_json(path, payload: Any) -> Path:
    """Write a JSON-safe payload to ``path`` atomically.

    ``payload`` must already be plain data — run experiment results
    through :func:`repro.experiments.result.to_jsonable` first. Output
    is deterministic (sorted keys, two-space indent, trailing newline).
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    handle, temp_name = tempfile.mkstemp(
        dir=str(target.parent), suffix=".json.tmp", text=True
    )
    try:
        with os.fdopen(handle, "w") as stream:
            json.dump(payload, stream, indent=2, sort_keys=True)
            stream.write("\n")
        os.replace(temp_name, target)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise
    return target.resolve()
