"""Output correctness: every served result against an in-process reference.

The reference for a request is ``run_experiment(...).result.to_dict()``
with the same validated parameters, computed in this process outside
the timed window. Both sides are reduced to a SHA-256 over canonical
JSON (sorted keys, no whitespace), so a served body matches only when
every simulated statistic is identical.

``results_digest`` folds the (request, result digest) pairs of every
distinct request a run sent. Closed-loop runs send every catalog entry
in set-up and open-loop runs send their whole schedule, so the digest
depends only on (workload, seed) and the simulator's outputs: a change
that only makes things faster must leave it unchanged.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, Iterable

from client import Outcome
from workloads import Request


def canonical_digest(value: Any) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def inspect(outcome: Outcome, body: bytes) -> None:
    """Reduce one run-detail body to the facts the report needs."""
    detail = json.loads(body)
    manifest = detail.get("manifest") or {}
    phases = {p["name"]: p["seconds"] for p in manifest.get("phases", [])}
    outcome.state = detail.get("state")
    outcome.facts = {
        "result_digest": (
            None if detail.get("result") is None else canonical_digest(detail["result"])
        ),
        "created_at": detail.get("created_at"),
        "started_at": detail.get("started_at"),
        "finished_at": detail.get("finished_at"),
        "cached": bool(detail.get("cached")),
        "coalesced": bool(detail.get("coalesced")),
        "run_started_at": manifest.get("started_at"),
        "wall_seconds": manifest.get("wall_seconds"),
        "import_seconds": phases.get("import"),
        "run_seconds": phases.get("run"),
    }
    if outcome.state != "done":
        error = detail.get("error") or {}
        outcome.error = f"run ended {outcome.state}: {error.get('message', '')}"


def references(root: Path, cache_dir: Path, requests: Iterable[Request]) -> Dict[str, str]:
    """Reference result digest per request key (in-process, serial).

    ``cache_dir`` is a set-up's ``REPRO_CACHE_DIR``, so the mapping
    search is read from the schedules the gateway already computed; the
    result cache is off, so every reference really runs.
    """
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    os.environ["REPRO_RESULT_CACHE"] = "off"
    os.environ["REPRO_JOBS"] = "1"
    import sys

    if str(root / "src") not in sys.path:
        sys.path.insert(0, str(root / "src"))
    from repro.experiments.registry import get_spec, run_experiment, validate_params

    digests = {}
    for request in requests:
        params = validate_params(get_spec(request.spec_id), request.body())
        run = run_experiment(request.spec_id, **params)
        # Round-trip through JSON exactly as the gateway's body does
        # (non-string keys become strings before canonical sorting).
        served_form = json.loads(json.dumps(run.result.to_dict()))
        digests[request.key] = canonical_digest(served_form)
    from repro.dataflow.scheduler import save_schedule_cache

    save_schedule_cache()
    return digests


def results_digest(pairs: Dict[str, str]) -> str:
    return canonical_digest(sorted(pairs.items()))
