"""Shared fixtures for the gateway tests."""

import pytest

from repro.core import engine as engine_module


@pytest.fixture(autouse=True)
def cold_orbit_records():
    """Start ``fork`` workers as cold as spawned ones.

    A forked worker inherits this process's engine orbit records, and
    with them warm a ``lifetime`` run takes ~10 ms instead of ~250 ms.
    Tests that time out, kill or coalesce onto a running job need it
    to run as long as it does with no tests before it.
    """
    engine_module._ORBIT_RECORDS.clear()
