"""Span tracing for the benchmark's traced run (nothing under ``src/``).

This directory goes first on ``PYTHONPATH`` of the traced gateway only,
so the gateway process and every spawn worker import this module at
start-up. When ``PERFBENCH_TRACE_DIR`` is set it installs an import hook
that, right after each target module finishes executing, wraps the
public entry point of one layer in a timed span. Wrapping at that moment
means later ``from module import name`` statements bind the wrapper.

Spans nest on a thread-local stack: a span's self time is its duration
minus the time of the spans it directly contains. A layer re-entered
while already open is not counted twice. Totals are kept per phase:
an outermost span that starts after the benchmark creates
``<trace dir>/window`` counts toward ``window``, earlier ones toward
``setup``. Per-process totals are written to ``<trace dir>/<pid>.json``
whenever an outermost span closes (at most every 0.25 s) and at exit;
the benchmark merges them at teardown.
"""

from __future__ import annotations

import atexit
import functools
import importlib.abc
import importlib.machinery
import json
import os
import sys
import threading
import time

_DIR = os.environ.get("PERFBENCH_TRACE_DIR")
_local = threading.local()
#: phase -> {"root": [outermost spans, their seconds],
#:           "spans": {name: [calls, total s, self s, work units]}}
_PHASES: dict = {}
_last_flush = [0.0]


def _flush() -> None:
    if not _PHASES:
        return
    path = os.path.join(_DIR, f"{os.getpid()}.json")
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(_PHASES, handle)
    os.replace(tmp, path)


def _phase() -> dict:
    name = "window" if os.path.exists(os.path.join(_DIR, "window")) else "setup"
    phase = _PHASES.get(name)
    if phase is None:
        phase = _PHASES[name] = {"root": [0, 0.0], "spans": {}}
    return phase


def _span(name, fn, units=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = getattr(_local, "stack", None)
        if stack is None:
            stack = _local.stack = []
        for frame in stack:
            if frame[0] == name:
                return fn(*args, **kwargs)
        # frame: name, start, time in child spans, phase totals
        frame = [name, time.perf_counter(), 0.0, stack[0][3] if stack else _phase()]
        stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - frame[1]
            stack.pop()
            phase = frame[3]
            stats = phase["spans"].setdefault(name, [0, 0.0, 0.0, 0])
            stats[0] += 1
            stats[1] += duration
            stats[2] += duration - frame[2]
            if stack:
                stack[-1][2] += duration
            else:
                phase["root"][0] += 1
                phase["root"][1] += duration
        if units is not None:
            stats[3] += units(args, kwargs, result)
        if not stack and time.perf_counter() - _last_flush[0] > 0.25:
            _last_flush[0] = time.perf_counter()
            _flush()
        return result

    return wrapper


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _engine_tiles(args, kwargs, result):
    streams = _arg(args, kwargs, 1, "streams", ())
    iterations = getattr(result, "iterations", None)
    if iterations is None:
        iterations = _arg(args, kwargs, 2, "iterations", 1)
    return iterations * sum(stream.num_tiles for stream in streams)


def _fleet_requests(args, kwargs, result):
    return len(_arg(args, kwargs, 1, "requests", ()))


def _wrap_method(cls, attr, name, units=None):
    setattr(cls, attr, _span(name, cls.__dict__[attr], units))


def _wrap_function(module, attr, name, units=None):
    setattr(module, attr, _span(name, getattr(module, attr), units))


def _dispatch(module):
    for value in list(vars(module).values()):
        if (
            isinstance(value, type)
            and issubclass(value, module.DispatchPolicy)
            and "select" in value.__dict__
            and not getattr(value.select, "__isabstractmethod__", False)
        ):
            _wrap_method(value, "select", "fleet.dispatch")


_PATCHES = {
    "repro.experiments.registry": lambda m: _wrap_function(
        m, "run_experiment", "experiments.registry"
    ),
    "repro.experiments.result": lambda m: _wrap_method(
        m.JsonResultMixin, "to_dict", "experiments.result.to_dict"
    ),
    "repro.runtime.cache": lambda m: (
        _wrap_method(m.ResultCache, "get", "runtime.cache.get"),
        _wrap_method(m.ResultCache, "put", "runtime.cache.put"),
    ),
    "repro.dataflow.scheduler": lambda m: (
        _wrap_method(m.Scheduler, "schedule_layer", "dataflow.scheduler"),
        _wrap_method(m.Scheduler, "schedule_network", "dataflow.scheduler"),
        # Default (greedy) mode searches inside the scheduler itself.
        _wrap_method(m.Scheduler, "_greedy_best", "dataflow.search"),
        _wrap_method(m.Scheduler, "_search_best", "dataflow.search"),
    ),
    "repro.dataflow.search": lambda m: _wrap_function(
        m, "search_layer", "dataflow.search"
    ),
    "repro.core.engine": lambda m: _wrap_method(
        m.WearLevelingEngine, "run", "core.engine", _engine_tiles
    ),
    "repro.fleet.simulate": lambda m: _wrap_function(
        m, "simulate_fleet", "fleet.simulate", _fleet_requests
    ),
    "repro.fleet.dispatch": _dispatch,
    "repro.fleet.device": lambda m: _wrap_function(
        m, "build_profiles", "fleet.device.build_profiles"
    ),
}


class _PatchingFinder(importlib.abc.MetaPathFinder):
    def find_spec(self, fullname, path, target=None):
        patch = _PATCHES.get(fullname)
        if patch is None:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path, target)
        if spec is None or spec.loader is None:
            return spec
        execute = spec.loader.exec_module

        def exec_module(module):
            execute(module)
            patch(module)

        spec.loader.exec_module = exec_module
        return spec


if _DIR:
    sys.meta_path.insert(0, _PatchingFinder())
    atexit.register(_flush)
