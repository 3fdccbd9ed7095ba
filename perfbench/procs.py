"""Gateway process lifecycle: launch, readiness, RSS, and teardown.

The gateway runs in its own session (so its own process group), and
every process it starts — spawn workers, the ``multiprocessing``
resource tracker — inherits a per-launch marker in its environment.
Teardown always runs the same three steps, whatever the exit path:

1. SIGTERM to the gateway and wait for its graceful drain;
2. SIGKILL to the whole process group;
3. a ``/proc`` scan for anything still alive that carries the marker or
   the group id. A survivor of step 3 is killed and fails the run.

The benchmark process also makes itself a child subreaper, so workers
orphaned by a killed gateway are re-parented to it (not to PID 1) and
reaped here instead of lingering as zombies.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import sys
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

MARKER_ENV = "PERFBENCH_RUN"
_PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> bool:
    """Adopt orphaned descendants (Linux); False where unsupported."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def reap_children() -> None:
    """Collect every exited child (including adopted orphans)."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _stat(pid: int) -> Optional[List[str]]:
    """Fields of /proc/<pid>/stat after the command name, or None."""
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return raw[raw.rfind(")") + 2 :].split()


def _has_marker(pid: int, marker: str, variable: str) -> bool:
    try:
        environ = Path(f"/proc/{pid}/environ").read_bytes()
    except OSError:
        return False
    return f"{variable}={marker}".encode() in environ.split(b"\0")


def find_processes(
    marker: str, pgid: Optional[int] = None, variable: str = MARKER_ENV
) -> List[int]:
    """Live (non-zombie) processes whose environment holds
    ``variable=marker``, or that are in process group ``pgid``."""
    found = []
    me = os.getpid()
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == me:
            continue
        pid = int(entry)
        fields = _stat(pid)
        if fields is None or fields[0] in ("Z", "X"):
            continue
        if (pgid is not None and int(fields[2]) == pgid) or _has_marker(
            pid, marker, variable
        ):
            found.append(pid)
    return found


def describe(pid: int) -> str:
    try:
        cmd = Path(f"/proc/{pid}/cmdline").read_bytes().replace(b"\0", b" ")
    except OSError:
        return f"{pid}"
    return f"{pid} {cmd.decode(errors='replace').strip()[:120]}"


class RssSampler:
    """Peak summed resident set size of one process group.

    Group membership is rescanned once a second; between rescans only
    the members' ``statm`` files are read, so sampling stays cheap.
    """

    def __init__(self, pgid: int) -> None:
        self.pgid = pgid
        self.peak_bytes = 0
        self._pids: List[int] = []
        self._scanned = 0.0
        self._page = os.sysconf("SC_PAGE_SIZE")

    def __call__(self) -> None:
        now = time.monotonic()
        if now - self._scanned > 1.0:
            self._pids = [
                int(entry)
                for entry in os.listdir("/proc")
                if entry.isdigit()
                and (_stat(int(entry)) or ["", "", "", "-1"])[2] == str(self.pgid)
            ]
            self._scanned = now
        total = 0
        for pid in self._pids:
            try:
                total += int(Path(f"/proc/{pid}/statm").read_text().split()[1])
            except (OSError, IndexError, ValueError):
                continue
        self.peak_bytes = max(self.peak_bytes, total * self._page)


@dataclass
class Teardown:
    """What the teardown saw; ``survivors`` non-empty fails the run."""

    drained: bool
    group_killed: List[str] = field(default_factory=list)
    survivors: List[str] = field(default_factory=list)


class Gateway:
    """One ``python -m repro gateway`` in its own process group."""

    def __init__(
        self,
        root: Path,
        workdir: Path,
        workers: int,
        result_cache: bool,
        traced: Optional[Path] = None,
    ) -> None:
        self.marker = uuid.uuid4().hex
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.cache_dir = workdir / "cache"
        env = dict(os.environ)
        pythonpath = [str(root / "src")]
        if traced is not None:
            pythonpath.insert(0, str(root / "perfbench" / "tracehook"))
            env["PERFBENCH_TRACE_DIR"] = str(traced)
        env.update(
            {
                MARKER_ENV: self.marker,
                "PYTHONPATH": os.pathsep.join(pythonpath),
                "REPRO_CACHE_DIR": str(self.cache_dir),
                "REPRO_JOBS": "1",
            }
        )
        args = [
            sys.executable, "-m", "repro", "gateway",
            "--port", "0", "--jobs", str(workers), "--start-method", "spawn",
        ]
        if result_cache:
            env.pop("REPRO_RESULT_CACHE", None)
            args += ["--cache-dir", str(workdir / "warm")]
        else:
            env["REPRO_RESULT_CACHE"] = "off"
        self._log = workdir / "gateway.log"
        with open(self._log, "wb") as log:
            self.process = subprocess.Popen(
                args,
                cwd=str(workdir),
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=subprocess.STDOUT,
                start_new_session=True,
            )
        self.pgid = self.process.pid
        self.port: Optional[int] = None
        self.report: Optional[Teardown] = None

    def wait_ready(self, timeout: float) -> int:
        """Block until the listening line appears; returns the port."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            text = self._log.read_text(errors="replace")
            marker = "listening on http://"
            if marker in text:
                line = text.split(marker, 1)[1].split()[0]
                self.port = int(line.rsplit(":", 1)[1])
                return self.port
            if self.process.poll() is not None:
                raise RuntimeError(f"gateway exited early:\n{text[-2000:]}")
            time.sleep(0.02)
        raise RuntimeError("gateway not ready in time")

    def kill_main(self) -> None:
        """SIGKILL only the gateway process (workers are orphaned)."""
        os.kill(self.process.pid, signal.SIGKILL)

    def teardown(self, drain_timeout: float = 20.0) -> Teardown:
        """SIGTERM and drain, kill the group, then scan for survivors.

        Idempotent: a second call returns the first call's report.
        """
        if self.report is None:
            self.report = self._teardown(drain_timeout)
        return self.report

    def _teardown(self, drain_timeout: float) -> Teardown:
        drained = False
        if self.process.poll() is None:
            try:
                self.process.send_signal(signal.SIGTERM)
                self.process.wait(timeout=drain_timeout)
                drained = True
            except subprocess.TimeoutExpired:
                pass
        # Give the resource tracker a moment to notice its parent left.
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline and find_processes(self.marker, self.pgid):
            reap_children()
            time.sleep(0.02)
        report = Teardown(drained=drained)
        report.group_killed = [
            describe(pid) for pid in find_processes(self.marker, self.pgid)
        ]
        try:
            os.killpg(self.pgid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        try:
            self.process.wait(timeout=5.0)
        except subprocess.TimeoutExpired:
            pass
        deadline = time.monotonic() + 3.0
        while time.monotonic() < deadline:
            reap_children()
            if not find_processes(self.marker, self.pgid):
                return report
            time.sleep(0.02)
        for pid in find_processes(self.marker, self.pgid):
            report.survivors.append(describe(pid))
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        time.sleep(0.1)
        reap_children()
        return report


def environment_record() -> Dict[str, object]:
    """Host facts recorded with every run (never used to normalise)."""
    import platform

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": [round(x, 2) for x in os.getloadavg()],
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def cpu_jiffies() -> Tuple[int, int]:
    """(steal, total) jiffies of the host CPUs so far, from /proc/stat."""
    fields = [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def calibration_ms() -> float:
    """Fixed calibration kernel: pure-Python loop plus numpy ops.

    The fastest of eleven timings, compared between the start and the end
    of a run, flags a noisy neighbour; it never rescales a metric.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    matrix = rng.random((160, 160))
    samples = []
    for _ in range(11):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        np.sort(rng.random(200_000))
        matrix @ matrix
        samples.append((time.perf_counter() - start) * 1000.0)
    return min(samples)
