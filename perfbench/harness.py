"""Process plumbing shared by the workloads: launching the program's
commands, reading their address lines, and measuring wall time and peak RSS.

Every program process is started from the checkout's ``src/`` with a
clean environment (no ``REPRO_*`` overrides), so only the arguments the
benchmark passes decide what runs.
"""

from __future__ import annotations

import os
import pathlib
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for CSVs, journals, stores and spans (git-ignored).
WORK = ROOT / ".perfbench-work"

#: Seconds to wait for a program process to print its address line.
STARTUP_TIMEOUT = 60.0
#: Seconds to wait for a process to exit after SIGINT before killing it.
STOP_TIMEOUT = 20.0


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (program missing or broken)."""


def program_env(trace_dir: Optional[pathlib.Path] = None) -> Dict[str, str]:
    """Environment for a program process: checkout ``src`` first, no overrides."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.pop("PYTHONPATH", None)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    env.pop("PERFBENCH_TRACE_DIR", None)
    if trace_dir is not None:
        env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
    return env


def cli(args: Sequence[str], traced: bool = False) -> List[str]:
    """``repro-experiment ARGS`` as an argv, optionally under the tracer."""
    module = "perfbench.traced_cli" if traced else "repro.experiments.cli"
    return [sys.executable, "-m", module, *args]


class Program:
    """One running program process whose peak RSS is read when it exits.

    Processes are reaped with ``wait4`` (never through ``Popen.poll``),
    because only the reaping call reports the child's peak RSS.
    """

    _serial = 0

    def __init__(self, argv: Sequence[str], trace_dir: Optional[pathlib.Path] = None,
                 capture: bool = True) -> None:
        Program._serial += 1
        logs = WORK / "logs"
        logs.mkdir(parents=True, exist_ok=True)
        self.stderr_path = logs / f"{os.getpid()}-{Program._serial}.err"
        self.argv = list(argv)
        with open(self.stderr_path, "wb") as err:
            self.started = time.perf_counter()
            self.proc = subprocess.Popen(
                self.argv,
                cwd=ROOT,
                env=program_env(trace_dir),
                stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE if capture else subprocess.DEVNULL,
                stderr=err,
            )
        self.lines: List[str] = []
        self.returncode: Optional[int] = None
        self.peak_rss_mb = 0.0
        self.ended = 0.0

    @property
    def wall(self) -> float:
        """Seconds from launch to exit."""
        return self.ended - self.started

    def read_value(self, prefix: str, timeout: float = STARTUP_TIMEOUT) -> str:
        """Block until a stdout line starts with ``prefix``; return the rest."""
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        buffer = b""
        while True:
            for line in self.lines:
                if line.startswith(prefix):
                    return line[len(prefix):].strip()
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self.stop()
                raise BenchError(f"no {prefix!r} line within {timeout:.0f}s")
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(fd, 4096)
            if not chunk:
                self.stop()
                raise BenchError(
                    f"{self.describe()} exited ({self.returncode}) before "
                    f"printing {prefix!r}: {self.stderr_tail()}"
                )
            buffer += chunk
            *complete, buffer = buffer.split(b"\n")
            self.lines.extend(part.decode("utf-8", "replace") for part in complete)

    def _reap(self, block: bool) -> bool:
        if self.returncode is not None:
            return True
        pid, status, usage = os.wait4(self.proc.pid, 0 if block else os.WNOHANG)
        if pid == 0:
            return False
        self.ended = time.perf_counter()
        self.returncode = os.waitstatus_to_exitcode(status)
        self.proc.returncode = self.returncode
        # Linux reports ru_maxrss in KiB: the largest RSS of the process
        # and of every descendant it waited for (pool workers included).
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        return True

    def _kill(self, sig: int) -> None:
        try:
            os.kill(self.proc.pid, sig)
        except ProcessLookupError:
            pass

    def wait(self, timeout: float) -> int:
        """Reap the process, killing it first if it outlives ``timeout``."""
        timer = threading.Timer(timeout, self._kill, (signal.SIGKILL,))
        timer.start()
        try:
            self._reap(block=True)
        finally:
            timer.cancel()
        self.close()
        return self.returncode

    def stop(self) -> int:
        """SIGINT (the program's clean shutdown path), then reap; kill if stuck."""
        if self.returncode is None:
            self._kill(signal.SIGINT)
            deadline = time.monotonic() + STOP_TIMEOUT
            while not self._reap(block=False):
                if time.monotonic() > deadline:
                    self._kill(signal.SIGKILL)
                    self._reap(block=True)
                    break
                time.sleep(0.02)
        self.close()
        return self.returncode

    def describe(self) -> str:
        return " ".join(self.argv[3:5])

    def stderr_tail(self, limit: int = 2000) -> str:
        try:
            return self.stderr_path.read_text(errors="replace")[-limit:]
        except OSError:
            return ""

    def close(self) -> None:
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def run_to_end(argv: Sequence[str], trace_dir: Optional[pathlib.Path] = None,
               timeout: float = 170.0) -> Program:
    """Run a command to completion; raises :class:`BenchError` on a non-zero exit."""
    program = Program(argv, trace_dir=trace_dir, capture=False)
    code = program.wait(timeout)
    if code != 0:
        raise BenchError(f"{program.describe()} exited {code}: {program.stderr_tail()}")
    return program


def fresh_dir(name: str) -> pathlib.Path:
    """An empty directory under :data:`WORK`."""
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def dir_bytes(path: pathlib.Path) -> int:
    """Total size of the regular files under ``path``."""
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def cpu_times() -> Optional[List[int]]:
    """System-wide CPU jiffies from ``/proc/stat`` (user ... steal), if readable."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return [int(x) for x in fields[1:9]]


def steal_share(before: Optional[List[int]], after: Optional[List[int]]) -> Optional[float]:
    """Share of CPU time the hypervisor took away between two :func:`cpu_times`.

    On a shared virtual machine this is the main source of run-to-run
    noise, so every run reports it next to its figures.
    """
    if before is None or after is None:
        return None
    delta = [b - a for a, b in zip(before, after)]
    busy = sum(delta) - delta[3] - delta[4]  # minus idle and iowait
    return delta[7] / busy if busy > 0 else 0.0


def environment(seed: int) -> Dict[str, object]:
    """What a reader needs to compare two runs: machine, versions, revision, seed."""
    try:
        from importlib.metadata import version

        numpy_version = version("numpy")
    except Exception:  # noqa: BLE001 - recorded, not required
        numpy_version = "(unknown)"
    revision = os.environ.get("REPRO_GIT_REVISION") or "(unknown)"
    if shutil.which("git") and (ROOT / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "git_revision": revision,
        "seed": seed,
    }
