"""Paths, child processes and small helpers shared by the benchmark scripts.

The benchmark always runs burnkit from the ``src/`` tree of the checkout
it lives in, never from an installed copy, so that it measures the code
beside it.
"""

from __future__ import annotations

import hashlib
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"


def work_dir(workload: str, scale: str) -> Path:
    """Where a workload's inputs and outputs live; toy runs keep to their own."""
    return WORK / (workload if scale == "full" else f"{workload}-{scale}")


class MissingSource(RuntimeError):
    """The checkout holds no burnkit sources to build and run."""


def use_source_tree() -> None:
    """Make ``import burnkit`` load the checkout's ``src/burnkit``."""
    if not (SRC / "burnkit" / "__init__.py").is_file():
        raise MissingSource(f"no burnkit sources under {SRC}")
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class ChildRun:
    """One finished child process: exit code, wall time and peak RSS."""

    code: int
    seconds: float
    rss_mb: float
    timed_out: bool
    stdout_path: Path
    stderr_path: Path

    def stdout(self) -> bytes:
        return self.stdout_path.read_bytes()

    def stderr(self) -> str:
        return self.stderr_path.read_text(errors="replace")


class _Alarm(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Alarm


def run_child(argv: list[str], cwd: Path, stem: str, timeout: int) -> ChildRun:
    """Run ``argv`` in ``cwd`` with stdout and stderr sent to files.

    The wall time spans process start to exit.  Peak RSS comes from the
    rusage that ``wait4`` returns for this child alone, so earlier
    children (set-up, checks) never leak into it.  A child that outlives
    ``timeout`` seconds is killed and reported as timed out.
    """
    out_path = cwd / f"{stem}.stdout"
    err_path = cwd / f"{stem}.stderr"
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    timed_out = False
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err, env=child_env())
        try:
            signal.alarm(timeout)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.alarm(0)
        except _Alarm:
            timed_out = True
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.signal(signal.SIGALRM, previous)
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(
        code=proc.returncode,
        seconds=seconds,
        rss_mb=usage.ru_maxrss / 1024.0,
        timed_out=timed_out,
        stdout_path=out_path,
        stderr_path=err_path,
    )


def burnkit_argv(*args: str) -> list[str]:
    """The CLI as a user runs it: ``python -m burnkit <args>``."""
    return [sys.executable, "-m", "burnkit", *args]


def cli_value(stdout: bytes, key: str) -> str | None:
    """Value of the first ``key value`` line of a CLI report, or None."""
    prefix = key.encode() + b" "
    for line in stdout.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):].decode()
    return None


def environment() -> dict:
    """Machine facts that tell noisy runs apart; reads only, writes nothing."""
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "implementation": sys.implementation.name,
        "cpu_model": model,
    }


def load_average() -> list[float]:
    return [round(x, 2) for x in os.getloadavg()]
