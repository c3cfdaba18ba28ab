"""Shared plumbing: paths, child processes, statistics and the run stamp.

Everything the benchmark writes goes under :data:`WORK` inside the
checkout; every child process it starts is waited for (``os.wait4``
gives its peak RSS and CPU time as a side effect).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

#: The write-md digests recorded per seed (see ``batch.py``).
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONHASHSEED"] = "0"
    return env


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


@dataclass
class ChildResult:
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def run_child(argv: list[str], cwd: Path, timeout: float = 170.0) -> ChildResult:
    """Run ``argv`` to completion; wall time, CPU time and peak RSS of
    the child (and the descendants it waited for) come from ``wait4``."""
    out_path, err_path = cwd / ".child.out", cwd / ".child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        try:
            status, usage = wait_child(proc, timeout)
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - started
    return ChildResult(
        returncode=os.waitstatus_to_exitcode(status),
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def wait_child(proc: subprocess.Popen, timeout: float):
    """``os.wait4`` with a deadline; returns ``(status, rusage)``."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return status, usage
        if time.monotonic() > deadline:
            raise TimeoutError(f"{proc.args!r} still running after {timeout:.0f}s")
        time.sleep(0.005)


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def repeat_timed(seconds: float, min_runs: int, once) -> list:
    """Call ``once()`` (which returns its own measurement) at least
    ``min_runs`` times, then again while another call of the last
    duration still fits in ``seconds`` of measuring."""
    out = []
    started = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        out.append(once())
        last = time.perf_counter() - t0
        spent = time.perf_counter() - started
        if len(out) >= min_runs and spent + last > seconds:
            return out


def median(values) -> float:
    return float(statistics.median(values))


def fastest_parts(reps: list[dict[str, float]]) -> float:
    """The time of one repetition, built from its fastest parts.

    Each repetition of a run does the same work in the same parts
    (``{part: seconds}``).  Shared machines slow a process down by up to
    ~1.8x for seconds at a time, so whole repetitions of several seconds
    each are rarely all fast; a part of a fraction of a second usually
    has at least one fast repetition.  The sum over parts of each part's
    minimum is the repetition's time on the machine's fast moments.
    Repetitions whose parts differ fall back to the fastest whole one.
    """
    keys = set(reps[0])
    if any(set(rep) != keys for rep in reps):
        return min(sum(rep.values()) for rep in reps)
    return float(sum(min(rep[key] for rep in reps) for key in keys))


def tail_percentile(values, pct: int, min_above: int = 10) -> tuple[int, float]:
    """Nearest-rank ``pct`` percentile, lowered (not below the median)
    until at least ``min_above`` samples lie above it; returns
    ``(percentile_used, value)``."""
    xs = sorted(values)
    n = len(xs)
    for p in range(pct, 49, -1):
        idx = max(0, -(-n * p // 100) - 1)
        if n - idx - 1 >= min_above or p == 50:
            return p, float(xs[idx])
    raise ValueError("no samples")


def digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


_WALL_LINE = re.compile(r", wall time \d+s\.$", re.M)


def masked_markdown_digest(text: str) -> str:
    """Digest of a rendered EXPERIMENTS.md with its wall-time field masked."""
    return hashlib.sha256(_WALL_LINE.sub(", wall time <masked>.", text).encode()).hexdigest()[:16]


def reference(kind: str, seed: int) -> str | None:
    """The digest recorded for ``kind`` at ``seed``, if any."""
    table = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    return table.get(kind, {}).get(str(seed))


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=20
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    """SHA-256 over every Python source file under ``src/``,
    so a run is identifiable even from a checkout without git."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def stamp(seed: int) -> dict:
    """What was measured, where, and how loaded the machine was."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "commit": sha,
        "dirty": None if status is None else bool(status),
        "src_digest": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "seed": seed,
        "loadavg_before": list(os.getloadavg()),
    }


def emit(record: dict, result: dict) -> None:
    """Print the run record, then the one-line JSON result (always last)."""
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result, sort_keys=True), flush=True)
