"""Shared helpers of the perfbench benchmark.

Paths of the program under test, nearest-rank statistics, the rate
ladder search, set-up probes, memory readings and the result line.
Everything here is stdlib only, so the helpers (and their tests in
``test_benchlib.py``) import without the program.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: exit status when the program under test is missing or a check fails
EXIT_FAIL = 1


class BenchError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


def use_source_tree() -> None:
    """Import the program from the checkout's ``src`` tree."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for child processes that import the program."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    env["PYTHONUNBUFFERED"] = "1"
    return env


# -- statistics ---------------------------------------------------------


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``p`` percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 <= p <= 100:
        raise ValueError("p must be in [0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``p``."""
    if n < 1:
        return 0
    return n - max(1, math.ceil(p / 100.0 * n))


def median(values) -> float:
    return percentile(values, 50)


def ladder_max_rate(rungs, limit_ms: float) -> float:
    """Highest sustainable rate from an ascending rate ladder.

    ``rungs`` are ``(rate, p99_ms, passed)`` in ladder order, where
    ``passed`` means no failures and no growing backlog, and a failed
    request counts as infinitely late in ``p99_ms``.  The search stops
    at the first rung that misses (not passed, or p99 over
    ``limit_ms``).  When that rung's p99 is finite and over the limit,
    the rate is interpolated between it and the last passing rung where
    log(p99) crosses log(limit), so the result moves smoothly instead
    of jumping a whole rung; otherwise the last passing rate stands.
    When even the first rung misses, its rate is scaled down by
    ``limit / p99`` (halved when p99 is infinite).  A ladder that never
    misses returns its top rate.
    """
    if not rungs:
        raise ValueError("empty ladder")
    prev = None
    for rate, p99, passed in rungs:
        if passed and p99 <= limit_ms:
            prev = (rate, p99)
            continue
        finite_miss = math.isfinite(p99) and p99 > limit_ms
        if prev is None:
            return rate * limit_ms / p99 if finite_miss else rate * 0.5
        r0, q0 = prev
        if not finite_miss or q0 <= 0:
            return r0
        frac = (math.log(limit_ms) - math.log(q0)) / (
            math.log(p99) - math.log(q0))
        return r0 * (rate / r0) ** frac
    return prev[0]


def window_percentiles(values, p: float, windows: int) -> list[float]:
    """Nearest-rank ``p`` of each of ``windows`` consecutive equal
    slices of ``values`` (a remainder shorter than a slice is left
    out)."""
    n = len(values) // windows
    if n < 1:
        raise ValueError("fewer samples than windows")
    return [percentile(values[k * n:(k + 1) * n], p)
            for k in range(windows)]


# -- process measurements -----------------------------------------------


def peak_rss_mb_self() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_pid(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live child process."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


#: CPUs this process may use, read before any pinning narrows them
ALLOWED_CPUS = frozenset(os.sched_getaffinity(0)
                         if hasattr(os, "sched_getaffinity") else ())


def pin(pid: int, cpus: "set[int]") -> None:
    """Restrict ``pid`` (0 = this process) to those of ``cpus`` it may
    use; no-op when there are none.  Threads and children it starts
    later inherit the mask."""
    usable = set(cpus) & ALLOWED_CPUS
    if usable:
        os.sched_setaffinity(pid, usable)


def cpu_seconds_pid(pid: int) -> float:
    """User + system CPU time of a live process, all its threads."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def best_window_rate(samples) -> float:
    """Highest ``count / cpu-seconds`` over consecutive samples of
    ``(cpu_seconds, count)``: the work the process did per CPU-second
    in its least disturbed window."""
    best = 0.0
    for (c0, n0), (c1, n1) in zip(samples, samples[1:]):
        if c1 > c0 and n1 > n0:
            best = max(best, (n1 - n0) / (c1 - c0))
    if best <= 0:
        raise ValueError("no window with both CPU time and work")
    return best


def stop_process(proc: subprocess.Popen, sig: int,
                 timeout_s: float = 15.0) -> int:
    """Stop a child and wait for it: ``sig``, then SIGKILL if it has not
    ended within ``timeout_s``; returns its exit status."""
    if proc.poll() is None:
        proc.send_signal(sig)
        try:
            proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=timeout_s)
    for stream in (proc.stdout, proc.stderr, proc.stdin):
        if stream is not None:
            stream.close()
    return proc.returncode


def probe_setup(argv: "list[str]", marker: str,
                timeout_s: float = 120.0) -> float:
    """Spawn one fresh set-up probe process and time it from spawn to
    the stdout line starting with ``marker``; the probe must exit 0."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, env=child_env(),
                            cwd=ROOT, text=True)
    try:
        ready = None
        for line in proc.stdout:
            if line.startswith(marker):
                ready = time.perf_counter() - t0
                break
        rc = proc.wait(timeout=timeout_s)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready is None or rc != 0:
        raise BenchError(f"set-up probe {argv[1:]} failed (rc={rc})")
    return ready


def host_fingerprint() -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"nproc": os.cpu_count(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "numpy": numpy_version,
            "machine": platform.machine()}


# -- output ---------------------------------------------------------------


class Result:
    """Accumulates the run's verdict and metrics; prints the result
    line (always the last line of standard output)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []
        self.metrics: dict[str, dict] = {}
        self.details: dict = {"host": host_fingerprint()}

    def metric(self, name: str, value: float, unit: str) -> None:
        value = float(value)
        if not math.isfinite(value):
            raise BenchError(f"metric {name} is not finite: {value}")
        self.metrics[name] = {"value": value, "unit": unit}

    def mismatch(self, what: str) -> None:
        self.mismatches.append(what)

    @property
    def correct(self) -> bool:
        return not self.mismatches and self.attempted > 0

    def write_details(self, name: str) -> Path:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"{name}.json"
        body = dict(self.details, metrics=self.metrics,
                    attempted=self.attempted, failed=self.failed,
                    mismatches=self.mismatches[:50])
        path.write_text(json.dumps(body, indent=1, sort_keys=True))
        return path

    def emit(self) -> int:
        print(json.dumps({"correct": self.correct,
                          "attempted": int(self.attempted),
                          "failed": int(self.failed),
                          "metrics": self.metrics}), flush=True)
        return 0 if self.correct else EXIT_FAIL
