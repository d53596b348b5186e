"""Resilient parallel execution for every sharded runner in the repo.

``ProcessPoolExecutor`` alone is brittle in exactly the ways a
long-running sweep meets in practice: a hung worker blocks
``future.result()`` forever, an OOM-killed worker poisons the whole
pool with :class:`BrokenProcessPool`, and a transient failure loses the
shard with no retry.  This module wraps the pool with the recovery
policy the conformance sweep (:mod:`repro.conformance.runner`), the
experiment driver (:mod:`repro.experiments.runner`) and the
fault-injection campaign (:mod:`repro.faults.campaign`) all share:

* **per-item wall-clock timeouts** -- a deadline starts when the item
  is submitted into a bounded in-flight window (never more than
  ``workers`` items in flight, so queue wait does not eat the budget);
* **bounded retry** with exponential backoff plus deterministic
  jitter (seeded, so tests are reproducible);
* **broken-pool recovery** -- worker death is detected, the pool is
  respawned, and every lost in-flight item is re-dispatched (items
  that were merely collateral are not charged a retry attempt);
* **hung-worker reclaim** -- a timed-out worker cannot be cancelled
  through the executor API, so the pool is killed and respawned and
  the survivors re-dispatched;
* **graceful serial degradation** -- after ``serial_fallback_after``
  pool-level failures the remaining items run inline, one by one;
* **graceful drain** -- an optional run-wide ``deadline_s`` stops the
  run at a wall-clock budget: items still pending or mid-retry surface
  as structured ``drained`` error records (carrying the last failure,
  if any), never silently lost and never executed twice;
* **structured failure records** -- an item that exhausts its attempts
  produces a :class:`WorkResult` with a machine-readable error record
  instead of an exception that kills the sweep.

The work function must be a picklable module-level callable.  If it
accepts a second positional parameter it receives the zero-based
attempt number -- which the resilience tests use to build
deterministic "fail exactly once" workloads.
"""

from __future__ import annotations

import inspect
import os
import random
import time
import traceback
import weakref
from collections import Counter, deque
from concurrent.futures import (FIRST_COMPLETED, CancelledError,
                                ProcessPoolExecutor, wait)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

__all__ = ["RetryPolicy", "WorkResult", "ResilientRun", "run_resilient"]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retry policy with exponential backoff and jitter."""

    max_attempts: int = 3
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 1.0
    jitter: float = 0.25

    def backoff_s(self, attempt: int, rng: random.Random) -> float:
        """Sleep before retry number ``attempt`` (1-based)."""
        base = min(self.backoff_cap_s,
                   self.backoff_base_s * (2 ** max(attempt - 1, 0)))
        return base * (1.0 + self.jitter * rng.random())


@dataclass
class WorkResult:
    """Outcome of one work item after all recovery attempts."""

    index: int
    ok: bool
    value: object = None
    #: structured error record: ``kind`` is ``timeout`` /
    #: ``worker-died`` / ``exception``; exceptions add type, message
    #: and a trimmed traceback.
    error: dict | None = None
    attempts: int = 0
    ran_serial: bool = False


@dataclass
class ResilientRun:
    """Full account of a resilient run: results plus recovery events."""

    results: list[WorkResult] = field(default_factory=list)
    events: list[dict] = field(default_factory=list)
    pool_failures: int = 0
    serial_fallback: bool = False

    @property
    def ok(self) -> bool:
        return all(r is not None and r.ok for r in self.results)

    def summary(self) -> dict:
        """Compact, JSON-ready recovery summary for sweep reports."""
        kinds = Counter(e["kind"] for e in self.events)
        return {
            "items": len(self.results),
            "ok": sum(1 for r in self.results if r is not None and r.ok),
            "failed": sorted(r.index for r in self.results
                             if r is None or not r.ok),
            "retries": kinds.get("retry", 0),
            "timeouts": kinds.get("timeout", 0),
            "worker_deaths": kinds.get("worker-died", 0),
            "drained": sum(1 for r in self.results
                           if r is not None and not r.ok and r.error
                           and r.error.get("kind") == "drained"),
            "pool_respawns": self.pool_failures,
            "serial_fallback": self.serial_fallback,
        }


# ---------------------------------------------------------------------------
# worker-side entry


def _pool_entry(fn, item, attempt: int, wants_attempt: bool):
    """Picklable pool trampoline (also used by the serial fallback)."""
    return fn(item, attempt) if wants_attempt else fn(item)


#: ``_accepts_attempt`` answers per callable; weak keys, so the cache
#: keeps no work function alive
_ACCEPTS_ATTEMPT: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _accepts_attempt(fn) -> bool:
    """Does ``fn`` take a second positional (attempt-number) argument?

    The serving layer asks once per batch, and ``inspect.signature``
    costs about 10 µs, so the answer is cached per callable; an
    unhashable or non-weak-referenceable callable takes the uncached
    path.
    """
    try:
        return _ACCEPTS_ATTEMPT[fn]
    except KeyError:
        pass
    except TypeError:
        return _signature_accepts_attempt(fn)
    answer = _ACCEPTS_ATTEMPT[fn] = _signature_accepts_attempt(fn)
    return answer


def _signature_accepts_attempt(fn) -> bool:
    try:
        sig = inspect.signature(fn)
    except (TypeError, ValueError):
        return False
    positional = 0
    for p in sig.parameters.values():
        if p.kind is inspect.Parameter.VAR_POSITIONAL:
            return True
        if p.kind in (inspect.Parameter.POSITIONAL_ONLY,
                      inspect.Parameter.POSITIONAL_OR_KEYWORD):
            positional += 1
    return positional >= 2


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Forcibly reclaim a pool whose workers may be hung.

    ``shutdown()`` alone would join the hung worker forever, so the
    worker processes are terminated first.  Reaching into
    ``_processes`` is unavoidable -- the executor API has no way to
    cancel a *running* future -- and is guarded so a future stdlib
    change degrades to a plain (non-blocking) shutdown.
    """
    procs = getattr(pool, "_processes", None)
    if procs:
        for proc in list(procs.values()):
            try:
                proc.terminate()
            except Exception:
                pass
    try:
        # The workers were just terminated, so the join is quick; waiting
        # reaps the management thread before the interpreter's atexit
        # hook can trip over its half-closed wakeup pipe.
        pool.shutdown(wait=True, cancel_futures=True)
    except Exception:
        pass


# ---------------------------------------------------------------------------
# the resilient loop


def run_resilient(fn, items, *, workers: int | None = None,
                  timeout_s: float | None = None,
                  retry: RetryPolicy | None = None,
                  serial_fallback_after: int = 2,
                  rng_seed: int = 0,
                  always_pool: bool = False,
                  deadline_s: float | None = None) -> ResilientRun:
    """Run ``fn`` over ``items`` with timeouts, retry, and pool recovery.

    ``workers=None`` uses ``os.cpu_count()``; ``workers<=1`` (or a
    single item) runs everything inline from the start, still with
    retry.  ``timeout_s`` bounds one attempt of one item (pool mode
    only -- the serial path cannot preempt a hung call and records
    that limitation in the run's events).  ``always_pool=True`` keeps
    even a single-item run in the process pool so it gets the full
    timeout/respawn treatment (the serving layer's per-batch isolation
    mode needs exactly that).  ``deadline_s`` is a run-wide wall-clock
    budget: when it expires the run drains -- no new dispatches, no
    further retries, and every unfinished item gets a structured
    ``drained`` error record.  Results preserve item order; the run
    never raises for item failures.
    """
    policy = retry if retry is not None else RetryPolicy()
    if policy.max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    items = list(items)
    n = len(items)
    run = ResilientRun(results=[None] * n)
    if n == 0:
        return run
    if workers is None:
        workers = os.cpu_count() or 1
    rng = random.Random(rng_seed)
    wants_attempt = _accepts_attempt(fn)
    run_deadline = (None if deadline_s is None
                    else time.monotonic() + deadline_s)
    attempts = [0] * n
    pending: deque[int] = deque(range(n))
    serial = workers <= 1 or (n <= 1 and not always_pool)
    if serial:
        run.serial_fallback = False  # inline by request, not degradation
    pool: ProcessPoolExecutor | None = None
    in_flight: dict = {}  # future -> (index, deadline | None)

    def record_failure(idx: int, kind: str,
                       exc: BaseException | None = None) -> None:
        err: dict = {"kind": kind}
        if exc is not None:
            err["type"] = type(exc).__name__
            err["message"] = str(exc)
            err["traceback"] = "".join(
                traceback.format_exception(type(exc), exc,
                                           exc.__traceback__))[-2000:]
        run.results[idx] = WorkResult(idx, False, None, err,
                                      attempts[idx], ran_serial=serial)
        run.events.append({"kind": "permanent-failure", "item": idx,
                           "after": kind})

    def drain_due() -> bool:
        return (run_deadline is not None
                and time.monotonic() >= run_deadline)

    def retry_or_fail(idx: int, kind: str,
                      exc: BaseException | None = None) -> None:
        if attempts[idx] < policy.max_attempts:
            if drain_due():
                # mid-retry at the drain deadline: a structured record
                # carrying the last failure, not a lost item
                record_failure(idx, "drained", exc)
                return
            run.events.append({"kind": "retry", "item": idx,
                               "after": kind})
            time.sleep(policy.backoff_s(attempts[idx], rng))
            pending.append(idx)
        else:
            record_failure(idx, kind, exc)

    def abandon_pool(reason: str) -> None:
        nonlocal pool, serial
        run.pool_failures += 1
        run.events.append({"kind": reason})
        # Collateral in-flight items were not at fault: refund the
        # attempt charged at submit time and re-dispatch them first.
        for _fut, (idx, _dl) in list(in_flight.items()):
            attempts[idx] -= 1
            pending.appendleft(idx)
        in_flight.clear()
        if pool is not None:
            _kill_pool(pool)
            pool = None
        if run.pool_failures >= serial_fallback_after:
            serial = True
            run.serial_fallback = True
            run.events.append({"kind": "serial-fallback"})

    def run_serial(idx: int) -> None:
        while True:
            attempts[idx] += 1
            try:
                value = _pool_entry(fn, items[idx], attempts[idx] - 1,
                                    wants_attempt)
            except Exception as exc:
                if attempts[idx] < policy.max_attempts:
                    if drain_due():
                        record_failure(idx, "drained", exc)
                        return
                    run.events.append({"kind": "retry", "item": idx,
                                       "after": "exception"})
                    time.sleep(policy.backoff_s(attempts[idx], rng))
                    continue
                record_failure(idx, "exception", exc)
                return
            run.results[idx] = WorkResult(idx, True, value, None,
                                          attempts[idx],
                                          ran_serial=True)
            return

    try:
        while pending or in_flight:
            if drain_due():
                run.events.append({"kind": "drain"})
                while pending:
                    record_failure(pending.popleft(), "drained")
                for _fut, (idx, _dl) in list(in_flight.items()):
                    record_failure(idx, "drained")
                in_flight.clear()
                if pool is not None:
                    _kill_pool(pool)
                    pool = None
                break
            if serial:
                while pending:
                    if drain_due():
                        run.events.append({"kind": "drain"})
                        while pending:
                            record_failure(pending.popleft(), "drained")
                        break
                    run_serial(pending.popleft())
                break
            if pool is None:
                pool = ProcessPoolExecutor(max_workers=workers)
            # fill the in-flight window
            submit_failed = False
            while pending and len(in_flight) < workers:
                idx = pending.popleft()
                attempts[idx] += 1
                try:
                    fut = pool.submit(_pool_entry, fn, items[idx],
                                      attempts[idx] - 1, wants_attempt)
                except (BrokenProcessPool, RuntimeError):
                    attempts[idx] -= 1
                    pending.appendleft(idx)
                    submit_failed = True
                    break
                deadline = (None if timeout_s is None
                            else time.monotonic() + timeout_s)
                in_flight[fut] = (idx, deadline)
            if submit_failed:
                abandon_pool("broken-pool")
                continue
            if not in_flight:
                continue
            deadlines = [dl for (_i, dl) in in_flight.values()
                         if dl is not None]
            wait_s = (None if not deadlines
                      else max(0.0, min(deadlines) - time.monotonic())
                      + 0.01)
            if run_deadline is not None:
                drain_wait = max(0.0,
                                 run_deadline - time.monotonic()) + 0.01
                wait_s = (drain_wait if wait_s is None
                          else min(wait_s, drain_wait))
            done, _ = wait(list(in_flight), timeout=wait_s,
                           return_when=FIRST_COMPLETED)
            pool_broken = False
            for fut in done:
                idx, _dl = in_flight.pop(fut)
                try:
                    value = fut.result()
                except BrokenProcessPool as exc:
                    retry_or_fail(idx, "worker-died", exc)
                    pool_broken = True
                except CancelledError:
                    attempts[idx] -= 1
                    pending.append(idx)
                except Exception as exc:
                    retry_or_fail(idx, "exception", exc)
                else:
                    run.results[idx] = WorkResult(idx, True, value,
                                                  None, attempts[idx])
            if pool_broken:
                abandon_pool("broken-pool")
                continue
            now = time.monotonic()
            expired = [fut for fut, (idx, dl) in in_flight.items()
                       if dl is not None and now >= dl]
            if expired:
                for fut in expired:
                    idx, _dl = in_flight.pop(fut)
                    run.events.append({"kind": "timeout", "item": idx})
                    retry_or_fail(idx, "timeout")
                # The hung worker cannot be reclaimed individually:
                # recycle the whole pool and re-dispatch survivors.
                abandon_pool("pool-respawn")
    finally:
        if pool is not None:
            # All futures are resolved or cancelled here, so the join is
            # immediate -- and leaving the pool to wind down during
            # interpreter exit races the concurrent.futures atexit hook.
            pool.shutdown(wait=True, cancel_futures=True)

    for idx, result in enumerate(run.results):
        if result is None:  # defensive: never leave a hole
            record_failure(idx, "lost")
    return run
