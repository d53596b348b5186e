"""Resilient-executor tests: timeouts, worker death, serial fallback.

Worker functions are module-level (picklable) and condition their
misbehaviour on the *attempt number* the executor passes, so each test
is deterministic -- a unit misbehaves on exactly the attempts it is
told to, recovers on the next one, and never sleeps long enough to slow
the suite (every deliberate hang is cut off by a sub-second timeout).
"""

from __future__ import annotations

import os
import time

import pytest

from repro.conformance.cache import ResultCache
from repro.faults.resilient import (ResilientRun, RetryPolicy, WorkResult,
                                    run_resilient)

# pools / armed collectors are process-global: never run
# these concurrently with other tests (xdist, future runners)
pytestmark = pytest.mark.serial

FAST = RetryPolicy(max_attempts=3, backoff_base_s=0.01, backoff_cap_s=0.05,
                   jitter=0.0)


# -- picklable workloads ----------------------------------------------------

def square(x):
    return x * x


def fail_first_attempt(x, attempt):
    if attempt == 0:
        raise RuntimeError(f"transient #{x}")
    return x * 10


def always_fails(x):
    raise ValueError(f"permanent #{x}")


def hang_first_attempt(x, attempt):
    if x == "hang" and attempt == 0:
        time.sleep(30)
    return f"done-{x}"


def _in_pool_worker() -> bool:
    # guard so a logic regression can never os._exit the pytest process
    import multiprocessing

    return multiprocessing.current_process().name != "MainProcess"


def die_first_attempt(x, attempt):
    if x == "die" and attempt == 0 and _in_pool_worker():
        os._exit(13)
    return f"ok-{x}"


def die_below_attempt_2(x, attempt):
    # kills its *pool worker* on attempts 0 and 1; after the executor
    # degrades to serial (attempt 2) it must not be reached in a pool
    if attempt < 2 and _in_pool_worker():
        os._exit(13)
    return f"serial-{x}" if attempt >= 2 else f"pool-{x}"


# -- basics -----------------------------------------------------------------

def test_serial_happy_path():
    run = run_resilient(square, [1, 2, 3], workers=1, retry=FAST)
    assert run.ok
    assert [r.value for r in run.results] == [1, 4, 9]
    assert all(r.ran_serial for r in run.results)
    assert not run.serial_fallback  # inline by request, not degradation


def test_pool_happy_path():
    run = run_resilient(square, list(range(6)), workers=2, retry=FAST)
    assert run.ok
    assert [r.value for r in run.results] == [0, 1, 4, 9, 16, 25]
    assert run.pool_failures == 0


def test_attempt_number_still_reaches_the_callable():
    # the (item, attempt) signature is looked up once per callable and
    # cached; later runs must still pass the attempt number
    seen = []

    def record(x, attempt):
        seen.append((x, attempt))
        if attempt == 0:
            raise RuntimeError("first attempt")
        return x

    class Unhashable:
        __hash__ = None

        def __call__(self, x, attempt):
            return record(x, attempt)

    for fn in (record, record, Unhashable()):
        seen.clear()
        run = run_resilient(fn, ["a"], workers=1, retry=FAST)
        assert run.ok and run.results[0].value == "a"
        assert seen == [("a", 0), ("a", 1)]
    one_arg = run_resilient(square, [3], workers=1, retry=FAST)
    assert one_arg.results[0].value == 9


def test_empty_items():
    run = run_resilient(square, [], workers=2, retry=FAST)
    assert run.ok and run.results == []


def test_retry_recovers_transient_exception():
    run = run_resilient(fail_first_attempt, [1, 2], workers=2, retry=FAST)
    assert run.ok
    assert [r.value for r in run.results] == [10, 20]
    assert all(r.attempts == 2 for r in run.results)
    assert sum(1 for e in run.events if e["kind"] == "retry") == 2


def test_permanent_failure_is_structured_not_raised():
    run = run_resilient(always_fails, [7], workers=1, retry=FAST)
    assert not run.ok
    (r,) = run.results
    assert isinstance(r, WorkResult) and not r.ok
    assert r.attempts == FAST.max_attempts
    assert r.error["kind"] == "exception"
    assert r.error["type"] == "ValueError"
    assert "permanent #7" in r.error["message"]
    assert "traceback" in r.error
    assert run.summary()["failed"] == [0]


def test_backoff_schedule_is_bounded():
    policy = RetryPolicy(max_attempts=5, backoff_base_s=0.1,
                         backoff_cap_s=0.3, jitter=0.0)
    import random
    rng = random.Random(0)
    delays = [policy.backoff_s(a, rng) for a in range(1, 6)]
    assert delays == [0.1, 0.2, 0.3, 0.3, 0.3]
    jittered = RetryPolicy(jitter=0.5).backoff_s(1, random.Random(1))
    assert 0.05 <= jittered <= 0.075


# -- the three failure drills ----------------------------------------------

def test_hanging_worker_times_out_and_is_retried():
    t0 = time.perf_counter()
    run = run_resilient(hang_first_attempt, ["a", "hang", "b"],
                        workers=2, timeout_s=0.5, retry=FAST)
    elapsed = time.perf_counter() - t0
    assert elapsed < 15  # nowhere near the 30s hang
    assert run.ok
    assert sorted(r.value for r in run.results) == [
        "done-a", "done-b", "done-hang"]
    assert any(e["kind"] == "timeout" for e in run.events)
    assert run.pool_failures >= 1  # the hung pool was recycled
    s = run.summary()
    assert s["timeouts"] >= 1 and s["pool_respawns"] >= 1


def test_killed_worker_respawns_pool_and_redispatches():
    run = run_resilient(die_first_attempt, ["a", "die", "b"],
                        workers=2, retry=FAST)
    assert run.ok
    assert sorted(r.value for r in run.results) == [
        "ok-a", "ok-b", "ok-die"]
    assert run.pool_failures >= 1
    assert any(e["kind"] == "broken-pool" for e in run.events)
    # collateral items were re-dispatched without losing their result
    assert run.summary()["failed"] == []


def test_repeated_pool_failures_degrade_to_serial():
    run = run_resilient(die_below_attempt_2, ["x", "y"], workers=2,
                        timeout_s=5.0, serial_fallback_after=2,
                        retry=RetryPolicy(max_attempts=4,
                                          backoff_base_s=0.01,
                                          backoff_cap_s=0.02, jitter=0.0))
    assert run.serial_fallback
    assert run.pool_failures >= 2
    assert any(e["kind"] == "serial-fallback" for e in run.events)
    assert run.ok
    assert sorted(r.value for r in run.results) == ["serial-x", "serial-y"]
    assert all(r.ran_serial for r in run.results)


def test_max_attempts_validation():
    with pytest.raises(ValueError):
        run_resilient(square, [1], retry=RetryPolicy(max_attempts=0))


def test_summary_shape():
    s = ResilientRun().summary()
    assert set(s) == {"items", "ok", "failed", "retries", "timeouts",
                      "worker_deaths", "drained", "pool_respawns",
                      "serial_fallback"}


# -- graceful drain ---------------------------------------------------------

def slow_then_fail(x, attempt):
    # every attempt burns wall clock then fails, so with a generous
    # retry budget the run can only end by draining
    time.sleep(0.05)
    raise RuntimeError(f"still-failing #{x}")


def test_drain_surfaces_retrying_items_as_structured_errors():
    run = run_resilient(
        slow_then_fail, ["a", "b", "c"], workers=1,
        retry=RetryPolicy(max_attempts=50, backoff_base_s=0.01,
                          backoff_cap_s=0.02, jitter=0.0),
        deadline_s=0.12)
    # exactly one record per item -- nothing lost, nothing duplicated
    assert [r.index for r in run.results] == [0, 1, 2]
    assert all(not r.ok for r in run.results)
    kinds = {r.error["kind"] for r in run.results}
    assert kinds <= {"drained", "exception"} and "drained" in kinds
    # a drained mid-retry item carries its last underlying failure
    drained = [r for r in run.results if r.error["kind"] == "drained"]
    assert any(r.error.get("type") == "RuntimeError" for r in drained)
    assert run.summary()["drained"] == len(drained)
    assert any(e["kind"] == "drain" for e in run.events)


def test_drain_zero_budget_drains_everything_without_execution():
    run = run_resilient(square, [1, 2, 3], workers=1, retry=FAST,
                        deadline_s=0.0)
    assert all(not r.ok and r.error["kind"] == "drained"
               for r in run.results)
    assert all(r.attempts == 0 for r in run.results)
    assert run.summary()["drained"] == 3


def test_drain_in_pool_mode_never_loses_an_item():
    run = run_resilient(
        slow_then_fail, list("abcdef"), workers=2,
        retry=RetryPolicy(max_attempts=50, backoff_base_s=0.01,
                          backoff_cap_s=0.02, jitter=0.0),
        deadline_s=0.15)
    assert sum(1 for r in run.results if r is not None) == 6
    assert all(not r.ok for r in run.results)
    assert all(r.error["kind"] in ("drained", "exception")
               for r in run.results)
    assert run.summary()["drained"] >= 1


def test_no_drain_without_deadline():
    run = run_resilient(square, [1, 2, 3], workers=1, retry=FAST)
    assert run.ok
    assert run.summary()["drained"] == 0


# -- cache integrity (the quarantine drill) ---------------------------------

def test_truncated_cache_entry_is_quarantined(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put("deadbeef", {"mismatches": [], "cases": 5})
    path = cache._path("deadbeef")
    path.write_text(path.read_text()[:25])  # torn write
    assert cache.get("deadbeef") is None
    assert (cache.quarantine_dir / "deadbeef.json").exists()
    assert cache.get("deadbeef") is None  # miss stays a miss


def test_checksum_mismatch_is_quarantined(tmp_path):
    import json

    cache = ResultCache(tmp_path)
    cache.put("cafe", {"mismatch_count": 0})
    entry = json.loads(cache._path("cafe").read_text())
    entry["payload"]["mismatch_count"] = 9  # bit rot / tamper
    cache._path("cafe").write_text(json.dumps(entry))
    assert cache.get("cafe") is None
    assert (cache.quarantine_dir / "cafe.json").exists()


def test_legacy_unwrapped_entry_is_quarantined(tmp_path):
    import json

    cache = ResultCache(tmp_path)
    # a pre-checksum-era entry: raw payload, no envelope
    cache._path("old").write_text(json.dumps({"cases": 3}))
    assert cache.get("old") is None
    assert (cache.quarantine_dir / "old.json").exists()


def test_good_entry_roundtrips(tmp_path):
    cache = ResultCache(tmp_path)
    payload = {"shard_id": 1, "mismatches": [], "cases": 64}
    cache.put("k", payload)
    assert cache.get("k") == payload
    assert len(cache) == 1
