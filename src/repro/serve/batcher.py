"""The work-conserving micro-batcher: per-``(op, fmt)`` coalescing queues.

Requests for the same operation and operand format coalesce into one
kernel invocation.  A queue flushes on the first of three triggers:

* **full** -- the queue reached ``max_batch`` entries; the batch leaves
  immediately;
* **idle** -- a worker slot is free (the server's ``slot_free()``
  signal): the flush runs on the next event-loop iteration, so every
  ``put`` of the current iteration (an ``asyncio.gather`` burst, the
  lines of one socket read) still lands in the same batch, and a lone
  request waits one loop iteration instead of ``max_wait_s``;
* **timer** -- every slot is busy and the *oldest* entry has waited
  ``max_wait_s``.

Coalescing therefore happens only while the pool is saturated, which
is when it pays: the batch size adapts to load, 1 when idle and up to
``max_batch`` when busy.  When a batch finishes, the server calls
:meth:`MicroBatcher.batch_done` and the freed slot **pulls** the queue
whose head has waited longest (reason ``freed``), instead of idling
until that queue's timer fires.

The wait timer is adaptive in two ways.  It is armed only while a
partial batch exists (an idle queue costs nothing), and its duration is
clipped so the flush lands ``shed_margin_s`` *before* the earliest
client deadline in the queue -- a request on a tight budget drags its
batchmates out early rather than expiring while the batcher dawdles.

Each key has at most one pending flush, a timer or a zero-delay
flush, held in ``_timers`` so :meth:`cancel_timers` cancels them all.
Every flush counts ``serve.flush.<reason>`` (``full`` / ``idle`` /
``freed`` / ``timer`` / ``drain``) while telemetry is armed.

The batcher only *forms* batches; execution, admission accounting and
deadline shedding of already-formed batches belong to the server.  All
methods must be called from the event-loop thread.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from ..telemetry import core as _tm
from .protocol import Request

__all__ = ["Entry", "MicroBatcher"]


@dataclass
class Entry:
    """One queued request with its completion future and timing."""

    req: Request
    fut: object                      # asyncio.Future[Response]
    t_enqueue: float = 0.0           # loop.time() at admission
    deadline: float | None = None    # absolute loop.time() budget
    meta: dict = field(default_factory=dict)


class MicroBatcher:
    def __init__(self, *, max_batch: int, max_wait_s: float,
                 shed_margin_s: float = 0.0005,
                 clock: Callable[[], float],
                 schedule: Callable[[float, Callable], object],
                 slot_free: Callable[[], bool],
                 on_batch: Callable[[str, list], None]):
        """``clock`` is ``loop.time``; ``schedule(delay, cb)`` must
        return a cancellable timer handle (``loop.call_later``);
        ``slot_free()`` says whether a worker slot could take a batch
        now; ``on_batch(key, entries)`` receives each formed batch."""
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_wait_s < 0:
            raise ValueError("max_wait_s must be >= 0")
        self.max_batch = max_batch
        self.max_wait_s = max_wait_s
        self.shed_margin_s = shed_margin_s
        self._clock = clock
        self._schedule = schedule
        self._slot_free = slot_free
        self._on_batch = on_batch
        self._queues: dict[str, deque[Entry]] = {}
        # key -> (handle, reason) of its one pending flush
        self._timers: dict[str, tuple[object, str]] = {}

    # ------------------------------------------------------------------

    @staticmethod
    def key_for(req: Request) -> str:
        # verified requests must not coalesce with unverified ones (the
        # guard policy is batch-level), so the level is part of the key;
        # likewise a pinned backend is a batch-level execution property,
        # so backend-pinned requests coalesce only among themselves
        key = f"{req.op}.{req.fmt}"
        if req.verify is not None:
            key = f"{key}.{req.verify}"
        if req.backend is not None:
            key = f"{key}.b:{req.backend}"
        return key

    def depth(self, key: str) -> int:
        q = self._queues.get(key)
        return len(q) if q else 0

    def depths(self) -> dict[str, int]:
        return {k: len(q) for k, q in self._queues.items() if q}

    def put(self, entry: Entry) -> str:
        """Enqueue one admitted request; returns its queue key."""
        key = self.key_for(entry.req)
        q = self._queues.get(key)
        if q is None:
            q = self._queues[key] = deque()
        q.append(entry)
        if len(q) >= self.max_batch:
            self._fire(key, "full")
        else:
            self._arm(key)
        return key

    def batch_done(self) -> None:
        """A batch finished and freed its slot: flush, on the next loop
        iteration, the queue whose oldest entry has waited longest."""
        waiting = [(q[0].t_enqueue, key) for key, q in self._queues.items()
                   if q and not self._flushing_soon(key)]
        if waiting:
            self._flush_soon(min(waiting)[1], "freed")

    def flush_all(self) -> None:
        """Drain every queue now (shutdown / test hook)."""
        for key in list(self._queues):
            self._fire(key, "drain")

    # ------------------------------------------------------------------

    def _arm(self, key: str) -> None:
        q = self._queues.get(key)
        if not q:
            return
        if self._slot_free():
            self._flush_soon(key, "idle")
        elif key not in self._timers:
            self._timers[key] = (
                self._schedule(self._wait_s(q),
                               lambda: self._expire(key, "timer")),
                "timer")

    def _wait_s(self, q: deque[Entry]) -> float:
        now = self._clock()
        oldest_wait = now - q[0].t_enqueue
        delay = max(0.0, self.max_wait_s - oldest_wait)
        deadlines = [e.deadline for e in q if e.deadline is not None]
        if deadlines:
            # flush early enough that the tightest budget still makes
            # it into an execution slot
            slack = min(deadlines) - now - self.shed_margin_s
            delay = max(0.0, min(delay, slack))
        return delay

    def _flush_soon(self, key: str, reason: str) -> None:
        """Flush ``key`` on the next loop iteration, replacing its wait
        timer; a zero-delay flush already pending stays as it is."""
        if self._flushing_soon(key):
            return
        pending = self._timers.get(key)
        if pending is not None:
            _cancel(pending[0])
        self._timers[key] = (
            self._schedule(0.0, lambda: self._expire(key, reason)), reason)

    def _flushing_soon(self, key: str) -> bool:
        pending = self._timers.get(key)
        return pending is not None and pending[1] != "timer"

    def _expire(self, key: str, reason: str) -> None:
        self._timers.pop(key, None)
        if self._queues.get(key):
            self._fire(key, reason)

    def _fire(self, key: str, reason: str) -> None:
        pending = self._timers.pop(key, None)
        if pending is not None:
            _cancel(pending[0])
        q = self._queues.get(key)
        if not q:
            return
        # put() fires at max_batch, so a queue never holds more: the
        # whole queue is one batch
        batch = list(q)
        q.clear()
        tm = _tm.ACTIVE
        if tm is not None:
            tm.count(f"serve.flush.{reason}")
        self._on_batch(key, batch)

    # ------------------------------------------------------------------

    def earliest_deadline(self) -> float | None:
        pending = [e.deadline for q in self._queues.values() for e in q
                   if e.deadline is not None]
        return min(pending) if pending else None

    def cancel_timers(self) -> None:
        for handle, _reason in self._timers.values():
            _cancel(handle)
        self._timers.clear()


def _cancel(handle: object) -> None:
    try:
        handle.cancel()
    except (KeyboardInterrupt, SystemExit):
        raise  # interruption must win over the flush or the shutdown
    except Exception:
        pass  # a dead timer handle must not block a flush or shutdown
