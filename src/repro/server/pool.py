"""Admission control for the serving layer.

The pool is ``workers`` execution *slots*: at most that many statements
run at once, however they arrived.  A caller that waits for its result
(:meth:`WorkerPool.run`, behind ``Session.execute``) takes a free slot
and runs the statement on its own thread — a second thread would only
add two hand-offs to a client that sleeps through them.  A caller that
finds no slot free or work already queued — or that wants a future
(:meth:`WorkerPool.submit`) — lands on a bounded FIFO queue the worker
threads drain, each taking a slot per task.  One counter under one
condition variable bounds both kinds: the least machinery that keeps
the ``workers`` cap.

The queue depth is the *admission control*: when it is full the policy
decides whether the submitting client blocks (``"block"``, the default —
natural backpressure for cooperating clients) or fails fast with
:class:`~repro.errors.ServerBusyError` (``"reject"``, load shedding).  A
blocked submitter is *woken* by :meth:`WorkerPool.shutdown` and fails
with :class:`ServerBusyError` instead of sleeping on a queue no worker
will drain again.

Measured: ``server.queue_depth`` (gauge: admitted, not yet running),
``server.wait_seconds`` (histogram of the wait for a slot — 0 when one
was free), ``server.tasks`` / ``server.rejected`` (counters).  The wait
of the statement a thread is running is :func:`current_wait_seconds`
(the flight recorder's ``pool_wait_ms``).  Trace context is the
submitter's business: the pool runs thunks and carries nothing across.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future

from repro.errors import ServerBusyError, ValidationError
from repro.obs import metrics

__all__ = ["WorkerPool", "REJECTION_POLICIES", "current_wait_seconds"]

#: admission behaviors when the queue is full
REJECTION_POLICIES = ("block", "reject")

#: per-thread: how long the statement it is running waited for its slot
_WAIT = threading.local()


def current_wait_seconds() -> float:
    """Slot wait of the statement this thread is running (else 0.0)."""
    return getattr(_WAIT, "seconds", 0.0)


class WorkerPool:
    """``workers`` execution slots, a bounded queue and a rejection policy."""

    def __init__(self, workers: int = 4, queue_depth: int = 64,
                 policy: str = "block", name: str = "repro-server"):
        if workers < 1:
            raise ValidationError("worker pool needs at least one worker")
        if queue_depth < 1:
            raise ValidationError("queue depth must be positive")
        if policy not in REJECTION_POLICIES:
            raise ValidationError(
                f"unknown rejection policy {policy!r}; use one of "
                f"{REJECTION_POLICIES}"
            )
        self.workers = workers
        self.queue_depth = queue_depth
        self.policy = policy
        # One condition variable covers the queue, the slot count, the
        # shutdown flag and the blocked-submitter count: workers wait on it
        # for a task *and* a slot, block-policy submitters for queue room,
        # and shutdown wakes everyone.  Deliberately not lockdep-
        # instrumented — the witness cannot model a condition wait's
        # release-and-reacquire, and nothing else is taken under it (a leaf).
        self._cond = threading.Condition()
        #: (fn, args, future, enqueued at) in admission order
        self._tasks: deque[tuple] = deque()  # guarded_by: _cond
        self._running = 0  # slots held, inline or by a worker; guarded_by: _cond
        self._shutdown = False  # guarded_by: _cond
        self._blocked = 0  # submitters waiting for queue room; guarded_by: _cond
        self._threads = [
            threading.Thread(target=self._worker, name=f"{name}-{i}", daemon=True)
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------ #

    def run(self, fn, *args):
        """``fn(*args)`` for a caller that waits: on its own thread when a
        slot is free and nothing is queued, else :meth:`submit` plus the
        future's result — so queue order, the rejection policy and
        shutdown stay that one implementation."""
        with self._cond:
            inline = (self._running < self.workers and not self._tasks
                      and not self._shutdown)
            if inline:
                self._running += 1
        if not inline:
            return self.submit(fn, *args).result()
        metrics.counter("server.tasks").inc()
        return self._run_in_slot(fn, args, 0.0)

    def submit(self, fn, *args) -> Future:
        """Enqueue ``fn(*args)``; returns a future for its result.

        With the ``reject`` policy a full queue raises
        :class:`ServerBusyError` immediately and nothing is enqueued;
        with ``block`` the caller waits for a slot.  A blocked caller is
        woken by :meth:`shutdown` and also fails with
        :class:`ServerBusyError` — its statement was never admitted.
        """
        future, enqueued = Future(), time.perf_counter()
        with self._cond:
            if self._shutdown:
                raise ServerBusyError("worker pool is shut down")
            if len(self._tasks) >= self.queue_depth:
                if self.policy == "reject":
                    metrics.counter("server.rejected").inc()
                    raise ServerBusyError(
                        f"admission queue full ({self.queue_depth} statements "
                        f"pending); retry later"
                    )
                self._blocked += 1
                try:
                    while (len(self._tasks) >= self.queue_depth
                           and not self._shutdown):
                        self._cond.wait()
                finally:
                    self._blocked -= 1
                if self._shutdown:
                    metrics.counter("server.rejected").inc()
                    raise ServerBusyError(
                        "worker pool shut down while waiting for an "
                        "admission slot"
                    )
            self._tasks.append((fn, args, future, enqueued))
            depth = len(self._tasks)
            self._cond.notify_all()
        metrics.counter("server.tasks").inc()
        metrics.gauge("server.queue_depth").set(depth)
        return future

    def _run_in_slot(self, fn, args, wait: float):
        """Run ``fn(*args)`` in the slot this thread holds, then free it."""
        outer = current_wait_seconds()  # an inline caller may be in a slot
        _WAIT.seconds = wait
        try:
            metrics.histogram("server.wait_seconds").observe(wait)
            return fn(*args)
        finally:
            _WAIT.seconds = outer
            self._release()

    def _release(self) -> None:
        with self._cond:
            self._running -= 1
            # Only a worker with a task to take, or shutdown's drain, can
            # be waiting for a slot; idle workers are left asleep.
            if self._tasks or self._shutdown:
                self._cond.notify_all()

    def _worker(self) -> None:
        while True:
            with self._cond:
                while not (self._tasks and self._running < self.workers):
                    if self._shutdown and not self._tasks:
                        return  # drained
                    self._cond.wait()
                fn, args, future, enqueued = self._tasks.popleft()
                self._running += 1
                depth = len(self._tasks)
                # Queue room freed: wake a blocked submitter (and any
                # sibling worker racing for remaining tasks).
                self._cond.notify_all()
            metrics.gauge("server.queue_depth").set(depth)
            wait = time.perf_counter() - enqueued
            if not future.set_running_or_notify_cancel():
                self._release()
                continue
            try:
                future.set_result(self._run_in_slot(fn, args, wait))
            # The pool boundary: a worker must survive any task failure
            # and hand the exception to the waiting client instead.
            except BaseException as exc:  # qblint: disable=no-broad-except
                future.set_exception(exc)

    # ------------------------------------------------------------------ #

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work; workers exit after draining the queue.

        Admitted statements still run to completion — with ``wait`` this
        returns only once no slot is held, inline callers included;
        blocked submitters are woken and fail with :class:`ServerBusyError`.
        """
        with self._cond:
            self._shutdown = True
            self._cond.notify_all()
        if wait:
            for thread in self._threads:
                thread.join()
            with self._cond:
                while self._running:
                    self._cond.wait()

    @property
    def pending(self) -> int:
        """Statements admitted but not yet picked up by a worker."""
        with self._cond:
            return len(self._tasks)

    @property
    def blocked_submitters(self) -> int:
        """Callers currently waiting for an admission slot (block policy)."""
        with self._cond:
            return self._blocked

    def __repr__(self) -> str:
        return (
            f"WorkerPool({self.workers} workers, {self.pending}/"
            f"{self.queue_depth} queued, policy={self.policy!r})"
        )
