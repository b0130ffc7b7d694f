"""Admission control for the serving layer.

The pool is ``workers`` execution *slots* plus a FIFO of waiting
callers: at most that many statements run at once, and every statement
runs on the thread that asked for it (:meth:`WorkerPool.run`, behind
``Session.execute``).  A caller that finds a slot free and nobody
waiting takes it at once; otherwise it joins the FIFO and sleeps until
it is first in line and a slot is free.  The pool starts no thread: a
second thread would only add two hand-offs to a client that sleeps
through them, and every thread shares one process and one GIL.  One
condition variable covers the slot count, the FIFO and the shutdown
flag — the least machinery that keeps the ``workers`` cap.

The FIFO's depth is the *admission control*: when it is full the policy
decides whether the caller blocks (``"block"``, the default — natural
backpressure for cooperating clients) or fails fast with
:class:`~repro.errors.ServerBusyError` (``"reject"``, load shedding).  A
blocked caller is *woken* by :meth:`WorkerPool.shutdown` and fails with
:class:`ServerBusyError`; callers already admitted still run.

Measured: ``server.queue_depth`` (gauge: admitted, not yet running),
``server.wait_seconds`` (histogram of the wait for a slot — 0 when one
was free), ``server.tasks`` / ``server.rejected`` (counters).  The wait
of the statement a thread is running is :func:`current_wait_seconds`
(the flight recorder's ``pool_wait_ms``).
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

_TASKS = metrics.counter("server.tasks")
_REJECTED = metrics.counter("server.rejected")
_QUEUE_DEPTH = metrics.gauge("server.queue_depth")
_WAIT_SECONDS = metrics.histogram("server.wait_seconds")


def current_wait_seconds() -> float:
    """Slot wait of the statement this thread is running (else 0.0)."""
    return getattr(_WAIT, "seconds", 0.0)


class WorkerPool:
    """``workers`` execution slots, a bounded FIFO and a rejection policy."""

    def __init__(self, workers: int = 4, queue_depth: int = 64,
                 policy: str = "block"):
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
        # One condition variable covers the FIFO, the slot count, the
        # shutdown flag and the blocked-caller count: waiters sleep on it
        # for their turn, block-policy callers for FIFO room, and shutdown
        # wakes everyone.  Deliberately not lockdep-instrumented — the
        # witness cannot model a condition wait's release-and-reacquire,
        # and nothing else is taken under it (a leaf).
        self._cond = threading.Condition()
        #: one token per admitted caller waiting for a slot, in arrival order
        self._waiting: deque[object] = deque()  # guarded_by: _cond
        self._running = 0  # slots held; guarded_by: _cond
        self._shutdown = False  # guarded_by: _cond
        self._blocked = 0  # callers waiting for FIFO room; guarded_by: _cond

    # ------------------------------------------------------------------ #

    def run(self, fn, *args):
        """``fn(*args)`` on this thread, inside a slot; returns its result.

        With the ``reject`` policy a full FIFO raises
        :class:`ServerBusyError` at once; with ``block`` the caller waits
        for room.  A blocked caller is woken by :meth:`shutdown` and also
        fails with :class:`ServerBusyError` — its statement was never
        admitted.  An admitted caller waits for its turn, then runs.
        """
        return self._run_admitted(self._admit(), fn, args)

    def submit(self, fn, *args) -> Future:
        """:meth:`run` for a caller that wants a future: admitted here,
        exactly as :meth:`run` admits, then waited for and run on a thread
        of its own."""
        ticket = self._admit()
        future = Future()

        def task() -> None:
            if not future.set_running_or_notify_cancel():
                self._run_admitted(ticket, lambda: None, ())  # its turn, unused
                return
            try:
                future.set_result(self._run_admitted(ticket, fn, args))
            # The future is the boundary: the exception is the waiter's.
            except BaseException as exc:  # qblint: disable=no-broad-except
                future.set_exception(exc)

        threading.Thread(target=task, daemon=True).start()
        return future

    def _admit(self):
        """Admit one caller: ``(token, enqueued at)``, the token ``None``
        when it took a free slot outright."""
        enqueued = time.perf_counter()
        with self._cond:
            if self._shutdown:
                raise ServerBusyError("worker pool is shut down")
            if self._running < self.workers and not self._waiting:
                self._running += 1
                token = None
            else:
                self._wait_for_room()
                token = object()
                self._waiting.append(token)
                depth = len(self._waiting)
        _TASKS.inc()
        if token is not None:
            _QUEUE_DEPTH.set(depth)
        return token, enqueued

    def _wait_for_room(self) -> None:
        """Return once the FIFO has room (``_cond`` held), or refuse."""
        if len(self._waiting) < self.queue_depth:
            return
        if self.policy == "reject":
            _REJECTED.inc()
            raise ServerBusyError(
                f"admission queue full ({self.queue_depth} statements "
                f"pending); retry later"
            )
        self._blocked += 1
        try:
            while len(self._waiting) >= self.queue_depth and not self._shutdown:
                self._cond.wait()
        finally:
            self._blocked -= 1
        if self._shutdown:
            _REJECTED.inc()
            raise ServerBusyError(
                "worker pool shut down while waiting for an admission slot"
            )

    def _run_admitted(self, ticket, fn, args):
        """Wait for the admitted caller's turn, run ``fn(*args)`` in its
        slot, then free the slot."""
        token, enqueued = ticket
        wait = 0.0
        if token is not None:
            with self._cond:
                try:
                    while not (self._waiting[0] is token
                               and self._running < self.workers):
                        self._cond.wait()
                finally:
                    # The head leaves (an interrupted waiter from anywhere):
                    # FIFO room freed and maybe a new head, so wake a blocked
                    # caller and the next waiter, which may find a slot free.
                    self._waiting.remove(token)
                    self._cond.notify_all()
                self._running += 1
                depth = len(self._waiting)
            _QUEUE_DEPTH.set(depth)
            wait = time.perf_counter() - enqueued
        outer = current_wait_seconds()  # a nested statement's caller's
        _WAIT.seconds = wait
        try:
            if wait:
                _WAIT_SECONDS.observe(wait)
            else:  # a slot was free: no histogram lock
                _WAIT_SECONDS.observe_zero()
            return fn(*args)
        finally:
            _WAIT.seconds = outer
            with self._cond:
                self._running -= 1
                # Only a waiter, or shutdown's drain, can want the slot.
                if self._waiting or self._shutdown:
                    self._cond.notify_all()

    # ------------------------------------------------------------------ #

    def shutdown(self, wait: bool = True) -> None:
        """Stop admitting; callers already admitted still run.

        With ``wait`` this returns only once no slot is held and nobody
        admitted is still waiting for one; blocked callers are woken and
        fail with :class:`ServerBusyError`.
        """
        with self._cond:
            self._shutdown = True
            self._cond.notify_all()
            while wait and (self._running or self._waiting):
                self._cond.wait()

    @property
    def pending(self) -> int:
        """Callers admitted but still waiting for a slot."""
        with self._cond:
            return len(self._waiting)

    @property
    def blocked_submitters(self) -> int:
        """Callers currently waiting for FIFO room (block policy)."""
        with self._cond:
            return self._blocked

    def __repr__(self) -> str:
        return (
            f"WorkerPool({self.workers} workers, {self.pending}/"
            f"{self.queue_depth} queued, policy={self.policy!r})"
        )
