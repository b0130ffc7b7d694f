"""Concurrent query serving: sessions, admission slots, result cache.

The 1994 prototype served one user at a time; this package is the
serving layer the ROADMAP's "heavy traffic" goal needs.  A
:class:`QueryServer` wraps one :class:`~repro.db.database.Database` and
hands out :class:`Session` objects; a statement takes one of the
:class:`WorkerPool`'s slots (or waits its turn in a bounded FIFO) and
runs on its caller's thread — SELECTs on a pinned MVCC version with no
lock, writes under the database's write lock — with a shared,
write-invalidated result cache in front.  See ARCHITECTURE.md
for the full data flow.

:class:`AdminServer` (started via :meth:`QueryServer.start_admin
<repro.server.server.QueryServer.start_admin>`) adds the operator-facing
HTTP surface: ``/metrics`` in Prometheus text, ``/healthz``,
``/sessions``, ``/queries/recent``, ``/incidents``.
"""

from repro.server.admin import AdminServer
from repro.server.pool import REJECTION_POLICIES, WorkerPool
from repro.server.resultcache import CachedResult, ResultCache
from repro.server.server import QueryServer
from repro.server.session import Session, SessionFunctions

__all__ = [
    "QueryServer",
    "Session",
    "SessionFunctions",
    "AdminServer",
    "WorkerPool",
    "ResultCache",
    "CachedResult",
    "REJECTION_POLICIES",
]
