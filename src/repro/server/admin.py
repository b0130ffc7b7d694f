"""The admin/metrics HTTP endpoint: what an operator points a scraper at.

:class:`AdminServer` runs a stdlib ``ThreadingHTTPServer`` on a daemon
thread beside a :class:`~repro.server.server.QueryServer` and exposes the
whole observability stack over plain HTTP GETs:

* ``/healthz`` — liveness: ``{"status": "ok"}`` while the server accepts
  statements, 503 once it has shut down;
* ``/metrics`` — the metrics registry in Prometheus text exposition
  (:mod:`repro.obs.promtext`), histogram buckets and p50/p95/p99
  included — the line a real scrape job would hit;
* ``/sessions`` — every open session (name, id, statements issued);
* ``/queries/recent?n=50`` — the flight recorder's newest records, each
  with its ``digest`` and its wall time split by phase (``phases_ms``);
* ``/incidents`` — the retained incident reports;
* ``/digests?n=50`` — the statement-digest table's busiest rows
  (pg_stat_statements-style per-query-class accounting, mean phase split
  included).

Alerting belongs to the scraper that reads ``/metrics`` (OPERATIONS.md
names the series).

Query parameters are validated: a non-integer or negative ``n`` is a 400
with a JSON error body, and unknown paths are a JSON 404 listing the
valid endpoints.

Binding defaults to ``127.0.0.1`` port 0 (the OS picks a free port,
reported as :attr:`AdminServer.port`), so tests and CI never race over a
fixed number and nothing listens beyond localhost unless asked to.  The
handler writes no access log — the server's own observability should not
spam the process's stderr.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.obs import digest, metrics, promtext, recorder

__all__ = ["AdminServer"]

_STARTED = metrics.counter("admin.started")

_ROUTES = ["/healthz", "/metrics", "/sessions", "/queries/recent",
           "/incidents", "/digests"]


class _AdminHandler(BaseHTTPRequestHandler):
    """Routes one GET to the matching observability view."""

    #: filled in by AdminServer before the listener starts
    admin: "AdminServer"

    server_version = "qbism-admin/1"

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        """Silence per-request access logging."""

    def _reply(self, status: int, body: str, content_type: str) -> None:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _reply_json(self, obj, status: int = 200) -> None:
        self._reply(status, json.dumps(obj, indent=2) + "\n",
                    "application/json; charset=utf-8")

    def do_GET(self) -> None:  # noqa: N802 - stdlib dispatch name
        """Serve one admin route (unknown paths get a 404 route list)."""
        url = urlparse(self.path)
        route = url.path.rstrip("/") or "/"
        if route == "/healthz":
            self._healthz()
        elif route == "/metrics":
            self._metrics()
        elif route == "/sessions":
            self._reply_json(self.admin.query_server.session_snapshot())
        elif route == "/queries/recent":
            self._recent(url)
        elif route == "/incidents":
            self._reply_json(recorder.get_recorder().incidents())
        elif route == "/digests":
            self._digests(url)
        else:
            self._reply_json({"error": f"no route {route!r}",
                              "routes": _ROUTES}, status=404)

    def _int_param(self, url, name: str, default: int) -> int | None:
        """A validated non-negative integer query param (None -> 400 sent)."""
        raw = parse_qs(url.query).get(name, [str(default)])[0]
        try:
            value = int(raw)
        except ValueError:
            self._reply_json(
                {"error": f"{name} must be an integer", name: raw},
                status=400)
            return None
        if value < 0:
            self._reply_json(
                {"error": f"{name} must be >= 0", name: raw}, status=400)
            return None
        return value

    def _healthz(self) -> None:
        if self.admin.query_server._closed:
            self._reply_json({"status": "shutdown"}, status=503)
        else:
            self._reply_json({"status": "ok"})

    def _metrics(self) -> None:
        self._reply(200, promtext.render(),
                    "text/plain; version=0.0.4; charset=utf-8")

    def _recent(self, url) -> None:
        n = self._int_param(url, "n", 50)
        if n is None:
            return
        records = recorder.get_recorder().recent(n)
        self._reply_json([r.to_dict() for r in records])

    def _digests(self, url) -> None:
        n = self._int_param(url, "n", 50)
        if n is None:
            return
        self._reply_json(digest.get_table().top(n))


class AdminServer:
    """A localhost HTTP listener exposing one QueryServer's observability."""

    def __init__(self, query_server, host: str = "127.0.0.1", port: int = 0):
        self.query_server = query_server
        handler = type("_BoundAdminHandler", (_AdminHandler,),
                       {"admin": self})
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self.host, self.port = self._httpd.server_address[:2]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name=f"repro-admin-{self.port}", daemon=True,
        )
        self._thread.start()
        _STARTED.inc()

    @property
    def url(self) -> str:
        """Base URL of the listener (e.g. ``http://127.0.0.1:49213``)."""
        return f"http://{self.host}:{self.port}"

    def close(self) -> None:
        """Stop the listener and join its thread."""
        self._httpd.shutdown()
        self._thread.join()
        self._httpd.server_close()

    def __enter__(self) -> "AdminServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "live" if self._thread.is_alive() else "stopped"
        return f"AdminServer({self.url}, {state})"
