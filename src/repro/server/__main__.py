"""Run a demo QueryServer with the admin endpoint: ``python -m repro.server``.

Builds a small synthetic QBISM database, serves a seeded multi-session
workload through the worker pool, and starts the admin HTTP endpoint.
Two modes:

* default (smoke): run the workload, scrape the endpoint's own
  ``/metrics`` / ``/healthz`` / ``/queries/recent`` / ``/incidents``
  over HTTP, validate the Prometheus text with
  :func:`repro.obs.promtext.parse`, print a summary, exit 0 — this is
  exactly what the CI smoke job runs;
* ``--serve``: keep the endpoint up for interactive poking until
  interrupted.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from urllib.request import urlopen

from repro.core.system import QbismSystem
from repro.obs import promtext
from repro.server import QueryServer

__all__ = ["main"]


def _query_pool(db) -> list[str]:
    """Distinct read statements over the demo schema, LFM-heavy."""
    pool: list[str] = []
    structure_ids = db.execute(
        "select structureId from atlasStructure"
    ).column("structureId")
    for sid in structure_ids:
        pool.append(
            f"select voxelCount(region) from atlasStructure "
            f"where structureId = {sid}"
        )
        pool.append(
            f"select runCount(region) from atlasStructure "
            f"where structureId = {sid}"
        )
    for study_id, low, encoding in db.execute(
        "select studyId, low, encoding from intensityBand"
    ).rows:
        pool.append(
            f"select voxelCount(region) from intensityBand "
            f"where studyId = {study_id} and low = {low} "
            f"and encoding = '{encoding}'"
        )
    # §6's early-filtering workhorse: read exactly one structure's voxels
    # out of a warped study and reduce them.
    study_ids = db.execute(
        "select studyId from warpedVolume"
    ).column("studyId")
    for study_id in study_ids:
        for sid in structure_ids[:3]:
            pool.append(
                f"select dataMean(extractVoxels(v.data, s.region)) "
                f"from warpedVolume v, atlasStructure s "
                f"where v.studyId = {study_id} and s.structureId = {sid}"
            )
    for left, right in zip(structure_ids, structure_ids[1:]):
        pool.append(
            f"select voxelCount(intersection(a.region, b.region)) "
            f"from atlasStructure a, atlasStructure b "
            f"where a.structureId = {left} and b.structureId = {right}"
        )
    pool.append("select count(*) from rawVolume where modality = 'PET'")
    pool.append("select count(*) from rawVolume where modality = 'MRI'")
    pool.append("select count(*) from neuralStructure")
    return pool


def _workload(server: QueryServer, pool: list[str], sessions: int) -> int:
    """Replay the query pool across ``sessions`` concurrent sessions."""
    def client(k: int) -> None:
        with server.connect(name=f"demo-{k}") as session:
            for sql in pool[k::sessions] or pool[:1]:
                session.execute(sql)

    threads = [threading.Thread(target=client, args=(k,), name=f"demo-{k}")
               for k in range(sessions)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return sum(len(pool[k::sessions] or pool[:1]) for k in range(sessions))


def _scrape(url: str):
    """GET one admin route; JSON-decode unless it is the metrics text."""
    with urlopen(url, timeout=10) as response:
        body = response.read().decode("utf-8")
    return body if url.endswith("/metrics") else json.loads(body)


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description="Demo QueryServer with the admin/metrics endpoint.",
    )
    parser.add_argument("--serve", action="store_true",
                        help="stay up after the workload (Ctrl-C to stop)")
    parser.add_argument("--sessions", type=int, default=4,
                        help="concurrent demo sessions (default 4)")
    parser.add_argument("--grid", type=int, default=32,
                        help="phantom grid side (default 32; paper scale 128)")
    parser.add_argument("--port", type=int, default=0,
                        help="admin port (default 0: OS-assigned)")
    args = parser.parse_args(argv)

    print(f"building demo database (grid {args.grid})...", flush=True)
    system = QbismSystem.build_demo(grid_side=args.grid, n_pet=2, n_mri=1)
    pool = _query_pool(system.db)
    with QueryServer(system.db, workers=4) as server:
        admin = server.start_admin(port=args.port)
        print(f"admin endpoint: {admin.url}", flush=True)

        t0 = time.perf_counter()
        statements = _workload(server, pool, max(1, args.sessions))
        wall = time.perf_counter() - t0
        print(f"served {statements} statements from {args.sessions} "
              f"sessions in {wall:.2f}s", flush=True)

        health = _scrape(admin.url + "/healthz")
        metrics_text = _scrape(admin.url + "/metrics")
        families = promtext.parse(metrics_text)
        recent = _scrape(admin.url + "/queries/recent?n=5")
        incidents = _scrape(admin.url + "/incidents")
        print(f"healthz: {health['status']}")
        print(f"/metrics: {len(families)} families, Prometheus text valid")
        print(f"/queries/recent: {len(recent)} records "
              f"(newest: {recent[0]['sql'][:60]!r})" if recent else
              "/queries/recent: empty")
        print(f"/incidents: {len(incidents)} reports")

        if args.serve:
            print("serving until interrupted...", flush=True)
            try:
                while True:
                    time.sleep(3600)
            except KeyboardInterrupt:
                print("stopping")
    return 0


if __name__ == "__main__":
    sys.exit(main())
