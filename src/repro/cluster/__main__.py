"""Run a demo cluster: ``python -m repro.cluster --shards N``.

Builds an N-shard Hilbert-declustered cluster, routes a seeded
scatter-gather workload through the
:class:`~repro.cluster.router.ShardRouter`, starts an admin endpoint on
the router *and* on every shard, scrapes and
validates each ``/metrics`` page with :func:`repro.obs.promtext.parse`,
prints a summary, and exits 0 — exactly what the CI cluster smoke job
runs.  The router scrape also exercises the fleet views: the federated
``/metrics`` page (counter sums re-checked against each node registry's
own page), ``/cluster/healthz`` and ``/digests``.  ``--serve`` keeps the
endpoints up for interactive poking; see OPERATIONS.md for the runbook.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from urllib.request import urlopen

from repro.cluster.builder import build_demo_cluster
from repro.obs import metrics, promtext

__all__ = ["main"]


def _scrape(url: str):
    """GET one admin route; JSON-decode unless it is the metrics text."""
    with urlopen(url, timeout=10) as response:
        body = response.read().decode("utf-8")
    return body if url.endswith("/metrics") else json.loads(body)


def _workload(cluster) -> int:
    """A seeded scatter-gather mix: pruned, broadcast, and merged legs."""
    statements = 0
    for study_id in cluster.study_ids:
        cluster.execute(
            "select modality, width from rawVolume where studyId = ?",
            [study_id],
        )
        statements += 1
    for sql in (
        "select count(*) from warpedVolume",
        "select count(*), min(low), max(high) from intensityBand",
        "select structureName from neuralStructure order by structureName",
        "select studyId from warpedVolume order by studyId",
        "select studyId, low, high from intensityBand "
        "order by studyId, low limit 5",
    ):
        cluster.execute(sql)
        statements += 1
    return statements


def _check_observability_plane(cluster, router_admin) -> None:
    """Scrape and validate the router's federated fleet views.

    Raises :class:`SystemExit` on any mismatch so the CI smoke job fails
    loudly: the federated counter totals must equal the re-summed
    per-node pages, ``/cluster/healthz`` must report every shard up, and
    ``/digests`` must account the routed statements.
    """
    fed_families = promtext.parse(_scrape(router_admin.url + "/metrics"))
    per_node = [
        promtext.parse(promtext.render(registry))
        for _, registry in cluster.router.node_registries()
    ]

    def _counter_total(families, family: str) -> float:
        if family not in families:
            return 0.0
        return sum(value for name, _, value in families[family]["samples"]
                   if name == family)

    for family in ("db_statements", "executor_statements"):
        fed_total = _counter_total(fed_families, family)
        node_total = sum(_counter_total(f, family) for f in per_node)
        if fed_total != node_total:
            raise SystemExit(
                f"federation mismatch: {family} federated={fed_total} "
                f"!= per-node sum {node_total}"
            )
        print(f"federated {family}={fed_total:g} == per-node sum", flush=True)

    rollup = _scrape(router_admin.url + "/cluster/healthz")
    if rollup["status"] != "ok" or len(rollup["shards"]) != len(cluster.shards):
        raise SystemExit(f"cluster healthz rollup not healthy: {rollup}")
    for shard in rollup["shards"]:
        if not shard["up"]:
            raise SystemExit(f"shard {shard['shard']} reported down")
    print(f"cluster healthz: {rollup['status']}, "
          f"{len(rollup['shards'])} shards up", flush=True)

    digests = _scrape(router_admin.url + "/digests?n=10")
    if not digests or any("digest" not in row or row["calls"] < 1
                          for row in digests):
        raise SystemExit(f"digest table empty or malformed: {digests!r}")
    busiest = digests[0]
    print(f"digests: {len(digests)} classes, busiest "
          f"{busiest['statement'][:48]!r} x{busiest['calls']}", flush=True)


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster",
        description="Demo sharded cluster with router + per-shard admin.",
    )
    parser.add_argument("--shards", type=int, default=2,
                        help="number of shards (default 2)")
    parser.add_argument("--grid", type=int, default=32,
                        help="phantom grid side (default 32)")
    parser.add_argument("--pet", type=int, default=2,
                        help="synthetic PET studies (default 2)")
    parser.add_argument("--mri", type=int, default=1,
                        help="synthetic MRI studies (default 1)")
    parser.add_argument("--port", type=int, default=0,
                        help="router admin port (default 0: OS-assigned)")
    parser.add_argument("--serve", action="store_true",
                        help="stay up after the workload (Ctrl-C to stop)")
    args = parser.parse_args(argv)

    print(f"building {args.shards}-shard cluster (grid {args.grid})...",
          flush=True)
    cluster = build_demo_cluster(
        n_shards=args.shards, grid_side=args.grid,
        n_pet=args.pet, n_mri=args.mri,
    )
    try:
        router_admin = cluster.router.start_admin(port=args.port)
        print(f"router admin: {router_admin.url}", flush=True)
        shard_admins = []
        for shard in cluster.shards:
            shard_admins.append(shard.start_admin())
            print(f"shard {shard.shard_id} admin: {shard.admin.url} "
                  f"({len(shard.study_ids)} studies)", flush=True)

        t0 = time.perf_counter()
        statements = _workload(cluster)
        wall = time.perf_counter() - t0
        print(f"routed {statements} statements in {wall:.2f}s", flush=True)

        # Scrape and validate every endpoint in the cluster.
        for label, admin in [("router", router_admin)] + [
            (f"shard-{s.shard_id}", a)
            for s, a in zip(cluster.shards, shard_admins)
        ]:
            health = _scrape(admin.url + "/healthz")
            families = promtext.parse(_scrape(admin.url + "/metrics"))
            sessions = _scrape(admin.url + "/sessions")
            print(f"{label}: healthz={health['status']}, "
                  f"{len(families)} metric families, "
                  f"{len(sessions)} sessions")

        _check_observability_plane(cluster, router_admin)

        counters = metrics.snapshot()["counters"]
        print(f"cluster.queries={counters.get('cluster.queries', 0)} "
              f"broadcasts={counters.get('cluster.broadcasts', 0)} "
              f"pruned_shards={counters.get('cluster.pruned_shards', 0)}")

        if args.serve:
            print("serving until interrupted...", flush=True)
            try:
                while True:
                    time.sleep(3600)
            except KeyboardInterrupt:
                print("stopping")
    finally:
        cluster.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
