"""Sharded scatter-gather serving over Hilbert declustering.

The paper's future-work section names Hilbert-curve declustering across
storage nodes as the path to parallel I/O on REGION data; this package
builds it.  N single-node stacks (each its own ``BlockDevice`` + WAL +
catalog + :class:`~repro.server.QueryServer`) become **shards** behind a
:class:`~repro.cluster.router.ShardRouter` that

* places studies on shards by Hilbert order of their bounding-box
  centroids in atlas space (:mod:`repro.cluster.placement`),
* plans scatter-gather SELECTs — pruned fan-out when ``studyId``
  conjuncts or per-shard statistics bound the touched shards, broadcast
  otherwise — runs each leg on the caller's thread, and merges partials
  (aggregate re-aggregation, ORDER BY / LIMIT merge, interval-algebra
  region merges).

Every shard lives in this one process, so nothing fails independently
of anything else: a closed shard refuses the statement before any leg
runs, and there is no replica to fail over to.

``python -m repro.cluster --shards N`` starts a demo cluster; see
OPERATIONS.md for the runbook and ARCHITECTURE.md ("Distributed
serving") for the design.
"""

from __future__ import annotations

from repro.cluster.builder import Cluster, build_demo_cluster
from repro.cluster.placement import PlacementMap, place_studies, study_hilbert_key
from repro.cluster.router import ShardRouter
from repro.cluster.shard import Shard

__all__ = [
    "Cluster",
    "PlacementMap",
    "Shard",
    "ShardRouter",
    "build_demo_cluster",
    "place_studies",
    "study_hilbert_key",
]
