"""Build a demo cluster: N declustered shards behind one router.

The builder replays ``QbismSystem.build_demo``'s load sequence exactly —
same phantom, same study generators, same RNG stream for patient
demographics, same device-capacity formula, same spatial-index and
ANALYZE tail — but deals the studies across shards along the Hilbert
curve.  With ``n_shards=1`` every row, long field, and page lands
byte-for-byte where the single node puts it, which is what pins the
Table 3/4 LFM I/O counts at shard count 1 (asserted by test).

Identity across shards is kept by construction:

* reference data (atlas, structures, patients) loads on *every* shard in
  the same global order, so replicated rows get identical ids everywhere;
* each study loads only on its owning shard, with the shard's loader
  seeded to the *global* study counter first (``MedicalLoader.seed_ids``),
  so study ids are cluster-unique and equal to the single node's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.placement import PlacementMap, place_studies
from repro.cluster.router import ShardRouter
from repro.cluster.shard import Shard
from repro.core.system import (
    _estimate_capacity,
    demo_inputs,
    index_and_analyze,
    node_stack,
)
from repro.medical.loader import MedicalLoader
from repro.medical.server import MedicalServer
from repro.server.server import QueryServer
from repro.storage.device import BlockDevice

__all__ = ["Cluster", "build_demo_cluster"]


@dataclass
class Cluster:
    """A running demo cluster and everything needed to drive or close it."""

    router: ShardRouter
    shards: list[Shard]
    placement: PlacementMap
    phantom: object
    atlas: object
    grid_side: int
    pet_study_ids: list[int] = field(default_factory=list)
    mri_study_ids: list[int] = field(default_factory=list)

    @property
    def study_ids(self) -> list[int]:
        """Every study id, in global load order."""
        return sorted(self.pet_study_ids + self.mri_study_ids)

    def execute(self, sql: str, params: list | None = None):
        """Route one statement through the cluster (router passthrough)."""
        return self.router.execute(sql, params)

    def close(self) -> None:
        """Shut the cluster down (router closes every shard)."""
        self.router.close()

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"Cluster({len(self.shards)} shards, "
            f"{len(self.pet_study_ids)} PET + {len(self.mri_study_ids)} MRI)"
        )


def build_demo_cluster(
    n_shards: int = 2,
    seed: int = 1994,
    grid_side: int = 32,
    n_pet: int = 5,
    n_mri: int = 3,
    band_encodings: tuple[str, ...] = ("hilbert-naive",),
    wal: bool = True,
) -> Cluster:
    """Build and populate an ``n_shards``-way cluster from synthetic data."""
    phantom, pet, mri = demo_inputs(seed, grid_side, n_pet, n_mri)
    studies = pet + mri
    capacity = _estimate_capacity(grid_side, pet, mri, band_encodings)
    assignment = place_studies(studies, grid_side, n_shards)
    placement = PlacementMap(n_shards=n_shards)

    # One complete single-node stack per shard.
    stacks = []
    for shard_id in range(n_shards):
        device, lfm, db = node_stack(BlockDevice(capacity), wal)
        loader = MedicalLoader(db, lfm, encodings=band_encodings)
        atlas = loader.load_atlas(phantom)
        stacks.append(
            {"device": device, "lfm": lfm, "db": db, "loader": loader,
             "atlas": atlas, "study_ids": []}
        )

    # The single node's exact patient/study loop — one shared RNG stream,
    # patients replicated everywhere, studies loaded on their owner only.
    rng = np.random.default_rng(seed + 3)
    pet_ids, mri_ids = [], []
    for i, study in enumerate(studies):
        birth_date = f"{1930 + int(rng.integers(0, 45))}-01-01"
        sex = "F" if rng.integers(0, 2) else "M"
        age = int(rng.integers(20, 75))
        for stack in stacks:
            stack["loader"].register_patient(
                name=f"subject-{i + 1:02d}",
                birth_date=birth_date, sex=sex, age=age,
            )
        owner = stacks[assignment[i]]
        owner["loader"].seed_ids("study", i + 1)
        study_id = owner["loader"].load_study(
            study.data,
            study.modality,
            i + 1,  # the patient registered above, same id on every shard
            owner["atlas"],
            phantom.grid,
            warp=study.patient_to_atlas,
        )
        placement.assign(study_id, assignment[i])
        owner["study_ids"].append(study_id)
        (pet_ids if study.modality == "PET" else mri_ids).append(study_id)

    # The single node's indexing tail, per shard.
    shards: list[Shard] = []
    for shard_id, stack in enumerate(stacks):
        db = stack["db"]
        index_and_analyze(db)
        shards.append(Shard(
            shard_id=shard_id,
            device=stack["device"],
            lfm=stack["lfm"],
            db=db,
            server=QueryServer(
                db, node_labels={"shard": str(shard_id), "role": "primary"},
            ),
            medical=MedicalServer(db),
            study_ids=stack["study_ids"],
        ))

    router = ShardRouter(shards, placement)
    return Cluster(
        router=router,
        shards=shards,
        placement=placement,
        phantom=phantom,
        atlas=stacks[0]["atlas"],
        grid_side=grid_side,
        pet_study_ids=pet_ids,
        mri_study_ids=mri_ids,
    )
