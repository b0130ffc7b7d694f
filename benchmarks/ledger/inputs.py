"""Frozen input generators of the performance ledger.

The benchmark owns its inputs: nothing here imports ``repro.bench`` or
``repro.synthdata``, so a later change to those packages cannot move
the workloads.  Everything random is drawn from the ``--seed`` argument;
the statement *universe* itself is not random (only the order in which
it is replayed is), so count metrics repeat exactly across seeds.
"""

from __future__ import annotations

import bisect
import random

import numpy as np
from scipy import ndimage

#: Table 3 at grid 64: the literal band 224-255 is empty there, so Q5/Q6
#: use the next band down (ISSUE 11).
PAPER_BAND = (192, 255)
TABLE4_BAND = (128, 159)
#: every band is stored under the three encodings Table 4 compares
BAND_ENCODINGS = ("hilbert-naive", "z-naive", "octant")


def scaled_box(side: int) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """The paper's Q2 box (30,30,30)..(100,100,100), scaled to the grid."""
    lo = round(30 * side / 128)
    hi = round(101 * side / 128)
    return (lo, lo, lo), (hi, hi, hi)


def statement_universe(db) -> list[str]:
    """Every distinct short SELECT the ``*_g32`` workloads replay.

    Built from the ids stored in ``db`` (the seed-1994 demo database), in
    a fixed order.  Roughly 640 statements: larger than twice the result
    cache (256 entries) and the server's statement memo (256 entries).
    """
    structure_ids = sorted(db.execute(
        "select structureId from atlasStructure").column("structureId"))
    study_ids = sorted(db.execute(
        "select studyId from warpedVolume").column("studyId"))
    band_rows = sorted(db.execute(
        "select studyId, low, high, encoding from intensityBand").rows)
    lows = sorted({low for _, low, _, _ in band_rows})
    universe: list[str] = []
    for sid in structure_ids:
        for fn in ("voxelCount", "runCount"):
            universe.append(
                f"select {fn}(region) from atlasStructure "
                f"where structureId = {sid}")
    for study, low, _high, encoding in band_rows:
        for fn in ("voxelCount", "runCount"):
            universe.append(
                f"select {fn}(region) from intensityBand "
                f"where studyId = {study} and low = {low} "
                f"and encoding = '{encoding}'")
    for study in study_ids:
        for sid in structure_ids:
            universe.append(
                f"select dataMean(extractVoxels(v.data, s.region)) "
                f"from warpedVolume v, atlasStructure s "
                f"where v.studyId = {study} and s.structureId = {sid}")
        for low in lows:
            universe.append(
                f"select dataMean(extractVoxels(v.data, b.region)) "
                f"from warpedVolume v, intensityBand b "
                f"where v.studyId = {study} and b.studyId = {study} "
                f"and b.low = {low} and b.encoding = 'hilbert-naive'")
    for left, right in zip(structure_ids, structure_ids[1:]):
        universe.append(
            f"select voxelCount(intersection(a.region, b.region)) "
            f"from atlasStructure a, atlasStructure b "
            f"where a.structureId = {left} and b.structureId = {right}")
    # Q6-shaped: a band inside a structure of one study, three tables.
    for study in study_ids:
        for k in range(3):
            sid = structure_ids[(study + k) % len(structure_ids)]
            low = lows[(study + 2 * k) % len(lows)]
            universe.append(
                f"select dataVoxels(extractVoxels(v.data, "
                f"intersection(s.region, b.region))) "
                f"from warpedVolume v, atlasStructure s, intensityBand b "
                f"where v.studyId = {study} and s.structureId = {sid} "
                f"and b.studyId = v.studyId and b.low = {low} "
                f"and b.encoding = 'hilbert-naive'")
    # Scalar-table filters and aggregates; the patient ones are what the
    # served workloads' INSERTs invalidate.
    for age in range(20, 76, 4):
        universe.append(f"select count(*) from patient where age >= {age}")
        universe.append(
            f"select name, age from patient where age < {age} and sex = 'M'")
    for sex in ("F", "M"):
        universe.append(f"select count(*) from patient where sex = '{sex}'")
        universe.append(f"select max(age) from patient where sex = '{sex}'")
    for modality in ("PET", "MRI"):
        universe.append(
            f"select count(*) from rawVolume where modality = '{modality}'")
        universe.append(
            f"select studyId, depth from rawVolume "
            f"where modality = '{modality}' order by studyId")
    for depth in (4, 8, 11, 12, 13, 16):
        universe.append(
            f"select count(*) from rawVolume where depth >= {depth}")
    for study in study_ids:
        universe.append(
            f"select p.name, rv.modality from patient p, rawVolume rv "
            f"where rv.patientId = p.patientId and rv.studyId = {study}")
    universe.append("select count(*) from neuralStructure")
    universe.append("select count(*) from intensityBand")
    if len(set(universe)) != len(universe):
        raise AssertionError("statement universe has duplicates")
    return universe


def insert_patient_sql(patient_id: int) -> str:
    """The served workloads' write.  No universe statement selects a row
    with sex 'X' and age 5, so the reference answers stay valid while the
    ``patient`` reads are invalidated in the result cache all the same."""
    return (f"insert into patient values "
            f"({patient_id}, 'ledger', '1990-01-01', 'X', 5)")


class ZipfSampler:
    """Zipf(s = 1.0) over ``n`` ranks, by inverse CDF; rank 0 is hottest.

    Which item has which rank is a frozen permutation, so the mix of hot
    and cold statements is the same on every run; only the draws come
    from the seeded ``rng``.
    """

    def __init__(self, n: int, rng: random.Random, s: float = 1.0):
        weights = [1.0 / (rank + 1) ** s for rank in range(n)]
        total = sum(weights)
        acc = 0.0
        self._cdf = []
        for w in weights:
            acc += w / total
            self._cdf.append(acc)
        self._cdf[-1] = 1.0
        self._items = list(range(n))
        random.Random(1994).shuffle(self._items)
        self._rng = rng

    def draw(self) -> int:
        return self._items[bisect.bisect_left(self._cdf, self._rng.random())]


def _interleave(first: list, second: list) -> list:
    """a0, b0, a1, b1, ...: any prefix holds both modalities alike."""
    out = []
    for k in range(max(len(first), len(second))):
        out += first[k:k + 1] + second[k:k + 1]
    return out


def ingest_studies(phantom, seed: int, n_pet: int = 6, n_mri: int = 6):
    """Seeded patient-space studies to load: ``(modality, data, warp)``.

    Anatomy from the system's phantom, a per-study gain, a smooth
    low-frequency field and detector noise, sampled onto an anisotropic
    patient grid through an axis-scaling warp with a small translation.
    """
    from repro.medical.warp import AffineTransform

    side = phantom.grid.shape[0]
    scale = side / 128
    shapes = {
        "PET": (side, side, max(4, round(51 * scale))),
        "MRI": (max(8, round(512 * scale)), max(8, round(512 * scale)),
                max(4, round(44 * scale))),
    }
    rng = np.random.default_rng(seed)
    anatomy = np.asarray(phantom.anatomy, dtype=np.float64)
    studies = []
    for modality in _interleave(["PET"] * n_pet, ["MRI"] * n_mri):
        shape = shapes[modality]
        field = ndimage.gaussian_filter(
            rng.standard_normal(anatomy.shape), side / 10)
        truth = np.clip(
            anatomy * rng.uniform(0.55, 0.95) + 1.5 * field, 0.0, 1.0)
        linear = np.diag([side / s for s in shape])
        warp = AffineTransform.from_linear(
            linear, rng.uniform(-0.02, 0.02, 3) * side)
        patient = ndimage.affine_transform(
            truth, matrix=warp.linear, offset=warp.translation,
            output_shape=shape, order=1, mode="constant", cval=0.0)
        patient += rng.normal(0.0, 0.012, shape)
        data = np.clip(np.rint(patient * 255.0), 0, 255).astype(np.uint8)
        studies.append((modality, data, warp))
    return studies
