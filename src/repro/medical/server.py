"""The MedicalServer: high-level query specs -> SQL -> results (§5.2).

"MedicalServer translates high-level query specifications it receives from
DX into SQL, sends the query strings to Starburst, and then returns the
results to DX."  A :class:`QuerySpec` is what the DX entry fields produce
(study, structures, intensity range, probe box); the server generates the
paper's two-query pattern (§3.4): a metadata query for coordinate-space and
patient information, then the data query whose select list nests the
spatial operators.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.db.database import Database, QueryResult
from repro.db.functions import WorkCounters
from repro.errors import MedicalError
from repro.obs import metrics
from repro.regions import Region
from repro.storage.device import IOStats
from repro.volumes import BAND_WIDTH, DataRegion

__all__ = ["QuerySpec", "MedicalQueryResult", "MedicalServer"]

_QUERIES = metrics.counter("server.queries")


@dataclass(frozen=True)
class QuerySpec:
    """One user query, as entered in the DX front end.

    Any combination of the three spatial parts may be present; their
    intersection restricts the study data (an empty spec is the paper's Q1:
    the entire study).
    """

    study_id: int
    atlas_name: str = "Talairach"
    structures: tuple[str, ...] = ()
    intensity_range: tuple[int, int] | None = None
    box: tuple[tuple[int, int, int], tuple[int, int, int]] | None = None

    def label(self) -> str:
        """A short human-readable description of the query."""
        parts = [f"study {self.study_id}"]
        if self.box:
            parts.append(f"box {self.box[0]}..{self.box[1]}")
        if self.structures:
            parts.append("in " + "+".join(self.structures))
        if self.intensity_range:
            parts.append(f"intensity {self.intensity_range[0]}-{self.intensity_range[1]}")
        return ", ".join(parts)


@dataclass
class MedicalQueryResult:
    """Everything the server hands back for one query."""

    spec: QuerySpec
    metadata: dict
    payload: bytes  #: serialized DATA_REGION, the bytes shipped to DX
    sql: list[str]  #: the generated statements, in execution order
    io: IOStats
    work: WorkCounters
    post_filtered: bool = False  #: true when a non-band-aligned range was refined client-side
    _data: DataRegion | None = field(default=None, repr=False)

    @property
    def data(self) -> DataRegion:
        """The payload decoded: on first use, unless the post-filter built it."""
        if self._data is None:
            self._data = DataRegion.from_bytes(self.payload)
        return self._data


_METADATA_SQL = """
select a.n, a.x0, a.y0, a.z0, a.dx, a.dy, a.dz,
       a.atlasId, p.name, p.patientId, rv.date
from atlas a, rawVolume rv, warpedVolume wv, patient p
where a.atlasId = wv.atlasId and
      wv.studyId = rv.studyId and
      rv.patientId = p.patientId and
      rv.studyId = ? and a.atlasName = ?
""".strip()


class MedicalServer:
    """Generates and runs the SQL for high-level medical queries."""

    def __init__(self, db: Database, encoding: str = "hilbert-naive"):
        self.db = db
        self.encoding = encoding

    # ------------------------------------------------------------------ #
    # the paper's single-study query pattern
    # ------------------------------------------------------------------ #

    def execute(self, spec: QuerySpec) -> MedicalQueryResult:
        """Run the two-query pattern of §3.4 and package the result."""
        _QUERIES.inc()
        sqls: list[str] = []
        meta_result = self.db.execute(
            _METADATA_SQL, [spec.study_id, spec.atlas_name]
        )
        sqls.append(_METADATA_SQL)
        row = meta_result.first()
        if row is None:
            raise MedicalError(
                f"no warped volume for study {spec.study_id} in atlas {spec.atlas_name!r}"
            )
        metadata = dict(zip(meta_result.columns, row))
        atlas_id = metadata["atlasId"]

        data_sql, params, needs_post_filter = self._build_data_query(
            spec, atlas_id, metadata["n"])
        data_result = self.db.execute(data_sql, params)
        sqls.append(data_sql)
        data_row = data_result.first()
        if data_row is None:
            raise MedicalError(f"data query returned no rows for {spec.label()}")
        payload = data_row[0]
        data = None
        if needs_post_filter:
            lo, hi = spec.intensity_range
            data = DataRegion.from_bytes(payload).band(lo, hi)
            payload = data.to_bytes()
        io = data_result.io
        if io is not None and meta_result.io is not None:
            io = io + meta_result.io
        work = data_result.work + meta_result.work
        return MedicalQueryResult(
            spec=spec,
            metadata=metadata,
            payload=payload,
            sql=sqls,
            io=io,
            work=work,
            post_filtered=needs_post_filter,
            _data=data,
        )

    def _build_data_query(self, spec: QuerySpec, atlas_id: int,
                          atlas_side: int) -> tuple[str, list, bool]:
        """Generate the data query: FROM/WHERE joins plus nested operators.

        ``atlas_side`` is the atlas grid's side (``atlas.n``, which the
        metadata query already fetched), for rasterizing a box probe.
        """
        tables = ["warpedVolume wv"]
        where = ["wv.studyId = ?", "wv.atlasId = ?"]
        params: list = [spec.study_id, atlas_id]
        region_exprs: list[str] = []
        needs_post_filter = False

        for i, structure in enumerate(spec.structures):
            s, ns = f"s{i}", f"ns{i}"
            tables += [f"atlasStructure {s}", f"neuralStructure {ns}"]
            where += [
                f"{s}.atlasId = wv.atlasId",
                f"{s}.structureId = {ns}.structureId",
                f"{ns}.structureName = ?",
            ]
            params.append(structure)
        if spec.structures:
            expr = "s0.region"
            for i in range(1, len(spec.structures)):
                expr = f"regionUnion({expr}, s{i}.region)"
            region_exprs.append(expr)

        if spec.intensity_range is not None:
            bands, needs_post_filter = self._covering_bands(spec.intensity_range)
            for i, (lo, hi) in enumerate(bands):
                b = f"b{i}"
                tables.append(f"intensityBand {b}")
                where += [
                    f"{b}.studyId = wv.studyId",
                    f"{b}.atlasId = wv.atlasId",
                    f"{b}.low = ?",
                    f"{b}.high = ?",
                    f"{b}.encoding = ?",
                ]
                params += [lo, hi, self.encoding]
            expr = "b0.region"
            for i in range(1, len(bands)):
                expr = f"regionUnion({expr}, b{i}.region)"
            region_exprs.append(expr)

        if spec.box is not None:
            # The probe geometry is rasterized server-side and passed as a
            # transient REGION payload parameter.
            region_exprs.append("?")

        if not region_exprs:
            select = "extractAll(wv.data)"
        else:
            combined = region_exprs[0]
            for expr in region_exprs[1:]:
                combined = f"intersection({combined}, {expr})"
            select = f"extractVoxels(wv.data, {combined})"
        sql = (
            f"select {select}\nfrom {', '.join(tables)}\nwhere "
            + " and\n      ".join(where)
        )
        if spec.box is not None:
            # The box placeholder sits in the select list, which is lexically
            # first, so its value must be the first positional parameter.
            params.insert(0, self._box_payload(spec, atlas_side))
        return sql, params, needs_post_filter

    def _covering_bands(self, intensity_range: tuple[int, int]) -> tuple[list[tuple[int, int]], bool]:
        """Stored bands covering the range; flags non-aligned ranges.

        The paper's experiments query ranges "that exactly matched intensity
        bands".  Other ranges are answered with the covering bands plus a
        client-side refinement (the post-processing §4.2 mentions for
        approximate regions).
        """
        lo, hi = intensity_range
        if lo > hi:
            raise MedicalError(f"empty intensity range [{lo}, {hi}]")
        if lo < 0 or hi > 255:
            raise MedicalError("intensity range must lie within [0, 255]")
        bands = [(start, start + BAND_WIDTH - 1)
                 for start in range(lo - lo % BAND_WIDTH, hi + 1, BAND_WIDTH)]
        aligned = bands[0][0] == lo and bands[-1][1] == hi
        return bands, not aligned

    def _box_payload(self, spec: QuerySpec, side: int) -> bytes:
        """Rasterize the probe box in the atlas grid and serialize it."""
        from repro.curves import GridSpec

        grid = GridSpec((side,) * 3)
        region = Region.from_box(grid, spec.box[0], spec.box[1], curve="hilbert")
        return region.to_bytes("naive")

    # ------------------------------------------------------------------ #
    # multi-study queries (§6.3 / Table 4)
    # ------------------------------------------------------------------ #

    def band_consistency_region(
        self,
        study_ids: list[int],
        low: int,
        high: int,
        encoding: str | None = None,
    ) -> tuple[Region, QueryResult]:
        """The Table 4 query: the REGION where *all* studies have intensities
        in the given band, via an n-way spatial intersection in the DBMS."""
        if len(study_ids) < 2:
            raise MedicalError("band consistency needs at least two studies")
        _QUERIES.inc()
        encoding = encoding or self.encoding
        tables = [f"intensityBand b{i}" for i in range(len(study_ids))]
        where: list[str] = []
        params: list = []
        for i, study_id in enumerate(study_ids):
            where += [f"b{i}.studyId = ?", f"b{i}.low = ?", f"b{i}.high = ?", f"b{i}.encoding = ?"]
            params += [study_id, low, high, encoding]
        expr = "b0.region"
        for i in range(1, len(study_ids)):
            expr = f"intersection({expr}, b{i}.region)"
        sql = f"select {expr}\nfrom {', '.join(tables)}\nwhere " + " and\n      ".join(where)
        result = self.db.execute(sql, params)
        row = result.first()
        if row is None:
            raise MedicalError("band consistency query matched no stored bands")
        return Region.from_bytes(row[0]), result

    def raw_slice(self, study_id: int, slice_index: int) -> tuple["np.ndarray", QueryResult]:
        """One acquired slice of a raw study, straight off the scanner data.

        Raw volumes are stored slice-major, so this reads exactly one
        contiguous ``width x height`` piece of the long field — the access
        pattern scanline order exists to serve.
        """
        import numpy as np

        meta = self.db.execute(
            "select width, height, depth from rawVolume where studyId = ?",
            [study_id],
        ).first()
        if meta is None:
            raise MedicalError(f"no raw volume for study {study_id}")
        width, height, depth = meta
        if not 0 <= slice_index < depth:
            raise MedicalError(
                f"slice {slice_index} out of range; study has {depth} slices"
            )
        nbytes = width * height
        result = self.db.execute(
            "select readPiece(data, ?, ?) from rawVolume where studyId = ?",
            [slice_index * nbytes, nbytes, study_id],
        )
        plane = np.frombuffer(result.scalar(), dtype=np.uint8).reshape(width, height)
        return plane, result

    def structures_intersecting_box(
        self,
        lower: tuple[int, int, int],
        upper: tuple[int, int, int],
        atlas_name: str = "Talairach",
        use_index: bool = True,
    ) -> tuple[list[str], QueryResult]:
        """Structures a probe box intersects — targeting a beam, §2.1.

        With ``use_index`` (the §7 spatial-indexing extension) the
        cost-based planner probes the spatial index over ``atlasStructure.region``
        so only candidate REGION long fields are read for the exact test;
        without it, the statement runs on the naive plan and every
        structure's region is fetched and tested.  Returns the structure
        names plus the :class:`QueryResult` whose ``io`` shows the
        difference.
        """
        atlas_row = self.db.execute(
            "select atlasId, n from atlas where atlasName = ?", [atlas_name]
        ).first()
        if atlas_row is None:
            raise MedicalError(f"no atlas named {atlas_name!r}")
        atlas_id, side = atlas_row
        where = [
            "s.atlasId = ?",
            "s.structureId = ns.structureId",
        ]
        params: list = [atlas_id]
        from repro.curves import GridSpec

        grid = GridSpec((side,) * 3)
        probe = Region.from_box(grid, lower, upper, curve="hilbert")
        # Exact refinement happens in the same SQL: the intersection of the
        # probe payload with each candidate must be non-empty.  With the
        # index on, a box probe narrows the scan to regions whose bounding
        # box overlaps the probe's before any payload is read.
        where.append("voxelCount(intersection(s.region, ?)) > 0")
        sql = (
            "select ns.structureName\n"
            "from atlasStructure s, neuralStructure ns\n"
            "where " + " and\n      ".join(where) + "\n"
            "order by ns.structureName"
        )
        params.append(probe.to_bytes("naive"))
        result = self.db.execute(
            sql, params, planner=None if use_index else "naive"
        )
        return [row[0] for row in result.rows], result

    def find_studies(
        self,
        structure: str,
        min_mean_intensity: float,
        sex: str | None = None,
        min_age: int | None = None,
        max_age: int | None = None,
        modality: str = "PET",
        atlas_name: str = "Talairach",
    ) -> QueryResult:
        """The paper's §1 flagship: "display the PET studies of 40-year-old
        females that show high physiological activity inside the
        hippocampus" — a demographic filter joined with a spatial aggregate,
        evaluated entirely inside the DBMS.

        Returns rows ``(studyId, name, age, sex, meanIntensity)`` sorted by
        descending mean intensity.  The spatial aggregate appears in both
        the select list and the predicate; this engine evaluates it twice
        (a production optimizer would share the subexpression).
        """
        tables = [
            "warpedVolume wv", "rawVolume rv", "patient p",
            "atlasStructure s", "neuralStructure ns", "atlas a",
        ]
        where = [
            "wv.studyId = rv.studyId",
            "rv.patientId = p.patientId",
            "a.atlasId = wv.atlasId",
            "a.atlasName = ?",
            "s.atlasId = wv.atlasId",
            "s.structureId = ns.structureId",
            "ns.structureName = ?",
            "rv.modality = ?",
        ]
        params: list = [atlas_name, structure, modality]
        if sex is not None:
            where.append("p.sex = ?")
            params.append(sex)
        if min_age is not None:
            where.append("p.age >= ?")
            params.append(min_age)
        if max_age is not None:
            where.append("p.age <= ?")
            params.append(max_age)
        where.append("dataMean(extractVoxels(wv.data, s.region)) >= ?")
        params.append(float(min_mean_intensity))
        sql = (
            "select wv.studyId, p.name, p.age, p.sex,\n"
            "       dataMean(extractVoxels(wv.data, s.region)) as meanIntensity\n"
            f"from {', '.join(tables)}\n"
            "where " + " and\n      ".join(where) + "\n"
            "order by meanIntensity desc"
        )
        return self.db.execute(sql, params)

    def average_in_structure(
        self, study_ids: list[int], structure: str, atlas_name: str = "Talairach"
    ) -> tuple[DataRegion, list[MedicalQueryResult]]:
        """Voxel-wise average intensity inside a structure over many studies.

        This is the multi-study aggregation the paper's §6.4 argues early
        filtering makes cheap: only the structure's pages of each study are
        read; the averaging happens server-side next to the DBMS.
        """
        import numpy as np

        if not study_ids:
            raise MedicalError("average_in_structure needs at least one study")
        results: list[MedicalQueryResult] = []
        total = None
        region = None
        for study_id in study_ids:
            spec = QuerySpec(study_id=study_id, atlas_name=atlas_name, structures=(structure,))
            outcome = self.execute(spec)
            results.append(outcome)
            data = outcome.data
            if region is None:
                region = data.region
                total = data.values.astype(np.float64)
            else:
                if data.region != region:
                    raise MedicalError(
                        "studies disagree on the structure region; "
                        "were they warped to the same atlas?"
                    )
                total = total + data.values
        mean_values = total / len(study_ids)
        return DataRegion(region, mean_values), results
