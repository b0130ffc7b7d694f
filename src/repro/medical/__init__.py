"""The medical application layer: schema, warping, load pipeline, server."""

from __future__ import annotations

from repro.medical.entities import (
    Atlas,
    BandEntry,
    NeuralStructure,
    NeuralSystem,
    Patient,
    RawStudy,
    WarpedStudy,
)
from repro.medical.loader import DEFAULT_ENCODINGS, ENCODING_SPECS, MedicalLoader
from repro.medical.schema import MEDICAL_SCHEMA_DDL, MEDICAL_TABLES, create_medical_schema
from repro.medical.server import MedicalQueryResult, MedicalServer, QuerySpec
from repro.medical.warp import AffineTransform, register_moments, resample_to_grid

__all__ = [
    "Patient",
    "Atlas",
    "NeuralSystem",
    "NeuralStructure",
    "RawStudy",
    "WarpedStudy",
    "BandEntry",
    "MedicalLoader",
    "DEFAULT_ENCODINGS",
    "ENCODING_SPECS",
    "MEDICAL_SCHEMA_DDL",
    "MEDICAL_TABLES",
    "create_medical_schema",
    "MedicalServer",
    "MedicalQueryResult",
    "QuerySpec",
    "AffineTransform",
    "register_moments",
    "resample_to_grid",
]
