"""Deterministic cost model calibrated to the paper's 1994 testbed.

All *computation* in this reproduction is real; all *elapsed-time* columns
are produced by this model so that runs are reproducible and comparable to
the paper's RS/6000-530 measurements.  Constants were calibrated against
Table 3 (see the derivations next to each field); the calibration notes in
``EXPERIMENTS.md`` show paper-vs-model residuals per query.

The model is intentionally linear: the paper's own conclusion is that
response time is dominated by the amount of data retrieved, transmitted and
rendered, so each stage is a base cost plus per-unit rates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.net.rpc import TransferRecord
from repro.storage.device import IOStats

if TYPE_CHECKING:  # annotations only: repro.db imports this module
    from repro.db.functions import WorkCounters

__all__ = ["CostModel1994"]


@dataclass(frozen=True)
class CostModel1994:
    """Per-unit costs of the 1994 configuration (Figure 8)."""

    # --- disk (Starburst LFM on an AIX logical volume) ------------------
    #: elapsed seconds per 4 KiB page I/O.  Table 3: Q1 real-cpu = 3.2 s for
    #: 513 I/Os (6.3 ms), Q4 gives 8.1 ms; we use the middle of that band.
    seconds_per_page_io: float = 0.007

    # --- Starburst / MedicalServer CPU ----------------------------------
    #: fixed CPU per query (catalog lookups, plumbing)
    starburst_cpu_base: float = 0.10
    #: CPU per page I/O issued (buffer fixup, LFM bookkeeping)
    cpu_per_page_io: float = 1.4e-4
    #: CPU per run-list element scanned/merged by the spatial operators
    cpu_per_run: float = 1.5e-5
    #: CPU per voxel gathered out of a VOLUME
    cpu_per_voxel: float = 4.0e-8

    # --- network (RPC across Token Ring / router / Ethernet) ------------
    #: fixed elapsed seconds per query answer (RPC setup; ping was 4 ms)
    network_base: float = 0.20
    #: software + wire overhead per message.  Q1: 24.8 s for 2103 messages
    #: once bandwidth is taken out -> ~10.5 ms per message.
    seconds_per_message: float = 0.0105
    #: effective bandwidth of the 10 Mbps Ethernet leg
    network_bytes_per_second: float = 1.25e6

    # --- DX executive ----------------------------------------------------
    #: ImportVolume CPU per voxel.  Q1: 10.44 s / 2,097,152 voxels ~ 5 us.
    import_cpu_per_voxel: float = 5.0e-6
    #: ImportVolume CPU per run (building the DX positions component)
    import_cpu_per_run: float = 5.0e-5
    #: elapsed = cpu * this factor (import is CPU bound; Table 3 shows
    #: real within a few percent of cpu)
    import_real_factor: float = 1.02
    #: rendering base cost (scene setup, final image shipping)
    render_base: float = 9.5
    #: rendering seconds per voxel rendered
    render_per_voxel: float = 8.0e-6

    # --- everything else -------------------------------------------------
    #: the paper's "other" column: atlas metadata query + SQL compilation
    other_seconds: float = 3.7

    # ------------------------------------------------------------------ #
    # stage models
    # ------------------------------------------------------------------ #

    def starburst_cpu_seconds(self, work: WorkCounters, io: IOStats) -> float:
        """Model of the Starburst/MedicalServer CPU column of Table 3."""
        return (
            self.starburst_cpu_base
            + self.cpu_per_page_io * io.pages_read
            + self.cpu_per_run * work.runs_processed
            + self.cpu_per_voxel * work.voxels_extracted
        )

    def starburst_real_seconds(self, work: WorkCounters, io: IOStats) -> float:
        """CPU plus unbuffered I/O wait."""
        return (
            self.starburst_cpu_seconds(work, io)
            + self.seconds_per_page_io * io.pages_read
        )

    def network_seconds(self, transfer: TransferRecord) -> float:
        """Answer time: per-message software cost plus wire time."""
        return (
            self.network_base
            + self.seconds_per_message * transfer.messages
            + transfer.payload_bytes / self.network_bytes_per_second
        )

    def import_cpu_seconds(self, voxels: int, runs: int) -> float:
        """ImportVolume CPU model: per-voxel plus per-run costs."""
        return self.import_cpu_per_voxel * voxels + self.import_cpu_per_run * runs

    def import_real_seconds(self, voxels: int, runs: int) -> float:
        """ImportVolume elapsed time (CPU bound, small real-time factor)."""
        return self.import_cpu_seconds(voxels, runs) * self.import_real_factor

    def render_seconds(self, voxels: int) -> float:
        """Rendering model: scene-setup base plus per-voxel cost."""
        return self.render_base + self.render_per_voxel * voxels
