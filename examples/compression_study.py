#!/usr/bin/env python3
"""The §4 physical-design study on your own machine.

Walks through the paper's representation analysis for one anatomical
structure and one intensity band: run counts under both curves, octant
decompositions, delta statistics (power-law fit, entropy bound), and the
size of every REGION codec — ending with the Figure 4-style ratio line.

Run:  python examples/compression_study.py
"""

from __future__ import annotations

import numpy as np

from repro.compression import (
    delta_lengths,
    entropy_bound_bytes,
    fit_power_law,
    get_codec,
)
from repro.regions import Region
from repro.synthdata import build_phantom
from repro.volumes import Volume, uniform_bands


def analyze(name: str, region: Region) -> dict[str, float]:
    z_region = region.reorder("morton")
    print(f"\n--- {name}: {region.voxel_count} voxels ---")
    print(f"  h-runs: {region.run_count}   z-runs: {z_region.run_count}   "
          f"(z excess {z_region.run_count / region.run_count - 1:+.0%})")
    oblong = z_region.oblong_octants()[0].size
    octants = z_region.octants()[0].size
    print(f"  oblong octants: {oblong}   regular octants: {octants}")

    lengths = delta_lengths(region.intervals)
    fit = fit_power_law(lengths)
    print(f"  deltas: {lengths.size}; power-law exponent a = {fit.exponent:.2f} "
          f"(r^2 = {fit.r_squared:.2f}; paper: 1.5-1.7)")

    sizes = {
        "entropy": entropy_bound_bytes(region.intervals),
        "elias": get_codec("elias").encoded_size(region.intervals),
        "naive": get_codec("naive").encoded_size(region.intervals),
        "oblong": get_codec("oblong").encoded_size(z_region.intervals, ndim=3),
        "octant": get_codec("octant").encoded_size(z_region.intervals, ndim=3),
    }
    for method, size in sizes.items():
        print(f"  {method:>8}: {size:>10.0f} bytes "
              f"({size / sizes['entropy']:.2f}x the entropy bound)")
    return sizes


def main() -> None:
    print("Building the phantom atlas and one synthetic PET volume (64^3)...")
    phantom = build_phantom(grid_side=64, seed=3)
    from repro.synthdata import generate_pet_studies
    from repro.medical import resample_to_grid

    study = generate_pet_studies(phantom, count=1, seed=4)[0]
    warped = resample_to_grid(study.data, study.patient_to_atlas, phantom.grid)
    volume = Volume.from_array(warped)

    totals: dict[str, float] = {}
    structure_sizes = analyze("structure ntal1", phantom.structures["ntal1"])
    band = next(b for b in uniform_bands(volume) if b.low == 96)
    band_sizes = analyze(f"intensity band {band.low}-{band.high}", band.region)

    for sizes in (structure_sizes, band_sizes):
        for method, size in sizes.items():
            totals[method] = totals.get(method, 0.0) + size

    base = totals["entropy"]
    ratio = " : ".join(f"{totals[m] / base:.2f}" for m in
                       ("entropy", "elias", "naive", "oblong", "octant"))
    print(f"\nCombined ratios (entropy : elias : naive : oblong : octant)")
    print(f"  measured: {ratio}")
    print(f"  paper:    1.00 : 1.17 : 9.50 : 10.40 : 17.80")

    # Round-trip sanity: every codec decodes to the identical region.
    for codec_name in ("naive", "elias", "octant", "oblong"):
        codec = get_codec(codec_name)
        source = band.region.reorder("morton") if codec_name in ("octant", "oblong") else band.region
        assert codec.decode(codec.encode(source.intervals, ndim=3)) == source.intervals
    print("\nAll codecs verified lossless on these regions.")


if __name__ == "__main__":
    main()
