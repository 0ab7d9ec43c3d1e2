#!/usr/bin/env python3
"""Walkthrough: 15-minute readings to median daily profiles, plus the
seeded synthetic population generator."""

import numpy as np

from cvilab.profiles import SynthSpec, generate_synthetic, ingest_readings

# --- tiny readings: one household, three days, one slot spiking once ---
# The per-slot median over days is what survives into the profile, so a
# single spiky day does not move the result.
lines = ["household_id,timestamp,kw"]
for day in ("2024-03-01", "2024-03-02", "2024-03-03"):
    for slot in range(96):
        kw = 0.5
        if slot == 40 and day == "2024-03-02":
            kw = 9.0  # one-off spike, should vanish under the median
        hh, mm = divmod(slot * 15, 60)
        lines.append(f"H00,{day}T{hh:02d}:{mm:02d}:00+00:00,{kw}")
# A path or the file's bytes: both read the same way.
profiles = ingest_readings([("\n".join(lines) + "\n").encode()])
print(f"ingested {len(profiles)} household(s) from {len(lines) - 1} readings")

profile = profiles.values[0]
print("slot 40 equals slot 39:", bool(profile[40] == profile[39]), "(the 9.0 spike is gone)")
print("norm of the unit profile:", float(np.linalg.norm(profile)))

# --- synthetic population: 3 template shapes, 30 households each ---
spec = SynthSpec(
    clusters=3,
    cluster_size=30,
    spread=0.02,
    outliers=2,
    outlier_mode="far",
    seed=42,
)
matrix, truth = generate_synthetic(spec)
print("population:", matrix.values.shape, "households")
print("label counts:", np.bincount(truth).tolist(), "(last two are singletons)")
print("all rows unit norm:", bool(np.allclose(np.linalg.norm(matrix.values, axis=1), 1.0)))

# same seed, same bytes: the generator is fully deterministic
again, _ = generate_synthetic(spec)
print("regenerated identically:", matrix.values.tobytes() == again.values.tobytes())
