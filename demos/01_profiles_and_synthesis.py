#!/usr/bin/env python3
"""Walkthrough: 15-minute readings to median daily profiles, plus the
seeded synthetic population generator."""

import tempfile
from pathlib import Path

import numpy as np

from cvilab.profiles import (
    SynthSpec,
    generate_synthetic,
    l2_normalize,
    median_daily_profile,
    parse_readings,
    synthetic_templates,
)

# --- a tiny readings file: one household, two days, one slot differing ---
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
with tempfile.TemporaryDirectory() as work:
    path = Path(work) / "readings.csv"
    path.write_text("\n".join(lines) + "\n")
    series = parse_readings(path)
print(f"parsed {len(series)} household(s), {len(series[0])} readings")

profile = median_daily_profile(series[0])
print("slot 40 median:", profile[40], "(the 9.0 spike is gone)")

unit = l2_normalize(profile)
print("norm after scaling:", float(np.linalg.norm(unit)))

# --- synthetic population: 3 template shapes, 30 households each ---
spec = SynthSpec(
    templates=synthetic_templates(3),
    cluster_size=30,
    spread=0.02,
    outlier_count=2,
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
