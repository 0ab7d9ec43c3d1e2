#!/usr/bin/env python3
"""Walkthrough: the five validation indices on an instance small enough
to check by hand, then how they move as clusters blur together."""

import numpy as np

from cvilab import cvi

# Two pairs of points: cluster 0 at x=0, cluster 1 at x=10, both pairs
# one unit tall. Every index has a short closed form here.
points = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
labels = np.array([0, 0, 1, 1])

report = cvi.evaluate_labels(points, labels)
for name in cvi.INDEX_NAMES:
    direction = "higher" if cvi.HIGHER_IS_BETTER[name] else "lower"
    print(f"{name}: {report.value_map()[name]:.6f}  ({direction} is better)")

# sh: a=1, b=(10+sqrt(101))/2, s=(b-a)/b for every point -> 0.900249
# ch: between/within scaled by (N-k)/(k-1) -> exactly 200
# db: (0.5+0.5)/10 -> 0.1     di: 10/1 -> 10     xb: 4*0.25/(4*10**2) -> 0.0025

# --- blur two blobs together and watch every index degrade ---
rng = np.random.default_rng(3)
offsets = rng.standard_normal((40, 2))
labels2 = np.array([0] * 20 + [1] * 20)
print("\nspread   sh        ch        db        di        xb")
for spread in (0.2, 0.8, 1.6, 3.2):
    blob_a = offsets[:20] * spread
    blob_b = offsets[20:] * spread + [8.0, 0.0]
    rpt = cvi.evaluate_labels(np.vstack([blob_a, blob_b]), labels2)
    vals = rpt.value_map()
    print(
        f"{spread:4.1f}  {vals['sh']:8.4f}  {vals['ch']:8.1f}"
        f"  {vals['db']:8.4f}  {vals['di']:8.4f}  {vals['xb']:8.4f}"
    )

# Degenerate partitions are reported, not raised: a single cluster has no
# separation to measure, so every value is None with the reason recorded.
broken = cvi.evaluate_labels(points, np.zeros(4, dtype=int))
print("\nsingle-cluster values:", broken.value_map())
print("recorded reasons:", dict(broken.errors))
