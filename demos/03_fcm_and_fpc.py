#!/usr/bin/env python3
"""Walkthrough: fuzzy c-means on a transparent example, then choosing the
cluster count by maximizing the fuzzy partition coefficient."""

import numpy as np

from cvilab.fcm import (
    FcmConfig,
    fit_fcm,
    fuzzy_partition_coefficient,
    select_cluster_count,
)

# --- two pairs of points, far apart: the fit is easy to read ---
points = np.array([[0.0, 0.0], [0.0, 1.0], [100.0, 0.0], [100.0, 1.0]])
model = fit_fcm(points, FcmConfig(k=2, seed=0))
print("centroids:\n", np.round(model.centroids, 6))
print("hard labels:", model.labels.tolist())

# The objective only ever goes down, iteration by iteration.
trace = model.objective_trace
print("objective trace:", [f"{v:.6g}" for v in trace[:4]], "...")
print("nonincreasing:", bool(np.all(np.diff(trace) <= 0)))

# Crisp assignments give FPC 1; total confusion gives 1/k. A fit keeps the
# FPC of its memberships, not the memberships themselves.
print("fpc of this fit:", model.fpc)
print("fpc of uniform rows, k=4:", fuzzy_partition_coefficient(np.full((8, 4), 0.25)))

# --- sweep k on three planted blobs and let FPC pick ---
rng = np.random.default_rng(11)
centers = [(0.0, 0.0), (6.0, 0.0), (3.0, 5.0)]
blobs = np.vstack([rng.normal(c, 0.05, (25, 2)) for c in centers])
curve, chosen = select_cluster_count(blobs, FcmConfig(k=2, seed=1, restarts=4), (2, 6))
for k, value in curve:
    marker = "  <- chosen" if k == chosen.k else ""
    print(f"k={k}  fpc={value:.6f}{marker}")
