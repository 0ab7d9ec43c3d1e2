#!/usr/bin/env python3
"""Walkthrough: dimensionality reduction and the elbow rule for picking
how many components to keep."""

import numpy as np

from cvilab.pca import (
    cumulative_explained_variance,
    fit_pca,
    project,
    select_dimensions_elbow,
)
from cvilab.profiles import SynthSpec, generate_synthetic

spec = SynthSpec(clusters=3, cluster_size=30, spread=0.02, seed=7)
matrix, _ = generate_synthetic(spec)
print("profiles:", matrix.values.shape)

model = fit_pca(matrix)
cevr = cumulative_explained_variance(model)
print("first five cumulative variance ratios:", np.round(cevr[:5], 4).tolist())

# The curve saturates almost immediately: three template shapes plus tiny
# noise have nearly all their variance in a 2-D plane.
dprime = select_dimensions_elbow(cevr)
print("elbow picks d' =", dprime)

reduced = project(model, matrix, dprime)
print("reduced coordinates:", reduced.shape)

# Keeping every component is a rigid motion: pairwise distances survive.
full = project(model, matrix, model.components.shape[0])
orig = matrix.values - matrix.values.mean(axis=0)
d_orig = np.linalg.norm(orig[0] - orig[50])
d_full = np.linalg.norm(full[0] - full[50])
print(f"distance 0-50 original {d_orig:.12f}  projected {d_full:.12f}")

# And on a hand-made curve the elbow is where the bend is sharpest.
curve = np.array([0.50, 0.90, 0.95, 0.98, 1.00])
print("elbow on", curve.tolist(), "->", select_dimensions_elbow(curve))
