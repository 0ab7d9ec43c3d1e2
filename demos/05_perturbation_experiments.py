#!/usr/bin/env python3
"""Walkthrough: the three perturbation experiments and how their verdicts
are reached."""

import json
import tempfile
from pathlib import Path

import numpy as np

from cvilab import perturb
from cvilab.profiles import SynthSpec, generate_synthetic

# --- outlier toggling: every subset of the singleton clusters ---
spec = SynthSpec(
    clusters=3,
    cluster_size=30,
    spread=0.02,
    outliers=2,
    outlier_mode="far",
    seed=42,
)
matrix, truth = generate_synthetic(spec)
report = perturb.outlier_experiment(matrix.values, truth, perturb.PerturbConfig(seed=0))
print("variant      sh        db        di")
for row in report.rows:
    vals = row.report.value_map()
    print(f"{row.variant:<10}{vals['sh']:8.4f}  {vals['db']:8.4f}  {vals['di']:8.4f}")
print("verdicts:", report.verdict_map())
# di never moves: both its extremes live inside the big clusters, and a
# far singleton touches neither the smallest gap nor the widest diameter.

# --- density injection: extra members near each centroid, many trials ---
rng = np.random.default_rng(2025)
centers = [(0, 0), (12, 0), (0, 12), (12, 12), (6, 6)]
points = np.vstack([rng.normal(c, 1.0, (100, 2)) for c in centers])
labels = np.repeat(np.arange(5), 100)

config = perturb.PerturbConfig(seed=7, trials=40, density_add_fraction=1.0)
dens = perturb.density_experiment(points, labels, config)
print("\ndensity verdicts over", config.trials, "trials:", dens.verdict_map())
print("baseline sh:", f"{dens.baseline.value_map()['sh']:.4f}",
      " average sh:", f"{dens.average.value_map()['sh']:.4f}")

# --- diameter shrinkage: pull the fringe of every cluster inward ---
config = perturb.PerturbConfig(seed=7, trials=40, shrink_factor=0.8)
diam = perturb.diameter_experiment(points, labels, config)
print("\ndiameter verdicts over", config.trials, "trials:", diam.verdict_map())

# Every report serializes, and the CSV is ready for a plotting tool.
with tempfile.TemporaryDirectory() as tmp:
    work = Path(tmp)
    record = perturb.experiment_to_dict(diam)
    (work / "experiment_diameter.json").write_text(json.dumps(record, indent=2))
    (work / "experiment_diameter.csv").write_text(perturb.experiment_to_csv(diam))
    print("\nwrote", work / "experiment_diameter.csv")
    print((work / "experiment_diameter.csv").read_text().splitlines()[0])
    stored = json.loads((work / "experiment_diameter.json").read_text())
    roundtrip = perturb.experiment_from_dict(stored)
print("verdicts survive the round trip:",
      roundtrip.verdict_map() == diam.verdict_map())
