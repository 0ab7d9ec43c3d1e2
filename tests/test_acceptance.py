"""Acceptance gate: one test per shipped criterion, each printing a
single PASS line (visible with ``pytest -s`` or in captured output).

Every numeric tolerance and runtime budget below is asserted, not
advisory; a failure here means the package does not meet its contract.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import cvilab
import oracles
from cvilab import cvi, perturb
from cvilab.fcm import (
    FcmConfig,
    _memberships_from_distances,
    fit_fcm,
    fuzzy_partition_coefficient,
    select_cluster_count,
)
from cvilab.pca import cumulative_explained_variance, fit_pca, select_dimensions_elbow
from cvilab.profiles import SynthSpec, generate_synthetic


def announce(number: int, elapsed: float | None = None, budget: float | None = None):
    note = ""
    if elapsed is not None and budget is not None:
        note = f" ({elapsed:.2f}s < {budget:.0f}s)"
    print(f"ACCEPTANCE {number}: PASS{note}")


def five_blob_instance():
    rng = np.random.default_rng(2025)
    centers = [(0, 0), (12, 0), (0, 12), (12, 12), (6, 6)]
    points = np.vstack([rng.normal(c, 1.0, (100, 2)) for c in centers])
    labels = np.repeat(np.arange(5), 100)
    return points, labels


def test_criterion_1_hand_instance_exactness():
    budget = 1.0
    start = time.perf_counter()
    points = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
    labels = np.array([0, 0, 1, 1])
    values = cvi.evaluate_labels(points, labels).value_map()
    assert abs(values["sh"] - 0.900249) <= 1e-6
    assert abs(values["ch"] - 200.0) <= 1e-9
    assert abs(values["db"] - 0.1) <= 1e-9
    assert abs(values["di"] - 10.0) <= 1e-9
    assert abs(values["xb"] - 0.0025) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < budget
    announce(1, elapsed, budget)


def test_criterion_2_brute_force_equivalence():
    budget = 30.0
    start = time.perf_counter()
    rng = np.random.default_rng(2026)
    checked = 0
    for _ in range(200):
        points, labels = oracles.random_instance(rng)
        report = cvi.evaluate_labels(points, labels)
        pairs = [
            (report.sh, oracles.naive_silhouette(points, labels)),
            (report.ch, oracles.naive_calinski_harabasz(points, labels)),
            (report.db, oracles.naive_davies_bouldin(points, labels)),
            (report.di, oracles.naive_dunn(points, labels)),
            (report.xb, oracles.naive_xie_beni_crisp(points, labels)),
        ]
        for got, want in pairs:
            if np.isinf(want):
                assert got == want
            else:
                assert abs(got - want) <= 1e-9 * max(1.0, abs(want))
            checked += 1
    assert checked == 1000
    elapsed = time.perf_counter() - start
    assert elapsed < budget
    announce(2, elapsed, budget)


def test_criterion_3_outlier_toggling_directions():
    budget = 10.0
    start = time.perf_counter()
    spec = SynthSpec(
        clusters=3,
        cluster_size=30,
        spread=0.02,
        outliers=3,
        outlier_mode="far",
        seed=42,
    )
    matrix, truth = generate_synthetic(spec)
    report = perturb.outlier_experiment(
        matrix.values, truth, perturb.PerturbConfig(seed=0)
    )
    assert len(report.rows) == 8
    assert report.rows[0].variant == "none"

    di = [row.report.value_map()["di"] for row in report.rows]
    assert all(value == di[0] for value in di)  # bit-equal across all rows
    assert report.verdict_map()["di"] == "UNAFFECTED"

    sh = [row.report.value_map()["sh"] for row in report.rows]
    assert all(sh[0] > value for value in sh[1:])  # best with no outliers kept

    db = [row.report.value_map()["db"] for row in report.rows]
    xb = [row.report.value_map()["xb"] for row in report.rows]
    assert all(db[-1] < value for value in db[:-1])  # best with all kept
    assert all(xb[-1] < value for value in xb[:-1])
    elapsed = time.perf_counter() - start
    assert elapsed < budget
    announce(3, elapsed, budget)


def test_criterion_4_centroid_distance_dichotomy():
    budget = 10.0
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    blob_a = rng.normal((0.0, 0.0), 0.3, (10, 2))
    blob_b = rng.normal((10.0, 0.0), 0.3, (10, 2))
    base_points = np.vstack([blob_a, blob_b])
    base_labels = np.array([0] * 10 + [1] * 10)
    with_singleton = np.append(base_labels, 2)

    ch_base = cvi.evaluate_labels(base_points, base_labels).ch
    ch_far = cvi.evaluate_labels(np.vstack([base_points, [[100.0, 0.0]]]), with_singleton).ch
    ch_near = cvi.evaluate_labels(np.vstack([base_points, [[5.0, 0.0]]]), with_singleton).ch
    assert ch_far > ch_base    # distant singleton rewards inclusion
    assert ch_near < ch_base   # central singleton punishes inclusion
    elapsed = time.perf_counter() - start
    assert elapsed < budget
    announce(4, elapsed, budget)


def test_criterion_5_density_injection_directions():
    budget = 120.0
    start = time.perf_counter()
    points, labels = five_blob_instance()
    assert len(points) == 500
    config = perturb.PerturbConfig(seed=7, trials=100, density_add_fraction=1.0)
    report = perturb.density_experiment(points, labels, config)
    verdicts = report.verdict_map()
    assert verdicts["sh"] == "POSITIVE"
    assert verdicts["ch"] == "POSITIVE"
    assert verdicts["db"] == "POSITIVE"
    assert verdicts["xb"] == "POSITIVE"
    assert verdicts["di"] in ("NEGATIVE", "INCONCLUSIVE")
    elapsed = time.perf_counter() - start
    assert elapsed < budget
    announce(5, elapsed, budget)


def test_criterion_6_diameter_shrink_directions():
    budget = 120.0
    start = time.perf_counter()
    points, labels = five_blob_instance()
    config = perturb.PerturbConfig(seed=7, trials=100, shrink_factor=0.8)
    report = perturb.diameter_experiment(points, labels, config)
    assert all(v == "POSITIVE" for v in report.verdict_map().values())
    elapsed = time.perf_counter() - start
    assert elapsed < budget
    announce(6, elapsed, budget)


def test_criterion_7_pipeline_invariants():
    # objective nonincreasing, memberships at the final centroids
    # row-stochastic and FPC within [1/k, 1], 100 fits
    centers = [(0.0, 0.0), (6.0, 0.0), (3.0, 5.0)]
    for seed in range(100):
        rng = np.random.default_rng(seed)
        points = np.vstack([rng.normal(c, 0.5, (20, 2)) for c in centers])
        model = fit_fcm(points, FcmConfig(k=3, seed=seed, restarts=1))
        assert np.all(np.diff(model.objective_trace) <= 1e-12)
        u = _memberships_from_distances(cvi.cdist(model.centroids, points), model.fuzzifier)
        assert np.max(np.abs(u.sum(axis=0) - 1.0)) <= 1e-9
        assert 1.0 / 3 <= model.fpc <= 1.0

    # FPC bounds and exact endpoints
    crisp = np.eye(3)[np.arange(60) % 3]
    assert fuzzy_partition_coefficient(crisp) == 1.0
    uniform = np.full((60, 4), 0.25)
    assert fuzzy_partition_coefficient(uniform) == 0.25

    # PCA basis orthonormal; CEVR nondecreasing ending at 1
    rng = np.random.default_rng(12)
    data = rng.standard_normal((40, 6)) * np.array([5, 4, 3, 2, 1, 0.5])
    pca_model = fit_pca(data)
    gram = pca_model.components @ pca_model.components.T
    assert np.max(np.abs(gram - np.eye(6))) <= 1e-9
    cevr = cumulative_explained_variance(pca_model)
    assert np.all(np.diff(cevr) >= 0)
    assert abs(cevr[-1] - 1.0) <= 1e-9
    announce(7)


def test_criterion_8_byte_identical_reruns(tmp_path):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text(
        "synth.clusters = 3\n"
        "synth.cluster-size = 30\n"
        "synth.spread = 0.02\n"
        "synth.outliers = 3\n"
        "seed = 42\n"
        "k = 6\n"
        "dprime = elbow\n"
        "trials = 10\n"
        "experiments = outliers,density,diameter\n"
    )
    # The child must import the very cvilab this suite imported, whether it
    # comes from src/ or from an install. An inherited relative PYTHONPATH
    # (e.g. PYTHONPATH=src) would not resolve under cwd=tmp_path.
    package_root = str(Path(cvilab.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    pythonpath = os.pathsep.join(filter(None, (package_root, inherited)))
    outs = []
    for name, threads in (("a", "1"), ("b", "8")):
        out = tmp_path / name
        env = dict(os.environ, CVILAB_THREADS=threads, PYTHONPATH=pythonpath)
        proc = subprocess.run(
            [sys.executable, "-m", "cvilab", "run", "--config", str(cfg),
             "--out", str(out)],
            capture_output=True,
            text=True,
            env=env,
            cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out)

    first, second = outs
    names = sorted(p.name for p in first.iterdir())
    assert sorted(p.name for p in second.iterdir()) == names
    assert len(names) == 16
    for name in names:
        if name == "manifest.json":
            continue  # creation timestamp and output path differ
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    manifests = []
    for out in outs:
        payload = json.loads((out / "manifest.json").read_text())
        payload.pop("created_utc")
        payload["config"].pop("out")
        manifests.append(payload)
    assert manifests[0] == manifests[1]
    announce(8)


def test_criterion_9_selection_procedures():
    rng = np.random.default_rng(11)
    centers = [(0.0, 0.0), (6.0, 0.0), (3.0, 5.0)]
    blobs = np.vstack([rng.normal(c, 0.05, (25, 2)) for c in centers])
    curve, model = select_cluster_count(
        blobs, FcmConfig(k=2, seed=1, restarts=4), (2, 6)
    )
    assert model.k == 3
    assert [k for k, _ in curve] == [2, 3, 4, 5, 6]

    assert select_dimensions_elbow(np.array([0.50, 0.90, 0.95, 0.98, 1.00])) == 2
    announce(9)
