"""Perturbation experiments: outlier toggling, density, diameter, verdicts."""

import json
import math
import multiprocessing
import os
import pickle
import signal
import time
import warnings
from concurrent.futures.process import BrokenProcessPool
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cvilab import perturb
from cvilab import (
    CviReport,
    ExperimentReport,
    ExperimentRow,
    PerturbConfig,
    RejectionBudgetError,
    density_experiment,
    diameter_experiment,
    evaluate_labels,
    experiment_to_csv,
    find_singleton_clusters,
    inject_density,
    judge_hypothesis,
    outlier_experiment,
    partition_geometry,
    shrink_clusters,
)
from cvilab.perturb import (
    _sample_in_ball,
    _sign_test_tail,
    experiment_from_dict,
    experiment_to_dict,
)
from cvilab.rng import derive_stream, fork_map, worker_count


def stored_json(report):
    """A report as the pipeline writes it."""
    return json.dumps(experiment_to_dict(report), indent=2)


def many_cpus(monkeypatch):
    """Let CVILAB_THREADS alone set the worker count, on any box."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)


def blob(rng, center, n, spread=0.25):
    return rng.normal(center, spread, size=(n, 2))


def blobs_with_singletons(seed=1, sizes=(9, 9, 9), singles=((50.0, 50.0), (-40.0, 60.0))):
    rng = np.random.default_rng(seed)
    centers = [(0, 0), (8, 0), (4, 7)]
    x = np.vstack(
        [blob(rng, c, n) for c, n in zip(centers, sizes)]
        + [np.array([s]) for s in singles]
    )
    labels = np.concatenate(
        [np.repeat(np.arange(len(sizes)), sizes),
         np.arange(len(sizes), len(sizes) + len(singles))]
    )
    return x, labels


def uniform_disk(rng, center, n, radius):
    ang = rng.uniform(0, 2 * np.pi, n)
    rad = radius * np.sqrt(rng.uniform(0, 1, n))
    return np.column_stack([rad * np.cos(ang), rad * np.sin(ang)]) + center


class TestConfigAndHelpers:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            PerturbConfig(trials=0)
        with pytest.raises(ValueError):
            PerturbConfig(shrink_factor=0.0)
        with pytest.raises(ValueError):
            PerturbConfig(shrink_factor=1.0)
        with pytest.raises(ValueError):
            PerturbConfig(sigma_divisor=0.0)
        with pytest.raises(ValueError):
            PerturbConfig(max_rejection_attempts=0)
        with pytest.raises(ValueError):
            PerturbConfig(density_add_fraction=-0.5)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_knobs_rejected(self, value):
        with pytest.raises(ValueError, match="density_add_fraction must be finite"):
            PerturbConfig(density_add_fraction=value)
        with pytest.raises(ValueError, match="sigma_divisor must be finite"):
            PerturbConfig(sigma_divisor=value)

    def test_worker_count_env(self, monkeypatch):
        many_cpus(monkeypatch)
        monkeypatch.setenv("CVILAB_THREADS", "3")
        assert worker_count() == 3
        monkeypatch.setenv("CVILAB_THREADS", "0")
        with pytest.raises(ValueError):
            worker_count()
        monkeypatch.delenv("CVILAB_THREADS")
        assert worker_count() >= 1

    def test_worker_count_capped_at_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
        monkeypatch.setenv("CVILAB_THREADS", "1000")
        assert worker_count() == 2
        monkeypatch.setenv("CVILAB_THREADS", "1")
        assert worker_count() == 1
        monkeypatch.delenv("CVILAB_THREADS")
        assert worker_count() == 2

    @pytest.mark.parametrize("raw", ["two", "1.5", "-2"])
    def test_worker_count_rejects_non_integers(self, monkeypatch, raw):
        monkeypatch.setenv("CVILAB_THREADS", raw)
        with pytest.raises(ValueError) as caught:
            worker_count()
        assert str(caught.value) == f"CVILAB_THREADS must be a positive integer, got {raw!r}"

    def test_find_singletons(self):
        _, labels = blobs_with_singletons()
        assert find_singleton_clusters(labels) == [3, 4]
        assert find_singleton_clusters(np.array([0, 0, 1, 1])) == []
        assert find_singleton_clusters(np.array([2, 0, 1])) == [0, 1, 2]


class TestOutlierExperiment:
    def test_row_order_is_binary_counting_exclusion_first(self):
        x, labels = blobs_with_singletons()
        report = outlier_experiment(x, labels, PerturbConfig(trials=1))
        assert [row.variant for row in report.rows] == ["none", "4", "3", "3,4"]
        assert [row.kept for row in report.rows] == [(), (4,), (3,), (3, 4)]
        assert report.kind == "outliers"

    def test_all_kept_row_equals_baseline_exactly(self):
        x, labels = blobs_with_singletons()
        report = outlier_experiment(x, labels, PerturbConfig(trials=1))
        assert report.rows[-1].report == report.baseline

    def test_k_effective_tracks_exclusions(self):
        x, labels = blobs_with_singletons()
        report = outlier_experiment(x, labels, PerturbConfig(trials=1))
        by_variant = {row.variant: row.report.k_effective for row in report.rows}
        assert by_variant == {"none": 3, "4": 4, "3": 4, "3,4": 5}

    def test_three_singletons_emit_eight_rows(self):
        x, labels = blobs_with_singletons(
            singles=((50.0, 50.0), (-40.0, 60.0), (45.0, -55.0))
        )
        report = outlier_experiment(x, labels, PerturbConfig(trials=1))
        assert len(report.rows) == 8
        assert report.rows[0].variant == "none"
        assert report.rows[-1].variant == "3,4,5"

    def test_scores_each_subset_once(self, monkeypatch):
        # The all-kept subset is the baseline: 2^3 evaluations, not 2^3 + 1.
        calls = []
        real = perturb.evaluate_labels
        monkeypatch.setattr(perturb, "evaluate_labels", lambda *a: calls.append(a) or real(*a))
        x, labels = blobs_with_singletons(
            singles=((50.0, 50.0), (-40.0, 60.0), (45.0, -55.0))
        )
        outlier_experiment(x, labels, PerturbConfig(trials=1))
        assert len(calls) == 8

    def test_requires_a_singleton(self):
        rng = np.random.default_rng(0)
        x = np.vstack([blob(rng, (0, 0), 5), blob(rng, (9, 0), 5)])
        labels = np.repeat([0, 1], 5)
        with pytest.raises(perturb.ExperimentSkipped, match="singleton"):
            outlier_experiment(x, labels, PerturbConfig(trials=1))

    def test_subset_count_guard(self):
        x = np.arange(34, dtype=float).reshape(17, 2)
        labels = np.arange(17)
        with pytest.raises(perturb.ExperimentSkipped, match="2\\^17"):
            outlier_experiment(x, labels, PerturbConfig(trials=1))

    def test_far_singleton_leaves_di_bit_equal_and_unaffected(self):
        x, labels = blobs_with_singletons()
        report = outlier_experiment(x, labels, PerturbConfig(trials=1))
        di_values = [row.report.di for row in report.rows]
        assert len(set(di_values)) == 1
        assert report.verdict_map()["di"] == "UNAFFECTED"

    def test_sh_improves_on_removal_for_far_singletons(self):
        x, labels = blobs_with_singletons()
        report = outlier_experiment(x, labels, PerturbConfig(trials=1))
        sh = {row.variant: row.report.sh for row in report.rows}
        assert sh["none"] > sh["3,4"]
        assert report.verdict_map()["sh"] == "IMPROVES_ON_REMOVAL"

    def test_refit_callback_applied_to_exclusion_rows_only(self):
        x, labels = blobs_with_singletons()
        calls = []

        def refit(points, k):
            calls.append(len(points))
            split = len(points) // 2
            return np.concatenate(
                [np.zeros(split, dtype=int), np.ones(len(points) - split, dtype=int)]
            )

        report = outlier_experiment(x, labels, PerturbConfig(trials=1), refit=refit)
        # 2^2 subsets, refit for the three rows that exclude something.
        assert len(calls) == 3
        assert report.rows[-1].report == report.baseline
        assert report.rows[0].report.k_effective == 2

    def test_refit_at_each_subset_cluster_count(self):
        x, labels = blobs_with_singletons()
        calls = []

        def refit(points, k):
            calls.append(k)
            return np.arange(len(points)) % k

        report = outlier_experiment(x, labels, PerturbConfig(trials=1), refit=refit)
        # none kept: the 3 blobs; one singleton kept: 4 clusters.
        assert calls == [3, 4, 4]
        assert [row.report.k_effective for row in report.rows] == [3, 4, 4, 5]

    def test_subset_of_one_cluster_keeps_its_labels(self):
        x, labels = blobs_with_singletons(sizes=(9,))
        calls = []

        def refit(points, k):
            calls.append(k)
            return np.arange(len(points)) % k

        report = outlier_experiment(x, labels, PerturbConfig(trials=1), refit=refit)
        assert calls == [2, 2]
        assert report.rows[0].report == evaluate_labels(x[:9], np.zeros(9, dtype=int))

    def test_deserialized_report_judges_identically(self):
        x, labels = blobs_with_singletons()
        report = outlier_experiment(x, labels, PerturbConfig(trials=1))
        back = experiment_from_dict(json.loads(stored_json(report)))
        assert judge_hypothesis(back) == report.verdict_map()
        assert back.verdicts == report.verdicts


class TestInjectDensity:
    def test_acceptance_predicate(self):
        rng = np.random.default_rng(5)
        x = np.vstack([blob(rng, (0, 0), 30), blob(rng, (10, 0), 30)])
        labels = np.repeat([0, 1], 30)
        centroid = x[:30].mean(axis=0)
        radius = np.linalg.norm(x[:30] - centroid, axis=1).max()
        other = x[30:].mean(axis=0)
        drawn = inject_density(partition_geometry(x, labels), 0, 200, np.random.default_rng(1))
        gaps_own = np.linalg.norm(drawn - centroid, axis=1)
        gaps_other = np.linalg.norm(drawn - other, axis=1)
        assert drawn.shape == (200, 2)
        assert np.all(gaps_own <= radius)
        assert np.all(gaps_own <= gaps_other)

    def test_sigma_moment(self):
        # Radius exactly 4 (symmetric cross, centroid at the origin) and
        # divisor 4: per-axis std of accepted draws is 1 within 0.05.
        # The ball truncation's shrink (~5e-4) sits below the sampling
        # noise at this count, so only the band is asserted.
        cross = np.array([[4.0, 0.0], [-4.0, 0.0], [0.0, 4.0], [0.0, -4.0]])
        x = np.vstack([cross, cross + (1000.0, 0.0)])
        labels = np.repeat([0, 1], 4)
        drawn = inject_density(partition_geometry(x, labels), 0, 10000, np.random.default_rng(3))
        for axis in range(2):
            assert abs(drawn[:, axis].std() - 1.0) < 0.05
        assert np.linalg.norm(drawn, axis=1).max() <= 4.0

    def test_validation(self):
        rng = np.random.default_rng(0)
        x = np.vstack([blob(rng, (0, 0), 5), blob(rng, (9, 0), 5), [[50.0, 50.0]]])
        labels = np.array([0] * 5 + [1] * 5 + [2])
        with pytest.raises(ValueError, match="count"):
            inject_density(partition_geometry(x, labels), 0, 0, rng)
        with pytest.raises(ValueError, match="singleton"):
            inject_density(partition_geometry(x, labels), 2, 1, rng)
        dup = np.array([[1.0, 1.0]] * 4 + [[5.0, 5.0]] * 4)
        dup_labels = np.repeat([0, 1], 4)
        with pytest.raises(perturb.ExperimentSkipped, match="zero radius"):
            inject_density(partition_geometry(dup, dup_labels), 0, 1, rng)

    def test_rejection_budget_exhausted(self):
        rng = np.random.default_rng(2)
        x = np.vstack([blob(rng, (0, 0), 10), blob(rng, (9, 0), 10)])
        labels = np.repeat([0, 1], 10)
        # sigma = radius/divisor with a tiny divisor: nearly every draw
        # lands outside the ball.
        with pytest.raises(RejectionBudgetError, match="cluster 0"):
            inject_density(
                partition_geometry(x, labels), 0, 1, np.random.default_rng(0),
                sigma_divisor=1e-4, max_rejection_attempts=5,
            )

    def test_overflowing_gaps_are_rejected_without_a_warning(self):
        # sigma near 1e300: the squared gaps overflow to inf, which lies
        # outside every ball, so the budget runs out with no RuntimeWarning.
        rng = np.random.default_rng(2)
        x = np.vstack([blob(rng, (0, 0), 10), blob(rng, (9, 0), 10)])
        labels = np.repeat([0, 1], 10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RejectionBudgetError, match="cluster 0 in 5 attempts"):
                inject_density(
                    partition_geometry(x, labels), 0, 1, np.random.default_rng(0),
                    sigma_divisor=1e-300, max_rejection_attempts=5,
                )


class TestShrinkClusters:
    def test_radius_contracts_and_inliers_untouched(self):
        rng = np.random.default_rng(11)
        x = np.vstack([blob(rng, (0, 0), 40, 1.0), blob(rng, (12, 0), 40, 1.0)])
        labels = np.repeat([0, 1], 40)
        config = PerturbConfig(shrink_factor=0.8)
        out = shrink_clusters(partition_geometry(x, labels), config, np.random.default_rng(4))
        assert out.shape == x.shape
        for value in (0, 1):
            members_before = x[labels == value]
            members_after = out[labels == value]
            centroid = members_before.mean(axis=0)
            gaps_before = np.linalg.norm(members_before - centroid, axis=1)
            reduced = 0.8 * gaps_before.max()
            gaps_after = np.linalg.norm(members_after - centroid, axis=1)
            assert gaps_after.max() <= reduced + 1e-9
            inside = gaps_before <= reduced
            assert np.array_equal(members_after[inside], members_before[inside])
            assert not np.any(
                (members_after[~inside] == members_before[~inside]).all(axis=1)
            )

    def test_zero_radius_and_singleton_clusters_left_alone(self):
        x = np.array([[1.0, 1.0]] * 5 + [[8.0, 2.0]] * 5 + [[50.0, 50.0]])
        labels = np.array([0] * 5 + [1] * 5 + [2])
        geom = partition_geometry(x, labels)
        out = shrink_clusters(geom, PerturbConfig(shrink_factor=0.5), np.random.default_rng(0))
        assert np.array_equal(out, x)

    def test_deterministic_given_stream(self):
        rng = np.random.default_rng(9)
        x = np.vstack([blob(rng, (0, 0), 20, 1.0), blob(rng, (10, 0), 20, 1.0)])
        labels = np.repeat([0, 1], 20)
        config = PerturbConfig(shrink_factor=0.7)
        a = shrink_clusters(partition_geometry(x, labels), config, derive_stream(5, 0))
        b = shrink_clusters(partition_geometry(x, labels), config, derive_stream(5, 0))
        assert a.tobytes() == b.tobytes()


class TestDensityExperiment:
    def test_verdicts_on_separated_blobs(self):
        rng = np.random.default_rng(21)
        x = np.vstack([blob(rng, c, 30, 1.0) for c in [(0, 0), (12, 0), (6, 10)]])
        labels = np.repeat(np.arange(3), 30)
        report = density_experiment(x, labels, PerturbConfig(seed=2, trials=12))
        verdicts = report.verdict_map()
        assert verdicts["sh"] == "POSITIVE"
        assert verdicts["ch"] == "POSITIVE"
        assert verdicts["db"] == "POSITIVE"
        assert verdicts["xb"] == "POSITIVE"
        assert len(report.rows) == 12
        assert [row.trial for row in report.rows] == list(range(12))

    def test_zero_fraction_matches_baseline_exactly(self):
        rng = np.random.default_rng(3)
        x = np.vstack([blob(rng, (0, 0), 10), blob(rng, (9, 0), 10)])
        labels = np.repeat([0, 1], 10)
        report = density_experiment(
            x, labels, PerturbConfig(trials=1, density_add_fraction=0.0)
        )
        assert report.rows[0].report == report.baseline
        assert set(report.verdict_map().values()) == {"INCONCLUSIVE"}

    def test_baseline_excludes_singletons(self):
        x, labels = blobs_with_singletons()
        report = density_experiment(x, labels, PerturbConfig(seed=1, trials=2))
        assert report.baseline.k_effective == 3

    def test_same_seed_identical_reports(self):
        x, labels = blobs_with_singletons()
        config = PerturbConfig(seed=10, trials=4)
        a = density_experiment(x, labels, config)
        b = density_experiment(x, labels, config)
        assert stored_json(a) == stored_json(b)

    def test_thread_count_does_not_change_results(self, monkeypatch):
        """Every experiment, density included, at 1, 2 and 3 workers."""
        x, labels = blobs_with_singletons()
        config = PerturbConfig(seed=10, trials=6)
        for run in (outlier_experiment, density_experiment, diameter_experiment):
            texts = []
            for workers in ("1", "2", "3"):
                monkeypatch.setenv("CVILAB_THREADS", workers)
                texts.append(stored_json(run(x, labels, config)))
            assert texts[1] == texts[0] and texts[2] == texts[0], run.__name__

    def test_needs_two_nonsingleton_clusters(self):
        x = np.vstack([np.random.default_rng(0).normal(size=(6, 2)), [[9.0, 9.0]]])
        labels = np.array([0] * 6 + [1])
        with pytest.raises(perturb.ExperimentSkipped, match="non-singleton"):
            density_experiment(x, labels, PerturbConfig(trials=1))

    @pytest.mark.parametrize("experiment", [density_experiment, diameter_experiment])
    def test_refit_at_the_baseline_cluster_count(self, experiment):
        x, labels = blobs_with_singletons()

        def refit(points, k):
            return np.arange(len(points)) % k

        report = experiment(x, labels, PerturbConfig(seed=1, trials=3), refit=refit)
        assert report.baseline.k_effective == 3
        assert [row.report.k_effective for row in report.rows] == [3, 3, 3]


class TestDiameterExperiment:
    def test_verdicts_on_separated_blobs(self):
        rng = np.random.default_rng(22)
        x = np.vstack([blob(rng, c, 30, 1.0) for c in [(0, 0), (12, 0), (6, 10)]])
        labels = np.repeat(np.arange(3), 30)
        report = diameter_experiment(
            x, labels, PerturbConfig(seed=4, trials=12, shrink_factor=0.8)
        )
        assert set(report.verdict_map().values()) == {"POSITIVE"}

    def test_continuity_at_the_no_op_limit(self):
        # factor -> 1: only the extreme member of each cluster is redrawn,
        # so with dense uniform disks every averaged index stays within
        # 1e-3 (relative) of the baseline.
        rng = np.random.default_rng(31)
        x = np.vstack(
            [uniform_disk(rng, (0, 0), 3000, 1.0), uniform_disk(rng, (8, 0), 3000, 1.0)]
        )
        labels = np.repeat([0, 1], 3000)
        report = diameter_experiment(
            x, labels, PerturbConfig(seed=3, trials=3, shrink_factor=0.9999)
        )
        base = report.baseline.value_map()
        avg = report.average.value_map()
        for name, value in base.items():
            assert abs(avg[name] - value) <= 1e-3 * max(1e-12, abs(value))

    def test_same_seed_bit_identical(self):
        x, labels = blobs_with_singletons()
        config = PerturbConfig(seed=6, trials=3, shrink_factor=0.8)
        a = diameter_experiment(x, labels, config)
        b = diameter_experiment(x, labels, config)
        assert stored_json(a) == stored_json(b)


# --- scalar references: one candidate per draw, one call per point ---


def scalar_sample_in_ball(rng, center, radius, sigma, centroids, own, budget):
    for _ in range(budget):
        sample = center + rng.normal(0.0, sigma, size=center.shape[0])
        gaps = np.linalg.norm(centroids - sample, axis=1)
        if gaps[own] <= radius and gaps[own] == gaps.min():
            return sample
    raise RejectionBudgetError(
        f"no acceptable sample for cluster {own} in {budget} attempts"
    )


def label_centroids(x, labels):
    values = np.unique(labels)
    return np.array([x[labels == v].mean(axis=0) for v in values]), values


def reference_inject_density(x, labels, cluster, count, rng, sigma_divisor, budget):
    centroids, values = label_centroids(x, labels)
    own = int(np.searchsorted(values, cluster))
    radius = float(np.linalg.norm(x[labels == cluster] - centroids[own], axis=1).max())
    sigma = radius / sigma_divisor
    out = np.empty((count, x.shape[1]))
    for i in range(count):
        out[i] = scalar_sample_in_ball(
            rng, centroids[own], radius, sigma, centroids, own, budget
        )
    return out


def reference_shrink_clusters(x, labels, config, rng):
    centroids, values = label_centroids(x, labels)
    out = x.copy()
    for own, value in enumerate(values):
        rows = np.flatnonzero(labels == value)
        if rows.shape[0] < 2:
            continue
        gaps = np.linalg.norm(x[rows] - centroids[own], axis=1)
        radius = float(gaps.max())
        if radius == 0.0:
            continue
        reduced = config.shrink_factor * radius
        sigma = reduced / config.sigma_divisor
        for row in rows[gaps > reduced]:
            out[row] = scalar_sample_in_ball(
                rng, centroids[own], reduced, sigma, centroids, own,
                config.max_rejection_attempts,
            )
    return out


def outcome(fn, seed):
    """Output bytes and generator state after ``fn(rng)``, or the error
    type and message it raised."""
    rng = np.random.default_rng(seed)
    try:
        out = fn(rng)
    except RejectionBudgetError as exc:
        return ("raised", type(exc), str(exc))
    return ("drawn", out.shape, out.tobytes(), rng.bit_generator.state)


# Budgets of 1-5 make rejection runs end the draw; small divisors make
# sigma dwarf the radius, so balls almost never accept.
budgets = st.sampled_from([1, 2, 3, 4, 5, 50, 1000])
divisors = st.sampled_from([0.02, 0.3, 1.0, 4.0, 25.0])


@st.composite
def partitions(draw):
    """A few clusters of 2-9 points around random centers, in 1-4 D."""
    d = draw(st.integers(min_value=1, max_value=4))
    k = draw(st.integers(min_value=2, max_value=4))
    sizes = draw(st.lists(st.integers(2, 9), min_size=k, max_size=k))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = draw(st.sampled_from([0.1, 1.0, 3.0]))
    centers = rng.normal(0.0, 4.0, size=(k, d))
    x = np.vstack([rng.normal(c, spread, size=(n, d)) for c, n in zip(centers, sizes)])
    return x, np.repeat(np.arange(k), sizes)


class TestBatchedSampler:
    @given(
        d=st.integers(min_value=1, max_value=6),
        k=st.integers(min_value=1, max_value=6),
        data=st.data(),
        radius=st.floats(min_value=0.01, max_value=5.0),
        divisor=divisors,
        budget=budgets,
        count=st.integers(min_value=0, max_value=60),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_sampler_matches_scalar_draws(
        self, d, k, data, radius, divisor, budget, count, seed
    ):
        centroids = np.random.default_rng(seed ^ 0x5EED).normal(0.0, 3.0, size=(k, d))
        own = data.draw(st.integers(min_value=0, max_value=k - 1))
        args = (centroids[own], radius, radius / divisor, centroids, own, budget)

        def scalar(rng):
            rows = [scalar_sample_in_ball(rng, *args) for _ in range(count)]
            return np.array(rows).reshape(count, d)

        assert outcome(lambda rng: _sample_in_ball(rng, *args, count), seed) == outcome(
            scalar, seed
        )

    @given(
        partition=partitions(),
        data=st.data(),
        divisor=divisors,
        budget=budgets,
        count=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_inject_density_matches_reference(
        self, partition, data, divisor, budget, count, seed
    ):
        x, labels = partition
        cluster = data.draw(st.sampled_from(sorted(set(labels.tolist()))))
        got = outcome(
            lambda rng: inject_density(
                partition_geometry(x, labels), cluster, count, rng,
                sigma_divisor=divisor, max_rejection_attempts=budget,
            ),
            seed,
        )
        want = outcome(
            lambda rng: reference_inject_density(
                x, labels, cluster, count, rng, divisor, budget
            ),
            seed,
        )
        assert got == want

    @given(
        partition=partitions(),
        shrink=st.sampled_from([0.1, 0.5, 0.8, 0.99]),
        divisor=divisors,
        budget=budgets,
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_shrink_clusters_matches_reference(
        self, partition, shrink, divisor, budget, seed
    ):
        x, labels = partition
        config = PerturbConfig(
            shrink_factor=shrink, sigma_divisor=divisor, max_rejection_attempts=budget
        )
        geom = partition_geometry(x, labels)
        got = outcome(lambda rng: shrink_clusters(geom, config, rng), seed)
        want = outcome(lambda rng: reference_shrink_clusters(x, labels, config, rng), seed)
        assert got == want

    def test_rejection_run_spans_rounds(self):
        # Two of three draws accepted in the first round leave one point
        # missing; the run of rejections it then sees starts after the
        # last accepted draw, not at the round boundary.
        center = np.zeros(1)
        centroids = np.array([[0.0], [10.0]])
        for seed in range(200):
            for budget in (1, 2, 3):
                args = (center, 1.0, 1.0, centroids, 0, budget)
                got = outcome(lambda rng: _sample_in_ball(rng, *args, 3), seed)
                want = outcome(
                    lambda rng: np.array(
                        [scalar_sample_in_ball(rng, *args) for _ in range(3)]
                    ),
                    seed,
                )
                assert got == want


class TestOneGeometryPerExperiment:
    @pytest.mark.parametrize("run", [density_experiment, diameter_experiment])
    def test_every_draw_reads_the_baseline_centroids(self, run, monkeypatch):
        """The baseline's geometry is measured once: every sampler call
        of the experiment gets the same centroid array."""
        # The calls are recorded in this process, so the trials run here.
        monkeypatch.setenv("CVILAB_THREADS", "1")
        seen = []
        real = perturb._sample_in_ball

        def recording(rng, center, radius, sigma, centroids, *rest):
            seen.append(centroids)
            return real(rng, center, radius, sigma, centroids, *rest)

        monkeypatch.setattr(perturb, "_sample_in_ball", recording)
        x, labels = blobs_with_singletons()
        run(x, labels, PerturbConfig(seed=3, trials=4, shrink_factor=0.5))
        assert len(seen) == 3 * 4
        assert all(centroids is seen[0] for centroids in seen)


def make_trial_report(kind, baseline_values, trial_values_list):
    def report_of(values):
        return CviReport(k_effective=2, fuzzy=False, **values)

    rows = tuple(
        ExperimentRow(report=report_of(v), trial=t)
        for t, v in enumerate(trial_values_list)
    )
    return ExperimentReport(
        kind=kind,
        config=PerturbConfig(trials=len(rows)),
        baseline=report_of(baseline_values),
        rows=rows,
    )


def flat(sh=0.5, ch=10.0, db=0.5, di=1.0, xb=0.1):
    return {"sh": sh, "ch": ch, "db": db, "di": di, "xb": xb}


class TestJudgeHypothesis:
    def test_sign_test_tail_matches_scipy(self):
        for n, wins in [(10, 7), (100, 50), (100, 65), (5, 5), (4, 4), (8, 0)]:
            assert _sign_test_tail(n, wins) == pytest.approx(
                oracles.binomial_upper_tail(wins, n), abs=1e-12
            )

    def test_unanimous_wins_are_positive(self):
        trials = [flat(sh=0.6) for _ in range(20)]
        report = make_trial_report("density", flat(), trials)
        assert judge_hypothesis(report)["sh"] == "POSITIVE"

    def test_five_of_five_is_positive_but_four_of_four_is_not(self):
        # Exact binomial boundary around alpha = 0.05.
        report5 = make_trial_report("density", flat(), [flat(sh=0.6)] * 5)
        report4 = make_trial_report("density", flat(), [flat(sh=0.6)] * 4)
        assert judge_hypothesis(report5)["sh"] == "POSITIVE"
        assert judge_hypothesis(report4)["sh"] == "INCONCLUSIVE"

    def test_even_split_is_inconclusive(self):
        ups = [flat(sh=0.6)] * 10
        downs = [flat(sh=0.4)] * 10
        report = make_trial_report("density", flat(), ups + downs)
        assert judge_hypothesis(report)["sh"] == "INCONCLUSIVE"

    def test_lower_is_better_direction(self):
        trials = [flat(db=0.4, xb=0.05) for _ in range(10)]
        report = make_trial_report("diameter", flat(), trials)
        verdicts = judge_hypothesis(report)
        assert verdicts["db"] == "POSITIVE"
        assert verdicts["xb"] == "POSITIVE"
        worse = [flat(db=0.9) for _ in range(10)]
        report2 = make_trial_report("diameter", flat(), worse)
        assert judge_hypothesis(report2)["db"] == "NEGATIVE"

    def test_exact_zero_deltas_are_dropped(self):
        trials = [flat() for _ in range(8)] + [flat(sh=0.6)] * 5
        report = make_trial_report("density", flat(), trials)
        assert judge_hypothesis(report)["sh"] == "POSITIVE"

    def test_non_finite_baseline_is_inconclusive(self):
        base = flat(ch=math.inf)
        trials = [flat(ch=50.0)] * 10
        report = make_trial_report("density", base, trials)
        assert judge_hypothesis(report)["ch"] == "INCONCLUSIVE"

    def test_empty_report_rejected(self):
        report = make_trial_report("density", flat(), [flat()])
        with pytest.raises(ValueError):
            judge_hypothesis(
                ExperimentReport(
                    kind="density", config=PerturbConfig(),
                    baseline=report.baseline, rows=(),
                )
            )


def make_outlier_report(values_by_subset):
    """values_by_subset: {frozenset: value_map} over subsets of {3, 4}."""

    def report_of(values):
        return CviReport(k_effective=3, fuzzy=False, **values)

    order = [(), (4,), (3,), (3, 4)]
    rows = tuple(
        ExperimentRow(
            report=report_of(values_by_subset[frozenset(kept)]),
            kept=kept,
        )
        for kept in order
    )
    return ExperimentReport(
        kind="outliers", config=PerturbConfig(),
        baseline=rows[-1].report, rows=rows,
    )


class TestJudgeOutliers:
    def test_unaffected_within_tolerance(self):
        values = {
            frozenset(): flat(di=1.0),
            frozenset({4}): flat(di=1.0 + 4e-10),
            frozenset({3}): flat(di=1.0),
            frozenset({3, 4}): flat(di=1.0 - 4e-10),
        }
        report = make_outlier_report(values)
        assert judge_hypothesis(report)["di"] == "UNAFFECTED"

    def test_monotone_addition_improvement(self):
        values = {
            frozenset(): flat(db=0.9),
            frozenset({4}): flat(db=0.7),
            frozenset({3}): flat(db=0.6),
            frozenset({3, 4}): flat(db=0.4),
        }
        report = make_outlier_report(values)
        assert judge_hypothesis(report)["db"] == "IMPROVES_ON_ADDITION"

    def test_mixed_when_directions_disagree(self):
        values = {
            frozenset(): flat(sh=0.5),
            frozenset({4}): flat(sh=0.7),
            frozenset({3}): flat(sh=0.3),
            frozenset({3, 4}): flat(sh=0.5 + 1e-3),
        }
        report = make_outlier_report(values)
        assert judge_hypothesis(report)["sh"] == "MIXED"

    def test_all_infinite_is_unaffected_mixed_infinite_is_mixed(self):
        all_inf = {s: flat(ch=math.inf) for s in
                   [frozenset(), frozenset({4}), frozenset({3}), frozenset({3, 4})]}
        assert judge_hypothesis(make_outlier_report(all_inf))["ch"] == "UNAFFECTED"
        some_inf = dict(all_inf)
        some_inf[frozenset({3})] = flat(ch=100.0)
        assert judge_hypothesis(make_outlier_report(some_inf))["ch"] == "MIXED"

    def test_error_values_are_mixed(self):
        values = {
            frozenset(): flat(xb=None),
            frozenset({4}): flat(),
            frozenset({3}): flat(),
            frozenset({3, 4}): flat(),
        }
        assert judge_hypothesis(make_outlier_report(values))["xb"] == "MIXED"


class TestSerializationAndCsv:
    def test_json_round_trip(self):
        x, labels = blobs_with_singletons()
        report = density_experiment(x, labels, PerturbConfig(seed=2, trials=3))
        back = experiment_from_dict(json.loads(stored_json(report)))
        assert back == report

    def test_report_holds_only_what_was_measured(self):
        assert [f.name for f in fields(ExperimentReport)] == ["kind", "config", "baseline", "rows"]
        assert [f.name for f in fields(ExperimentRow)] == ["report", "kept", "trial"]
        assert "degenerate" not in {f.name for f in fields(CviReport)}

    @pytest.mark.parametrize("run", [outlier_experiment, density_experiment, diameter_experiment])
    def test_derived_entries_are_read_from_the_rows(self, run):
        x, labels = blobs_with_singletons()
        report = run(x, labels, PerturbConfig(seed=2, trials=6))
        payload = json.loads(stored_json(report))
        for key in ("seed", "average", "degenerate_counts", "verdicts"):
            del payload[key]
        for row in payload["rows"]:
            del row["variant"]
        back = experiment_from_dict(payload)
        assert back.verdict_map() == report.verdict_map()
        assert back.average == report.average
        assert back.seed == report.seed == 2
        assert [row.variant for row in back.rows] == [row.variant for row in report.rows]
        assert stored_json(back) == stored_json(report)

    def test_csv_layout_trial_kind(self):
        x, labels = blobs_with_singletons()
        report = density_experiment(x, labels, PerturbConfig(seed=2, trials=3))
        lines = experiment_to_csv(report).strip().splitlines()
        assert lines[0] == "variant,sh,ch,db,di,xb,k_effective"
        assert len(lines) == 1 + 3 + 1
        assert lines[-1].startswith("AVERAGE,")

    def test_csv_layout_outlier_kind_has_no_average(self):
        x, labels = blobs_with_singletons()
        report = outlier_experiment(x, labels, PerturbConfig(trials=1))
        lines = experiment_to_csv(report).strip().splitlines()
        assert len(lines) == 1 + 4
        assert not any(line.startswith("AVERAGE") for line in lines)
        assert lines[1].split(",")[0] == "none"

    def test_csv_blank_cell_for_non_finite(self):
        values = {
            frozenset(): flat(ch=math.inf, xb=None),
            frozenset({4}): flat(),
            frozenset({3}): flat(),
            frozenset({3, 4}): flat(),
        }
        report = make_outlier_report(values)
        first_data_row = experiment_to_csv(report).strip().splitlines()[1]
        cells = first_data_row.split(",")
        assert cells[2] == "" and cells[5] == ""

    def test_averages_skip_degenerate_trials_and_count_them(self):
        trials = [flat(ch=10.0), flat(ch=math.inf), flat(ch=30.0), flat(ch=None)]
        report = make_trial_report("density", flat(), trials)
        from cvilab.perturb import _average_rows

        average, counts = _average_rows(list(report.rows), k_effective=2)
        assert average.ch == pytest.approx(20.0, abs=1e-12)
        assert dict(counts)["ch"] == 2
        assert dict(counts)["sh"] == 0


def _pid_of(item):
    return os.getpid()


def assert_no_children():
    """No worker is left, reaped or not: ``active_children`` sees only the
    processes that multiprocessing started, ``waitpid`` sees every child."""
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestForkMap:
    """fork_map: the trials' and the k-selection's worker processes."""

    @pytest.fixture(autouse=True)
    def _many_cpus(self, monkeypatch):
        many_cpus(monkeypatch)

    def test_results_in_item_order_from_workers(self, monkeypatch):
        monkeypatch.setenv("CVILAB_THREADS", "3")
        offset = 7  # reaches the workers through fork, as a closure
        assert fork_map(lambda i: i * i + offset, range(10)) == [i * i + 7 for i in range(10)]
        pids = set(fork_map(_pid_of, range(10)))
        assert os.getpid() not in pids and 1 <= len(pids) <= 3
        assert_no_children()

    @pytest.mark.parametrize("workers, items", [("1", 4), ("3", 1)])
    def test_one_worker_or_item_stays_in_process(self, monkeypatch, workers, items):
        monkeypatch.setenv("CVILAB_THREADS", workers)
        assert fork_map(_pid_of, range(items)) == [os.getpid()] * items
        assert_no_children()

    def test_more_item_numbers_than_a_pipe_holds(self, monkeypatch):
        """20,000 4-byte numbers overfill a 64 KiB pipe, so the parent
        writes while the workers read."""
        monkeypatch.setenv("CVILAB_THREADS", "3")
        assert fork_map(lambda i: -i, range(20_000)) == [-i for i in range(20_000)]
        assert_no_children()

    def test_answers_larger_than_a_pipe(self, monkeypatch):
        """Each result is 1.2 MB, so every worker's answer exceeds 1 MiB."""
        monkeypatch.setenv("CVILAB_THREADS", "2")
        results = fork_map(lambda i: np.full(150_000, float(i)), range(5))
        for i, result in enumerate(results):
            np.testing.assert_array_equal(result, np.full(150_000, float(i)))
        assert_no_children()

    def test_worker_error_keeps_type_and_message(self, monkeypatch):
        """A sampler failure in a worker reaches the caller as raised; of
        several failing items, the first in item order is the one raised,
        as in the plain loop. No worker is left after the failure."""
        monkeypatch.setenv("CVILAB_THREADS", "3")
        parent = os.getpid()

        def trial(t):
            if os.getpid() != parent and t in (1, 3):
                raise RejectionBudgetError(f"no acceptable sample for cluster {t} in 5 attempts")
            return t

        with pytest.raises(RejectionBudgetError) as caught:
            fork_map(trial, range(6))
        assert str(caught.value) == "no acceptable sample for cluster 1 in 5 attempts"
        assert_no_children()

    def test_unpicklable_result_raises_its_pickling_error(self, monkeypatch):
        """As when the result is pickled in the caller's process; it fails
        as its item, before a later item's own error."""
        monkeypatch.setenv("CVILAB_THREADS", "2")

        def local():
            pass

        with pytest.raises(Exception) as expected:
            pickle.dumps(local)

        def trial(t):
            if t == 3:
                raise ValueError("a later item's error")
            return local if t == 1 else t

        with pytest.raises(type(expected.value)) as caught:
            fork_map(trial, range(5))
        assert str(caught.value) == str(expected.value)
        assert_no_children()

    def test_worker_that_dies_raises_instead_of_hanging(self, monkeypatch):
        monkeypatch.setenv("CVILAB_THREADS", "2")
        parent = os.getpid()

        def trial(t):
            if os.getpid() != parent and t == 2:
                os._exit(1)
            return t

        with pytest.raises(BrokenProcessPool):
            fork_map(trial, range(4))
        assert_no_children()

    def test_every_worker_dies_while_item_numbers_are_written(self, monkeypatch):
        """The pipe holds 16,384 numbers and the workers die on their first,
        so the parent's write finds no reader; that is a dead pool too."""
        monkeypatch.setenv("CVILAB_THREADS", "3")
        parent = os.getpid()

        def trial(t):
            if os.getpid() != parent:
                os._exit(1)
            return t

        with pytest.raises(BrokenProcessPool):
            fork_map(trial, range(20_000))
        assert_no_children()

    def test_exception_in_the_caller_stops_the_workers(self, monkeypatch):
        """An exception raised in the caller's process while the workers
        sleep in ``fn`` propagates at once, and no worker is left."""
        monkeypatch.setenv("CVILAB_THREADS", "2")

        class Alarm(Exception):
            pass

        def ring(signum, frame):
            raise Alarm

        previous = signal.signal(signal.SIGALRM, ring)
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.2)
            start = time.monotonic()
            with pytest.raises(Alarm):
                fork_map(lambda t: time.sleep(60), range(4))
            assert time.monotonic() - start < 1.2
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert_no_children()

    def test_call_inside_a_worker_runs_serially(self, monkeypatch):
        monkeypatch.setenv("CVILAB_THREADS", "2")

        def outer(i):
            inner = fork_map(_pid_of, range(3))
            return os.getpid(), inner

        results = fork_map(outer, range(4))
        for pid, inner in results:
            assert pid != os.getpid() and inner == [pid] * 3
        assert_no_children()
