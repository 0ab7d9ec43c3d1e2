"""The five validation indices against hand values and naive oracles."""

import json
import math
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

import oracles
from cvilab import (
    HIGHER_IS_BETTER,
    INDEX_NAMES,
    CoincidentCentroidsError,
    FcmConfig,
    calinski_harabasz,
    davies_bouldin,
    dunn,
    evaluate_all,
    evaluate_labels,
    fit_fcm,
    partition_geometry,
    silhouette,
    xie_beni,
)
from cvilab.cvi import report_from_dict, report_to_dict


def two_pair_instance():
    points = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
    labels = np.array([0, 0, 1, 1])
    return points, labels


def random_labeled(seed, **kwargs):
    return oracles.random_instance(np.random.default_rng(seed), **kwargs)


class TestHandInstance:
    """Worked 4-point geometry: every value checked against arithmetic
    done right here from the definitions."""

    def test_silhouette(self):
        points, labels = two_pair_instance()
        b = (10.0 + math.sqrt(101.0)) / 2.0
        expected = (b - 1.0) / b
        assert silhouette(points, labels) == pytest.approx(expected, abs=1e-12)

    def test_calinski_harabasz(self):
        points, labels = two_pair_instance()
        # B = 2*25 + 2*25 = 100 over k-1 = 1; W = 4*0.25 = 1 over N-k = 2.
        assert calinski_harabasz(points, labels) == pytest.approx(200.0, abs=1e-9)

    def test_davies_bouldin(self):
        points, labels = two_pair_instance()
        # S = 0.5 each, centroid gap 10 -> (0.5 + 0.5)/10.
        assert davies_bouldin(points, labels) == pytest.approx(0.1, abs=1e-12)

    def test_dunn(self):
        points, labels = two_pair_instance()
        assert dunn(points, labels) == pytest.approx(10.0, abs=1e-12)

    def test_xie_beni(self):
        points, labels = two_pair_instance()
        # scatter 1.0 over N * min gap^2 = 4 * 100.
        assert xie_beni(points, labels) == pytest.approx(0.0025, abs=1e-12)


class TestSilhouette:
    def test_singleton_scores_zero(self):
        points = np.array([[0.0, 0.0], [0.0, 1.0], [5.0, 0.0]])
        labels = np.array([0, 0, 1])
        got = silhouette(points, labels)
        want = oracles.naive_silhouette(points, labels)
        assert got == pytest.approx(want, abs=1e-12)
        assert math.isfinite(got)

    def test_all_singletons_give_zero(self):
        points = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        assert silhouette(points, np.array([0, 1, 2])) == 0.0

    def test_identical_coincident_clusters(self):
        # a == b == 0 for every point: 0/0 convention scores 0.
        points = np.zeros((4, 2))
        labels = np.array([0, 0, 1, 1])
        assert silhouette(points, labels) == 0.0

    def test_needs_three_points_two_clusters(self):
        with pytest.raises(ValueError):
            silhouette(np.zeros((2, 2)), np.array([0, 1]))
        with pytest.raises(ValueError):
            silhouette(np.ones((4, 2)), np.array([0, 0, 0, 0]))

    def test_range_bounds(self):
        for seed in range(5):
            points, labels = random_labeled(seed, max_points=50)
            value = silhouette(points, labels)
            assert -1.0 - 1e-12 <= value <= 1.0 + 1e-12


class TestCalinskiHarabasz:
    def test_zero_within_scatter_is_degenerate_inf(self):
        points = np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 5.0], [5.0, 5.0]])
        labels = np.array([0, 0, 1, 1])
        assert calinski_harabasz(points, labels) == math.inf

    def test_k_equal_n_rejected(self):
        points = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(ValueError):
            calinski_harabasz(points, np.array([0, 1, 2]))

    def test_scale_invariance(self):
        points, labels = random_labeled(3, max_points=60)
        base = calinski_harabasz(points, labels)
        scaled = calinski_harabasz(points * 7.5, labels)
        assert scaled == pytest.approx(base, rel=1e-9)


class TestDaviesBouldin:
    def test_two_singletons_score_zero(self):
        points = np.array([[0.0, 0.0], [1.0, 0.0]])
        labels = np.array([0, 1])
        assert davies_bouldin(points, labels) == 0.0

    def test_coincident_centroids_rejected(self):
        # Two clusters with identical means.
        points = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 1.0], [1.0, -1.0]])
        labels = np.array([0, 0, 1, 1])
        with pytest.raises(CoincidentCentroidsError):
            davies_bouldin(points, labels)


class TestDunn:
    def test_zero_diameter_everywhere_is_degenerate_inf(self):
        points = np.array([[0.0, 0.0], [0.0, 0.0], [3.0, 0.0], [3.0, 0.0]])
        labels = np.array([0, 0, 1, 1])
        assert dunn(points, labels) == math.inf

    def test_far_singleton_leaves_dunn_unchanged_bitwise(self):
        # The singleton has zero diameter and only enlarges the numerator
        # candidates, so the min/max pair is untouched.
        rng = np.random.default_rng(1)
        a = rng.normal((0, 0), 0.2, size=(8, 2))
        b = rng.normal((6, 0), 0.2, size=(8, 2))
        points = np.vstack([a, b])
        labels = np.array([0] * 8 + [1] * 8)
        base = dunn(points, labels)
        with_far = dunn(
            np.vstack([points, [[1000.0, 1000.0]]]),
            np.concatenate([labels, [2]]),
        )
        assert with_far == base


class TestXieBeni:
    def test_coincident_centroids_rejected(self):
        points = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 1.0], [1.0, -1.0]])
        labels = np.array([0, 0, 1, 1])
        with pytest.raises(CoincidentCentroidsError):
            xie_beni(points, labels)

    def test_crisp_reads_the_geometry_bitwise(self):
        for seed in range(5):
            points, labels = random_labeled(seed, max_points=40)
            geom = partition_geometry(points, labels)
            want = geom.within / (len(points) * geom.centroid_gaps.min() ** 2)
            assert xie_beni(points, labels) == want

    def test_one_hot_memberships_agree_with_crisp(self):
        # Unit memberships weigh the squared distances to the label means
        # whatever the fuzzifier; the fuzzy form squares cdist's roots, so
        # only the last bits may differ.
        points, labels = random_labeled(4, max_points=40)
        geom = partition_geometry(points, labels)
        for m in (2.0, 3.7):
            model = SimpleNamespace(
                labels=labels,
                memberships=np.eye(geom.k)[geom.canon],
                centroids=geom.centroids,
                fuzzifier=m,
            )
            fuzzy = evaluate_all(points, model).xb
            assert fuzzy == pytest.approx(xie_beni(points, labels), rel=1e-12, abs=0)

    def test_fuzzy_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(9)
        for m in (1.5, 2.0, 3.0):
            points = rng.normal(size=(25, 3))
            u = rng.random((25, 4))
            u /= u.sum(axis=1, keepdims=True)
            centroids = rng.normal(size=(4, 3))
            model = SimpleNamespace(
                labels=u.argmax(axis=1), memberships=u, centroids=centroids, fuzzifier=m
            )
            got = evaluate_all(points, model).xb
            want = oracles.naive_xie_beni_fuzzy(points, u, centroids, m)
            assert got == pytest.approx(want, rel=1e-10)


class TestAgainstNaiveOracles:
    def test_random_instances(self):
        for seed in range(25):
            points, labels = random_labeled(seed, max_points=60)
            pairs = [
                (silhouette(points, labels), oracles.naive_silhouette(points, labels)),
                (calinski_harabasz(points, labels),
                 oracles.naive_calinski_harabasz(points, labels)),
                (davies_bouldin(points, labels),
                 oracles.naive_davies_bouldin(points, labels)),
                (dunn(points, labels), oracles.naive_dunn(points, labels)),
                (xie_beni(points, labels),
                 oracles.naive_xie_beni_crisp(points, labels)),
            ]
            for got, want in pairs:
                assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


class TestInvariances:
    @given(seed=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_row_permutation(self, seed):
        points, labels = random_labeled(seed, max_points=40)
        perm = np.random.default_rng(seed + 1).permutation(len(points))
        base = evaluate_labels(points, labels)
        moved = evaluate_labels(points[perm], labels[perm])
        for name in INDEX_NAMES:
            a, b = base.value_map()[name], moved.value_map()[name]
            assert a is not None and b is not None
            assert b == pytest.approx(a, rel=1e-9)

    @given(seed=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_rigid_motion(self, seed):
        points, labels = random_labeled(seed, max_points=40, max_dims=4)
        rng = np.random.default_rng(seed + 2)
        d = points.shape[1]
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        shift = rng.normal(scale=5.0, size=d)
        base = evaluate_labels(points, labels)
        moved = evaluate_labels(points @ q + shift, labels)
        for name in INDEX_NAMES:
            assert moved.value_map()[name] == pytest.approx(
                base.value_map()[name], rel=1e-8
            )

    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        scale=st.floats(min_value=1e-3, max_value=1e3),
    )
    @settings(max_examples=25, deadline=None)
    def test_uniform_scaling(self, seed, scale):
        points, labels = random_labeled(seed, max_points=40)
        base = evaluate_labels(points, labels)
        scaled = evaluate_labels(points * scale, labels)
        for name in INDEX_NAMES:
            assert scaled.value_map()[name] == pytest.approx(
                base.value_map()[name], rel=1e-9
            )

    def test_label_value_permutation(self):
        points, labels = random_labeled(17, max_points=50)
        k = len(set(labels.tolist()))
        mapping = np.random.default_rng(0).permutation(k)
        base = evaluate_labels(points, labels)
        renamed = evaluate_labels(points, mapping[labels])
        for name in INDEX_NAMES:
            assert renamed.value_map()[name] == pytest.approx(
                base.value_map()[name], rel=1e-9
            )


class TestReports:
    def test_evaluate_labels_structure(self):
        points, labels = two_pair_instance()
        report = evaluate_labels(points, labels)
        assert report.k_effective == 2
        assert report.fuzzy is False
        assert report.degenerate == ()
        assert report.errors == ()
        assert set(report.value_map()) == set(INDEX_NAMES)

    def test_degenerate_inf_flagged(self):
        points = np.array([[0.0, 0.0], [0.0, 0.0], [3.0, 0.0], [3.0, 0.0]])
        labels = np.array([0, 0, 1, 1])
        report = evaluate_labels(points, labels)
        assert report.ch == math.inf and report.di == math.inf
        assert "ch" in report.degenerate and "di" in report.degenerate

    def test_index_error_recorded_not_raised(self):
        # Coincident centroids break DB and XB; the others still compute.
        points = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 1.0], [1.0, -1.0]])
        labels = np.array([0, 0, 1, 1])
        report = evaluate_labels(points, labels)
        assert report.db is None and report.xb is None
        failed = dict(report.errors)
        assert set(failed) == {"db", "xb"}
        assert report.sh is not None and report.ch is not None

    def test_evaluate_all_uses_memberships_for_xb(self):
        rng = np.random.default_rng(3)
        x = np.vstack(
            [rng.normal((0, 0), 0.3, size=(12, 2)),
             rng.normal((6, 0), 0.3, size=(12, 2))]
        )
        model = fit_fcm(x, FcmConfig(k=2, seed=1))
        fuzzy = evaluate_all(x, model)
        crisp = evaluate_labels(x, model.labels)
        assert fuzzy.fuzzy is True and crisp.fuzzy is False
        assert fuzzy.xb != crisp.xb
        assert fuzzy.sh == crisp.sh  # only XB consumes the memberships
        want = oracles.naive_xie_beni_fuzzy(
            x, model.memberships, model.centroids, model.fuzzifier
        )
        assert fuzzy.xb == pytest.approx(want, rel=1e-10)

    def test_json_round_trip_with_degenerate_and_errors(self):
        points = np.array(
            [[0.0, 0.0], [0.0, 0.0], [3.0, 0.0], [3.0, 0.0], [1.5, 40.0]]
        )
        labels = np.array([0, 0, 1, 1, 2])
        report = evaluate_labels(points, labels)
        back = report_from_dict(json.loads(json.dumps(report_to_dict(report))))
        assert back == report

    def test_json_nulls_for_non_finite(self):
        points = np.array([[0.0, 0.0], [0.0, 0.0], [3.0, 0.0], [3.0, 0.0]])
        labels = np.array([0, 0, 1, 1])
        payload = json.loads(json.dumps(report_to_dict(evaluate_labels(points, labels))))
        assert payload["ch"] is None and payload["di"] is None
        assert "ch" in payload["degenerate_flags"]

    def test_direction_table(self):
        assert HIGHER_IS_BETTER == {
            "sh": True, "ch": True, "db": False, "di": True, "xb": False
        }

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            evaluate_labels(np.ones((4, 2)), np.array([0, 0, 1]))

    @pytest.mark.parametrize(
        "index", [silhouette, calinski_harabasz, davies_bouldin, dunn, xie_beni],
        ids=lambda index: index.__name__,
    )
    @pytest.mark.parametrize(
        "points, labels, message",
        [
            (np.arange(8.0).reshape(4, 2), np.array([0, 0, 1]),
             "labels must be 1-D and match the number of points"),
            (np.array([[0.0, 0.0], [0.0, math.nan], [5.0, 0.0], [5.0, 1.0]]),
             np.array([0, 0, 1, 1]), "points contain non-finite entries"),
        ],
        ids=["short-labels", "nan-point"],
    )
    def test_bad_input_raises_alike_in_every_index(self, index, points, labels, message):
        with pytest.raises(ValueError, match=message):
            index(points, labels)

    def test_single_cluster_recorded_as_errors(self):
        # Degenerate partitions produce a report with per-index errors
        # rather than raising, so experiment rows never explode.
        report = evaluate_labels(np.ones((4, 2)), np.array([0, 0, 0, 0]))
        assert all(v is None for v in report.value_map().values())
        assert set(dict(report.errors)) == set(INDEX_NAMES)
        assert report.k_effective == 1


def indices_one_by_one(points, labels):
    """Each index called on its own, errors caught the way reports do."""
    values, errors = {}, []
    for name, index in (
        ("sh", silhouette),
        ("ch", calinski_harabasz),
        ("db", davies_bouldin),
        ("di", dunn),
        ("xb", xie_beni),
    ):
        try:
            values[name] = index(points, labels)
        except ValueError as exc:
            values[name] = None
            errors.append((name, str(exc)))
    return values, tuple(errors)


@st.composite
def small_partitions(draw):
    """Few points on a coarse grid, so singletons, k = 1, N < 3,
    coincident points and coincident centroids all come up."""
    n = draw(st.integers(min_value=1, max_value=24))
    d = draw(st.integers(min_value=1, max_value=3))
    coords = st.integers(min_value=-3, max_value=3).map(float)
    points = np.array(
        draw(st.lists(st.lists(coords, min_size=d, max_size=d), min_size=n, max_size=n))
    )
    labels = np.array(
        draw(st.lists(st.integers(min_value=-2, max_value=4), min_size=n, max_size=n))
    )
    return points, labels


def masked_distance_pass(x, canon, k):
    """The distance pass as first written: all N² pairs in input order,
    cluster blocks picked out by a same-cluster mask, sums by a one-hot
    matrix product."""
    n = x.shape[0]
    onehot = np.zeros((n, k))
    onehot[np.arange(n), canon] = 1.0
    sums = np.empty((n, k))
    diameters = np.zeros(k)
    min_sep = math.inf
    for start in range(0, n, 512):
        stop = min(start + 512, n)
        dist = cdist(x[start:stop], x)
        sums[start:stop] = dist @ onehot
        same = canon[start:stop, None] == canon[None, :]
        intra_rowmax = np.where(same, dist, 0.0).max(axis=1)
        np.maximum.at(diameters, canon[start:stop], intra_rowmax)
        inter = np.where(same, math.inf, dist)
        min_sep = min(min_sep, inter.min(initial=math.inf))
    return sums, diameters, float(min_sep)


class TestClusterOrderedPass:
    """The cluster-ordered pass against the masked all-pairs pass: max and
    min keep their bits, sums change only in the order of additions."""

    @given(partition=small_partitions(), jitter=st.booleans(),
           chunk=st.sampled_from([1, 3, 7, 512]))
    @settings(max_examples=300, deadline=None)
    def test_matches_masked_pass(self, partition, jitter, chunk):
        import cvilab.cvi as cvi_module

        points, labels = partition
        if jitter:  # off the grid, so the sums are inexact
            points = points + np.random.default_rng(len(points)).normal(size=points.shape)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cvi_module, "_CHUNK", chunk)
            geom = partition_geometry(points, labels)
        k = geom.k
        sums, diameters, min_sep = masked_distance_pass(points, geom.canon, k)
        assert geom.diameters.tobytes() == diameters.tobytes()
        assert geom.min_separation_points == min_sep
        np.testing.assert_allclose(geom.distance_sums, sums, rtol=1e-13, atol=0)
        for c in range(k):
            members = points[geom.canon == c]
            centroid = members.mean(axis=0)
            norms = np.linalg.norm(members - centroid, axis=1)
            assert geom.centroids[c].tobytes() == centroid.tobytes()
            assert geom.own_gaps[geom.canon == c].tobytes() == norms.tobytes()
            assert geom.mean_scatter[c] == float(norms.mean())
            assert geom.radii[c] == float(norms.max())
        gaps = cdist(geom.centroids, geom.centroids)
        np.fill_diagonal(gaps, math.inf)
        assert geom.centroid_gaps.tobytes() == gaps.tobytes()

    def test_chunks_cover_each_inter_cluster_pair_once(self, monkeypatch):
        import cvilab.cvi as cvi_module

        shapes = []
        real_cdist = cvi_module.cdist

        def recording_cdist(a, b, *args, **kwargs):
            shapes.append((len(a), len(b)))
            return real_cdist(a, b, *args, **kwargs)

        monkeypatch.setattr(cvi_module, "_CHUNK", 3)
        monkeypatch.setattr(cvi_module, "cdist", recording_cdist)
        labels = np.array([2, 0, 2, 1, 0, 2, 2, 0, 2, 1, 2])  # sizes 3, 2, 6
        points = np.arange(22.0).reshape(11, 2)
        cvi_module._distance_pass(points[np.argsort(labels, kind="stable")],
                                  np.array([0, 3, 5, 11]))
        assert shapes == [(3, 11), (2, 8), (3, 6), (3, 6)]


class TestFusedEvaluation:
    """evaluate_labels shares one geometry between sh, ch, db and di; its
    values must still be exactly those of the single-index functions."""

    @given(partition=small_partitions())
    @settings(max_examples=300, deadline=None)
    def test_report_equals_single_index_calls(self, partition):
        points, labels = partition
        report = evaluate_labels(points, labels)
        values, errors = indices_one_by_one(points, labels)
        assert report.value_map() == values
        assert report.errors == errors
        assert report.degenerate == tuple(
            name for name, v in values.items() if v is not None and math.isinf(v)
        )
        assert report.k_effective == len(set(labels.tolist()))

    @pytest.mark.parametrize(
        "points, labels",
        [
            (np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 1.0], [1.0, -1.0]]), np.array([0, 0, 1, 1])),
            (np.ones((4, 2)), np.array([0, 0, 0, 0])),
            (np.array([[0.0], [1.0]]), np.array([0, 1])),
            (np.array([[0.0], [1.0], [5.0], [9.0]]), np.array([3, 1, 1, 7])),
        ],
        ids=["coincident-centroids", "k1", "n2", "singletons"],
    )
    def test_edge_cases(self, points, labels):
        report = evaluate_labels(points, labels)
        values, errors = indices_one_by_one(points, labels)
        assert report.value_map() == values
        assert report.errors == errors

    def test_empty_partition_records_every_index_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = evaluate_labels(np.empty((0, 2)), np.array([], dtype=int))
        assert report.value_map() == dict.fromkeys(INDEX_NAMES)
        assert [name for name, _ in report.errors] == list(INDEX_NAMES)
        assert report.k_effective == 0

    def test_coincident_centroids_error_type(self):
        points = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 1.0], [1.0, -1.0]])
        labels = np.array([0, 0, 1, 1])
        with pytest.raises(CoincidentCentroidsError):
            davies_bouldin(points, labels)
        report = evaluate_labels(points, labels)
        assert dict(report.errors)["db"] == "two clusters share a centroid"

    def test_random_instances_bitwise(self):
        for seed in range(10):
            points, labels = random_labeled(seed)
            values, errors = indices_one_by_one(points, labels)
            report = evaluate_labels(points, labels)
            assert report.value_map() == values and report.errors == errors

    def test_one_pass_over_point_pairs(self, monkeypatch):
        import cvilab.cvi as cvi_module

        pairs = []
        real_cdist = cvi_module.cdist

        def counting_cdist(a, b, *args, **kwargs):
            out = real_cdist(a, b, *args, **kwargs)
            pairs.append(out.size)
            return out

        monkeypatch.setattr(cvi_module, "cdist", counting_cdist)
        rng = np.random.default_rng(0)
        n = 300
        labels = rng.integers(0, 6, size=n)
        points = rng.normal(size=(n, 4)) + labels[:, None] * 3.0
        evaluate_labels(points, labels)
        assert sum(pairs) < 0.65 * n * n

    def test_crisp_report_measures_centroids_once(self, monkeypatch):
        """Beside the distance-pass chunks, one k×k centroid cdist; no
        point is measured against a centroid."""
        import cvilab.cvi as cvi_module

        rng = np.random.default_rng(6)
        x = np.vstack([rng.normal(c, 0.5, size=(50, 2)) for c in ((0, 0), (6, 0), (0, 6))])
        labels = np.repeat(np.arange(3), 50)
        shapes = []
        real_cdist = cvi_module.cdist
        monkeypatch.setattr(
            cvi_module, "cdist", lambda a, b: shapes.append((a.shape, b.shape)) or real_cdist(a, b)
        )
        evaluate_labels(x, labels)
        chunks = [((50, 2), (150, 2)), ((50, 2), (100, 2)), ((50, 2), (50, 2))]
        assert shapes == chunks + [((3, 2), (3, 2))]


def membership_xie_beni(points, u, centroids, m):
    """The fuzzy Xie-Beni written out step by step, as ``xie_beni``
    computed it when it still took a membership matrix."""
    x = np.asarray(points, dtype=float)
    u = np.asarray(u).astype(float)
    if u.shape[0] != x.shape[0]:
        raise ValueError("membership rows must match the number of points")
    cent = np.asarray(centroids, dtype=float)
    if cent.shape[0] < 2:
        raise ValueError("index needs at least 2 clusters")
    gaps = cdist(cent, cent)
    np.fill_diagonal(gaps, math.inf)
    min_gap = float(gaps.min())
    if min_gap == 0.0:
        raise CoincidentCentroidsError("two centroids coincide")
    scatter = float(((u**m) * cdist(x, cent) ** 2).sum())
    return scatter / (x.shape[0] * min_gap**2)


def fuzzy_report_reference(points, model):
    """The crisp report with its Xie-Beni swapped for the fuzzy one, as
    evaluate_all first built it."""
    crisp = evaluate_labels(points, model.labels)
    try:
        xb = membership_xie_beni(points, model.memberships, model.centroids, model.fuzzifier)
        errors = ()
    except ValueError as exc:
        xb, errors = None, (("xb", str(exc)),)
    return replace(
        crisp,
        xb=xb,
        fuzzy=True,
        degenerate=tuple(n for n in crisp.degenerate if n != "xb")
        + (("xb",) if xb is not None and math.isinf(xb) else ()),
        errors=tuple(e for e in crisp.errors if e[0] != "xb") + errors,
    )


class TestFuzzyReport:
    """evaluate_all with memberships builds its report from the geometry
    directly and never computes the crisp Xie-Beni it would discard."""

    @given(partition=small_partitions(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_equals_crisp_report_with_fuzzy_xie_beni(self, partition, data):
        points, labels = partition
        n, d = points.shape
        k = len(set(labels.tolist()))
        weights = np.array(
            data.draw(st.lists(st.lists(st.integers(1, 4), min_size=k, max_size=k),
                               min_size=n, max_size=n)),
            dtype=float,
        )
        coords = st.integers(min_value=-2, max_value=2).map(float)
        centroids = np.array(
            data.draw(st.lists(st.lists(coords, min_size=d, max_size=d), min_size=k, max_size=k))
        )
        model = SimpleNamespace(
            labels=labels,
            memberships=weights / weights.sum(axis=1, keepdims=True),
            centroids=centroids,
            fuzzifier=2.0,
        )
        assert evaluate_all(points, model) == fuzzy_report_reference(points, model)

    def test_fitted_model_equals_reference(self):
        rng = np.random.default_rng(3)
        x = np.vstack([rng.normal(c, 0.3, size=(12, 2)) for c in ((0, 0), (6, 0), (0, 6))])
        model = fit_fcm(x, FcmConfig(k=3, seed=1))
        assert evaluate_all(x, model) == fuzzy_report_reference(x, model)

    def test_no_crisp_centroid_distances(self, monkeypatch):
        import cvilab.cvi as cvi_module

        rng = np.random.default_rng(5)
        centres = ((0, 0), (6, 0), (0, 6), (6, 6))
        x = np.vstack([rng.normal(c, 0.5, size=(100, 2)) for c in centres])
        model = fit_fcm(x, FcmConfig(k=4, seed=1))
        crisp = partition_geometry(x, model.labels).centroids
        calls = []
        real_cdist = cvi_module.cdist

        def counting_cdist(a, b, *args, **kwargs):
            calls.append((np.shape(a), np.shape(b), np.array_equal(b, crisp)))
            return real_cdist(a, b, *args, **kwargs)

        monkeypatch.setattr(cvi_module, "cdist", counting_cdist)
        evaluate_all(x, model)
        # Only the geometry's centroid gaps, which Davies-Bouldin reads,
        # use the crisp centroids; no point is measured against them.
        assert [call[:2] for call in calls if call[2]] == [((4, 2), (4, 2))]
        assert ((400, 2), (4, 2), False) in calls  # the fuzzy Xie-Beni
