"""The five validation indices against hand values and naive oracles."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

import oracles
from cvilab import (
    HIGHER_IS_BETTER,
    INDEX_NAMES,
    evaluate_labels,
    partition_geometry,
)
from cvilab import cvi as cvi_module
from cvilab.cvi import report_from_dict, report_to_dict


def two_pair_instance():
    points = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
    labels = np.array([0, 0, 1, 1])
    return points, labels


def random_labeled(seed, **kwargs):
    return oracles.random_instance(np.random.default_rng(seed), **kwargs)


def failure(report, name):
    """The message of an index that the report records as failed."""
    assert report.value_map()[name] is None
    return dict(report.errors)[name]


class TestHandInstance:
    """Worked 4-point geometry: every value checked against arithmetic
    done right here from the definitions."""

    def test_silhouette(self):
        points, labels = two_pair_instance()
        b = (10.0 + math.sqrt(101.0)) / 2.0
        expected = (b - 1.0) / b
        assert evaluate_labels(points, labels).sh == pytest.approx(expected, abs=1e-12)

    def test_calinski_harabasz(self):
        points, labels = two_pair_instance()
        # B = 2*25 + 2*25 = 100 over k-1 = 1; W = 4*0.25 = 1 over N-k = 2.
        assert evaluate_labels(points, labels).ch == pytest.approx(200.0, abs=1e-9)

    def test_davies_bouldin(self):
        points, labels = two_pair_instance()
        # S = 0.5 each, centroid gap 10 -> (0.5 + 0.5)/10.
        assert evaluate_labels(points, labels).db == pytest.approx(0.1, abs=1e-12)

    def test_dunn(self):
        points, labels = two_pair_instance()
        assert evaluate_labels(points, labels).di == pytest.approx(10.0, abs=1e-12)

    def test_xie_beni(self):
        points, labels = two_pair_instance()
        # scatter 1.0 over N * min gap^2 = 4 * 100.
        assert evaluate_labels(points, labels).xb == pytest.approx(0.0025, abs=1e-12)


class TestSilhouette:
    def test_singleton_scores_zero(self):
        points = np.array([[0.0, 0.0], [0.0, 1.0], [5.0, 0.0]])
        labels = np.array([0, 0, 1])
        got = evaluate_labels(points, labels).sh
        want = oracles.naive_silhouette(points, labels)
        assert got == pytest.approx(want, abs=1e-12)
        assert math.isfinite(got)

    def test_all_singletons_give_zero(self):
        points = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        assert evaluate_labels(points, np.array([0, 1, 2])).sh == 0.0

    def test_identical_coincident_clusters(self):
        # a == b == 0 for every point: 0/0 convention scores 0.
        points = np.zeros((4, 2))
        labels = np.array([0, 0, 1, 1])
        assert evaluate_labels(points, labels).sh == 0.0

    def test_needs_three_points_two_clusters(self):
        report = evaluate_labels(np.zeros((2, 2)), np.array([0, 1]))
        assert failure(report, "sh") == "silhouette needs at least 3 points"
        report = evaluate_labels(np.ones((4, 2)), np.array([0, 0, 0, 0]))
        assert failure(report, "sh") == "index needs at least 2 clusters"

    def test_range_bounds(self):
        for seed in range(5):
            points, labels = random_labeled(seed, max_points=50)
            value = evaluate_labels(points, labels).sh
            assert -1.0 - 1e-12 <= value <= 1.0 + 1e-12


class TestCalinskiHarabasz:
    def test_zero_within_scatter_is_degenerate_inf(self):
        points = np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 5.0], [5.0, 5.0]])
        labels = np.array([0, 0, 1, 1])
        assert evaluate_labels(points, labels).ch == math.inf

    def test_k_equal_n_rejected(self):
        points = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        report = evaluate_labels(points, np.array([0, 1, 2]))
        assert failure(report, "ch") == "index needs k < N"

    def test_scale_invariance(self):
        points, labels = random_labeled(3, max_points=60)
        base = evaluate_labels(points, labels).ch
        scaled = evaluate_labels(points * 7.5, labels).ch
        assert scaled == pytest.approx(base, rel=1e-9)


class TestDaviesBouldin:
    def test_two_singletons_score_zero(self):
        points = np.array([[0.0, 0.0], [1.0, 0.0]])
        labels = np.array([0, 1])
        assert evaluate_labels(points, labels).db == 0.0

    def test_coincident_centroids_rejected(self):
        # Two clusters with identical means.
        points = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 1.0], [1.0, -1.0]])
        labels = np.array([0, 0, 1, 1])
        report = evaluate_labels(points, labels)
        assert failure(report, "db") == "two clusters share a centroid"


class TestDunn:
    def test_zero_diameter_everywhere_is_degenerate_inf(self):
        points = np.array([[0.0, 0.0], [0.0, 0.0], [3.0, 0.0], [3.0, 0.0]])
        labels = np.array([0, 0, 1, 1])
        assert evaluate_labels(points, labels).di == math.inf

    def test_far_singleton_leaves_dunn_unchanged_bitwise(self):
        # The singleton has zero diameter and only enlarges the numerator
        # candidates, so the min/max pair is untouched.
        rng = np.random.default_rng(1)
        a = rng.normal((0, 0), 0.2, size=(8, 2))
        b = rng.normal((6, 0), 0.2, size=(8, 2))
        points = np.vstack([a, b])
        labels = np.array([0] * 8 + [1] * 8)
        base = evaluate_labels(points, labels).di
        with_far = evaluate_labels(
            np.vstack([points, [[1000.0, 1000.0]]]),
            np.concatenate([labels, [2]]),
        ).di
        assert with_far == base


class TestXieBeni:
    def test_coincident_centroids_rejected(self):
        points = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 1.0], [1.0, -1.0]])
        labels = np.array([0, 0, 1, 1])
        report = evaluate_labels(points, labels)
        assert failure(report, "xb") == "two clusters share a centroid"

    def test_crisp_reads_the_geometry_bitwise(self):
        for seed in range(5):
            points, labels = random_labeled(seed, max_points=40)
            geom = partition_geometry(points, labels)
            want = geom.within / (len(points) * geom.centroid_gaps.min() ** 2)
            assert evaluate_labels(points, labels).xb == want


class TestAgainstNaiveOracles:
    def test_random_instances(self):
        for seed in range(25):
            points, labels = random_labeled(seed, max_points=60)
            assert_matches_oracles(evaluate_labels(points, labels), points, labels)


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
        "index", ["_silhouette", "_calinski_harabasz", "_davies_bouldin", "_dunn", "_xie_beni"],
        ids=lambda index: index.removeprefix("_"),
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
    def test_bad_input_raises_alike_in_every_index(
        self, monkeypatch, index, points, labels, message
    ):
        """Bad input raises from the shared geometry before ``index`` runs,
        never as that one index's error in the report."""
        import cvilab.cvi as cvi_module

        def unreachable(geom):
            raise AssertionError(f"{index} ran on bad input")

        monkeypatch.setattr(cvi_module, index, unreachable)
        with pytest.raises(ValueError, match=message):
            evaluate_labels(points, labels)

    def test_single_cluster_recorded_as_errors(self):
        # Degenerate partitions produce a report with per-index errors
        # rather than raising, so experiment rows never explode. All five
        # fail with one text through both entry points.
        points = np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 2.0], [2.0, 0.0]])
        labels = np.array([3, 3, 3, 3])
        for report in (evaluate_labels(points, labels),
                       cvi_module.evaluate_geometry(partition_geometry(points, labels))):
            assert report.value_map() == dict.fromkeys(INDEX_NAMES)
            assert report.errors == tuple((name, "index needs at least 2 clusters")
                                          for name in INDEX_NAMES)
            assert report.k_effective == 1


def indices_by_oracle(points, labels):
    """Each index from its naive oracle, or None where its stated
    precondition fails: k < 2 for all five, N < 3 for sh, k >= N for ch,
    coincident centroids for db and xb."""
    n = len(labels)
    centroids = [points[labels == v].mean(axis=0) for v in np.unique(labels)]
    k = len(centroids)
    coincident = any(
        np.array_equal(a, b) for i, a in enumerate(centroids) for b in centroids[i + 1:]
    )
    fails = {"sh": n < 3, "ch": k >= n, "db": coincident, "di": False, "xb": coincident}
    oracle = {
        "sh": oracles.naive_silhouette,
        "ch": oracles.naive_calinski_harabasz,
        "db": oracles.naive_davies_bouldin,
        "di": oracles.naive_dunn,
        "xb": oracles.naive_xie_beni_crisp,
    }
    return {
        name: None if k < 2 or fails[name] else oracle[name](points, labels)
        for name in INDEX_NAMES
    }


def assert_matches_oracles(report, points, labels):
    """An index is in ``errors`` exactly when its precondition fails;
    otherwise its value is the oracle's within 1e-10 relative (inf is inf)."""
    want = indices_by_oracle(points, labels)
    assert set(dict(report.errors)) == {name for name, v in want.items() if v is None}
    for name, value in want.items():
        got = report.value_map()[name]
        if value is None or math.isinf(value):
            assert got == value, name
        else:
            assert got == pytest.approx(value, rel=1e-10, abs=0), name


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
    """evaluate_labels reads all five indices from one geometry; each must
    still match its naive oracle, and fail exactly when its stated
    precondition fails."""

    @given(partition=small_partitions())
    @settings(max_examples=300, deadline=None)
    def test_report_matches_oracles(self, partition):
        points, labels = partition
        report = evaluate_labels(points, labels)
        assert_matches_oracles(report, points, labels)
        assert report.degenerate == tuple(
            name for name, v in report.value_map().items() if v is not None and math.isinf(v)
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
        assert_matches_oracles(evaluate_labels(points, labels), points, labels)

    @given(partition=small_partitions(), jitter=st.booleans(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_order_preserving_relabel_is_bitwise(self, partition, jitter, data):
        """Labels mapped by any strictly increasing function give the same
        report bit for bit (the repr of a float round-trips its bits): the
        clusters keep their order, and so every sum its order of additions."""
        points, labels = partition
        if jitter:  # off the grid, so the sums are inexact
            points = points + np.random.default_rng(len(points)).normal(size=points.shape)
        values, canon = np.unique(labels, return_inverse=True)
        image = data.draw(st.lists(st.integers(-10**9, 10**9), min_size=len(values),
                                   max_size=len(values), unique=True))
        relabeled = np.sort(np.array(image, dtype=np.int64))[canon]
        assert repr(evaluate_labels(points, relabeled)) == repr(evaluate_labels(points, labels))

    def test_empty_partition_records_every_index_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = evaluate_labels(np.empty((0, 2)), np.array([], dtype=int))
        assert report.value_map() == dict.fromkeys(INDEX_NAMES)
        assert [name for name, _ in report.errors] == list(INDEX_NAMES)
        assert report.k_effective == 0

    def test_coincident_centroids_error_type(self):
        """A plain ValueError with one text for db and xb, which the report keeps."""
        import cvilab.cvi as cvi_module

        points = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 1.0], [1.0, -1.0]])
        labels = np.array([0, 0, 1, 1])
        geom = partition_geometry(points, labels)
        report = evaluate_labels(points, labels)
        message = "two clusters share a centroid"
        for name, index in (("db", cvi_module._davies_bouldin), ("xb", cvi_module._xie_beni)):
            with pytest.raises(ValueError) as caught:
                index(geom)
            assert type(caught.value) is ValueError and str(caught.value) == message
            assert failure(report, name) == message

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


class TestEuclideanKernel:
    """``cvi.cdist`` runs scipy's compiled Euclidean kernel without importing
    ``scipy.spatial``. It must stay the public ``cdist`` bit for bit, or the
    artifacts change their bytes: a scipy release that moves or changes the
    kernel fails here."""

    @staticmethod
    def assert_same(xa, xb):
        ours, public = cvi_module.cdist(xa, xb), cdist(xa, xb)
        assert (ours.shape, ours.dtype) == (public.shape, public.dtype)
        assert ours.tobytes() == public.tobytes()

    def test_equals_public_cdist_bitwise(self):
        rng = np.random.default_rng(34)
        for d in range(1, 97):
            # Scales far apart, so that a different rounding would show.
            pool = rng.normal(size=(500, d)) * 10.0 ** rng.integers(-6, 7, size=(500, 1))
            for na in (0, 1, 500):
                for nb in (0, 1, 500):
                    self.assert_same(pool[:na], pool[::-1][:nb])

    def test_strided_input(self):
        x = np.random.default_rng(1).normal(size=(60, 30))
        self.assert_same(x[::3, ::2], x[1::2, 1::2])
        self.assert_same(np.asfortranarray(x), x[::-1])

    def test_fcm_centroid_stack(self):
        from cvilab.fcm import _distances

        rng = np.random.default_rng(2)
        x, centroids = rng.normal(size=(40, 5)), rng.normal(size=(3, 4, 5))
        public = cdist(centroids.reshape(-1, 5), x).reshape(3, 4, 40)
        assert _distances(centroids, x).tobytes() == public.tobytes()

    def test_column_mismatch_raises_value_error(self):
        a, b = np.zeros((2, 3)), np.zeros((2, 4))
        with pytest.raises(ValueError):
            cdist(a, b)
        with pytest.raises(ValueError):
            cvi_module.cdist(a, b)

    def test_missing_kernel_is_an_import_error(self, monkeypatch):
        from importlib.machinery import PathFinder

        import scipy

        real = PathFinder.find_spec

        def find_spec(name, path=None, target=None):
            return None if name == "scipy.spatial._distance_pybind" else real(name, path, target)

        cvi_module.euclidean_kernel.cache_clear()
        monkeypatch.setattr(PathFinder, "find_spec", find_spec)
        try:
            with pytest.raises(ImportError, match=f"scipy {scipy.__version__} .* in .*spatial"):
                cvi_module.cdist(np.zeros((1, 2)), np.zeros((1, 2)))
        finally:
            monkeypatch.undo()
            cvi_module.euclidean_kernel.cache_clear()
        assert cvi_module.cdist(np.zeros((1, 2)), np.ones((1, 2))).tolist() == [[math.sqrt(2)]]
