"""Fuzzy c-means fitting, FPC, cluster-count selection."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.spatial.distance import cdist

import oracles
from cvilab import (
    ClusterModel,
    FcmConfig,
    fit_fcm,
    fuzzy_partition_coefficient,
    select_cluster_count,
)
from cvilab import cvi as cvi_module
from cvilab.fcm import (
    _memberships_from_distances,
    model_from_dict,
    model_to_dict,
)
from cvilab.profiles import SynthSpec, generate_synthetic
from cvilab.rng import derive_stream, worker_count


def two_pairs():
    # Separation 100 vs intra-pair gap 1: the fuzzy pull of the far pair
    # on each centroid scales as ~0.06/L^3, far below the 1e-6 check.
    return np.array([[0.0, 0.0], [0.0, 1.0], [100.0, 0.0], [100.0, 1.0]])


def blob_data(seed, centers, size=25, spread=0.05):
    rng = np.random.default_rng(seed)
    return np.vstack([rng.normal(c, spread, size=(size, 2)) for c in centers])


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FcmConfig(k=1)
        with pytest.raises(ValueError):
            FcmConfig(k=2, fuzzifier=1.0)
        with pytest.raises(ValueError):
            FcmConfig(k=2, fuzzifier="guess")
        with pytest.raises(ValueError):
            FcmConfig(k=2, max_iter=0)
        with pytest.raises(ValueError):
            FcmConfig(k=2, tol=0.0)
        with pytest.raises(ValueError):
            FcmConfig(k=2, restarts=0)
        for spec in ("estimate", float("inf"), float("nan")):
            with pytest.raises(ValueError, match="fuzzifier must be finite and exceed 1"):
                FcmConfig(k=2, fuzzifier=spec)


class TestFitFcm:
    def test_two_pairs_analytic_fixed_point(self):
        model = fit_fcm(two_pairs(), FcmConfig(k=2, seed=0, tol=1e-9))
        order = np.argsort(model.centroids[:, 0])
        np.testing.assert_allclose(
            model.centroids[order], [[0.0, 0.5], [100.0, 0.5]], atol=1e-6
        )
        u = _memberships_from_distances(cdist(model.centroids, two_pairs()), 2.0)
        assert u.max(axis=0).min() > 0.99
        assert model.fpc > 0.99**2
        labels = model.labels
        assert labels[0] == labels[1] and labels[2] == labels[3]
        assert labels[0] != labels[2]
        assert model.k == 2

    def test_exact_duplicate_clusters_reach_zero_objective(self):
        points = np.array(
            [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]] * 3, dtype=float
        )
        model = fit_fcm(points, FcmConfig(k=3, seed=1))
        assert model.objective_trace[-1] == 0.0
        assert sorted(model.labels[:3]) == sorted(model.labels[3:6])

    def test_trace_matches_reference_loop(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(30, 2))
        x[:15] += 6
        config = FcmConfig(k=2, seed=3, restarts=1, max_iter=12, tol=1e-30)
        model = fit_fcm(x, config)
        init = x[derive_stream(3, 0).choice(30, size=2, replace=False)].copy()
        reference = oracles.naive_fcm_trace(x, init, 2.0, 12)
        assert len(model.objective_trace) == 12
        for got, want in zip(model.objective_trace, reference):
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    def test_objective_nonincreasing(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(40, 3)) + rng.integers(0, 3, size=(40, 1)) * 4
            model = fit_fcm(x, FcmConfig(k=3, seed=seed, restarts=2))
            diffs = np.diff(model.objective_trace)
            assert np.all(diffs <= 1e-12)

    def test_membership_rows_sum_to_one(self):
        x = blob_data(2, [(0, 0), (5, 5), (9, 0)])
        model = fit_fcm(x, FcmConfig(k=3, seed=2))
        u = _memberships_from_distances(cdist(model.centroids, x), 2.0)
        assert np.abs(u.sum(axis=0) - 1.0).max() < 1e-9
        assert u.min() >= 0.0
        assert 1.0 / 3 <= model.fpc <= 1.0

    def test_one_distance_matrix_per_iteration(self, monkeypatch):
        import cvilab.fcm as fcm_module

        rows: list[int] = []
        real_cdist = fcm_module.cdist

        def counting_cdist(a, b, *args, **kwargs):
            rows.append(a.shape[0])
            return real_cdist(a, b, *args, **kwargs)

        monkeypatch.setattr(fcm_module, "cdist", counting_cdist)
        x = blob_data(4, [(0, 0), (4, 1), (2, 5)], spread=0.6)
        for config in (
            FcmConfig(k=3, seed=2, restarts=4),
            FcmConfig(k=4, max_iter=3),
            FcmConfig(k=5, seed=7, restarts=6, tol=1e-4),
        ):
            rows.clear()
            fit_fcm(x, config)
            steps = [len(trace) for _, _, trace in reference_restarts(x, config)]
            # One call for the starts, then one per step for every restart
            # still moving; a restart that stops leaves the stack for good.
            assert rows == [config.k * config.restarts] + [
                config.k * sum(s > step for s in steps) for step in range(max(steps))
            ]
            assert rows == sorted(rows, reverse=True)

    def test_point_on_centroid_goes_crisp(self):
        x = blob_data(3, [(0, 0), (8, 0)])
        model = fit_fcm(x, FcmConfig(k=2, seed=1))
        probe = np.vstack([x, model.centroids[0]])
        refit = fit_fcm(probe, FcmConfig(k=2, seed=1, max_iter=1, restarts=1))
        # Any point exactly on a centroid must have a one-hot row.
        u = _memberships_from_distances(cdist(model.centroids, probe), 2.0)
        assert u[:, -1].tolist() == [1.0, 0.0]
        reference = reference_memberships(cdist(model.centroids, probe), 2.0)
        assert u.tobytes() == reference.tobytes()
        assert refit.labels.shape == (len(probe),)
        assert 0.5 <= refit.fpc <= 1.0

    def test_bit_determinism(self):
        x = blob_data(5, [(0, 0), (4, 4)])
        a = fit_fcm(x, FcmConfig(k=2, seed=9))
        b = fit_fcm(x, FcmConfig(k=2, seed=9))
        assert a.centroids.tobytes() == b.centroids.tobytes()
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.objective_trace, b.objective_trace)
        assert a.fpc == b.fpc

    def test_empty_cluster_flagged_on_duplicate_values(self):
        p, q = np.array([0.0, 0.0]), np.array([4.0, 1.0])
        x = np.array([p, p, p, p, q, q, q, q])
        model = fit_fcm(x, FcmConfig(k=3, seed=0, restarts=1, max_iter=50))
        assert model.empty_clusters
        for j in model.empty_clusters:
            assert not np.any(model.labels == j)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="more points"):
            fit_fcm(np.ones((2, 2)), FcmConfig(k=2))
        with pytest.raises(ValueError, match="non-finite"):
            bad = blob_data(0, [(0, 0), (5, 5)])
            bad[3, 1] = np.nan
            fit_fcm(bad, FcmConfig(k=2))
        with pytest.raises(ValueError, match="2-D"):
            fit_fcm(np.ones(8), FcmConfig(k=2))


class TestHardenAndFpc:
    def test_harden_tie_takes_lowest_index(self):
        # The centre of a symmetric square ends equidistant from both
        # centroids, so its memberships tie exactly.
        x = np.array([[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0], [0.0, 0.0]])
        model, u = assert_fit_equals_reference(x, FcmConfig(k=2, seed=3))
        assert u[4, 0] == u[4, 1]
        assert model.labels[4] == 0
        first_max = [row.tolist().index(row.max()) for row in u]
        assert model.labels.tolist() == first_max

    def test_crisp_partition_gives_exactly_one(self):
        u = np.eye(4)[np.array([0, 1, 2, 3, 0, 1])]
        assert fuzzy_partition_coefficient(u) == 1.0

    def test_uniform_partition_gives_exactly_one_over_k(self):
        u = np.full((12, 4), 0.25)
        assert fuzzy_partition_coefficient(u) == 0.25

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(4)
        u = rng.random((20, 5))
        u /= u.sum(axis=1, keepdims=True)
        got = fuzzy_partition_coefficient(u)
        assert abs(got - oracles.naive_fpc(u)) < 1e-12

    @given(
        n=st.integers(min_value=1, max_value=30),
        k=st.integers(min_value=2, max_value=8),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_fpc_bounds(self, n, k, seed):
        u = np.random.default_rng(seed).random((n, k)) + 1e-9
        u /= u.sum(axis=1, keepdims=True)
        fpc = fuzzy_partition_coefficient(u)
        assert 1.0 / k - 1e-12 <= fpc <= 1.0 + 1e-12

    def test_rejects_empty_or_flat(self):
        with pytest.raises(ValueError):
            fuzzy_partition_coefficient(np.ones(3))
        with pytest.raises(ValueError):
            fuzzy_partition_coefficient(np.empty((0, 2)))


def reference_memberships(dist, m):
    """Memberships of a (k, N) distance block: the power formula on every
    column, then each point on a centroid made crisp to the first one. The
    formula runs on the whole block, since numpy sums a (k, 1) block, or
    the column-major one a boolean column index gives, pairwise over k,
    not in the left fold the stack's columns get."""
    with np.errstate(divide="ignore", invalid="ignore"):
        w = (dist / dist.min(axis=0)) ** (-2.0 / (m - 1.0))
        u = w / w.sum(axis=0)
    for i in np.flatnonzero((dist == 0.0).any(axis=0)):
        u[:, i] = 0.0
        u[np.argmax(dist[:, i] == 0.0), i] = 1.0
    return u


def reference_restarts(x, config):
    """Each restart fitted on its own, in the (cluster, point) layout: its
    final centroids, (k, N) memberships and objective trace, clusters in
    the order they were started."""
    m, n = float(config.fuzzifier), x.shape[0]
    for restart in range(config.restarts):
        rng = derive_stream(config.seed, restart)
        centroids = x[rng.choice(n, size=config.k, replace=False)].copy()
        trace = []
        u = reference_memberships(cdist(centroids, x), m)
        for _ in range(config.max_iter):
            w = u**m
            weights = w.sum(axis=1, keepdims=True)
            with np.errstate(divide="ignore", invalid="ignore"):
                new_centroids = np.where(weights > 0, (w @ x) / weights, centroids)
            dist = cdist(new_centroids, x)
            trace.append(float((w * dist**2).sum()))
            shift = float(np.linalg.norm(new_centroids - centroids, axis=1).max())
            centroids = new_centroids
            if shift < config.tol:
                break
            u = reference_memberships(dist, m)
        yield centroids, u, trace


def reference_fit(x, config):
    """The restart with the lowest final objective, first one on a tie."""
    best = None
    for fit in reference_restarts(x, config):
        if best is None or fit[2][-1] < best[2][-1]:
            best = fit
    return best


def first_member_order(u):
    """Cluster order of (k, N) memberships, one point at a time: a point
    whose largest memberships all belong to clusters not yet placed places
    the first of them; clusters no point placed follow in their order."""
    order = []
    for column in u.T:
        tied = np.flatnonzero(column == column.max()).tolist()
        if not set(tied) & set(order):
            order.append(tied[0])
    return order + [j for j in range(len(u)) if j not in order]


def assert_fit_equals_reference(x, config):
    """The fit against the reference, bit for bit; also the reference's
    (N, k) memberships, clusters in the fit's order, which the model does
    not keep."""
    centroids, u, trace = reference_fit(x, config)
    order = first_member_order(u)
    u = np.ascontiguousarray(u[order].T)
    model = fit_fcm(x, config)
    assert model.centroids.tobytes() == centroids[order].tobytes()
    assert model.objective_trace.tobytes() == np.array(trace).tobytes()
    assert model.labels.tolist() == np.argmax(u, axis=1).tolist()
    assert np.float64(model.fpc).tobytes() == np.float64(fuzzy_partition_coefficient(u)).tobytes()
    return model, u


class TestOnePathMemberships:
    @given(
        n=st.integers(min_value=1, max_value=60),
        k=st.integers(min_value=1, max_value=10),
        zeros=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
        scale=st.sampled_from([1e-300, 1e-3, 1.0, 1e3, 1e300]),
        m=st.sampled_from([1.1, 1.5, 2.0, 3.0, 5.0]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_reference_bitwise(self, n, k, zeros, scale, m, seed):
        rng = np.random.default_rng(seed)
        restarts = int(rng.integers(1, 4))
        dist = rng.exponential(scale, size=(restarts, k, n))
        dist[rng.random(dist.shape) < zeros] = 0.0  # points with one, several or all zeros
        got = _memberships_from_distances(dist, m)
        for r in range(restarts):
            assert got[r].tobytes() == reference_memberships(dist[r], m).tobytes()

    def test_several_zeros_go_crisp_to_the_first(self):
        dist = np.array([[2.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 3.0, 0.0]])
        assert _memberships_from_distances(dist.T, 2.0).T.tolist() == [
            [0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]
        ]

    @pytest.mark.parametrize(
        "x, config",
        [
            (blob_data(14, [(0, 0), (4, 1), (2, 5)], size=30, spread=0.8),
             FcmConfig(k=4, seed=6, restarts=4)),
            (np.repeat(np.array([[0.0, 0.0], [3.0, 1.0], [1.0, 4.0]]), 4, axis=0),
             FcmConfig(k=2, seed=2, restarts=3)),
        ],
        ids=["blobs", "duplicates"],
    )
    def test_fit_equals_reference_bitwise(self, x, config):
        assert_fit_equals_reference(x, config)


class TestBatchedRestarts:
    """fit_fcm advances every restart in one (restart, cluster, point)
    stack; each must still get the bits of a fit on its own."""

    @given(
        k=st.integers(min_value=2, max_value=13),
        extra=st.integers(min_value=1, max_value=40),
        d=st.integers(min_value=1, max_value=4),
        restarts=st.integers(min_value=1, max_value=8),
        max_iter=st.integers(min_value=1, max_value=300),
        m=st.sampled_from([1.1, 1.5, 2.0, 3.0]),
        distinct=st.sampled_from([0, 1, 2, 3]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_fit_equals_reference_bitwise(self, k, extra, d, restarts, max_iter, m, distinct, seed):
        rng = np.random.default_rng(seed)
        n = k + extra
        x = rng.normal(size=(n, d)) + rng.integers(0, 3, size=(n, 1)) * 4.0
        if distinct:
            # Few distinct points: crisp rows and zero-weight clusters.
            x = x[rng.integers(0, min(n, distinct + k // 2), size=n)]
        config = FcmConfig(k=k, fuzzifier=m, max_iter=max_iter, seed=seed % 1000, restarts=restarts)
        assert_fit_equals_reference(x, config)

    def test_zero_weight_cluster_keeps_its_centroid(self):
        # Three starts on two distinct points: two centroids coincide, the
        # points on them go crisp to the first, and the second one, with
        # zero weight at every step, stays where it started.
        p, q = np.array([0.0, 0.0]), np.array([4.0, 1.0])
        x = np.array([p, p, p, p, q, q, q, q])
        config = FcmConfig(k=3, seed=0, restarts=4, max_iter=50)
        model, u = assert_fit_equals_reference(x, config)
        assert model.labels.tolist() == [0, 0, 0, 0, 1, 1, 1, 1]
        assert model.empty_clusters == (2,)
        assert model.centroids[:2].tolist() == [p.tolist(), q.tolist()]
        assert model.centroids[2].tolist() in (p.tolist(), q.tolist())
        assert not u[:, 2].any()

    def test_cdist_is_symmetric_bitwise(self):
        # The stack takes centroid-point distances from cdist(c, x); the
        # fuzzy Xie-Beni takes them from cdist(x, c).
        rng = np.random.default_rng(1)
        for d in range(1, 97):
            x = rng.normal(size=(int(rng.integers(1, 200)), d)) * 10.0 ** rng.integers(-6, 6)
            c = rng.normal(size=(int(rng.integers(1, 40)), d)) * 10.0 ** rng.integers(-6, 6)
            c[0] = x[-1]  # a zero distance
            assert cdist(c, x).tobytes() == np.ascontiguousarray(cdist(x, c).T).tobytes(), d


class TestFirstMemberNumbering:
    """A fitted model numbers its clusters by first member in point order,
    clusters with no member last, whichever restart wins."""

    def assert_numbered_by_first_member(self, x, config):
        # The centroid rows and the membership columns take one permutation
        # of the fitted clusters: the reference fit's, reordered.
        model, u = assert_fit_equals_reference(x, config)
        labels = model.labels.tolist()
        assert labels == np.argmax(u, axis=1).tolist()
        seen = list(dict.fromkeys(labels))
        assert seen == list(range(len(seen)))
        assert model.empty_clusters == tuple(range(len(seen), config.k))
        return model, u

    @pytest.mark.parametrize("k", range(2, 9))
    def test_synthetic_population(self, k):
        matrix, _ = generate_synthetic(SynthSpec(clusters=4, cluster_size=30, outliers=3, seed=0))
        self.assert_numbered_by_first_member(matrix.values, FcmConfig(k=k, seed=0))

    @given(
        k=st.integers(min_value=2, max_value=6),
        extra=st.integers(min_value=1, max_value=20),
        distinct=st.sampled_from([0, 2, 3]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_small_fits(self, k, extra, distinct, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(k + extra, 2)) + rng.integers(0, 3, size=(k + extra, 1)) * 4.0
        if distinct:
            # Few distinct points: clusters with no member.
            x = x[rng.integers(0, distinct, size=len(x))]
        self.assert_numbered_by_first_member(x, FcmConfig(k=k, seed=seed % 1000, restarts=3))

    def test_tied_first_point_takes_the_first_number(self):
        # The centre of a symmetric square, listed first, ties between both
        # clusters before either has a member.
        x = np.array([[0.0, 0.0], [-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]])
        model, u = self.assert_numbered_by_first_member(x, FcmConfig(k=2, seed=0))
        assert u[0, 0] == u[0, 1]
        assert model.labels.tolist() == [0, 0, 1, 0, 1]


class TestSelectClusterCount:
    def test_three_blobs_pick_three(self):
        x = blob_data(11, [(0, 0), (6, 0), (3, 5)])
        curve, model = select_cluster_count(x, FcmConfig(k=2, seed=1, restarts=4))
        assert model.k == 3
        assert [k for k, _ in curve] == list(range(2, 11))
        assert all(0.0 < v <= 1.0 + 1e-12 for _, v in curve)

    def test_curve_entry_reproducible_by_refit(self):
        x = blob_data(12, [(0, 0), (7, 1)], size=15)
        config = FcmConfig(k=2, seed=5, restarts=3)
        curve, model = select_cluster_count(x, config, k_range=(2, 4))
        refit = fit_fcm(
            x,
            FcmConfig(k=model.k, seed=5, restarts=3),
        )
        assert dict(curve)[model.k] == refit.fpc

    def test_returned_model_is_the_winning_fit_bitwise(self):
        x = blob_data(13, [(0, 0), (6, 0), (3, 5)], size=12)
        config = FcmConfig(k=2, seed=4, restarts=3)
        _, model = select_cluster_count(x, config, k_range=(2, 5))
        refit = fit_fcm(x, FcmConfig(k=model.k, seed=4, restarts=3))
        assert json.dumps(model_to_dict(model)) == json.dumps(model_to_dict(refit))
        for name in ("centroids", "labels", "objective_trace"):
            assert getattr(model, name).tobytes() == getattr(refit, name).tobytes()
        assert np.float64(model.fpc).tobytes() == np.float64(refit.fpc).tobytes()

    def test_tie_breaks_to_smaller_k(self, monkeypatch):
        import cvilab.fcm as fcm_module

        fakes = {2: 0.9, 3: 0.9, 4: 0.5}

        def fake_fit(x, cfg):
            return ClusterModel(
                centroids=np.zeros((cfg.k, 2)),
                fuzzifier=2.0,
                labels=np.zeros(8, dtype=int),
                objective_trace=np.array([1.0]),
                fpc=fakes[cfg.k],
            )

        monkeypatch.setattr(fcm_module, "fit_fcm", fake_fit)
        curve, model = fcm_module.select_cluster_count(
            np.zeros((8, 2)), FcmConfig(k=2), k_range=(2, 4)
        )
        assert curve == [(2, 0.9), (3, 0.9), (4, 0.5)]
        assert model.k == 2

    def test_range_validation(self):
        x = blob_data(0, [(0, 0), (5, 5)], size=4)
        with pytest.raises(ValueError):
            select_cluster_count(x, FcmConfig(k=2), k_range=(1, 5))
        with pytest.raises(ValueError):
            select_cluster_count(x, FcmConfig(k=2), k_range=(3, 2))
        with pytest.raises(ValueError, match="N-1"):
            select_cluster_count(x, FcmConfig(k=2), k_range=(2, 8))

    def test_kernel_loaded_before_the_fork(self, monkeypatch):
        """Every fit runs in a forked worker, so the parent holds the distance
        kernel only if it loaded it before forking: otherwise each worker
        would load it again, every time."""
        monkeypatch.setenv("CVILAB_THREADS", "2")
        if worker_count() < 2:
            pytest.skip("needs 2 CPUs to fork the fits")
        cvi_module.euclidean_kernel.cache_clear()
        select_cluster_count(blob_data(3, [(0, 0), (5, 5)], size=6), FcmConfig(k=2),
                             k_range=(2, 4))
        assert cvi_module.euclidean_kernel.cache_info().currsize == 1


class TestSerialization:
    def test_json_round_trip(self):
        x = blob_data(6, [(0, 0), (5, 5)], size=10)
        model = fit_fcm(x, FcmConfig(k=2, seed=4))
        back = model_from_dict(json.loads(json.dumps(model_to_dict(model))))
        assert np.array_equal(back.centroids, model.centroids)
        assert back.fpc == model.fpc
        assert back.fuzzifier == model.fuzzifier
        assert np.array_equal(back.labels, model.labels)
        assert np.array_equal(back.objective_trace, model.objective_trace)
        assert back.empty_clusters == model.empty_clusters

    def test_json_keys(self):
        x = blob_data(6, [(0, 0), (5, 5)], size=6)
        payload = model_to_dict(fit_fcm(x, FcmConfig(k=2, seed=4)))
        assert set(payload) == {
            "centroids", "m", "labels", "objective_trace", "empty_clusters", "fpc",
        }

    def test_record_without_empty_clusters_reads_back_equal(self):
        # empty_clusters is derived from the labels, so it is not read back.
        p, q = np.array([0.0, 0.0]), np.array([4.0, 1.0])
        x = np.array([p, p, p, p, q, q, q, q])
        payload = model_to_dict(fit_fcm(x, FcmConfig(k=3, seed=0, restarts=1, max_iter=50)))
        assert payload["empty_clusters"]
        bare = {key: value for key, value in payload.items() if key != "empty_clusters"}
        assert model_to_dict(model_from_dict(bare)) == payload
