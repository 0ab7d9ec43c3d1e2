"""Principal-component fitting, projection, CEVR, elbow selection."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cvilab import (
    DegenerateDataError,
    NoElbowError,
    SynthSpec,
    cumulative_explained_variance,
    fit_pca,
    generate_synthetic,
    project,
    select_dimensions_elbow,
)
from cvilab.pca import model_from_dict, model_to_dict


def random_data(seed, n=40, d=6):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, d)) @ np.diag(np.linspace(3.0, 0.2, d))


class TestFitPca:
    def test_rank_one_line(self):
        t = np.linspace(-2, 2, 9)[:, None]
        data = t * np.array([[1.0, 2.0, -1.0]])
        model = fit_pca(data)
        assert model.explained_variance_ratio[0] == pytest.approx(1.0, abs=1e-9)
        assert np.all(model.explained_variance_ratio[1:] < 1e-9)

    def test_isotropic_gaussian_matches_jacobi_oracle(self):
        rng = np.random.default_rng(42)
        data = rng.normal(size=(10000, 2))
        model = fit_pca(data)
        assert np.abs(model.explained_variance_ratio - 0.5).max() < 0.05
        cov = np.cov(data, rowvar=False, ddof=1)
        vals, vecs = oracles.jacobi_eigh(cov)
        vals = np.clip(vals, 0.0, None)
        np.testing.assert_allclose(
            model.explained_variance_ratio, vals / vals.sum(), atol=1e-9
        )
        for i in range(2):
            assert abs(float(model.components[i] @ vecs[:, i])) == pytest.approx(
                1.0, abs=1e-9
            )

    def test_full_reconstruction(self):
        data = random_data(1)
        model = fit_pca(data)
        centered = data - model.mean
        rebuilt = (centered @ model.components.T) @ model.components
        assert np.abs(rebuilt - centered).max() < 1e-8

    def test_orthonormal_components(self):
        for seed in range(5):
            model = fit_pca(random_data(seed))
            gram = model.components @ model.components.T
            assert np.abs(gram - np.eye(gram.shape[0])).max() < 1e-9

    def test_ratios_nonincreasing_and_normalized(self):
        model = fit_pca(random_data(3))
        ratios = model.explained_variance_ratio
        assert np.all(np.diff(ratios) <= 1e-15)
        assert abs(float(ratios.sum()) - 1.0) < 1e-9
        assert np.all(ratios >= 0)

    def test_sign_convention_and_row_order_stability(self):
        data = random_data(7)
        model = fit_pca(data)
        for row in model.components:
            assert row[np.argmax(np.abs(row))] > 0
        shuffled = data[np.random.default_rng(0).permutation(len(data))]
        other = fit_pca(shuffled)
        np.testing.assert_allclose(
            other.explained_variance_ratio, model.explained_variance_ratio, atol=1e-9
        )
        dots = np.abs(np.sum(other.components * model.components, axis=1))
        np.testing.assert_allclose(dots, 1.0, atol=1e-8)

    def test_identical_rows_rejected(self):
        with pytest.raises(DegenerateDataError):
            fit_pca(np.ones((5, 3)))

    def test_single_row_rejected(self):
        with pytest.raises(ValueError):
            fit_pca(np.ones((1, 3)))

    def test_accepts_profile_matrix(self):
        matrix, _ = generate_synthetic(
            SynthSpec(clusters=3, cluster_size=5, spread=0.02, seed=1)
        )
        model = fit_pca(matrix)
        assert model.components.shape == (96, 96)
        gram = model.components @ model.components.T
        assert np.abs(gram - np.eye(96)).max() < 1e-9


class TestProject:
    def test_full_dimension_is_isometry(self):
        data = random_data(2, n=25)
        model = fit_pca(data)
        reduced = project(model, data, data.shape[1])
        orig = oracles.distance_matrix(data)
        new = oracles.distance_matrix(reduced)
        assert np.abs(orig - new).max() < 1e-8

    def test_mean_projects_to_zero(self):
        data = random_data(4)
        model = fit_pca(data)
        out = project(model, model.mean[None, :], 3)
        assert np.abs(out).max() < 1e-9

    def test_matches_dot_product_oracle(self):
        data = random_data(5, n=15, d=4)
        model = fit_pca(data)
        reduced = project(model, data, 2)
        for i in range(len(data)):
            for j in range(2):
                expected = sum(
                    (data[i, t] - model.mean[t]) * model.components[j, t]
                    for t in range(4)
                )
                assert abs(reduced[i, j] - expected) < 1e-10

    def test_dprime_bounds(self):
        model = fit_pca(random_data(6))
        with pytest.raises(ValueError):
            project(model, random_data(6), 0)
        with pytest.raises(ValueError):
            project(model, random_data(6), 7)
        with pytest.raises(ValueError):
            model.with_dprime(99)
        assert model.with_dprime(2).chosen_dprime == 2


class TestCevr:
    def test_running_sum(self):
        model = fit_pca(random_data(1)).__class__(
            mean=np.zeros(3),
            components=np.eye(3),
            explained_variance_ratio=np.array([0.7, 0.2, 0.1]),
            chosen_dprime=3,
        )
        np.testing.assert_allclose(
            cumulative_explained_variance(model), [0.7, 0.9, 1.0], atol=1e-15
        )

    def test_rank_one_curve_saturates(self):
        t = np.linspace(-1, 1, 7)[:, None]
        model = fit_pca(t * np.array([[2.0, 1.0, 0.5]]))
        cevr = cumulative_explained_variance(model)
        np.testing.assert_allclose(cevr, 1.0, atol=1e-9)

    def test_final_entry_is_one(self):
        for seed in range(4):
            cevr = cumulative_explained_variance(fit_pca(random_data(seed)))
            assert np.all(np.diff(cevr) >= -1e-12)
            assert abs(float(cevr[-1]) - 1.0) < 1e-9


class TestElbow:
    def test_reference_curve_picks_two(self):
        curve = np.array([0.50, 0.90, 0.95, 0.98, 1.00])
        assert select_dimensions_elbow(curve) == 2
        # Oracle: explicit distance from every point to the end chord.
        x1, y1, x2, y2 = 1.0, curve[0], 5.0, curve[-1]
        norm = math.hypot(x2 - x1, y2 - y1)
        dists = [
            abs((y2 - y1) * (j + 1) - (x2 - x1) * curve[j] + x2 * y1 - y2 * x1) / norm
            for j in range(5)
        ]
        assert max(range(5), key=lambda j: dists[j]) + 1 == 2

    def test_linear_ramp_has_no_elbow(self):
        with pytest.raises(NoElbowError):
            select_dimensions_elbow(np.linspace(0.2, 1.0, 6))

    def test_constant_curve_has_no_elbow(self):
        with pytest.raises(NoElbowError):
            select_dimensions_elbow(np.full(5, 0.8))

    def test_tie_takes_smaller_index(self):
        assert select_dimensions_elbow(np.array([0.0, 0.5, 0.5, 1.0])) == 2

    def test_decreasing_curve_rejected(self):
        with pytest.raises(ValueError):
            select_dimensions_elbow(np.array([0.9, 0.5, 1.0]))

    def test_short_curve_rejected(self):
        with pytest.raises(ValueError):
            select_dimensions_elbow(np.array([0.4, 1.0]))

    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        scale=st.floats(min_value=0.1, max_value=10.0),
        shift=st.floats(min_value=-5.0, max_value=5.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_argmax_invariant_under_affine_rescale(self, seed, scale, shift):
        rng = np.random.default_rng(seed)
        curve = np.cumsum(rng.random(8) + 0.05)
        curve /= curve[-1]
        # Skip near-ties: rescaling can flip an argmax that two points
        # share to within float noise.
        dy, dx = curve[-1] - curve[0], 7.0
        dist = np.abs(dy * np.arange(8) - dx * (curve - curve[0]))
        top = np.sort(dist)[-2:]
        if top[1] - top[0] < 1e-9 * max(top[1], 1.0):
            return
        base = select_dimensions_elbow(curve)
        assert select_dimensions_elbow(curve * scale + shift) == base


class TestSerialization:
    def test_json_round_trip_exact(self):
        """The record keeps the leading d' rows, and they come back bit for bit."""
        model = fit_pca(random_data(8)).with_dprime(3)
        back = model_from_dict(json.loads(json.dumps(model_to_dict(model))))
        assert np.array_equal(back.mean, model.mean)
        assert back.components.tobytes() == model.components[:3].tobytes()
        assert np.array_equal(
            back.explained_variance_ratio, model.explained_variance_ratio
        )
        assert back.chosen_dprime == 3
        data = random_data(9)
        for dprime in (2, 3):
            assert project(back, data, dprime).tobytes() == project(model, data, dprime).tobytes()

    def test_two_components_kept_for_the_scatter(self):
        record = model_to_dict(fit_pca(random_data(8)).with_dprime(1))
        assert len(record["components"]) == 2
        assert len(model_from_dict(record).components) == 2

    def test_fewer_components_than_used_refused(self):
        record = model_to_dict(fit_pca(random_data(8)).with_dprime(3))
        record["components"].pop()
        with pytest.raises(ValueError, match="2 components for dprime 3"):
            model_from_dict(record)

    def test_full_basis_record_still_loads(self):
        model = fit_pca(random_data(8)).with_dprime(3)
        record = {**model_to_dict(model), "components": model.components.tolist()}
        assert model_from_dict(record).components.tobytes() == model.components.tobytes()
