"""Principal-component reduction with elbow-based dimension choice.

The sample covariance of the mean-centered profiles is eigendecomposed; the
eigenvalue fractions give the explained-variance ratios and their running
sum the CEVR curve. The working dimensionality d' is the point of maximum
perpendicular distance between the CEVR curve and its end-to-end chord.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .profiles import ProfileMatrix


class NoElbowError(ValueError):
    """CEVR curve has no bend (constant or perfectly linear)."""


class DegenerateDataError(ValueError):
    """Data with zero total variance cannot be decomposed into ratios."""


@dataclass(frozen=True)
class PcaModel:
    """Fitted principal-component basis.

    ``components`` holds the complete orthonormal basis (one eigenvector
    per row, eigenvalues descending); ``chosen_dprime`` marks how many of
    them the pipeline decided to keep.
    """

    mean: np.ndarray                      # (d,)
    components: np.ndarray                # (d, d)
    explained_variance_ratio: np.ndarray  # (d,), nonincreasing, sums to 1
    chosen_dprime: int

    def with_dprime(self, dprime: int) -> "PcaModel":
        if not 1 <= dprime <= self.components.shape[0]:
            raise ValueError(f"dprime {dprime} out of range 1..{self.components.shape[0]}")
        return replace(self, chosen_dprime=dprime)


def _as_array(data) -> np.ndarray:
    values = data.values if isinstance(data, ProfileMatrix) else np.asarray(data, dtype=float)
    if values.ndim != 2:
        raise ValueError("expected a 2-D data matrix")
    return values


def fit_pca(data) -> PcaModel:
    """Eigendecompose the sample covariance of the (centered) data.

    Components are sorted by decreasing eigenvalue and sign-fixed so each
    one's largest-magnitude coordinate is positive, making the fitted basis
    reproducible. Covariance uses the N-1 denominator.
    """
    x = _as_array(data)
    n, d = x.shape
    if n < 2:
        raise ValueError("need at least 2 rows to fit")
    if np.all(x == x[0]):
        raise DegenerateDataError("all rows identical: zero total variance")
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / (n - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(-eigvals, kind="stable")
    eigvals = np.clip(eigvals[order], 0.0, None)
    components = eigvecs[:, order].T
    total = float(eigvals.sum())
    if total <= 0.0:
        raise DegenerateDataError("all rows identical: zero total variance")
    for row in components:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    return PcaModel(
        mean=mean,
        components=components,
        explained_variance_ratio=eigvals / total,
        chosen_dprime=d,
    )


def project(model: PcaModel, data, dprime: int) -> np.ndarray:
    """Coordinates of the centered rows on the top ``dprime`` components."""
    x = _as_array(data)
    if not 1 <= dprime <= model.components.shape[0]:
        raise ValueError(f"dprime {dprime} out of range 1..{model.components.shape[0]}")
    return (x - model.mean) @ model.components[:dprime].T


def cumulative_explained_variance(model: PcaModel) -> np.ndarray:
    """Running sum of the explained-variance ratios (the CEVR curve)."""
    return np.cumsum(model.explained_variance_ratio)


def select_dimensions_elbow(cevr: np.ndarray) -> int:
    """Elbow of a CEVR curve: 1-based index of the point farthest from the
    chord joining the curve's endpoints; ties go to the smaller index.

    A flat or perfectly linear curve has no bend and is rejected.
    """
    c = np.asarray(cevr, dtype=float)
    if c.ndim != 1 or len(c) < 3:
        raise ValueError("need a 1-D CEVR curve of length >= 3")
    if np.any(np.diff(c) < -1e-12):
        raise ValueError("CEVR curve must be nondecreasing")
    d = len(c)
    # Perpendicular distance from (j, c[j]) to the chord (1, c[0])-(d, c[-1]),
    # with 1-based x coordinates.
    dy = c[-1] - c[0]
    dx = float(d - 1)
    j = np.arange(d, dtype=float)
    dist = np.abs(dy * j - dx * (c - c[0])) / np.hypot(dx, dy)
    if dist.max() < 1e-12:
        raise NoElbowError("no elbow: CEVR curve is linear")
    return int(np.argmax(dist)) + 1


def model_to_dict(model: PcaModel) -> dict:
    return {
        "mean": model.mean.tolist(),
        "components": model.components.tolist(),
        "explained_variance_ratio": model.explained_variance_ratio.tolist(),
        "chosen_dprime": model.chosen_dprime,
    }


def model_from_dict(payload: dict) -> PcaModel:
    return PcaModel(
        mean=np.array(payload["mean"], dtype=float),
        components=np.array(payload["components"], dtype=float),
        explained_variance_ratio=np.array(payload["explained_variance_ratio"], dtype=float),
        chosen_dprime=int(payload["chosen_dprime"]),
    )
