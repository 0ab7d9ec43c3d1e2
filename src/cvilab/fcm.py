"""Fuzzy c-means clustering and partition-coefficient model selection.

Classic alternating optimization: memberships from centroid distances
(exponent 2/(m-1)), centroids as membership-weighted means, repeated until
the centroids stop moving. Fitting is seeded and restarted; the restart with
the lowest final objective wins. The fuzzy partition coefficient, maximized
over a candidate range, picks the cluster count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .cvi import cdist
from .rng import derive_stream, fork_map

K_MAX_DEFAULT = 10


@dataclass(frozen=True)
class FcmConfig:
    """Knobs for a fuzzy c-means fit; ``fuzzifier`` is a finite m > 1."""

    k: int
    fuzzifier: float = 2.0
    max_iter: int = 300
    tol: float = 1e-6
    seed: int = 0
    restarts: int = 10

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("k must be at least 2")
        if not (isinstance(self.fuzzifier, (int, float)) and 1.0 < self.fuzzifier < math.inf):
            raise ValueError("fuzzifier must be finite and exceed 1")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.restarts < 1:
            raise ValueError("restarts must be positive")


@dataclass(frozen=True)
class ClusterModel:
    """Result of one fuzzy c-means fit.

    ``memberships`` rows sum to 1; ``labels`` is their per-row argmax (ties
    to the lowest index); ``objective_trace`` holds the objective after each
    iteration of the winning restart. ``empty_clusters`` flags clusters that
    received no points under hardening.
    """

    centroids: np.ndarray        # (k, d)
    memberships: np.ndarray      # (N, k)
    fuzzifier: float
    labels: np.ndarray           # (N,)
    objective_trace: np.ndarray  # (iterations,)
    empty_clusters: tuple[int, ...] = ()

    @property
    def k(self) -> int:
        return self.centroids.shape[0]


def _cluster_sum(a: np.ndarray) -> np.ndarray:
    """Sum over the cluster axis of a (..., k, N) stack, in the order numpy
    sums a contiguous row of k values: a left fold below 8 terms, eight
    running sums combined pairwise up to 128, and halves beyond that.
    Each column's sum thus has the bits of the (N, k) layout's row sum."""
    k = a.shape[-2]
    if k < 8:
        total = a[..., 0, :].copy()
        for j in range(1, k):
            total += a[..., j, :]
        return total
    if k > 128:
        half = k // 2 - (k // 2) % 8
        return _cluster_sum(a[..., :half, :]) + _cluster_sum(a[..., half:, :])
    lanes = a[..., :8, :].copy()
    blocks = k - k % 8
    for j in range(8, blocks, 8):
        lanes += a[..., j:j + 8, :]
    r = [lanes[..., j, :] for j in range(8)]
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for j in range(blocks, k):
        total += a[..., j, :]
    return total


def _memberships_from_distances(dist: np.ndarray, m: float) -> np.ndarray:
    """Memberships of a (..., k, N) stack of centroid-point distances."""
    # Scale by each point's min distance so the power stays in [0, 1] and
    # cannot overflow. A point whose min is 0 divides by zero here and is
    # then overwritten: a point sitting on a centroid gets crisp
    # membership to the first such centroid (standard singularity fix).
    nearest = dist.min(axis=-2, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        u = dist / nearest
        u **= -2.0 / (m - 1.0)
        u /= _cluster_sum(u)[..., None, :]
    hit = nearest == 0.0
    if hit.any():
        zero = dist == 0.0
        u = np.where(hit, zero & (np.cumsum(zero, axis=-2) == 1), u)
    return u


def _centroids(x: np.ndarray, w: np.ndarray, previous: np.ndarray) -> np.ndarray:
    """Weighted means of the points, ``w`` = memberships**m; a cluster with
    zero total weight keeps its previous centroid."""
    weights = w.sum(axis=0)
    new = previous.copy()
    nonzero = weights > 0
    new[nonzero] = (w.T[nonzero] @ x) / weights[nonzero, None]
    return new


def _centroid_stack(x: np.ndarray, w: np.ndarray, previous: np.ndarray) -> np.ndarray:
    """``_centroids`` for each (k, N) block of an (R, k, N) weight stack, bit
    for bit. The weight sums fold over the points one at a time, as the
    (N, k) column sum does: summing the outer axis of an (N, R, k) copy does
    that. The numerators are one gemm per contiguous (k, N) block."""
    weights = np.ascontiguousarray(w.transpose(2, 0, 1)).sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        new = np.matmul(w, x) / weights[..., None]
    # A lone fit leaves a zero-weight cluster out of its gemm; so does this.
    for r in np.flatnonzero((weights == 0.0).any(axis=-1)):
        new[r] = _centroids(x, np.ascontiguousarray(w[r].T), previous[r])
    return new


def _distances(centroids: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(R, k, N) distances of an (R, k, d) centroid stack, in one ``cdist``."""
    r, k, d = centroids.shape
    return cdist(centroids.reshape(-1, d), x).reshape(r, k, x.shape[0])


def fit_fcm(data: np.ndarray, config: FcmConfig) -> ClusterModel:
    """Fit fuzzy c-means; best of ``config.restarts`` seeded starts.

    Each restart initializes centroids at k distinct data points drawn from
    its own child stream, so the fit is bit-deterministic for a given seed
    and config. Iteration stops when the largest centroid displacement
    drops below ``tol`` or ``max_iter`` is reached. The restarts advance
    together as one (restart, cluster, point) stack, and a restart leaves
    the stack when it stops; each keeps the arithmetic of a fit on its own.
    Each step computes the point-centroid distances of all restarts in one
    pass: they give this step's objectives and the next memberships.
    """
    x = np.ascontiguousarray(np.asarray(data, dtype=float))
    if x.ndim != 2:
        raise ValueError("expected a 2-D data matrix")
    n = x.shape[0]
    if n <= config.k:
        raise ValueError(f"need more points ({n}) than clusters ({config.k})")
    if not np.all(np.isfinite(x)):
        raise ValueError("data contains non-finite entries")
    m = float(config.fuzzifier)

    centroids = np.stack([
        x[derive_stream(config.seed, restart).choice(n, size=config.k, replace=False)]
        for restart in range(config.restarts)
    ])
    final_centroids = np.empty_like(centroids)
    final_u = np.empty((config.restarts, config.k, n))
    traces: list[list[float]] = [[] for _ in range(config.restarts)]
    live = np.arange(config.restarts)
    u = _memberships_from_distances(_distances(centroids, x), m)
    for _ in range(config.max_iter):
        w = u**m
        new_centroids = _centroid_stack(x, w, centroids)
        dist = _distances(new_centroids, x)
        # Each objective sums a contiguous (N, k) block, as a lone fit does.
        objective = np.ascontiguousarray((w * dist**2).transpose(0, 2, 1))
        for restart, value in zip(live, objective.reshape(len(live), -1).sum(axis=1)):
            traces[restart].append(float(value))
        shift = np.linalg.norm(new_centroids - centroids, axis=-1).max(axis=-1)
        centroids = new_centroids
        done = shift < config.tol
        if done.any():
            final_centroids[live[done]] = centroids[done]
            final_u[live[done]] = u[done]
            keep = ~done
            live, centroids, dist = live[keep], centroids[keep], dist[keep]
            if not len(live):
                break
        u = _memberships_from_distances(dist, m)
    else:
        # The restarts still in the stack stopped at max_iter.
        final_centroids[live] = centroids
        final_u[live] = u

    # The lowest final objective wins; min keeps the first of equals.
    best = min(range(config.restarts), key=lambda restart: traces[restart][-1])
    u = np.ascontiguousarray(final_u[best].T)
    labels = np.argmax(u, axis=1)
    empty = tuple(int(j) for j in range(config.k) if not np.any(labels == j))
    return ClusterModel(
        centroids=final_centroids[best].copy(),
        memberships=u,
        fuzzifier=m,
        labels=labels,
        objective_trace=np.array(traces[best], dtype=float),
        empty_clusters=empty,
    )


def fuzzy_partition_coefficient(u: np.ndarray) -> float:
    """Mean squared membership, 1/N * sum(u^2): 1 for a crisp partition,
    1/k for a maximally fuzzy one."""
    u = np.asarray(u, dtype=float)
    if u.ndim != 2 or u.size == 0:
        raise ValueError("membership matrix must be 2-D and nonempty")
    return float(np.square(u).sum() / u.shape[0])


def select_cluster_count(
    data: np.ndarray,
    config: FcmConfig,
    k_range: tuple[int, int] = (2, K_MAX_DEFAULT),
) -> tuple[int, list[tuple[int, float]], ClusterModel]:
    """Fit every k in ``k_range`` and pick the FPC argmax (ties: smaller k).

    Returns the chosen k, the (k, FPC) curve for export and the winning
    model, which the pipeline uses rather than fitting k* again. Refitting
    with ``k=k*`` reproduces the winning model bit for bit, so the curve
    alone is enough to resume from.
    """
    x = np.asarray(data, dtype=float)
    lo, hi = k_range
    if lo < 2 or hi < lo:
        raise ValueError(f"bad k range [{lo}, {hi}]")
    if hi > x.shape[0] - 1:
        raise ValueError(f"k range upper bound {hi} exceeds N-1 = {x.shape[0] - 1}")
    from scipy.spatial import distance  # noqa: F401 (loaded once, before the fork)
    ks = range(lo, hi + 1)
    # One k per worker task; fork_map hands out the costliest, largest k first.
    models = fork_map(lambda k: fit_fcm(x, replace(config, k=k)), ks)
    curve = [(k, fuzzy_partition_coefficient(model.memberships)) for k, model in zip(ks, models)]
    # max keeps the first of equal FPCs, so a tie goes to the smaller k.
    best = max(range(len(ks)), key=lambda i: curve[i][1])
    return ks[best], curve, models[best]


def model_to_dict(model: ClusterModel) -> dict:
    return {
        "centroids": model.centroids.tolist(),
        "U": model.memberships.tolist(),
        "m": model.fuzzifier,
        "labels": model.labels.tolist(),
        "objective_trace": model.objective_trace.tolist(),
        "empty_clusters": list(model.empty_clusters),
    }


def model_from_dict(payload: dict) -> ClusterModel:
    return ClusterModel(
        centroids=np.array(payload["centroids"], dtype=float),
        memberships=np.array(payload["U"], dtype=float),
        fuzzifier=float(payload["m"]),
        labels=np.array(payload["labels"], dtype=int),
        objective_trace=np.array(payload["objective_trace"], dtype=float),
        empty_clusters=tuple(payload.get("empty_clusters", ())),
    )
